"""Work that no output reads is not done, and what is written keeps its bytes.

The CLI builds an output document only for ``--out``; a system document
holds arrays, written one at a time; the checks that read one residual of a
resolution family do not build the family; a reweighted system shares its
source's stacked matrix and geometry.
"""

import tracemalloc

import numpy as np
import pytest

from cgfusion import (
    Operator,
    PairSystem,
    assemble_frame_operator,
    atomic_decompose,
    bounded_below_analysis,
    bounded_resolution_check,
    canonical_resolution,
    decomposition_operator,
    dumps_canonical,
    pair_frame_operator,
    parsevalize,
    random_system,
    save_system,
    system_to_document,
    verify_resolution,
    weighted_gram,
)
from cgfusion.cli import main
from cgfusion.operators import symmetrize
from cgfusion.resolution import ResolutionFamily, _held
from cgfusion.sysio import operators_from_document, system_from_document
from cgfusion.systems import push_through

from conftest import lift_codomains, make_e2, make_system, make_wide_system


def write_inputs(tmp_path, system):
    path = tmp_path / "in.json"
    save_system(system, path)
    shift = tmp_path / "l.json"
    save_system(system, shift, operators={"L": Operator(0.5 * np.eye(system.ambient_dim))})
    return str(path), str(shift)


class TestDocumentsOnlyForOut:
    ARGV = {
        "parseval": ["parseval", "{in}"],
        "dual": ["dual", "{in}"],
        "transform": ["transform", "{shift}"],
    }

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_producing_command_forms_geometry_only_for_out(
        self, command, tmp_path, linalg_calls, capsys
    ):
        system = random_system(np.random.default_rng(71), 5, 6, ensure_frame=True)
        path, shift = write_inputs(tmp_path, system)
        argv = [arg.format(**{"in": path, "shift": shift}) for arg in self.ARGV[command]]
        linalg_calls.clear()
        assert main(argv) == 0
        assert linalg_calls["qr"] == 0
        # The written file is what needs the per-node bases: one QR per node.
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 0
        assert linalg_calls["qr"] == system.node_count
        capsys.readouterr()


class TestSystemDocuments:
    def test_documents_hold_arrays_that_round_trip(self):
        rng = np.random.default_rng(73)
        signed_zero = make_system(2, bases=[np.eye(2)], local_maps=[[[1.0, -0.0]]], weights=[1.0])
        flat = parsevalize(random_system(rng, 4, 5, ensure_frame=True))
        for system in (make_e2(), signed_zero, make_wide_system(rng, n=12, count=4), flat):
            k = Operator(np.diag(np.arange(system.ambient_dim) - 0.0))
            doc = system_to_document(system, operators={"K": k})
            matrices = [doc["operators"]["K"]]
            for node in doc["nodes"]:
                matrices += [node["subspace"], node["local_operator"]]
            for matrix in matrices:
                assert isinstance(matrix, np.ndarray) and matrix.dtype == float
                assert not (np.signbit(matrix) & (matrix == 0.0)).any()  # -0.0 is written 0
            back = system_from_document(doc)
            for got, want in zip(back.subspaces, system.subspaces, strict=True):
                np.testing.assert_array_equal(got.basis, want.basis)
            for got, want in zip(back.local_maps, system.local_maps, strict=True):
                np.testing.assert_array_equal(got.entries, want.entries)
            np.testing.assert_array_equal(operators_from_document(doc)["K"].entries, k.entries)
            again = system_to_document(back, operators={"K": k})
            assert dumps_canonical(again) == dumps_canonical(doc)

    def test_save_holds_the_text_about_twice(self, tmp_path):
        # The document's arrays (8 bytes a float, 0.26 texts here) and orjson's
        # output buffer, which doubles as it fills: 4 MiB for this 3.4 MB text,
        # 1.22 texts.  Joined text pieces took about 2.3, nested Python floats 3.1.
        system = make_wide_system(np.random.default_rng(5), n=120, count=8)
        path = tmp_path / "wide.json"
        tracemalloc.start()
        try:
            save_system(system, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 3 * 2**20
        assert peak <= 1.5 * size


def random_pairs(rng, count=40):
    """Pairs of frames on shared nodes: reweighted, or pushed through a random T."""
    for i in range(count):
        chi = random_system(rng, int(rng.integers(2, 7)), int(rng.integers(1, 6)),
                            ensure_frame=True)
        if i % 2:
            xi = chi.with_weights(chi.weights * np.exp(rng.uniform(-1.0, 1.0, chi.node_count)))
        else:
            n = chi.ambient_dim
            xi = push_through(chi, np.eye(n) + 0.3 * rng.standard_normal((n, n)))
        yield PairSystem(chi, xi)


def square_factor_systems(rng, count=10):
    """Nodes measuring R^n through projections P_i, with factors P_i C_i P_i (C_i symmetric)."""
    for _ in range(count):
        n, nodes = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        projections, factors = [], []
        for _ in range(nodes):
            q = np.linalg.qr(rng.standard_normal((n, n)))[0][:, : int(rng.integers(1, n + 1))]
            c = rng.standard_normal((n, n))
            projections.append(q @ q.T)
            factors.append(projections[-1] @ (c + c.T) @ projections[-1])
        system = make_system(n, [np.eye(n)] * nodes, projections,
                             rng.uniform(0.5, 2.0, nodes), masses=rng.uniform(0.5, 2.0, nodes))
        yield system, factors


class TestIdentityResidualsWithoutFamilies:
    """The residual of the family each check used to build, and of its dense W_i."""

    def test_bounded_below_analysis(self):
        checked = 0
        for pair in random_pairs(np.random.default_rng(79)):
            report = bounded_below_analysis(pair)
            if "identity_residual" not in report.residuals:
                continue
            chi, xi = pair.chi, pair.xi
            mixed = pair_frame_operator(pair).entries
            family = _held(chi.nodes, xi.stacked, chi.stacked,
                           chi.per_row(chi.weights * xi.weights), chi._bounds,
                           np.linalg.inv(mixed), mixed)
            expected = verify_resolution(family).residuals["identity_residual"]
            assert report.residuals["identity_residual"] == expected
            dense = ResolutionFamily(chi.ambient_dim, chi.nodes, family.operators)
            assert abs(verify_resolution(dense).residuals["identity_residual"] - expected) <= 1e-10
            checked += 1
        assert checked >= 30

    def test_bounded_resolution_check(self):
        e2_lifted = lift_codomains(make_e2())
        canonical = [op.entries / float(w) ** 2
                     for op, w in zip(canonical_resolution(e2_lifted).operators, e2_lifted.weights)]
        cases = list(square_factor_systems(np.random.default_rng(83)))
        cases += [(e2_lifted, canonical), (e2_lifted, [np.zeros((2, 2))] * 2)]
        for system, factors in cases:
            report = bounded_resolution_check(system, factors)
            stacked = np.concatenate(factors)
            weighted = stacked * system.per_row(system.nodes.mu * system.weights**2)[:, None]
            family = _held(system.nodes, system.stacked, stacked,
                           system.per_row(system.weights**2), system._bounds,
                           np.eye(system.ambient_dim), system.stacked.T @ weighted)
            expected = verify_resolution(family).residuals["identity_residual"]
            assert report.residuals["identity_residual"] == expected


class TestAtomicDecompose:
    def test_field_is_the_block_maps_applied_with_one_svd(self, linalg_calls):
        rng = np.random.default_rng(89)
        for _ in range(10):
            system = random_system(rng, 5, 4, ensure_frame=True)
            k = Operator(rng.standard_normal((5, 5)))
            f = rng.standard_normal(5)
            blocks = decomposition_operator(system, k).block_maps
            linalg_calls.clear()
            phi, c = atomic_decompose(system, k, f)
            assert linalg_calls == {"svd": 1}  # the norm c; no range defect
            for got, block in zip(phi.blocks, blocks, strict=True):
                np.testing.assert_allclose(got, block.apply(f), rtol=0.0, atol=1e-12)
            assert c == decomposition_operator(system, k).c


class TestWithWeights:
    def setup_method(self):
        self.source = random_system(np.random.default_rng(1), 6, 9, ensure_frame=True)
        self.weights = 1.1 * self.source.weights

    def test_reweighting_a_parseval_system_makes_no_qr(self, linalg_calls):
        flat = parsevalize(self.source)
        linalg_calls.clear()
        reweighted = flat.with_weights(self.weights)
        assemble_frame_operator(reweighted)
        assert linalg_calls["qr"] == 0

    def test_frame_operator_reads_the_parseval_stack(self):
        flat = parsevalize(self.source)
        reweighted = flat.with_weights(self.weights)
        assert reweighted.stacked is flat.stacked
        expected = symmetrize(weighted_gram(flat, flat.nodes.mu * self.weights**2))
        np.testing.assert_array_equal(assemble_frame_operator(reweighted).entries, expected)

    def test_writes_the_bytes_of_a_formed_geometry(self):
        lazy = parsevalize(self.source).with_weights(self.weights)
        flat = parsevalize(self.source)
        flat.subspaces  # formed before reweighting, then shared
        formed = flat.with_weights(self.weights)
        assert formed.subspaces is flat.subspaces
        assert (dumps_canonical(system_to_document(lazy))
                == dumps_canonical(system_to_document(formed)))

    def test_weights_are_checked_as_at_construction(self):
        with pytest.raises(ValueError, match="finite and positive"):
            self.source.with_weights(-self.weights)
        with pytest.raises(ValueError, match="expected 9 weights"):
            self.source.with_weights(self.weights[:3])
        reweighted = self.source.with_weights(list(self.weights))
        assert not reweighted.weights.flags.writeable
        assert reweighted.nodes is self.source.nodes
