import json
import struct

import numpy as np
import orjson
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cgfusion import Operator, SystemFileError, load_operator, load_system, save_system
from cgfusion.report import _save_canonical, dumps_canonical
from cgfusion.sysio import (
    has_secondary_weights,
    load_document,
    operators_from_document,
    system_from_document,
    system_to_document,
)

import oracles
from conftest import (
    diagonal_defect_basis,
    make_e2,
    make_system,
    make_wide_system,
    off_diagonal_defect_basis,
)

#: Doubles at the edges of the decimal forms: subnormals, signed zeros, the
#: largest double, and the 1e16-1e17 band where %.17g and the shortest form
#: switch to an exponent.
EDGE_FLOATS = (5e-324, -5e-324, 1.1e-308, 2.2250738585072014e-308, 0.0, -0.0,
               1.7976931348623157e308, -1e300, 1e16, 9.999999999999998e16, 1e17,
               123456789012345680.0, 0.1, 1.0 / 3.0)
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
scalars = finite_floats | st.integers() | st.booleans() | st.none() | st.text(max_size=5)
documents = st.recursive(
    scalars | st.lists(finite_floats, min_size=1, max_size=40),
    lambda children: (st.lists(children, max_size=6)
                      | st.lists(children, max_size=6).map(tuple)
                      | st.dictionaries(st.text(max_size=5), children, max_size=5)),
    max_leaves=60,
)


E2_DOC = {
    "version": "1",
    "ambient_dim": 2,
    "nodes": [
        {"id": "n0", "mu": 1.0, "v": 2.0, "subspace": [[1.0, 0.0]], "local_operator": [[1.0]]},
        {"id": "n1", "mu": 1.0, "v": 1.0, "subspace": [[0.0, 1.0]], "local_operator": [[1.0]]},
    ],
}


def write_doc(tmp_path, doc, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestLoadSystem:
    def test_e2_round_trip(self, tmp_path, e2):
        path = write_doc(tmp_path, E2_DOC)
        system = load_system(path)
        np.testing.assert_array_equal(system.weights, e2.weights)
        np.testing.assert_array_equal(system.nodes.mu, e2.nodes.mu)
        for a, b in zip(system.effective_maps, e2.effective_maps):
            np.testing.assert_array_equal(a, b)

    def test_zero_mass_rejected_naming_node(self, tmp_path):
        doc = json.loads(json.dumps(E2_DOC))
        doc["nodes"][1]["mu"] = 0.0
        path = write_doc(tmp_path, doc)
        with pytest.raises(SystemFileError, match="n1"):
            load_system(path)

    def test_coarse_basis_rejected(self, tmp_path):
        # gram defect ~1e-3, far beyond the 1e-6 repair threshold
        doc = json.loads(json.dumps(E2_DOC))
        doc["nodes"][0]["subspace"] = [[1.0005, 0.0]]
        path = write_doc(tmp_path, doc)
        with pytest.raises(SystemFileError, match="orthonormality"):
            load_system(path)

    def test_small_defect_repaired(self, tmp_path):
        # gram defect 1e-8 sits between the strict and repair thresholds
        doc = json.loads(json.dumps(E2_DOC))
        doc["nodes"][0]["subspace"] = [[1.0, 1e-4]]
        path = write_doc(tmp_path, doc)
        system = load_system(path)
        basis = system.subspaces[0].basis
        np.testing.assert_allclose(basis.T @ basis, np.eye(1), atol=1e-14)
        assert abs(np.linalg.norm(basis[:, 0]) - 1.0) <= 1e-14

    def test_small_defect_repair_keeps_column_order_and_signs(self, tmp_path):
        # nearly equal singular values: any rotation of the span would pass
        # an orthonormality check, but the local operator needs these columns
        rows = [[0.0, -1.0, 1e-8], [1.0, 1e-8, 0.0]]
        doc = {"version": "1", "ambient_dim": 3, "nodes": [
            {"id": "n0", "mu": 1.0, "v": 1.0, "subspace": rows,
             "local_operator": [[1.0, 0.0], [0.0, 2.0]]},
        ]}
        system = load_system(write_doc(tmp_path, doc))
        basis = system.subspaces[0].basis
        np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-14)
        assert np.abs(basis - np.array(rows).T).max() <= 1e-6

    @pytest.mark.parametrize("make", [diagonal_defect_basis, off_diagonal_defect_basis])
    def test_defect_past_the_strict_tolerance_repaired(self, make):
        # 2e-10 on the diagonal or off it is repaired; 5e-11 loads unchanged.
        for d, repaired in ((2e-10, True), (5e-11, False)):
            basis = make(d)
            doc = {"version": "1", "ambient_dim": 4, "nodes": [
                {"id": "n0", "mu": 1.0, "v": 1.0, "subspace": basis.T.tolist(),
                 "local_operator": np.eye(3).tolist()},
            ]}
            loaded = system_from_document(doc).subspaces[0].basis
            assert (loaded != basis).any() == repaired
            assert np.abs(loaded.T @ loaded - np.eye(3)).max() <= (1e-15 if repaired else 1e-10)

    def test_missing_version_rejected(self, tmp_path):
        doc = {"ambient_dim": 2, "nodes": E2_DOC["nodes"]}
        path = write_doc(tmp_path, doc)
        with pytest.raises(SystemFileError, match="version"):
            load_system(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SystemFileError, match="line"):
            load_system(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemFileError, match="not found"):
            load_system(tmp_path / "absent.json")

    def test_local_operator_column_mismatch(self, tmp_path):
        doc = json.loads(json.dumps(E2_DOC))
        doc["nodes"][0]["local_operator"] = [[1.0, 0.0]]
        path = write_doc(tmp_path, doc)
        with pytest.raises(SystemFileError, match="local_operator"):
            load_system(path)


class TestSaveLoad:
    def test_save_then_load_is_bit_exact(self, tmp_path, e2):
        path = tmp_path / "e2.json"
        save_system(e2, path)
        loaded = load_system(path)
        np.testing.assert_array_equal(loaded.weights, e2.weights)
        np.testing.assert_array_equal(loaded.nodes.mu, e2.nodes.mu)
        for a, b in zip(loaded.subspaces, e2.subspaces):
            np.testing.assert_array_equal(a.basis, b.basis)
        for a, b in zip(loaded.local_maps, e2.local_maps):
            np.testing.assert_array_equal(a.entries, b.entries)

    def test_awkward_floats_survive(self, tmp_path):
        system = make_e2().with_weights(np.array([0.1, np.pi]))
        path = tmp_path / "pi.json"
        save_system(system, path)
        loaded = load_system(path)
        np.testing.assert_array_equal(loaded.weights, system.weights)

    def test_save_is_canonical(self, tmp_path, e2):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_system(e2, a)
        save_system(e2, b)
        assert a.read_bytes() == b.read_bytes()

    def test_load_save_numeric_identity(self, tmp_path):
        path = write_doc(tmp_path, E2_DOC)
        system = load_system(path)
        doc = system_to_document(system)
        reloaded = system_from_document(doc)
        for a, b in zip(reloaded.effective_maps, system.effective_maps):
            np.testing.assert_array_equal(a, b)

    def test_save_load_preserves_raw_numbers(self, tmp_path):
        # every numeric field survives a load/save cycle bit-exactly
        doc = {
            "version": "1",
            "ambient_dim": 2,
            "nodes": [
                {"id": "a", "mu": 0.1, "v": 1.0 / 3.0,
                 "subspace": [[1.0, 0.0]], "local_operator": [[2.0 / 3.0]]},
                {"id": "b", "mu": 2.718281828459045, "v": 3.141592653589793,
                 "subspace": [[0.0, 1.0]], "local_operator": [[1e-5]]},
            ],
        }
        path = write_doc(tmp_path, doc)
        system = load_system(path)
        out = tmp_path / "resaved.json"
        save_system(system, out)
        resaved = json.loads(out.read_text())
        for orig, new in zip(doc["nodes"], resaved["nodes"]):
            assert new["mu"] == orig["mu"]
            assert new["v"] == orig["v"]
            assert new["subspace"] == orig["subspace"]
            assert new["local_operator"] == orig["local_operator"]

    def test_negative_zero_writes_as_zero(self, tmp_path):
        paths = []
        for zero in (0.0, -0.0):
            system = make_system(2, [[[1.0], [zero]]], [[[1.0], [zero]]], [1.0])
            paths.append(tmp_path / f"{zero}.json")
            save_system(system, paths[-1], operators={"K": Operator([[zero, 1.0], [1.0, zero]])})
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert b"-0" not in paths[1].read_bytes()

    def test_secondary_weights_round_trip(self, tmp_path, e2):
        path = tmp_path / "pair.json"
        save_system(e2, path, secondary_weights=[1.0, 1.0])
        doc = load_document(path)
        assert has_secondary_weights(doc)
        xi = system_from_document(doc, str(path), use_secondary=True)
        np.testing.assert_array_equal(xi.weights, [1.0, 1.0])


#: A valid one-node file; each test below puts a non-number in one field.
BOOL_DOC = {
    "version": "1",
    "ambient_dim": 1,
    "nodes": [{"id": "a", "mu": 1.0, "v": 1.0, "s": 1.0,
               "subspace": [[1.0]], "local_operator": [[1.0]]}],
}


class TestBooleansAreNotNumbers:
    """JSON true is a Python int; the loader must not read it as 1."""

    def test_ambient_dim(self):
        doc = json.loads(json.dumps(BOOL_DOC))
        doc["ambient_dim"] = True
        with pytest.raises(SystemFileError, match="ambient_dim must be a positive integer"):
            system_from_document(doc)

    @pytest.mark.parametrize("field", ["mu", "v", "s"])
    def test_node_weights(self, field):
        doc = json.loads(json.dumps(BOOL_DOC))
        doc["nodes"][0][field] = True
        with pytest.raises(SystemFileError, match=f"node 'a': {field} must be a number > 0"):
            system_from_document(doc)

    def test_has_secondary_weights_agrees(self):
        doc = json.loads(json.dumps(BOOL_DOC))
        assert has_secondary_weights(doc)
        doc["nodes"][0]["s"] = True
        assert not has_secondary_weights(doc)

    @pytest.mark.parametrize("value", [{}, None, "x"])
    def test_subspace_must_be_a_list(self, value):
        doc = json.loads(json.dumps(BOOL_DOC))
        doc["nodes"][0]["subspace"] = value
        with pytest.raises(SystemFileError, match="node 'a': subspace: expected a list"):
            system_from_document(doc)

    def test_absent_subspace_is_trivial(self):
        doc = json.loads(json.dumps(BOOL_DOC))
        del doc["nodes"][0]["subspace"]
        doc["nodes"][0]["local_operator"] = []
        assert system_from_document(doc).subspaces[0].dim == 0


class TestOperators:
    def test_named_operator_table(self, tmp_path, e2):
        path = tmp_path / "with_ops.json"
        save_system(e2, path, operators={"K": Operator.identity(2)})
        ops = operators_from_document(load_document(path))
        np.testing.assert_array_equal(ops["K"].entries, np.eye(2))

    def test_bare_matrix_file(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text("[[1.0, 0.0], [0.0, 2.0]]", encoding="utf-8")
        op = load_operator(path)
        np.testing.assert_array_equal(op.entries, np.diag([1.0, 2.0]))

    def test_missing_operator_file(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(SystemFileError) as caught:
            load_operator(path)
        assert str(caught.value) == f"{path}: file not found"

    def test_invalid_operator_json(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text("[[1.0, 0.0],\n [0.0 2.0]]", encoding="utf-8")
        with pytest.raises(SystemFileError) as caught:
            load_operator(path)
        assert str(caught.value) == f"{path}: invalid JSON at line 2: Expecting ',' delimiter"

    def test_wrapped_matrix_file(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"version": "1", "matrix": [[0.0, 1.0], [1.0, 0.0]]}))
        op = load_operator(path)
        assert op.entries[0, 1] == 1.0

    def test_wrapped_matrix_without_version(self, tmp_path):
        path = write_doc(tmp_path, {"matrix": [[2.0]]}, "k.json")
        np.testing.assert_array_equal(load_operator(path).entries, [[2.0]])

    def test_wrapped_file_without_matrix(self, tmp_path):
        path = write_doc(tmp_path, {"version": "1", "K": [[1.0]]}, "k.json")
        with pytest.raises(SystemFileError) as caught:
            load_operator(path)
        assert str(caught.value) == f"{path}: no 'matrix' entry"

    def test_wrapped_file_with_other_version(self, tmp_path):
        path = write_doc(tmp_path, {"version": "7", "matrix": [[1.0]]}, "k.json")
        with pytest.raises(SystemFileError) as caught:
            load_operator(path)
        assert str(caught.value) == f"{path}: unsupported schema version '7' (expected '1')"
        system_path = write_doc(tmp_path, dict(E2_DOC, version="7"))
        with pytest.raises(SystemFileError) as from_system:
            load_system(system_path)
        assert str(from_system.value) == str(caught.value).replace(str(path), str(system_path))


def typed(value):
    """``value`` with each leaf tagged by its type, and each float by its bits (-0.0 kept)."""
    if isinstance(value, dict):
        return {key: typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [typed(item) for item in value]
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def as_lists(value):
    """``value`` with tuples and arrays as lists, as JSON text loads them."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_lists(item) for item in value]
    return value


def fits_64_bits(doc) -> bool:
    """Every int of ``doc`` is in [-2**63, 2**64), the range orjson writes."""
    return all(-2**63 <= x < 2**64 for x in oracles.number_leaves(doc) if isinstance(x, int))


def as_orjson_loads(value):
    """``json.loads``'s value with the documented difference: integers outside
    [-2**63, 2**64) load as the nearest double."""
    if isinstance(value, dict):
        return {key: as_orjson_loads(item) for key, item in value.items()}
    if isinstance(value, list):
        return [as_orjson_loads(item) for item in value]
    if isinstance(value, int) and not isinstance(value, bool) and not -2**63 <= value < 2**64:
        try:
            return float(value)
        except OverflowError:
            reject()  # orjson rejects the whole text, and the stdlib parser keeps every int
    return value


def system_text(subspace_row: str, ambient_dim: str = "2") -> bytes:
    return (f'{{"version": "1", "ambient_dim": {ambient_dim}, "nodes": [{{"id": "a", "mu": 1,'
            f' "v": 1, "subspace": [[{subspace_row}]], "local_operator": [[1]]}}]}}').encode()


class TestParsers:
    """orjson parses files; the stdlib parser takes only what orjson rejects."""

    @settings(max_examples=150)
    @given(documents, st.sampled_from([dumps_canonical, json.dumps]))
    def test_load_document_agrees_with_stdlib(self, tmp_path_factory, doc, dumps):
        if dumps is dumps_canonical and not fits_64_bits(doc):
            reject()  # not writable; json.dumps covers such documents
        text = dumps({"version": "1", "data": doc})
        path = tmp_path_factory.mktemp("doc") / "doc.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        assert typed(load_document(path)) == typed(as_orjson_loads(json.loads(text)))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400",
                                         pytest.param("1" + "0" * 400, id="int-1e400")])
    def test_non_finite_entry_named(self, tmp_path, literal):
        path = tmp_path / "s.json"
        path.write_bytes(system_text(f"{literal}, 0"))
        with pytest.raises(SystemFileError) as caught:
            load_system(path)
        assert str(caught.value) == f"{path}: node 'a': subspace: entries must be finite"

    def test_byte_order_mark_is_invalid_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_bytes(b"\xef\xbb\xbf" + system_text("1, 0"))
        with pytest.raises(SystemFileError) as caught:
            load_system(path)
        assert str(caught.value) == (
            f"{path}: invalid JSON at line 1: Unexpected UTF-8 BOM (decode using utf-8-sig)")

    @pytest.mark.parametrize("literal", ["12345678901234567890", "98765432109876543211",
                                         "-36893488147419103233"])
    def test_twenty_digit_entry_is_the_nearest_double(self, tmp_path, literal):
        path = tmp_path / "k.json"
        path.write_text(f"[[{literal}]]", encoding="utf-8")
        assert load_operator(path).entries[0, 0] == float(int(literal))

    @pytest.mark.parametrize("value, loaded", [
        (-2**63, -2**63), (2**64 - 1, 2**64 - 1),
        (-2**63 - 1, -9.223372036854775808e18), (2**64, 1.8446744073709552e19),
    ])
    def test_integers_past_64_bits_load_as_doubles(self, tmp_path, value, loaded):
        path = tmp_path / "s.json"
        path.write_text(f'{{"version": "1", "n": {value}}}', encoding="utf-8")
        assert typed(load_document(path)["n"]) == typed(loaded)

    def test_ambient_dim_past_64_bits_is_a_double(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_bytes(system_text("1, 0", ambient_dim=str(2**64)))
        with pytest.raises(SystemFileError) as caught:
            load_system(path)
        assert str(caught.value) == (
            f"{path}: ambient_dim must be a positive integer, got 1.8446744073709552e+19")

    def test_lone_surrogate_loads(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"version": "1", "note": "\\ud800"}', encoding="utf-8")
        assert load_document(path)["note"] == "\ud800"

    def test_line_number_counts_carriage_returns(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_bytes(b"[[1.0, 0.0],\r [0.0 2.0]]")
        with pytest.raises(SystemFileError) as caught:
            load_operator(path)
        assert str(caught.value) == f"{path}: invalid JSON at line 2: Expecting ',' delimiter"


@pytest.mark.parametrize("load", [load_document, load_operator])
class TestUnreadableFiles:
    def test_not_utf8(self, tmp_path, load):
        path = tmp_path / "s.json"
        path.write_bytes(b'{"version": "1", "id": "\xff"}')
        with pytest.raises(SystemFileError) as caught:
            load(path)
        assert str(caught.value) == f"{path}: not UTF-8 text: byte 24: invalid start byte"

    def test_directory(self, tmp_path, load):
        with pytest.raises(SystemFileError) as caught:
            load(tmp_path)
        assert str(caught.value) == f"{tmp_path}: cannot read: Is a directory"

    def test_nested_too_deeply(self, tmp_path, load):
        path = tmp_path / "s.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        with pytest.raises(SystemFileError) as caught:
            load(path)
        assert str(caught.value) == f"{path}: invalid JSON: nested too deeply"


def assert_written_as_plain_writer(doc):
    """The canonical bytes of ``doc`` have the plain writer's layout, load back to
    ``doc`` exactly (types, bits and signed zeros) and write each float shortest."""
    text = dumps_canonical(doc).decode("utf-8")
    assert oracles.masked_numbers(text) == oracles.masked_numbers(oracles.canonical_text(doc))
    assert typed(json.loads(text)) == typed(as_lists(doc))
    oracles.assert_shortest_floats(text, doc)


class TestCanonicalJson:
    def test_seventeen_digit_floats_round_trip(self):
        values = [0.1, np.pi, 1.0, 2.0 / 3.0, 1e-300, -0.0, 123456789.123456789, 1e-05, 1e22]
        text = dumps_canonical(values)
        assert text == (b"[\n  0.1,\n  3.141592653589793,\n  1.0,\n  0.6666666666666666,\n"
                        b"  1e-300,\n  -0.0,\n  123456789.12345679,\n  0.00001,\n  1e22\n]\n")
        assert typed(json.loads(text)) == typed(values)

    def test_sorted_keys(self):
        text = dumps_canonical({"b": 1, "a": 2})
        assert text.index(b'"a"') < text.index(b'"b"')

    def test_non_finite_rejected(self):
        for bad in (float("nan"), np.float64("inf"), np.float32("nan")):
            with pytest.raises(ValueError):
                dumps_canonical({"x": bad})

    @settings(max_examples=150)
    @given(documents)
    def test_matches_plain_writer(self, doc):
        if fits_64_bits(doc):
            assert_written_as_plain_writer(doc)
        else:
            with pytest.raises(orjson.JSONEncodeError, match="Integer exceeds 64-bit range"):
                dumps_canonical(doc)

    def test_wide_system_document_matches_plain_writer(self):
        system = make_wide_system(np.random.default_rng(3))
        doc = system_to_document(
            system,
            secondary_weights=np.linspace(0.5, 1.5, system.node_count),
            operators={"K": Operator(np.random.default_rng(4).standard_normal((40, 40)))},
        )
        assert_written_as_plain_writer(doc)

    def test_failed_write_keeps_the_existing_file(self, tmp_path):
        # The error comes after many rows of the document.
        path = tmp_path / "out.json"
        path.write_text("old", encoding="utf-8")
        doc = {"rows": [[0.5, 1.5]] * 500 + [[float("nan")]]}
        with pytest.raises(ValueError):
            _save_canonical(doc, path)
        assert path.read_text(encoding="utf-8") == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_in_long_row_named(self, bad):
        row = [0.25] * 30
        row[17] = bad
        message = f"non-finite value cannot be serialized: {bad!r}"
        for written in (row, np.array([row])):
            with pytest.raises(ValueError) as caught:
                dumps_canonical({"nodes": [{"subspace": [written]}]})
            assert str(caught.value) == message

    def test_row_whose_sum_overflows_is_written(self):
        assert_written_as_plain_writer([1.7976931348623157e308, 1.7976931348623157e308, -1.0])

    def test_mixed_row_keeps_ints_and_booleans(self):
        assert dumps_canonical([1.0, 2, True]) == b"[\n  1.0,\n  2,\n  true\n]\n"
        assert dumps_canonical([1.0, None, "a"]) == b'[\n  1.0,\n  null,\n  "a"\n]\n'

    def test_null_and_the_string_null_are_written_unchanged(self):
        assert dumps_canonical({"a": None, "b": "null"}) == b'{\n  "a": null,\n  "b": "null"\n}\n'

    def test_non_finite_named_before_an_unwritable_int(self):
        with pytest.raises(ValueError, match="non-finite value cannot be serialized: nan"):
            dumps_canonical({"a": 2**70, "b": float("nan")})

    def test_strings_are_raw_utf8(self):
        assert dumps_canonical({"id": "n\u00e9"}) == '{\n  "id": "n\u00e9"\n}\n'.encode()
