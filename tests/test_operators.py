import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cgfusion import (
    NotPositiveError,
    NotSymmetricError,
    Operator,
    RangeInclusionError,
    ShapeError,
    SingularError,
    Subspace,
    douglas_factor,
    operator_leq,
    opnorm,
    orthonormal_columns,
    pinv,
    positive_sqrt,
    project,
)

from cgfusion.operators import BASIS_TOL, _basis_defect

import oracles
from conftest import diagonal_defect_basis, off_diagonal_defect_basis


def diag(*values):
    return Operator(np.diag(np.asarray(values, dtype=float)))


ROT90 = Operator([[0.0, -1.0], [1.0, 0.0]])


class TestProject:
    def test_coordinate_projection(self):
        v = Subspace.coordinate(2, [0])
        np.testing.assert_allclose(project(v, [3.0, 4.0]), [3.0, 0.0])

    def test_full_space_is_identity(self):
        v = Subspace.full(2)
        np.testing.assert_allclose(project(v, [3.0, 4.0]), [3.0, 4.0])

    def test_diagonal_line(self):
        v = Subspace(2, np.array([[1.0], [1.0]]) / np.sqrt(2))
        expected = v.basis @ (v.basis.T @ np.array([1.0, 0.0]))
        np.testing.assert_allclose(project(v, [1.0, 0.0]), expected)
        np.testing.assert_allclose(expected, [0.5, 0.5], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            project(Subspace.coordinate(2, [0]), [1.0, 2.0, 3.0])

    def test_empty_subspace_projects_to_zero(self):
        np.testing.assert_allclose(project(Subspace.empty(3), [1.0, 2.0, 3.0]), np.zeros(3))

    def test_idempotent_and_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            basis = np.linalg.qr(rng.standard_normal((5, 2)))[0]
            v = Subspace(5, basis)
            f = rng.standard_normal(5)
            once = project(v, f)
            assert np.linalg.norm(project(v, once) - once) <= 1e-12
            p = v.projector()
            assert np.abs(p - p.T).max() <= 1e-12


class TestOperatorLeq:
    def test_zero_below_identity(self):
        cert = operator_leq(Operator.zeros(2, 2), Operator.identity(2))
        assert cert.holds
        assert cert.gap == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_holds_with_zero_gap(self):
        cert = operator_leq(diag(1, 0), diag(4, 0))
        assert cert.holds
        assert cert.gap == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_failure(self):
        cert = operator_leq(diag(2, 0), diag(1, 1))
        assert not cert.holds
        assert cert.gap == pytest.approx(-1.0, abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            operator_leq(Operator.zeros(2, 3), Operator.zeros(2, 3))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            operator_leq(Operator([[0.0, 1.0], [0.0, 0.0]]), Operator.identity(2))

    def test_random_crosscheck_against_quadratic_forms(self):
        rng = np.random.default_rng(11)
        tol = 1e-9
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            a = (a + a.T) / 2
            b = (b + b.T) / 2
            cert = operator_leq(Operator(a), Operator(b), tol)
            gap = oracles.loewner_gap(a, b)
            assert cert.holds == (gap >= -tol)
            assert cert.gap == pytest.approx(gap, abs=1e-12)
            samples = rng.standard_normal((200, n))
            quad = np.einsum("ij,jk,ik->i", samples, b - a, samples)
            norms = np.einsum("ij,ij->i", samples, samples)
            assert np.all(quad >= (gap - 1e-9) * norms)


class TestDouglasFactor:
    def test_diagonal_example(self):
        s, lam = douglas_factor(diag(1, 0), diag(2, 0), tol=1e-13)
        np.testing.assert_allclose(s.entries, np.diag([0.5, 0.0]), atol=1e-12)
        assert lam == pytest.approx(0.5, abs=1e-12)

    def test_identity_factorization(self):
        s, lam = douglas_factor(Operator.identity(3), Operator.identity(3), tol=1e-13)
        np.testing.assert_allclose(s.entries, np.eye(3), atol=1e-12)
        assert lam == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_ranges_rejected(self):
        with pytest.raises(RangeInclusionError) as excinfo:
            douglas_factor(diag(1, 0), diag(0, 1))
        assert excinfo.value.residual == pytest.approx(1.0, abs=1e-12)

    def test_codomain_mismatch(self):
        with pytest.raises(ShapeError):
            douglas_factor(Operator.zeros(2, 2), Operator.zeros(3, 3))

    def test_oracle_agreement_on_random_factorable_pairs(self):
        rng = np.random.default_rng(3)
        tol = 1e-9
        for _ in range(15):
            n = int(rng.integers(2, 6))
            t = Operator(rng.standard_normal((n, n + 1)))
            l = Operator(t.entries @ rng.standard_normal((n + 1, n)))
            s, lam = douglas_factor(l, t, tol)
            assert opnorm(t.entries @ s.entries - l.entries) <= tol
            # returned lam certifies the majorization with slack
            llt = l.entries @ l.entries.T
            ttt = t.entries @ t.entries.T
            gap = oracles.loewner_gap(llt, lam * lam * ttt)
            assert gap >= -10 * tol
            _, lam_opt = oracles.douglas_minimal_factor(l.entries, t.entries)
            assert lam == pytest.approx(lam_opt, rel=1e-12)


class TestPinv:
    def test_diagonal(self):
        np.testing.assert_allclose(pinv(diag(2, 0)).entries, np.diag([0.5, 0.0]), atol=1e-15)

    def test_identity(self):
        np.testing.assert_allclose(pinv(Operator.identity(3)).entries, np.eye(3), atol=1e-15)

    def test_rank_one(self):
        result = pinv(Operator([[1.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(result.entries, [[0.5, 0.0], [0.5, 0.0]], atol=1e-12)

    def test_zero_matrix(self):
        np.testing.assert_allclose(pinv(Operator.zeros(2, 3)).entries, np.zeros((3, 2)))

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=st.floats(-10, 10),
        )
    )
    def test_penrose_identities(self, entries):
        a = Operator(entries)
        a_plus = pinv(a)
        scale = max(1.0, opnorm(a.entries), opnorm(a_plus.entries))

        def within_tol(residual):
            # residual <= 1e-8 scale^3, divided out: scale^3 overflows for tiny entries
            return residual / scale / scale / scale <= 1e-8

        assert within_tol(opnorm(a.entries @ a_plus.entries @ a.entries - a.entries))
        assert within_tol(opnorm(a_plus.entries @ a.entries @ a_plus.entries - a_plus.entries))
        aap = a.entries @ a_plus.entries
        paa = a_plus.entries @ a.entries
        assert within_tol(opnorm(aap - aap.T))
        assert within_tol(opnorm(paa - paa.T))


class TestPositiveSqrt:
    def test_diagonal_root(self):
        np.testing.assert_allclose(positive_sqrt(diag(4, 1)).entries, np.diag([2.0, 1.0]), atol=1e-12)

    def test_identity_inverse_root(self):
        np.testing.assert_allclose(
            positive_sqrt(Operator.identity(2), invert=True).entries, np.eye(2), atol=1e-12
        )

    def test_diagonal_inverse_root(self):
        np.testing.assert_allclose(
            positive_sqrt(diag(4, 1), invert=True).entries, np.diag([0.5, 1.0]), atol=1e-12
        )

    def test_zero_eigenvalue_maps_to_zero(self):
        # Within -SYM_TOL an eigenvalue is clipped to 0; the shared spectral map sends 0 to 0.
        for values in ((0.0, 4.0), (-1e-10, 4.0)):
            root = positive_sqrt(diag(*values)).entries
            assert np.all(np.isfinite(root))
            np.testing.assert_array_equal(root, np.diag([0.0, 2.0]))

    def test_rejects_negative(self):
        with pytest.raises(NotPositiveError):
            positive_sqrt(diag(-1, 1))

    def test_rejects_singular_inversion(self):
        with pytest.raises(SingularError):
            positive_sqrt(diag(0, 1), invert=True)

    def test_random_spd_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 33))
            a = rng.standard_normal((n, n))
            spd = a @ a.T / n + 0.1 * np.eye(n)
            root = positive_sqrt(Operator(spd))
            assert opnorm(root.entries @ root.entries - spd) <= 1e-9 * max(1.0, opnorm(spd))
            assert opnorm(root.entries @ spd - spd @ root.entries) <= 1e-9 * max(1.0, opnorm(spd))
            inv_root = positive_sqrt(Operator(spd), invert=True)
            assert opnorm(inv_root.entries @ inv_root.entries - np.linalg.inv(spd)) <= 1e-9 * opnorm(
                np.linalg.inv(spd)
            )


class TestOrthonormalColumns:
    def test_rank_deficient_input(self):
        rng = np.random.default_rng(11)
        x, y = rng.standard_normal((2, 5))
        m = np.column_stack([x, 3.0 * x, np.zeros(5), y, x - y])
        basis = orthonormal_columns(m)
        assert basis.shape == (5, 2)
        np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(basis @ basis.T, oracles.range_projector(m), atol=1e-13)

    @pytest.mark.parametrize("shape", [(4, 3), (4, 0)])
    def test_zero_and_empty_inputs_give_empty_basis(self, shape):
        assert orthonormal_columns(np.zeros(shape)).shape == (4, 0)


def image_basis(t: Operator, v: Subspace) -> np.ndarray:
    """Orthonormal basis of the image T V, as orthonormal_columns(T B) for the basis B of V."""
    return orthonormal_columns(t.entries @ v.basis)


def image_projector(t: Operator, v: Subspace) -> np.ndarray:
    """The projector onto T V from :func:`image_basis`, checked against the oracle's."""
    basis = image_basis(t, v)
    projector = basis @ basis.T
    np.testing.assert_allclose(projector, oracles.range_projector(t.entries @ v.basis),
                               atol=1e-12)
    return projector


def projection_residuals(t: Operator, v: Subspace) -> tuple[float, float]:
    """||P_V T^T - P_V T^T P_TV|| (every T) and ||P_TV T - T P_V|| (orthogonal T)."""
    p_v, p_tv = v.projector(), image_projector(t, v)
    lhs = p_v @ t.entries.T
    return opnorm(lhs - lhs @ p_tv), opnorm(p_tv @ t.entries - t.entries @ p_v)


class TestOrthonormalizeImage:
    """orthonormal_columns(T B) is an orthonormal basis of the image T V."""

    def test_scaling_preserves_span(self):
        basis = image_basis(diag(2, 3), Subspace.coordinate(2, [0]))
        np.testing.assert_allclose(basis, [[1.0], [0.0]], atol=1e-15)

    def test_rotation_moves_span(self):
        projector = image_projector(ROT90, Subspace.coordinate(2, [0]))
        np.testing.assert_allclose(projector, np.diag([0.0, 1.0]), atol=1e-14)

    def test_kernel_collapses_to_empty(self):
        assert image_basis(diag(1, 0), Subspace.coordinate(2, [1])).shape == (2, 0)

    def test_rank_revealed_on_dependent_columns(self):
        rng = np.random.default_rng(9)
        basis = np.linalg.qr(rng.standard_normal((4, 3)))[0]
        t = Operator(np.outer(rng.standard_normal(4), rng.standard_normal(4)))
        image = image_basis(t, Subspace(4, basis))
        assert image.shape == (4, 1)
        np.testing.assert_allclose(image.T @ image, np.eye(1), atol=1e-12)
        np.testing.assert_allclose(image @ image.T, oracles.range_projector(t.entries @ basis),
                                   atol=1e-12)


class TestProjectionIdentityCheck:
    """P_V T^T = P_V T^T P_TV for every T and V, and P_TV T = T P_V for orthogonal T.

    Both are laws, so they are checked here rather than at run time.
    """

    def test_identity_operator(self):
        identity, commutation = projection_residuals(Operator.identity(2),
                                                     Subspace.coordinate(2, [0]))
        assert identity <= 1e-14
        assert commutation <= 1e-14

    def test_rotation_commutes_with_the_projectors(self):
        identity, commutation = projection_residuals(ROT90, Subspace.coordinate(2, [0]))
        assert identity <= 1e-12
        assert commutation <= 1e-12

    def test_singular_operator_keeps_the_identity(self):
        identity, _ = projection_residuals(diag(1, 0), Subspace.coordinate(2, [0]))
        assert identity <= 1e-12

    def test_commutation_needs_an_orthogonal_operator(self):
        # The shear maps e_1 to (1, 1), and P_TV T - T P_V has norm 1/sqrt(2).
        identity, commutation = projection_residuals(Operator([[1.0, 1.0], [0.0, 1.0]]),
                                                     Subspace.coordinate(2, [1]))
        assert identity <= 1e-15
        assert commutation > 0.5

    def test_identity_holds_for_random_operators(self):
        rng = np.random.default_rng(13)
        dims = []
        for _ in range(25):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(0, n + 1))
            dims.append(k)
            t = Operator(rng.standard_normal((n, n)))
            v = Subspace(n, np.linalg.qr(rng.standard_normal((n, max(k, 1))))[0][:, :k])
            identity, _ = projection_residuals(t, v)
            assert identity <= 1e-12 * max(1.0, opnorm(t.entries))
            q = Operator(np.linalg.qr(t.entries)[0])
            assert max(projection_residuals(q, v)) <= 1e-13
        assert 0 in dims


class TestValueTypes:
    def test_operator_requires_finite(self):
        with pytest.raises(ValueError):
            Operator([[np.nan, 0.0], [0.0, 1.0]])

    def test_operator_entries_read_only(self):
        op = Operator.identity(2)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0

    def test_matmul_shape_check(self):
        with pytest.raises(ShapeError):
            Operator.zeros(2, 3) @ Operator.zeros(2, 2)

    def test_subspace_rejects_skewed_basis(self):
        with pytest.raises(ValueError):
            Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_empty_subspace_is_legal(self):
        sub = Subspace.empty(3)
        assert sub.dim == 0
        np.testing.assert_allclose(sub.projector(), np.zeros((3, 3)))


class TestOpnorm:
    """opnorm is numpy's norm(a, 2) bit for bit, from one SVD of a 2-d array."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (6, 6), (8, 3)])
    def test_equals_numpy_two_norm(self, shape):
        rng = np.random.default_rng(41)
        for _ in range(20):
            a = rng.standard_normal(shape)
            assert opnorm(a) == np.linalg.norm(a, 2)

    def test_rank_deficient(self):
        rng = np.random.default_rng(43)
        for rank in (1, 2, 3):
            a = rng.standard_normal((6, rank)) @ rng.standard_normal((rank, 5))
            assert np.linalg.matrix_rank(a) == rank
            assert opnorm(a) == np.linalg.norm(a, 2)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (6, 6), (8, 3)])
    def test_zero_matrix(self, shape):
        a = np.zeros(shape)
        assert opnorm(a) == np.linalg.norm(a, 2) == 0.0

    def test_integer_array(self):
        a = np.arange(12).reshape(3, 4) - 5
        assert type(opnorm(a)) is float
        assert opnorm(a) == np.linalg.norm(a, 2)

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
    def test_empty_is_zero(self, shape):
        assert opnorm(np.zeros(shape)) == 0.0

    @pytest.mark.parametrize("shape", [(4,), (0,), (2, 3, 3)])
    def test_other_ndim_rejected(self, shape):
        with pytest.raises(ShapeError, match=f"ndim={len(shape)}"):
            opnorm(np.ones(shape))


def identity_defect(basis):
    """max|B^T B - I| formed with an explicit identity."""
    return np.abs(basis.T @ basis - np.eye(basis.shape[1])).max()


DEFECT_BASES = [diagonal_defect_basis, off_diagonal_defect_basis]


class TestBasisDefect:
    """Subspace's orthonormality defect, on the diagonal and off it."""

    def test_builders_isolate_one_side(self):
        gram = diagonal_defect_basis(2e-10).T @ diagonal_defect_basis(2e-10)
        assert not (gram - np.diag(gram.diagonal())).any()
        gram = off_diagonal_defect_basis(2e-10).T @ off_diagonal_defect_basis(2e-10)
        assert np.abs(gram.diagonal() - 1.0).max() <= 1e-15

    @pytest.mark.parametrize("make", DEFECT_BASES)
    def test_defect_over_tolerance_rejected(self, make):
        basis = make(2e-10)
        assert identity_defect(basis) > BASIS_TOL
        message = f"not orthonormal (defect {identity_defect(basis):.3e})"
        with pytest.raises(ValueError, match=re.escape(message)):
            Subspace(4, basis)

    @pytest.mark.parametrize("make", DEFECT_BASES)
    def test_defect_within_tolerance_accepted(self, make):
        basis = make(5e-11)
        np.testing.assert_array_equal(Subspace(4, basis).basis, basis)

    def test_equals_the_identity_difference(self):
        rng = np.random.default_rng(47)
        bases = [make(d) for make in DEFECT_BASES for d in (2e-10, 5e-11)]
        for shape in [(1, 1), (5, 1), (5, 3), (6, 6)]:
            draw = rng.standard_normal(shape)
            bases += [draw, np.linalg.qr(draw)[0]]
        for basis in bases:
            assert _basis_defect(basis) == identity_defect(basis)
        assert _basis_defect(np.zeros((3, 0))) == 0.0

