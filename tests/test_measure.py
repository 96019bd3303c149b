import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cgfusion import (
    CoefficientField,
    MeasureNodes,
    ShapeError,
    WeightProfile,
    validate_nodes,
    weighted_inner,
    weighted_norm,
)


def field(*blocks):
    return CoefficientField(tuple(np.asarray(b, dtype=float) for b in blocks))


def nodes_with_mass(*masses):
    return MeasureNodes(tuple(f"n{i}" for i in range(len(masses))), np.asarray(masses, float))


class TestWeightedInner:
    def test_unit_blocks(self):
        assert weighted_inner(field([1.0], [1.0]), field([1.0], [1.0]), nodes_with_mass(1, 1)) == 2.0

    def test_orthogonal_blocks(self):
        assert weighted_inner(field([1.0], [0.0]), field([0.0], [1.0]), nodes_with_mass(1, 3)) == 0.0

    def test_hand_sum(self):
        value = weighted_inner(field([2.0], [1.0]), field([2.0], [1.0]), nodes_with_mass(0.5, 2))
        assert value == pytest.approx(4.0, abs=1e-15)

    def test_block_count_mismatch(self):
        with pytest.raises(ShapeError):
            weighted_inner(field([1.0]), field([1.0], [1.0]), nodes_with_mass(1, 1))

    def test_block_shape_mismatch(self):
        with pytest.raises(ShapeError):
            weighted_inner(field([1.0, 2.0], [1.0]), field([1.0], [1.0]), nodes_with_mass(1, 1))


class TestWeightedNorm:
    def test_zero_field(self):
        assert weighted_norm(field([0.0], [0.0, 0.0]), nodes_with_mass(1, 2)) == 0.0

    def test_pythagorean(self):
        assert weighted_norm(field([3.0], [4.0]), nodes_with_mass(1, 1)) == pytest.approx(5.0)

    def test_hand_sum(self):
        assert weighted_norm(field([1.0], [1.0]), nodes_with_mass(4, 0.25)) == pytest.approx(
            np.sqrt(4.25)
        )


class TestValidateNodes:
    def test_clean_nodes_pass(self):
        report = validate_nodes(nodes_with_mass(1, 1), WeightProfile([1.0, 1.0]))
        assert report.passed

    def test_zero_mass_fails_naming_node(self):
        report = validate_nodes(nodes_with_mass(1, 0))
        assert not report.passed
        assert report.residuals["nonpositive_mass_count"] == 1.0
        assert any("n1" in note for note in report.notes)

    def test_weight_length_mismatch_fails(self):
        report = validate_nodes(nodes_with_mass(1, 1), WeightProfile([1.0, 1.0, 1.0]))
        assert not report.passed
        assert report.residuals["weight_length_mismatch"] == 1.0

    def test_duplicate_ids_fail(self):
        nodes = MeasureNodes(("a", "a"), np.array([1.0, 1.0]))
        report = validate_nodes(nodes)
        assert not report.passed
        assert report.residuals["duplicate_id_count"] == 1.0

    def test_nonpositive_weight_fails(self):
        report = validate_nodes(nodes_with_mass(1, 1), WeightProfile([1.0, -2.0]))
        assert not report.passed
        assert report.residuals["nonpositive_weight_count"] == 1.0

    def test_bad_masses_and_weights_named_in_node_order(self):
        nodes = MeasureNodes(("d", "c", "b", "a"), np.array([1.0, 0.0, -2.0, 3.0]))
        report = validate_nodes(nodes, WeightProfile([1.0, -1.0, 0.0, 2.0]))
        assert report.residuals == {
            "nonpositive_mass_count": 2.0,
            "duplicate_id_count": 0.0,
            "weight_length_mismatch": 0.0,
            "nonpositive_weight_count": 2.0,
        }
        assert report.notes == (
            "nonpositive mass at node(s): c, b",
            "nonpositive weight at node(s): c, b",
        )

    def test_duplicate_ids_named_once_each(self):
        report = validate_nodes(MeasureNodes(("z", "y", "z", "y", "z", "x"), np.ones(6)))
        assert report.residuals == {"nonpositive_mass_count": 0.0, "duplicate_id_count": 3.0}
        assert report.notes == ("duplicate node id(s): y, z",)


@st.composite
def paired_fields(draw):
    node_count = draw(st.integers(1, 4))
    masses = draw(
        st.lists(st.floats(0.1, 10.0), min_size=node_count, max_size=node_count)
    )
    dims = draw(st.lists(st.integers(1, 4), min_size=node_count, max_size=node_count))
    element = st.floats(-100.0, 100.0)
    a_blocks = [draw(st.lists(element, min_size=d, max_size=d)) for d in dims]
    b_blocks = [draw(st.lists(element, min_size=d, max_size=d)) for d in dims]
    return nodes_with_mass(*masses), field(*a_blocks), field(*b_blocks)


class TestInnerProductLaws:
    @given(paired_fields())
    def test_cauchy_schwarz(self, data):
        nodes, a, b = data
        inner = weighted_inner(a, b, nodes)
        bound = weighted_norm(a, nodes) * weighted_norm(b, nodes)
        assert abs(inner) <= bound + 1e-12 * max(1.0, bound)

    @given(paired_fields())
    def test_symmetry(self, data):
        nodes, a, b = data
        assert weighted_inner(a, b, nodes) == weighted_inner(b, a, nodes)

    @given(paired_fields())
    def test_nonnegative_square(self, data):
        nodes, a, _ = data
        assert weighted_inner(a, a, nodes) >= 0.0

    def test_mass_scaling_by_two_is_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            count = int(rng.integers(1, 5))
            masses = rng.uniform(0.1, 3.0, count)
            dims = rng.integers(1, 5, count)
            a = field(*[rng.standard_normal(d) for d in dims])
            b = field(*[rng.standard_normal(d) for d in dims])
            base = nodes_with_mass(*masses)
            doubled = nodes_with_mass(*(2.0 * masses))
            assert weighted_inner(a, b, doubled) == 2.0 * weighted_inner(a, b, base)

    def test_mass_scaling_general(self):
        rng = np.random.default_rng(1)
        scale = 1.7
        for _ in range(20):
            count = int(rng.integers(1, 5))
            masses = rng.uniform(0.1, 3.0, count)
            dims = rng.integers(1, 5, count)
            a = field(*[rng.standard_normal(d) for d in dims])
            b = field(*[rng.standard_normal(d) for d in dims])
            lhs = weighted_inner(a, b, nodes_with_mass(*(scale * masses)))
            rhs = scale * weighted_inner(a, b, nodes_with_mass(*masses))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
