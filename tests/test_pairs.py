import itertools

import numpy as np
import pytest

from scalex.errors import DimensionMismatch, IndexOutOfDepth, NotAdmissible, NotIsolated
from scalex.operators import TruncatedShiftModel, opnorm, realize
from scalex.pairs import (
    SampledFunction,
    SampledPairRep,
    block_shift,
    defect_projection,
    function_action,
    matrix_units,
    pair_relation_check,
    shift_action,
)


@pytest.fixture
def rep():
    return SampledPairRep((0.5, 1.0), v_index=1, depth=4)


def const(rep_, c):
    return SampledFunction.constant(rep_, c)


class TestRepValidation:
    def test_duplicate_samples(self):
        with pytest.raises(NotAdmissible):
            SampledPairRep((1.0, 1.0), 0, 4)

    def test_marked_index_range(self):
        with pytest.raises(NotAdmissible):
            SampledPairRep((1.0,), 3, 4)

    def test_depth_floor(self):
        with pytest.raises(NotAdmissible):
            SampledPairRep((1.0,), 0, 2)

    def test_json_roundtrip(self, rep):
        assert SampledPairRep.from_json(rep.to_json()) == rep

    def test_json_marked_point_must_be_sampled(self):
        with pytest.raises(NotAdmissible):
            SampledPairRep.from_json({"samples": [0.5, 1.0], "v": 0.7, "depth": 4})


class TestFunctionAction:
    def test_constant_one_is_identity(self, rep):
        assert np.array_equal(function_action(rep, const(rep, 1.0)), np.eye(8, dtype=complex))

    def test_indicator_at_marked_point(self, rep):
        m = function_action(rep, SampledFunction.indicator_at_v(rep))
        expected = np.diag([0.0, 1.0] + [1.0] * 6).astype(complex)
        assert np.array_equal(m, expected)

    def test_zero_function(self, rep):
        assert not function_action(rep, const(rep, 0.0)).any()

    def test_dimension_mismatch(self, rep):
        other = SampledPairRep((0.1, 0.2, 0.3), 0, 4)
        with pytest.raises(DimensionMismatch):
            function_action(rep, SampledFunction.constant(other, 1.0))


class TestShiftAction:
    def test_constant_one_is_block_shift(self, rep):
        assert np.array_equal(shift_action(rep, const(rep, 1.0)), block_shift(rep))

    def test_identity_function_matches_realized_model(self, rep):
        ident = SampledFunction.from_callable(rep, lambda x: x)
        model = TruncatedShiftModel(2, 4, np.diag([0.5, 1.0]).astype(complex))
        assert np.array_equal(shift_action(rep, ident), realize(model))

    def test_zero_function(self, rep):
        assert not shift_action(rep, const(rep, 0.0)).any()


class TestDefectProjection:
    def test_single_sample_toeplitz_case(self):
        r = SampledPairRep((1.0,), 0, 3)
        p = defect_projection(r)
        expected = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert np.array_equal(p, expected)

    def test_two_samples(self, rep):
        p = defect_projection(rep)
        expected = np.zeros((8, 8), dtype=complex)
        expected[1, 1] = 1.0  # the marked coordinate of slot 0
        assert np.array_equal(p, expected)

    def test_projection_identities(self, rep):
        p = defect_projection(rep)
        assert opnorm(p @ p - p) <= 1e-12
        assert opnorm(p.conj().T - p) <= 1e-12

    def test_coincident_marked_point(self):
        r = SampledPairRep((1.0, 1.0 + 1e-13), 0, 3)
        with pytest.raises(NotIsolated):
            defect_projection(r)


class TestMatrixUnits:
    def test_base_unit_is_defect_projection(self, rep):
        assert np.array_equal(matrix_units(rep, 0, 0), defect_projection(rep))

    def test_adjoint_symmetry(self, rep):
        for n, m in itertools.product(range(rep.depth - 1), repeat=2):
            e_nm = matrix_units(rep, n, m)
            e_mn = matrix_units(rep, m, n)
            assert opnorm(e_nm.conj().T - e_mn) <= 1e-12

    def test_multiplication_table(self, rep):
        idx = range(rep.depth - 1)
        units = {(n, m): matrix_units(rep, n, m) for n, m in itertools.product(idx, repeat=2)}
        for (n, m), (k, l) in itertools.product(units, repeat=2):
            product = units[(n, m)] @ units[(k, l)]
            expected = units[(n, l)] if m == k else np.zeros_like(product)
            assert opnorm(product - expected) <= 1e-10

    @pytest.mark.parametrize("samples, v", [((0.5, 1.0), 1), ((1.0,), 0), ((0.25, 0.5, 1.0), 0)])
    def test_equals_shift_powers(self, samples, v):
        # the slot arithmetic reproduces V^n P V*^m with the dense block shift
        r = SampledPairRep(samples, v, depth=5)
        vb, p = block_shift(r), defect_projection(r)
        for n, m in itertools.product(range(r.depth - 1), repeat=2):
            want = np.linalg.matrix_power(vb, n) @ p @ np.linalg.matrix_power(vb.conj().T, m)
            assert np.array_equal(matrix_units(r, n, m), want)

    def test_index_out_of_depth(self, rep):
        with pytest.raises(IndexOutOfDepth):
            matrix_units(rep, rep.depth - 1, 0)
        with pytest.raises(IndexOutOfDepth):
            matrix_units(rep, 0, -1)


class TestPairRelations:
    def test_constant_functions(self, rep):
        r = pair_relation_check(rep, const(rep, 1.0), const(rep, 1.0))
        assert r.adjoint_product <= 1e-12
        assert r.right_module <= 1e-12
        assert r.marked_evaluation <= 1e-12

    def test_indicator_against_constant(self, rep):
        f = SampledFunction.indicator_at_v(rep)
        g = const(rep, 1.0)
        # the third relation holds exactly, even across the boundary slot
        pf, tg = function_action(rep, f), shift_action(rep, g)
        assert opnorm(pf @ tg - complex(f.value_at_v) * tg) <= 1e-12
        r = pair_relation_check(rep, f, g)
        assert r.marked_evaluation <= 1e-12

    def test_zero_function(self, rep):
        r = pair_relation_check(rep, const(rep, 0.0), const(rep, 1.0))
        assert r.adjoint_product == r.right_module == r.marked_evaluation == 0.0

    def test_generic_samples(self):
        r = SampledPairRep((0.25, 0.5, 1.0), 2, 5)
        f = SampledFunction.from_values(r, [1.0 + 2.0j, -0.5, 0.25j])
        g = SampledFunction.from_values(r, [0.5, 1.5j, -1.0])
        rep_out = pair_relation_check(r, f, g)
        assert rep_out.adjoint_product <= 1e-10
        assert rep_out.right_module <= 1e-10
        assert rep_out.marked_evaluation <= 1e-10


class TestIdealStructure:
    def test_shift_annihilates_defect(self, rep):
        v = block_shift(rep)
        p = defect_projection(rep)
        assert opnorm(v.conj().T @ p) <= 1e-12

    def test_functions_scale_defect(self, rep):
        f = SampledFunction.from_values(rep, [0.3, 2.0 - 1.0j])
        p = defect_projection(rep)
        assert opnorm(function_action(rep, f) @ p - complex(f.value_at_v) * p) <= 1e-12

    def test_span_closed_under_left_multiplication(self, rep):
        v = block_shift(rep)
        f = SampledFunction.from_values(rep, [0.3, 2.0 - 1.0j])
        last = rep.depth - 2
        for n, m in itertools.product(range(last + 1), repeat=2):
            e = matrix_units(rep, n, m)
            if n < last:
                assert opnorm(v @ e - matrix_units(rep, n + 1, m)) <= 1e-12
            expected_down = matrix_units(rep, n - 1, m) if n > 0 else np.zeros_like(e)
            assert opnorm(v.conj().T @ e - expected_down) <= 1e-12
            assert opnorm(function_action(rep, f) @ e - complex(f.value_at_v) * e) <= 1e-12
