import re

import numpy as np
import pytest

from scalex import matio, operators
from scalex.errors import DimensionMismatch, IllConditioned, NoGap, NonFiniteEntry, NotAdmissible, NotScalinglike
from scalex.operators import (
    _defect_of_svd,
    _factor,
    _shift_basis,
    TruncatedShiftModel,
    classify_properness,
    estimate_spectrum,
    infinite_projection_witness,
    opnorm,
    realize,
    synthesize,
)
from scalex.spectra import Properness, ScalingSpectrum
from scalex.wold import wold_decompose

from conftest import (
    PiecewiseFunction,
    UndefinedAt,
    conjugate_random,
    cyclic_shift,
    functional_calculus,
    random_positive_definite,
    random_unitary,
    reference_defect,
)
from test_factor_once import operand


def svd_defect(x, fiber_dim=None):
    """The lab's scaling residual and slot flag, read from x's own SVD with no scaling gate: for
    operands the gate refuses, or that classify_properness gives no verdict."""
    left, s, vh = np.linalg.svd(np.asarray(x, dtype=complex))
    return _defect_of_svd(s, vh, vh @ left, fiber_dim)


def model(d, n, a):
    return TruncatedShiftModel(d, n, np.asarray(a, dtype=complex))


def diag_model(n, *weights):
    return model(len(weights), n, np.diag(weights))


def spectrum(*pairs):
    return ScalingSpectrum.from_intervals(pairs)


@pytest.fixture
def unfactored(monkeypatch):
    """Fail a call that reaches a dense factorization: a refusal that comes too late fails, and cannot hang."""
    def factored(*args, **kwargs):
        raise AssertionError("the operand was factored before its refusal")

    for name in ("svd", "eigh", "eigvalsh", "qr", "norm"):
        monkeypatch.setattr(np.linalg, name, factored)


NON_FINITE = pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])


def assert_spectrum_close(est, expected_points, tol=1e-9):
    assert len(est.intervals) == len(expected_points)
    for (lo, hi), x in zip(est.intervals, expected_points):
        assert abs(lo - x) <= tol and abs(hi - x) <= tol


class TestRealize:
    def test_two_by_two_shift(self):
        assert np.array_equal(realize(diag_model(2, 1.0)), np.array([[0, 0], [1, 0]], dtype=complex))

    def test_weighted_three_slots(self):
        expected = np.array([[0, 0, 0], [0.5, 0, 0], [0, 1, 0]], dtype=complex)
        assert np.array_equal(realize(diag_model(3, 0.5)), expected)

    def test_block_placement(self):
        x = realize(model(2, 2, np.eye(2)))
        expected = np.zeros((4, 4), dtype=complex)
        expected[2:, :2] = np.eye(2)
        assert np.array_equal(x, expected)

    def test_norm_is_max_of_block_norm_and_one(self, rng):
        for d, n in [(1, 3), (2, 4), (3, 5)]:
            a = random_positive_definite(rng, d, lo=0.2, hi=2.5)
            x = realize(model(d, n, a))
            assert abs(opnorm(x) - max(opnorm(a), 1.0)) <= 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_singular_value_multiset(self, rng, d, n):
        a = random_positive_definite(rng, d, lo=0.2, hi=2.5)
        x = realize(model(d, n, a))
        got = np.sort(np.linalg.svd(x, compute_uv=False))
        expected = np.sort(
            np.concatenate([np.zeros(d), np.linalg.svd(a, compute_uv=False), np.ones((n - 2) * d)])
        )
        assert np.max(np.abs(got - expected)) <= 1e-10


class TestModelValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotAdmissible):
            model(2, 3, [[1, 1], [0, 1]])

    def test_rejects_singular_block(self):
        with pytest.raises(NotAdmissible):
            diag_model(3, 1.0, 0.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(NotAdmissible):
            model(2, 3, np.eye(3))

    def test_rejects_shallow_depth(self):
        with pytest.raises(NotAdmissible):
            diag_model(1, 1.0)

    @pytest.mark.parametrize("d, n", [(2.0, 4), (1, 4.0), (True, 4)], ids=["float-d", "float-depth", "bool-d"])
    def test_rejects_a_shape_that_is_not_an_int(self, d, n):
        with pytest.raises(NotAdmissible, match="^fiber_dim and depth must be integers"):
            TruncatedShiftModel(d, n, np.eye(int(d)))

    @NON_FINITE
    def test_rejects_non_finite_block(self, unfactored, value):
        with pytest.raises(NonFiniteEntry, match=r"^A: entry \(0, 0\) is "):
            model(1, 3, [[value]])


class TestScalingDefect:
    def test_unitary_has_none(self, rng):
        w = conjugate_random(np.eye(4, dtype=complex), 7)  # still the identity
        theta = np.exp(2j * np.pi * rng.uniform(size=4))
        u = conjugate_random(np.diag(theta), 11)
        assert wold_decompose(u).residuals["scaling_defect"] <= 1e-12

    def test_truncated_model_boundary(self):
        v = classify_properness(realize(diag_model(3, 0.5)), fiber_dim=1)
        assert abs(v.scaling_residual - 1.0) <= 1e-12
        assert v.boundary_localized is True

    def test_residual_row_support(self):
        x = realize(diag_model(3, 0.5))
        r = (x.conj().T @ x) @ x - x
        assert opnorm(r[:2, :]) <= 1e-14  # all rows except the last slot vanish

    def test_zero_matrix(self):
        # no shift summand, so no verdict: the residual comes from the SVD itself
        assert wold_decompose(np.zeros((3, 3))).residuals["scaling_defect"] == 0.0
        assert svd_defect(np.zeros((3, 3)), fiber_dim=1) == (0.0, True)

    def test_no_fiber_structure(self):
        assert svd_defect(np.zeros((3, 3)))[1] is None

    def test_generic_matrix_not_localized(self, rng):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        # the scaling gate refuses a generic matrix
        (got_norm, got_localized), (norm, localized) = svd_defect(x, fiber_dim=1), reference_defect(x, fiber_dim=1)
        assert got_localized is localized is False
        assert abs(got_norm - norm) <= 1e-12 * norm

    # operands on which the residual read from the SVD could drift from R formed directly,
    # with their fiber dimensions: a residual on the whole support, weights within 1e-11
    # of 1 (rows the thin block drops), slots mixed by a unitary
    DRIFT = {
        "cyclic-0.5": (lambda: cyclic_shift(0.5), 1),
        "cyclic-2": (lambda: cyclic_shift(2.0), 1),
        "near-one-above": (lambda: realize(diag_model(5, 0.5, 1 + 1e-11)), 2),
        "near-one-below": (lambda: realize(diag_model(5, 1 - 1e-11, 0.7)), 2),
        "near-one-conjugated": (lambda: conjugate_random(realize(diag_model(5, 0.5, 1 + 1e-11)), 2), 2),
        "flat-conjugated": (lambda: operand(Properness.NON_PROPER, 1, False), 4),
        "fiber-conjugated": (lambda: operand(Properness.PROPER, 1, True), 5),
    }

    @pytest.mark.parametrize("with_fd", [True, False], ids=["fiber", "flat"])
    @pytest.mark.parametrize("name", list(DRIFT))
    def test_matches_the_direct_residual(self, name, with_fd):
        make, fiber_dim = self.DRIFT[name]
        x, fiber_dim = make(), fiber_dim if with_fd else None
        if name.startswith("cyclic"):  # the scaling gate refuses these: read the residual off the SVD
            got = svd_defect(x, fiber_dim)
        else:
            v = classify_properness(x, fiber_dim=fiber_dim)
            got = (v.scaling_residual, v.boundary_localized)
            assert wold_decompose(x).residuals["scaling_defect"] == v.scaling_residual
        norm, localized = reference_defect(x, fiber_dim)
        assert abs(got[0] - norm) <= 1e-12 * max(1.0, norm)
        assert got[1] is localized


class TestEstimateSpectrum:
    def test_pure_shift(self):
        est = estimate_spectrum(realize(diag_model(4, 1.0)), 1e-8)
        assert_spectrum_close(est, [0.0, 1.0])

    def test_weight_half(self):
        est = estimate_spectrum(realize(diag_model(4, 0.5)), 1e-8)
        assert_spectrum_close(est, [0.0, 0.5, 1.0])

    def test_weight_two(self):
        est = estimate_spectrum(realize(diag_model(4, 2.0)), 1e-8)
        assert_spectrum_close(est, [0.0, 1.0, 2.0])

    def test_coarse_tolerance_merges(self):
        est = estimate_spectrum(realize(diag_model(4, 0.5)), 0.6)
        assert len(est.intervals) == 1

    @pytest.mark.parametrize(
        "cluster_tol", [0.0, -1e-3, float("nan"), float("inf")], ids=["zero", "negative", "nan", "inf"]
    )
    def test_cluster_tol_must_be_positive(self, cluster_tol):
        with pytest.raises(NotAdmissible):
            estimate_spectrum(realize(diag_model(4, 0.5)), cluster_tol)


class TestSynthesize:
    def test_bare_spectrum_gives_pure_shift(self):
        m = synthesize(spectrum((0, 0), (1, 1)), Properness.PROPER, 4, 1)
        assert m.fiber_dim == 1
        assert np.array_equal(m.A, np.array([[1.0]], dtype=complex))

    def test_nonproper_middle_point(self):
        m = synthesize(spectrum((0, 0), (0.5, 0.5), (1, 1)), Properness.NON_PROPER, 4, 1)
        assert np.array_equal(m.A, np.array([[0.5]], dtype=complex))

    def test_proper_adds_the_weight_one_once(self):
        # 1 lies inside [0.5, 2] but is not sampled there, so a proper model appends it
        m = synthesize(spectrum((0, 0), (0.5, 2)), Properness.PROPER, 4, 3, seed=0)
        eigs = np.diag(m.A).real.tolist()
        assert eigs == sorted(eigs) and eigs.count(1.0) == 1 and (eigs[0], eigs[-1]) == (0.5, 2.0)
        assert classify_properness(realize(m), fiber_dim=m.fiber_dim).verdict is Properness.PROPER

    def test_nonproper_rejected_when_inadmissible(self):
        with pytest.raises(NotAdmissible):
            synthesize(spectrum((0, 0), (0.5, 1)), Properness.NON_PROPER, 6)

    def test_depth_floor(self):
        with pytest.raises(NotAdmissible):
            synthesize(spectrum((0, 0), (1, 1)), Properness.PROPER, 2)

    def test_flag_must_be_a_properness(self):
        # a string is not the enum: read as a flag, "nonproper" would build a proper model, the eigenvalue 1 in A
        with pytest.raises(NotAdmissible, match="^properness must be a Properness, got 'nonproper'$"):
            synthesize(spectrum((0, 0), (0.5, 0.5), (1, 1)), "nonproper", 4)

    @pytest.mark.parametrize("samples", [3.0, 5.5, True])
    def test_samples_must_be_an_int(self, samples):
        # a float would reach numpy as a size, and True would count as 1
        with pytest.raises(NotAdmissible, match="^samples_per_interval must be an int, got "):
            synthesize(spectrum((0, 0), (0.3, 0.6), (1, 1)), Properness.PROPER, 5, samples)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_non_negative_int(self, seed):
        # numpy refuses -1 and 1.5 with a bare ValueError or TypeError, and would read True as 1
        with pytest.raises(NotAdmissible, match=f"^seed must be an int >= 0, got {seed}$"):
            synthesize(spectrum((0, 0), (0.3, 0.6), (1, 1)), Properness.PROPER, 5, seed=seed)

    def test_negative_samples_refused(self):
        # 0 to 2 samples take only the endpoints; fewer than 0 is no count at all
        s = spectrum((0, 0), (0.3, 0.6), (1, 1))
        assert np.array_equal(synthesize(s, Properness.PROPER, 5, 0).A, synthesize(s, Properness.PROPER, 5, 2).A)
        with pytest.raises(NotAdmissible):
            synthesize(s, Properness.PROPER, 5, -1)

    def test_deterministic_per_seed(self):
        s = spectrum((0, 0), (0.25, 0.75), (1, 1))
        m1 = synthesize(s, Properness.PROPER, 5, 6, seed=42)
        m2 = synthesize(s, Properness.PROPER, 5, 6, seed=42)
        assert np.array_equal(m1.A, m2.A)

    def test_endpoints_always_sampled(self):
        s = spectrum((0, 0), (0.25, 0.75), (1, 1))
        m = synthesize(s, Properness.NON_PROPER, 5, 4, seed=3)
        eigs = np.diag(m.A).real
        assert 0.25 in eigs and 0.75 in eigs
        assert 0.0 not in eigs and 1.0 not in eigs

    @pytest.mark.parametrize("flag", [Properness.PROPER, Properness.NON_PROPER])
    def test_roundtrip_spectrum(self, flag):
        s = spectrum((0, 0), (0.3, 0.6), (1, 1))
        m = synthesize(s, flag, 6, 5, seed=9)
        est = estimate_spectrum(realize(m), 1e-8)
        # every estimated point lies in the requested set, endpoints inclusive
        for lo, hi in est.intervals:
            assert s.set.contains(round(lo, 12)) or s.set.contains(lo)
            assert s.set.contains(round(hi, 12)) or s.set.contains(hi)
        # every sampled weight is recovered, as are the requested extreme points
        for v in np.diag(m.A).real:
            assert est.contains(float(v))
        assert est.contains(0.0) and est.contains(0.3) and est.contains(0.6)


class TestClassifyProperness:
    def test_pure_shift_is_proper(self):
        v = classify_properness(realize(diag_model(6, 1.0)))
        assert v.verdict is Properness.PROPER
        assert v.projection_distance >= 0.9

    def test_weight_half_is_nonproper(self):
        v = classify_properness(realize(diag_model(6, 0.5)))
        assert v.verdict is Properness.NON_PROPER
        assert v.gap_at_0 and v.gap_at_1
        assert v.projection_distance <= 1e-8

    def test_eigenvalue_one_inside_block_forces_proper(self):
        v = classify_properness(realize(diag_model(6, 0.5, 1.0)))
        assert v.verdict is Properness.PROPER
        assert v.projection_distance >= 0.9

    def test_no_gap_at_one_means_proper(self):
        # weights creep up to 1, so the spectrum minus {0,1} is not compact
        v = classify_properness(realize(diag_model(6, 0.5, 0.93, 0.96, 0.99)))
        assert not v.gap_at_1
        assert v.verdict is Properness.PROPER

    def test_ill_conditioned_band(self):
        with pytest.raises(IllConditioned):
            classify_properness(realize(diag_model(6, 1.0 + 1.5e-8)), tol=1e-8)

    def test_inverts_synthesize_flag(self):
        s = spectrum((0, 0), (0.3, 0.6), (1, 1))
        for flag in (Properness.PROPER, Properness.NON_PROPER):
            m = synthesize(s, flag, 6, 4, seed=1)
            v = classify_properness(realize(m))
            assert v.verdict is flag

    @pytest.mark.parametrize(
        "x",
        [np.eye(3), np.zeros((3, 3)), np.diag([1.0, 0.0]), conjugate_random(np.diag([1.0, 1.0, 0.0]), 4)],
        ids=["identity", "zero", "diag-1-0", "conjugated-projection"],
    )
    def test_normal_operator_gets_no_verdict(self, x):
        # no shift summand: right and left supports coincide, so X is not a scaling element
        with pytest.raises(NotAdmissible, match="no shift summand"):
            classify_properness(x)

    def test_shift_beside_a_large_kernel_gets_a_verdict(self):
        x = np.zeros((10, 10), dtype=complex)
        x[:6, :6] = realize(diag_model(6, 0.5))
        assert isinstance(classify_properness(conjugate_random(x, 9)).verdict, Properness)

    @pytest.mark.parametrize("with_fd", [True, False], ids=["fiber", "flat"])
    # the cyclic shifts are refused, so the verdict sees the scaling-like operands
    @pytest.mark.parametrize("name", [name for name in TestScalingDefect.DRIFT if not name.startswith("cyclic")])
    def test_verdict_carries_the_direct_residual(self, name, with_fd):
        make, fiber_dim = TestScalingDefect.DRIFT[name]
        x, fiber_dim = make(), fiber_dim if with_fd else None
        v, (norm, localized) = classify_properness(x, fiber_dim=fiber_dim), reference_defect(x, fiber_dim)
        assert abs(v.scaling_residual - norm) <= 1e-12 * max(1.0, norm)
        assert v.boundary_localized is localized
        assert (v.scaling_residual, v.boundary_localized) == svd_defect(x, fiber_dim)

    def test_fiber_dim_must_divide_the_dimension(self):
        with pytest.raises(NotAdmissible, match="not a multiple"):
            classify_properness(realize(diag_model(5, 0.5)), fiber_dim=2)

    @pytest.mark.parametrize("call", [svd_defect, classify_properness], ids=["scaling_defect", "classify_properness"])
    @pytest.mark.parametrize("fiber_dim", [0, -1, 2.0, True])
    def test_fiber_dim_must_be_an_int_of_at_least_one(self, call, fiber_dim):
        # 0 would divide by zero, -1 divides every dimension yet names no slot,
        # 2.0 divides the dimension yet slices nothing, and True would be read as 1
        with pytest.raises(NotAdmissible, match=f"^fiber_dim {fiber_dim} is < 1 or not an int,"):
            call(realize(diag_model(4, 0.5)), fiber_dim=fiber_dim)

    def test_one_svd_per_call(self, monkeypatch):
        # the shift-summand test reuses the verdict's SVD
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *rest, **kw: calls.append(a.shape) or svd(a, *rest, **kw))
        classify_properness(realize(diag_model(6, 0.5, 0.7)))
        assert [shape for shape in calls if shape == (12, 12)] == [(12, 12)]


class TestScalingGate:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "x",
        [
            cyclic_shift(0.5),
            cyclic_shift(2.0),
            # the rounding floor is granted only while n * eps * s0 is small: it never covers a failure of ~s0^2
            cyclic_shift(1e15),
            conjugate_random(cyclic_shift(1e104), 3),
            cyclic_shift(1e120),
        ],
        ids=["0.5", "2", "1e15", "conjugated-1e104", "1e120"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            classify_properness,
            lambda x: infinite_projection_witness(x, 0.7),
            # 0.5 is a singular value of the weight-1/2 shift: the gate refuses before the NoGap test
            lambda x: infinite_projection_witness(x, 0.5),
            wold_decompose,
        ],
        ids=["verdict", "witness", "witness-at-0.5", "wold"],
    )
    def test_cyclic_shift_is_refused(self, call, x):
        # the identity fails by |a^2 - 1| on the support, whatever the slot structure
        with pytest.raises(NotScalinglike, match=r"^scaling identity fails by .* plus the rounding floor "):
            call(x)

    @pytest.mark.parametrize("flag", list(Properness), ids=lambda f: f.value)
    @pytest.mark.parametrize("which", ["real", "fiber", "flat"])
    def test_block_is_the_residual_on_the_right_support(self, monkeypatch, flag, which):
        if which == "real":
            x = realize(synthesize(spectrum((0, 0), (0.3, 0.6), (1, 1)), flag, 5, 4, seed=1))
        else:
            x = operand(flag, 1, which == "fiber")
        # the block the prelude's gate judges, V_r* R V; the gate lets it through, so the cyclic shifts it
        # refuses reach the comparison too
        judged = []
        monkeypatch.setattr(operators, "_opnorm_at_most", lambda m, tol: judged.append(m) or True)
        for op in (x, cyclic_shift(0.5), cyclic_shift(2.0)):
            _, _, s, vh, _, rank = _factor(op, 1e-8)
            want = vh[:rank] @ ((op.conj().T @ op) @ op - op)
            assert np.abs(judged.pop() @ vh - want).max() <= 1e-12


    @pytest.mark.parametrize("flag", list(Properness), ids=lambda f: f.value)
    @pytest.mark.parametrize("source", ["synth", "file"])
    @pytest.mark.parametrize("top", [2, 10, 100, 300, 1000, 3000, 1e4, 1e5])
    def test_weight_ladder_is_answered(self, tmp_path, top, source, flag):
        # exact by construction: only rounding fails the identity, and it grows like eps * s0^3
        if source == "synth":
            m = synthesize(spectrum((0, 0), (0.5, 0.5), (1, 1), (top, top)), flag, 6)
        else:
            q = random_unitary(3 - (flag is Properness.NON_PROPER), 4)
            a = q @ np.diag([0.5, top] if flag is Properness.NON_PROPER else [0.5, 1.0, top]) @ q.conj().T
            matio.save_model(str(tmp_path / "m.json"), model(len(q), 6, (a + a.conj().T) / 2))
            m = matio.load_model(str(tmp_path / "m.json"))
        x = conjugate_random(realize(m), 3)
        assert classify_properness(x).verdict is flag
        assert infinite_projection_witness(x, 0.7)[1].infinite_projection_witnessed
        assert wold_decompose(x).a_eigenvalues == pytest.approx(np.linalg.eigvalsh(m.A), rel=1e-10)

    def test_no_floor_once_rounding_passes_sqrt_eps(self):
        # 16 * 12 * eps * 1e7 > sqrt(eps): the weights are no longer read to half their digits, and the
        # exact model's rounding, ~1e5, is refused as at a bare tol
        x = conjugate_random(realize(diag_model(6, 0.5, 1e7)), 3)
        with pytest.raises(NotScalinglike, match=r"plus the rounding floor 0\.000e\+00$"):
            _factor(x, 1e-8)


@pytest.mark.parametrize("seed", range(40))
def test_shift_summand_test_is_the_half_cut_of_right_minus_left_support(seed):
    # m kernel directions of X, each tilted by up to 60 degrees into the kernel of X*
    rng = np.random.default_rng(seed)
    n, m = 12, int(rng.integers(0, 7))
    theta = rng.uniform(0, np.pi / 3, size=m)
    w = random_unitary(n, rng)
    ker, coker = w[:, :m], w[:, :m] * np.cos(theta) + w[:, m : 2 * m] * np.sin(theta)
    lam, v = np.linalg.eigh(coker @ coker.conj().T - ker @ ker.conj().T)
    basis, cut = _shift_basis(coker, ker), v[:, lam > 0.5]
    assert (basis.shape[1] > 0) is bool(lam[-1] > 0.5)
    assert opnorm(basis.conj().T @ basis - np.eye(basis.shape[1])) <= 1e-12
    assert opnorm(basis @ basis.conj().T - cut @ cut.conj().T) <= 1e-12

@pytest.mark.parametrize(
    "x",
    [np.zeros((0, 0)), np.ones((2, 3)), np.ones(4), np.ones((2, 2, 2)), np.full((2, 3), np.nan)],
    ids=["empty", "2x3", "1-d", "3-d", "2x3-nan"],
)
@pytest.mark.parametrize(
    "call",
    [classify_properness, lambda x: estimate_spectrum(x, 1e-8), lambda x: infinite_projection_witness(x, 0.5),
     wold_decompose],
    ids=["classify_properness", "estimate_spectrum", "infinite_projection_witness", "wold_decompose"],
)
def test_bad_shape_is_a_dimension_mismatch(call, x):
    # the shape is checked before the entries: a 2x3 matrix of NaN is a shape error
    message = f"need a non-empty square matrix, got shape {x.shape}"
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        call(x)


@NON_FINITE
@pytest.mark.parametrize(
    "call",
    [estimate_spectrum, classify_properness, lambda x: infinite_projection_witness(x, 0.5), wold_decompose],
    ids=["estimate_spectrum", "classify_properness", "infinite_projection_witness", "wold_decompose"],
)
def test_non_finite_operand_is_refused_before_any_factorization(unfactored, call, value):
    x = np.eye(3, k=-1)
    x[2, 1] = value
    with pytest.raises(NonFiniteEntry, match=r"^operand: entry \(2, 1\) is "):
        call(x)


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize(
    "name, call",
    [
        ("tol", lambda x, v: classify_properness(x, tol=v)),
        ("gap_tol", lambda x, v: classify_properness(x, gap_tol=v)),
        ("tol", lambda x, v: infinite_projection_witness(x, 0.5, tol=v)),
        ("cluster_tol", lambda x, v: infinite_projection_witness(x, 0.5, cluster_tol=v)),
        ("tol", lambda x, v: wold_decompose(x, tol=v)),
    ],
    ids=["classify_properness-tol", "classify_properness-gap_tol", "infinite_projection_witness-tol",
         "infinite_projection_witness-cluster_tol", "wold_decompose-tol"],
)
def test_tolerance_is_refused_unless_finite_and_positive(unfactored, name, call, value):
    # the weight-1/2 shift, which every call accepts at its default tolerances
    x = np.diag([0.5, 1.0, 1.0, 1.0, 1.0], k=-1)
    with pytest.raises(NotAdmissible, match=f"^{name} must be > 0 and finite, got {re.escape(str(value))}$"):
        call(x, value)


# s0^3 overflows float64 above about 5.6e102: the residual block (S^2 - I)(V* L) S then holds inf, or nan from inf * 0
OVERFLOWING = {
    "conjugated-shift-1e110": (conjugate_random(1e110 * np.eye(4, k=-1), 5), "1e+110"),
    "shift-1e160": (np.array([[0.0, 0.0], [1e160, 0.0]]), "1e+160"),
    "shift-1e103": (1e103 * np.eye(4, k=-1), "1e+103"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", OVERFLOWING)
@pytest.mark.parametrize(
    "call", [lambda x: svd_defect(x, 1), classify_properness, wold_decompose],
    ids=["scaling_defect", "classify_properness", "wold_decompose"],
)
def test_overflowing_scaling_residual_is_refused(call, name):
    x, s0 = OVERFLOWING[name]
    with pytest.raises(NotAdmissible, match=f"^the scaling residual overflows float64 .* {re.escape(s0)}$"):
        call(x)


@pytest.mark.filterwarnings("error")
def test_large_representable_scaling_residual_is_answered():
    x = np.array([[0.0, 0.0], [1e120, 0.0]])
    v = classify_properness(x)
    assert (v.verdict, v.scaling_residual) == (Properness.NON_PROPER, 1e120)
    v = classify_properness(x, fiber_dim=1)
    assert (v.scaling_residual, v.boundary_localized) == (1e120, True)
    r = wold_decompose(x)
    assert r.q_ranks == [1, 1] and r.a_eigenvalues == pytest.approx([1e120])


class TestFunctionalCalculus:
    def test_identity_function(self, rng):
        h = random_positive_definite(rng, 4)
        assert opnorm(functional_calculus(h, lambda t: t) - h) <= 1e-12

    def test_constant_one(self, rng):
        h = random_positive_definite(rng, 4)
        assert opnorm(functional_calculus(h, lambda t: 1.0) - np.eye(4)) <= 1e-12

    def test_step_function(self):
        h = np.diag([0.25, 1.0]).astype(complex)
        f = PiecewiseFunction([(-np.inf, 0.5, 0.0), (0.5, np.inf, 1.0)])
        assert opnorm(functional_calculus(h, f) - np.diag([0.0, 1.0])) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotAdmissible):
            functional_calculus(np.array([[0, 1], [0, 0]], dtype=complex), lambda t: t)

    def test_undefined_eigenvalue(self):
        h = np.diag([0.25, 1.0]).astype(complex)
        f = PiecewiseFunction([(0.5, np.inf, 1.0)])
        with pytest.raises(UndefinedAt):
            functional_calculus(h, f)


class TestWitness:
    def test_weight_above_gap(self):
        x = realize(diag_model(6, 0.75))
        u, rep = infinite_projection_witness(x, 0.5)
        p = u.conj().T @ u
        assert opnorm(p @ p - p) <= 1e-10
        assert rep.dominated
        assert rep.norm_difference >= 0.9

    def test_pure_shift_witness_is_the_shift(self):
        x = realize(diag_model(6, 1.0))
        u, rep = infinite_projection_witness(x, 0.5)
        assert opnorm(u - x) <= 1e-12
        assert rep.norm_difference >= 0.9

    def test_covering_spectrum_refuses(self):
        weights = np.linspace(0.025, 1.0, 40)
        x = realize(diag_model(5, *weights))
        with pytest.raises(NoGap):
            infinite_projection_witness(x, 0.5, cluster_tol=0.05)

    @pytest.mark.parametrize("x, witnessed", [(realize(diag_model(6, 0.75)), True), (np.eye(3), False)],
                             ids=["shift", "identity"])
    def test_witnessed_is_strict_domination(self, x, witnessed):
        _, rep = infinite_projection_witness(x, 0.5)
        assert rep.infinite_projection_witnessed is (rep.dominated and rep.norm_difference >= 0.5) is witnessed

    def test_gap_point_outside_unit_interval(self):
        with pytest.raises(NotAdmissible):
            infinite_projection_witness(realize(diag_model(6, 0.75)), 1.5)


class TestConjugateRandom:
    def test_deterministic(self, rng):
        x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert np.array_equal(conjugate_random(x, 123), conjugate_random(x, 123))

    def test_singular_values_invariant(self, rng):
        x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        s0 = np.linalg.svd(x, compute_uv=False)
        s1 = np.linalg.svd(conjugate_random(x, 5), compute_uv=False)
        assert np.max(np.abs(s0 - s1)) <= 1e-10

    def test_defect_invariant(self):
        x = realize(diag_model(5, 0.5))
        d0 = wold_decompose(x).residuals["scaling_defect"]
        d1 = wold_decompose(conjugate_random(x, 17)).residuals["scaling_defect"]
        assert abs(d0 - d1) <= 1e-10
