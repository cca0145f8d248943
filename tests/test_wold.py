import itertools

import numpy as np
import pytest

from scalex.errors import DimensionMismatch, NoConvergence, NotScalinglike
from scalex.operators import opnorm, realize
from scalex.operators import TruncatedShiftModel
from scalex.wold import reconstruct, wold_decompose

from conftest import conjugate_random, cyclic_shift, random_positive_definite, random_unitary, reference_defect


def diag_model(n, *weights):
    return TruncatedShiftModel(len(weights), n, np.diag(weights).astype(complex))


def assert_multiset_close(got, expected, tol):
    got, expected = list(got), list(expected)
    assert len(got) == len(expected)
    for g in got:
        dists = [abs(g - e) for e in expected]
        j = int(np.argmin(dists))
        assert dists[j] <= tol, f"{g} has no partner within {tol}"
        expected.pop(j)


def support_projections(x, tol=1e-9):
    """The right and left support projections of x, from one SVD."""
    u, s, vh = np.linalg.svd(x)
    right, left = vh[s > tol].conj().T, u[:, s > tol]
    return right @ right.conj().T, left @ left.conj().T


class TestWoldTrivialBranches:
    def test_scalar_unitary(self):
        r = wold_decompose(np.array([[1j]], dtype=complex))
        assert r.fiber_bases == []
        assert r.unitary_rank == 1 and r.kernel_rank == 0
        assert np.allclose(reconstruct(r), [[1j]])

    def test_scalar_zero(self):
        r = wold_decompose(np.zeros((1, 1), dtype=complex))
        assert r.fiber_bases == [] and r.unitary_rank == 0 and r.kernel_rank == 1
        assert np.allclose(reconstruct(r), [[0.0]])

    def test_not_scalinglike(self):
        for x in (np.array([[2.0]], dtype=complex), cyclic_shift(0.5), cyclic_shift(2.0)):
            with pytest.raises(NotScalinglike):
                wold_decompose(x)

    def test_no_convergence_with_tiny_budget(self, monkeypatch):
        # a recursion that never dies out is stopped once it has as many fibers as dimensions
        monkeypatch.setattr("scalex.wold.opnorm", lambda m: 1.0)
        with pytest.raises(NoConvergence, match="^fiber recursion still alive after 8 steps$"):
            wold_decompose(realize(diag_model(8, 1.0)))

    def test_step_budget_is_not_an_option(self):
        with pytest.raises(TypeError):
            wold_decompose(realize(diag_model(8, 1.0)), max_steps=2)


class TestWoldShiftRecursion:
    def test_weighted_shift_fibers(self):
        x = realize(diag_model(4, 0.5))
        r = wold_decompose(x)
        assert r.q_ranks == [1, 1, 1, 1]
        for i, v in enumerate(r.fiber_bases):
            q = v @ v.conj().T
            e = np.zeros((4, 4), dtype=complex)
            e[i, i] = 1.0
            assert opnorm(q - e) <= 1e-10
        assert np.allclose(r.a_restricted, [[0.5]])
        assert r.unitary_rank == 0 and r.kernel_rank == 0
        assert r.boundary_overlap_rank == 1 and len(r.q_ranks) == 4

    def test_forward_recursion_identity(self):
        x = realize(diag_model(5, 0.7))
        r = wold_decompose(x)
        qs = [v @ v.conj().T for v in r.fiber_bases]
        for qa, qb in zip(qs[1:], qs[2:]):
            assert opnorm(x @ qa @ x.conj().T - qb) <= 1e-10

    def test_reconstruct_matches_input(self):
        x = realize(diag_model(4, 0.5))
        assert opnorm(reconstruct(wold_decompose(x)) - x) <= 1e-9

    def test_residual_diagnostics_small(self):
        r = wold_decompose(realize(diag_model(5, 0.5, 1.2)))
        for key in (
            "projection_defect",
            "orthogonality_defect",
            "completeness_defect",
            "unitarity_defect",
            "commutation_defect",
            "reconstruction_defect",
        ):
            assert r.residuals[key] <= 1e-9, key


class TestWoldRoundtrips:
    def test_unitary_plus_kernel(self, rng):
        for trial in range(10):
            du = int(rng.integers(1, 5))
            k = int(rng.integers(0, 4))
            u = random_unitary(du, rng)
            x = np.zeros((du + k, du + k), dtype=complex)
            x[:du, :du] = u
            x = conjugate_random(x, int(rng.integers(0, 2**31)))
            r = wold_decompose(x)
            assert r.fiber_bases == []
            assert r.kernel_rank == k
            assert r.unitary_rank == du
            assert_multiset_close(np.linalg.eigvals(r.unitary_part), np.linalg.eigvals(u), 1e-9)
            assert opnorm(reconstruct(r) - x) <= 1e-9

    def test_conjugated_shift_models(self, rng):
        for trial in range(10):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(3, 8))
            a = random_positive_definite(rng, d)
            x = conjugate_random(realize(TruncatedShiftModel(d, n, a)), int(rng.integers(0, 2**31)))
            r = wold_decompose(x)
            assert r.q_ranks == [d] * n
            assert_multiset_close(r.a_eigenvalues, np.linalg.eigvalsh(a), 1e-8)
            assert r.boundary_overlap_rank == d
            assert len(r.q_ranks) == n
            assert r.residuals["orthogonality_defect"] <= 1e-9

    def test_shift_plus_unitary_mix(self, rng):
        xs = realize(diag_model(4, 0.6))
        u = random_unitary(3, rng)
        x = np.zeros((7, 7), dtype=complex)
        x[:4, :4] = xs
        x[4:, 4:] = u
        x = conjugate_random(x, 99)
        r = wold_decompose(x)
        assert r.q_ranks == [1, 1, 1, 1]
        assert r.unitary_rank == 3
        assert r.kernel_rank == 0
        assert_multiset_close(np.linalg.eigvals(r.unitary_part), np.linalg.eigvals(u), 1e-9)
        assert_multiset_close(r.a_eigenvalues, [0.6], 1e-9)

    def test_scaling_detection(self, rng):
        # nonempty fiber list iff the two products genuinely differ
        u = random_unitary(4, rng)
        assert wold_decompose(u).fiber_bases == []
        x = conjugate_random(realize(diag_model(4, 0.5)), 3)
        assert wold_decompose(x).residuals["scaling_defect"] > 0.1
        assert len(wold_decompose(x).fiber_bases) > 0


def dense_reference(x, tol=1e-9):
    """to_json() of the projection-matrix recursion: n x n fibers Q_{k+1} = X Q_k X*
    and pairwise diagnostics, the formulation the fiber-basis code replaces."""
    n = x.shape[0]
    eye = np.eye(n, dtype=complex)

    def above(h, cut):
        w, v = np.linalg.eigh(h)
        basis = v[:, w > cut]
        return basis @ basis.conj().T, basis

    right, left = support_projections(x, tol)
    q0, v0 = above(right - left, 0.5)
    # the polar isometry of X Q0 maps onto its left support, and |X Q0| = (Q0 X* X Q0)^(1/2)
    xq0 = x @ q0
    w, v = np.linalg.eigh(xq0.conj().T @ xq0)
    absx0 = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    qs = [q0, support_projections(xq0, tol)[1]]
    while opnorm(x @ qs[-1] @ x.conj().T) >= 0.5:
        qs.append(x @ qs[-1] @ x.conj().T)
    p1 = sum(qs)
    p3, _ = above((eye - right) @ (eye - p1) @ (eye - right), 0.5)
    p2, p2_basis = above(eye - p1 - p3, 0.5)
    xc = p2_basis.conj().T @ x @ p2_basis
    ik = np.eye(xc.shape[0])
    # X Q_k is the k-th shift step, so the shift summand is X (P1 - Q_last)
    rebuilt = x @ (p1 - qs[-1]) + p2 @ x @ p2
    overlap = int(round(np.trace(eye - right).real)) - int(round(np.trace(p3).real))
    return {
        "q_ranks": [int(round(np.trace(q).real)) for q in qs],
        "a_eigenvalues": np.linalg.eigvalsh(v0.conj().T @ absx0 @ v0).tolist(),
        "unitary_rank": xc.shape[0],
        "kernel_rank": int(round(np.trace(p3).real)),
        "residuals": {
            "scaling_defect": reference_defect(x)[0],
            "projection_defect": max(max(opnorm(q @ q - q), opnorm(q.conj().T - q)) for q in qs),
            "orthogonality_defect": max(opnorm(a @ b) for a, b in itertools.combinations(qs, 2)),
            "completeness_defect": opnorm(p1 + p2 + p3 - eye),
            "unitarity_defect": max(opnorm(xc.conj().T @ xc - ik), opnorm(xc @ xc.conj().T - ik))
            if xc.size
            else 0.0,
            "commutation_defect": opnorm(p1 @ x - x @ p1),
            "reconstruction_defect": opnorm(rebuilt - x),
            "boundary_overlap_rank": float(overlap),
            "rejected_tail_norm": opnorm(x @ qs[-1] @ x.conj().T),
        },
    }


def assert_report_matches(got, want, tol=1e-10):
    assert {k: got[k] for k in ("q_ranks", "unitary_rank", "kernel_rank")} == {
        k: want[k] for k in ("q_ranks", "unitary_rank", "kernel_rank")
    }
    assert np.allclose(got["a_eigenvalues"], want["a_eigenvalues"], rtol=0, atol=tol)
    assert got["residuals"].keys() == want["residuals"].keys()
    for key, value in want["residuals"].items():
        assert abs(got["residuals"][key] - value) <= tol, key


class TestFiberBasisRecursion:
    def test_matches_dense_reference_on_conjugated_models(self, rng):
        for trial in range(8):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(3, 9))
            a = random_positive_definite(rng, d)
            x = conjugate_random(realize(TruncatedShiftModel(d, n, a)), int(rng.integers(0, 2**31)))
            assert_report_matches(wold_decompose(x).to_json(), dense_reference(x))

    def test_matches_dense_reference_with_unitary_and_kernel(self, rng):
        x = np.zeros((12, 12), dtype=complex)
        x[:8, :8] = realize(TruncatedShiftModel(2, 4, random_positive_definite(rng, 2)))
        x[8:11, 8:11] = random_unitary(3, rng)
        x = conjugate_random(x, 5)
        want = dense_reference(x)
        assert (want["unitary_rank"], want["kernel_rank"]) == (3, 1)
        assert_report_matches(wold_decompose(x).to_json(), want)

    def test_matches_dense_reference_at_depth_20(self, rng):
        a = random_positive_definite(rng, 3)
        x = conjugate_random(realize(TruncatedShiftModel(3, 20, a)), 11)
        got = wold_decompose(x).to_json()
        assert got["q_ranks"] == [3] * 20
        assert_report_matches(got, dense_reference(x))

    def test_matches_dense_reference_off_the_identity(self, rng):
        # shrunken late steps and a non-unitary similarity make every defect
        # sizable, so the Gram-block formulas are compared where they matter
        x = realize(TruncatedShiftModel(2, 8, np.diag([0.5, 0.9]).astype(complex)))
        x[6:, :] *= 0.95
        s = np.eye(16) + 0.02 * rng.standard_normal((16, 16))
        x = conjugate_random(s @ x @ np.linalg.inv(s), 7)
        want = dense_reference(x, tol=0.3)
        assert min(want["residuals"][k] for k in ("projection_defect", "orthogonality_defect")) > 0.01
        assert_report_matches(wold_decompose(x, tol=0.3).to_json(), want)

    def test_tail_cut_on_squared_singular_value(self):
        # a last step of weight 0.7 ends the recursion, as ||X Q X*|| = 0.49 < 1/2;
        # it breaks the identity by 0.51 one slot early, hence the loose tol
        x = realize(diag_model(6, 0.9))
        x[5, 4] = 0.7
        got = wold_decompose(x, tol=0.55).to_json()
        assert got["q_ranks"] == [1] * 5
        assert got["residuals"]["rejected_tail_norm"] == pytest.approx(0.49, abs=1e-12)
        assert_report_matches(got, dense_reference(x, tol=0.55))

    @staticmethod
    def factorizations(monkeypatch, x) -> list[tuple[str, tuple]]:
        """(kind, shape) of each svd/eigh/eigvalsh/eigvals/norm(., 2) call of wold_decompose(x).

        A values-only SVD is "svdvals" and a spectral norm "norm2".
        """
        calls = []

        def counted(fn, name):
            def wrapper(a, *args, **kwargs):
                kind = name
                if name == "norm":
                    kind = "norm2" if (args[0] if args else kwargs.get("ord")) == 2 else None
                elif name == "svd" and not kwargs.get("compute_uv", True):
                    kind = "svdvals"
                if kind:
                    calls.append((kind, np.shape(a)))
                return fn(a, *args, **kwargs)

            return wrapper

        for name in ("svd", "eigh", "eigvalsh", "eigvals", "norm"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name), name))
        wold_decompose(x)
        monkeypatch.undo()
        return calls

    def square_factorizations(self, monkeypatch, x) -> list[str]:
        """The kinds of the calls on n x n operands, sorted."""
        return sorted(kind for kind, shape in self.factorizations(monkeypatch, x) if shape[-2:] == x.shape)

    def test_factorization_count_independent_of_depth(self, monkeypatch):
        a = np.diag([0.4, 0.8]).astype(complex)
        counts = [
            self.square_factorizations(
                monkeypatch, conjugate_random(realize(TruncatedShiftModel(2, depth, a)), depth)
            )
            for depth in (8, 32)
        ]
        # one SVD shared by the boundary test, the scaling residual, q0 and the
        # kernel basis; one eigh for the unitary summand and completeness; the
        # commutation and reconstruction norms
        assert counts[0] == counts[1] == ["eigh", "norm2", "norm2", "svd"]

    def test_unitary_input_takes_four_factorizations(self, monkeypatch, rng):
        # no shift summand, so no commutation norm; the unitarity defect is read
        # from the singular values of the n x n unitary block
        kinds = self.square_factorizations(monkeypatch, conjugate_random(random_unitary(6, rng), 3))
        assert kinds == ["eigh", "norm2", "svd", "svdvals"]

    def test_unitary_block_takes_one_values_only_svd(self, monkeypatch, rng):
        # shift (fibers of rank 2, kernel 3 with the extra zero) + 4 x 4 unitary + zero:
        # the unitary block is the only 4 x 4 operand the call factorizes
        x = np.zeros((13, 13), dtype=complex)
        x[:8, :8] = realize(TruncatedShiftModel(2, 4, random_positive_definite(rng, 2)))
        x[8:12, 8:12] = random_unitary(4, rng)
        x = conjugate_random(x, 5)
        r = wold_decompose(x)
        assert (r.q_ranks, r.unitary_rank, r.kernel_rank) == ([2] * 4, 4, 1)
        calls = self.factorizations(monkeypatch, x)
        assert [kind for kind, shape in calls if shape == (4, 4)] == ["svdvals"]
        assert self.square_factorizations(monkeypatch, x) == ["eigh", "norm2", "norm2", "svd"]


@pytest.mark.parametrize("x", [np.zeros((0, 0)), np.ones((2, 3)), np.ones(4)], ids=["empty", "2x3", "1-d"])
def test_bad_shape_is_a_dimension_mismatch(x):
    with pytest.raises(DimensionMismatch):
        wold_decompose(x)
