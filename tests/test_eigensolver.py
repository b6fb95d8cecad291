from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from support import random_spd_pair, shift_invert, system_from_dense

from gevrey_evp.coefficients import CHI1, MODEL_NAMES, Bounds, model_by_name
from gevrey_evp import eigensolver
from gevrey_evp.eigensolver import (
    EigenPair,
    EigenSolveError,
    estimate_gap,
    second_eigenpair,
    smallest_eigenpair,
)
from gevrey_evp.fem import Assembler, assemble, build_mesh


class TestDiagonalExamples:
    def test_identity_mass(self):
        sysm = system_from_dense(np.diag([1.0, 2.0]), np.eye(2))
        pair = smallest_eigenpair(sysm, tol=1e-14)
        assert pair.value == pytest.approx(1.0, rel=1e-13)
        assert abs(pair.vector[0]) == pytest.approx(1.0, rel=1e-10)
        assert pair.vector[1] == pytest.approx(0.0, abs=1e-10)

    def test_generalized_diagonal(self):
        sysm = system_from_dense(np.diag([2.0, 6.0]), np.diag([2.0, 2.0]))
        pair = smallest_eigenpair(sysm, tol=1e-14)
        assert pair.value == pytest.approx(1.0, rel=1e-13)
        assert abs(pair.vector[0]) == pytest.approx(1 / np.sqrt(2), rel=1e-10)

    def test_second_diagonal(self):
        sysm = system_from_dense(np.diag([1.0, 2.0, 5.0]), np.eye(3))
        p1 = smallest_eigenpair(sysm, tol=1e-14)
        p2 = second_eigenpair(sysm, p1, tol=1e-14)
        assert p2.value == pytest.approx(2.0, rel=1e-12)


class TestOracleAgreement:
    def test_fem_system_m8(self):
        sysm = assemble(build_mesh(8), model_by_name("gl-analytic"), [0.5])
        w = sla.eigh(sysm.A.toarray(), sysm.M.toarray(), eigvals_only=True)
        p1 = smallest_eigenpair(sysm, tol=1e-14)
        p2 = second_eigenpair(sysm, p1, tol=1e-14)
        assert abs(p1.value - w[0]) <= 1e-10 * w[0]
        assert abs(p2.value - w[1]) <= 1e-10 * w[1]

    def test_random_spd_pairs(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            n = int(rng.integers(5, 40))
            sysm = random_spd_pair(rng, n)
            w = sla.eigh(sysm.A.toarray(), sysm.M.toarray(), eigvals_only=True)
            p1 = smallest_eigenpair(sysm, tol=1e-14)
            assert abs(p1.value - w[0]) <= 1e-10 * w[0]
            p2 = second_eigenpair(sysm, p1, tol=1e-14)
            assert abs(p2.value - w[1]) <= 1e-10 * w[1]


class TestContracts:
    def test_residual_invariant(self):
        for tol in (1e-12, 1e-14):
            sysm = assemble(build_mesh(8), model_by_name("gl-analytic"), [-0.2])
            pair = smallest_eigenpair(sysm, tol=tol)
            assert pair.residual <= 10.0 * tol * pair.value

    def test_m_normalization(self):
        sysm = assemble(build_mesh(10), model_by_name("gl-analytic"), [0.1])
        pair = smallest_eigenpair(sysm)
        assert pair.vector @ (sysm.M @ pair.vector) == pytest.approx(1.0, abs=1e-12)

    def test_deflation_m_orthogonality(self):
        sysm = assemble(build_mesh(10), model_by_name("gl-analytic"), [0.8])
        p1 = smallest_eigenpair(sysm, tol=1e-13)
        p2 = second_eigenpair(sysm, p1, tol=1e-13)
        assert abs(p1.vector @ (sysm.M @ p2.vector)) <= 1e-10

    def test_determinism(self):
        sysm = assemble(build_mesh(12), model_by_name("gl-gevrey3"), [0.4])
        a = smallest_eigenpair(sysm, tol=1e-14)
        b = smallest_eigenpair(sysm, tol=1e-14)
        assert a.value == b.value
        assert a.iterations == b.iterations
        assert np.array_equal(a.vector, b.vector)

    def test_lambda2_ratio_approaches_2p5(self):
        const = model_by_name("constant")
        vals = {}
        for m in (16, 32):
            sysm = assemble(build_mesh(m), const, [0.0])
            p1 = smallest_eigenpair(sysm, tol=1e-13)
            p2 = second_eigenpair(sysm, p1, tol=1e-10)
            vals[m] = p2.value / p1.value
        assert abs(vals[32] - 2.5) < abs(vals[16] - 2.5)
        assert vals[32] == pytest.approx(2.5, abs=0.02)

    def test_failure_carries_last_iterate(self):
        sysm = assemble(build_mesh(8), model_by_name("gl-analytic"), [0.0])
        with pytest.raises(EigenSolveError) as err:
            smallest_eigenpair(sysm, tol=1e-30, max_iter=3)
        assert err.value.last is not None
        assert err.value.last.iterations == 3

    def test_entry_checks(self):
        sysm = system_from_dense(np.diag([1.0, 2.0, 5.0]), np.eye(3))
        p1 = smallest_eigenpair(sysm)
        with pytest.raises(ValueError, match="tol must be positive"):
            smallest_eigenpair(sysm, tol=0)
        with pytest.raises(ValueError, match="tol must be positive"):
            second_eigenpair(sysm, p1, tol=-1)
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            smallest_eigenpair(sysm, max_iter=0)
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            second_eigenpair(sysm, p1, max_iter=0)

    def test_rejects_indefinite(self):
        bad = system_from_dense(np.diag([1.0, -2.0]), np.eye(2))
        with pytest.raises(EigenSolveError):
            smallest_eigenpair(bad, tol=1e-12)

    def test_rejects_unusable_matrices(self):
        sysm = system_from_dense(np.diag([1.0, 2.0, 5.0]), np.eye(3))
        with pytest.raises(EigenSolveError, match=r"M has shape \(2, 2\) and A \(3, 3\)"):
            smallest_eigenpair(replace(sysm, M=sysm.M[:2, :2]))
        A = sysm.A.copy()
        A.data[1] = np.nan
        with pytest.raises(EigenSolveError, match="A is not usable"):
            smallest_eigenpair(replace(sysm, A=A))

    def test_stopping_is_scale_invariant(self):
        # scaling A and the shift by a power of two is exact, so every
        # iterate is the same and only a relative test stops at the same step
        sysm = assemble(build_mesh(16), model_by_name("gl-analytic"), [-0.643])
        scaled = replace(sysm, A=sysm.A * 1024.0, shift=sysm.shift * 1024.0)
        a = smallest_eigenpair(sysm)
        b = smallest_eigenpair(scaled)
        assert b.iterations == a.iterations
        assert b.value == 1024.0 * a.value


class TestBlasThreads:
    def test_solve_holds_one_blas_thread(self, monkeypatch):
        # the preconditioner's GEMMs are the BLAS calls of a mesh solve
        threads = [4]
        seen = []
        monkeypatch.setattr(eigensolver, "_BLAS_THREADS",
                            ((lambda: threads[0], lambda n: threads.__setitem__(0, n)),))
        sysm = assemble(build_mesh(6), model_by_name("constant"), [0.0])
        T = sysm.precondition
        sysm = replace(sysm, precondition=lambda r: seen.append(threads[0]) or T(r))
        with eigensolver._one_blas_thread():
            smallest_eigenpair(sysm)
            assert threads == [1]  # an overlapping solve does not restore early
        assert seen and set(seen) == {1}
        assert threads == [4]

    def test_thread_count_restored(self):
        # an empty tuple (no OpenBLAS found) leaves nothing to restore
        before = [get() for get, _ in eigensolver._BLAS_THREADS]
        smallest_eigenpair(assemble(build_mesh(6), model_by_name("constant"), [0.0]))
        assert [get() for get, _ in eigensolver._BLAS_THREADS] == before


def _box_corners(model):
    """Both ends of each parameter axis at once: all -h and all +h."""
    h = model.param_halfwidth
    low = np.full(min(model.dim, 20), -h)
    if model.kind == "gl-gevrey3":
        low[0] = np.nextafter(-1.0, 0.0)  # the model is undefined at y = -1
    return [low, np.full(low.size, h)]


class TestCertifiedShift:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_shift_below_lambda1_at_corners(self, name):
        # the per-point sigma(y) = CHI1 min_T a_T(y) / c_hi lies between the
        # global CHI1 a_lo / c_hi and lambda1
        model = model_by_name(name)
        sigma = CHI1 * model.bounds.a_lo / model.bounds.c_hi
        for m in (8, 16):
            for y in _box_corners(model):
                sysm = assemble(build_mesh(m), model, y)
                lam1 = sla.eigh(sysm.A.toarray(), sysm.M.toarray(),
                                eigvals_only=True, subset_by_index=[0, 0])[0]
                assert 0.0 < sigma <= sysm.shift < lam1

    @pytest.mark.parametrize("a", [0.1, 1.0 / 3.0, 3.7])
    def test_constant_field_meets_its_range(self, a):
        # (a + a + a) / 3 can round below a, as it does for a = 0.1
        sysm = assemble(build_mesh(8), model_by_name("constant", a=a), [0.0])
        assert sysm.shift == pytest.approx(CHI1 * a, rel=1e-15)
        assert smallest_eigenpair(sysm).value > sysm.shift

    def test_field_outside_its_range_raises(self):
        # gl-analytic is 2 + sin(pi (x1 + x2 + y)); at y = 0.25 and m = 8 its
        # a_T run from 1.0128... to 2.9871...
        cases = [((1.5, 3.0), r"min a_T = 1\.0128\d* < a_lo = 1\.5"),
                 ((1.0, 2.5), r"max a_T = 2\.9871\d* > a_hi = 2\.5")]
        for (a_lo, a_hi), broken in cases:
            model = model_by_name("gl-analytic")
            model.bounds = Bounds(a_lo, a_hi, 0.0, 0.0, 1.0, 1.0)
            with pytest.raises(ValueError, match=r"^y = \[0\.25\]: " + broken
                                                 + ", outside the certified range$"):
                Assembler(build_mesh(8), model).system([0.25])
        model = model_by_name("gl-analytic")
        model.a_cached = lambda cache, y: np.full(cache["shape"], np.nan)
        with pytest.raises(ValueError, match=r"min a_T = nan < a_lo = 1\.0"):
            Assembler(build_mesh(8), model).system([0.25])

    def test_shift_above_lambda1_raises(self):
        sysm = assemble(build_mesh(8), model_by_name("gl-analytic"), [0.4])
        lam1 = smallest_eigenpair(sysm).value
        with pytest.raises(EigenSolveError, match="sigma"):
            smallest_eigenpair(replace(sysm, shift=1.05 * lam1))


class TestSinePreconditioner:
    """The sine T of mesh systems against the exact (A - sigma M)^-1."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_agrees_with_banded_and_dense(self, name):
        model = model_by_name(name)
        rng = np.random.default_rng(97)
        h = model.param_halfwidth
        for m in (8, 16, 32):
            asm = Assembler(build_mesh(m), model)
            corners = _box_corners(model)
            points = corners + [rng.uniform(-h, h, corners[0].size) for _ in range(3)]
            for y in points:
                sysm = asm.system(y)
                exact = replace(sysm, precondition=shift_invert(sysm.A, sysm.M, sysm.shift))
                sine = smallest_eigenpair(sysm)
                inverse = smallest_eigenpair(exact).value
                ones = eigensolver._iterate(sysm, np.ones(sysm.n_dof), 1e-14, 10000).value
                dense = _dense_eigenvalues(sysm, 2)
                assert abs(sine.value - inverse) <= 1e-13 * inverse
                assert abs(sine.value - ones) <= 1e-13 * ones
                assert abs(sine.value - dense[0]) <= 1e-10 * dense[0]
                # lambda2, deflated against the same u1, by both T
                sine2 = second_eigenpair(sysm, sine).value
                inverse2 = second_eigenpair(exact, sine).value
                assert abs(sine2 - inverse2) <= 1e-13 * inverse2
                assert abs(sine2 - dense[1]) <= 1e-10 * dense[1]

    def test_iterations_flat_in_m(self):
        # spectral equivalence bounds the count independently of h; gl-analytic
        # has the widest contrast, a_hi / a_lo = 3; lambda2 runs the same T
        model = model_by_name("gl-analytic")
        for m in (16, 64):
            asm = Assembler(build_mesh(m), model)
            for y in ([-1.0], [0.0], [1.0]):
                sysm = asm.system(y)
                p1 = smallest_eigenpair(sysm)
                assert p1.iterations <= 12
                assert second_eigenpair(sysm, p1).iterations <= 32

    @pytest.mark.parametrize("name", ["gl-gevrey3", "gl-analytic"])
    def test_mode_start_saves_steps(self, name):
        # the lowest sine mode, scaled by diag(A)^-1/2, starts closer to u1
        # than the all-ones vector does
        asm = Assembler(build_mesh(64), model_by_name(name))
        mode, ones = [], []
        for y in np.linspace(-0.9, 0.9, 7):
            sysm = asm.system([y])
            mode.append(smallest_eigenpair(sysm).iterations)
            ones.append(eigensolver._iterate(sysm, np.ones(sysm.n_dof), 1e-14, 10000).iterations)
        assert np.mean(mode) < np.mean(ones)

    def test_start_vectors(self, monkeypatch):
        starts = []
        iterate = eigensolver._iterate
        monkeypatch.setattr(eigensolver, "_iterate",
                            lambda sys, x0, *rest: starts.append(x0) or iterate(sys, x0, *rest))
        sysm = assemble(build_mesh(8), model_by_name("gl-analytic"), [0.3])
        smallest_eigenpair(sysm)
        assert starts[0] is sysm.start and np.all(sysm.start > 0.0)

    def test_one_step_raises(self):
        # a capped call never converges: an exit needs two Rayleigh quotients
        for sysm in (assemble(build_mesh(32), model_by_name("gl-gevrey3"), [0.2]),
                     system_from_dense(np.diag([1.0, 2.0, 5.0]), np.eye(3))):
            with pytest.raises(EigenSolveError) as err:
                smallest_eigenpair(sysm, max_iter=1)
            assert err.value.last.iterations == 1


def _dense_eigenvalues(sysm, count):
    return sla.eigh(sysm.A.toarray(), sysm.M.toarray(), eigvals_only=True,
                    subset_by_index=[0, count - 1])


class TestBlockSecond:
    def test_exact_degeneracy(self):
        # the 5-point Laplacian on a 10 x 10 grid is invariant under x <-> y
        # and under either reflection, so lambda2 = lambda3 exactly (the P1
        # meshes keep only x <-> y, and there lambda2 < lambda3)
        t = 2.0 * np.eye(10) - np.eye(10, k=1) - np.eye(10, k=-1)
        sysm = system_from_dense(np.kron(t, np.eye(10)) + np.kron(np.eye(10), t),
                                 np.eye(100))
        w = _dense_eigenvalues(sysm, 3)
        assert abs(w[2] - w[1]) <= 1e-13 * w[1]
        p1 = smallest_eigenpair(sysm)
        p2 = second_eigenpair(sysm, p1)
        assert abs(p2.value - w[1]) <= 1e-10 * w[1]
        assert abs(p1.vector @ (sysm.M @ p2.vector)) <= 1e-10

    def test_gap_argmin_matches_dense(self):
        # lambda2 ~ lambda3 at these samples; deflated power iteration
        # stopped 1.5e-6 away from the dense value here
        model = model_by_name("qmc-analytic")
        samples = np.random.default_rng(31415).random((8, 20)) - 0.5
        rep = estimate_gap(model, 32, samples)
        w = _dense_eigenvalues(assemble(build_mesh(32), model, rep.y_argmin), 2)
        assert abs(rep.lambda1 - w[0]) <= 1e-10 * w[0]
        assert abs(rep.lambda2 - w[1]) <= 1e-10 * w[1]

    def test_two_dof_second(self, monkeypatch):
        # on two dofs the Gram matrix of M loses rank: for [x, w, p] from the
        # second step, for [x, w] once x has converged.  LAPACK reports
        # info > k, and the step retries on the leading rows.
        calls = []
        lapack_dsygvd = eigensolver.dsygvd

        def dsygvd(a, b):
            w, v, info = lapack_dsygvd(a, b)
            calls.append((a.shape[0], info))
            return w, v, info

        monkeypatch.setattr(eigensolver, "dsygvd", dsygvd)
        sysm = system_from_dense(np.diag([1.0, 3.0]), np.eye(2))
        p1 = smallest_eigenpair(sysm)
        p2 = second_eigenpair(sysm, p1)
        assert (p1.value, p2.value) == pytest.approx((1.0, 3.0), rel=1e-13)
        failed = [(k, info) for k, info in calls if info != 0]
        assert {k for k, _ in failed} == {2, 3}
        assert all(info > k for k, info in failed)

    def test_one_dof_has_no_second(self):
        sysm = system_from_dense(np.diag([2.0]), np.eye(1))
        with pytest.raises(EigenSolveError, match="^a one-dof system has no second eigenpair$"):
            second_eigenpair(sysm, smallest_eigenpair(sysm))

    def test_determinism(self):
        sysm = assemble(build_mesh(12), model_by_name("gl-gevrey3"), [0.4])
        p1 = smallest_eigenpair(sysm)
        a = second_eigenpair(sysm, p1)
        b = second_eigenpair(sysm, p1)
        assert a.value == b.value
        assert a.iterations == b.iterations
        assert np.array_equal(a.vector, b.vector)


class TestExits:
    """Each exit of the shared stopping rule, reached by lambda1 and lambda2.

    Which fallback a tol below the rounding floor leaves through depends on
    the last bits of the iterates; these cases were found with OpenBLAS held
    at one thread, as every solve holds it.
    """

    def _pairs(self, y, tol):
        sysm = assemble(build_mesh(8), model_by_name("gl-analytic"), y)
        p1 = smallest_eigenpair(sysm, tol=tol)
        p2 = second_eigenpair(sysm, p1, tol=tol)
        w = _dense_eigenvalues(sysm, 2)
        for pair, ref in zip((p1, p2), w):
            assert abs(pair.value - ref) <= 1e-12 * ref
        return p1, p2

    def test_primary_exit(self):
        p1, p2 = self._pairs([0.25], 1e-14)
        assert (p1.exit_reason, p2.exit_reason) == ("step", "step")

    def test_residual_floor_exit(self):
        p1, p2 = self._pairs([0.0], 1e-20)
        assert (p1.exit_reason, p2.exit_reason) == ("floor", "floor")

    def test_plateau_exit(self):
        # no y of a 39-point grid on [-0.95, 0.95] sends both pairs through
        # the plateau, so each reaches it at a y of its own
        p1, p2 = self._pairs([-0.3], 1e-20)
        assert (p1.exit_reason, p2.exit_reason) == ("plateau", "floor")
        p1, p2 = self._pairs([-0.55], 1e-20)
        assert (p1.exit_reason, p2.exit_reason) == ("floor", "plateau")

    def test_unconverged_pair_has_no_exit(self):
        sysm = assemble(build_mesh(8), model_by_name("gl-analytic"), [0.0])
        with pytest.raises(EigenSolveError) as err:
            second_eigenpair(sysm, smallest_eigenpair(sysm), max_iter=3)
        assert err.value.last.iterations == 3
        assert err.value.last.exit_reason == ""


class TestGap:
    def test_constant_model_gap_y_independent(self):
        const = model_by_name("constant")
        gaps = [estimate_gap(const, 8, [[y]]).gap for y in (-0.5, 0.0, 0.7)]
        assert max(gaps) - min(gaps) <= 1e-10
        rep = estimate_gap(const, 8, [[-0.5], [0.0], [0.7]])
        assert rep.gap == pytest.approx(gaps[0], abs=1e-12)
        assert 0.0 < rep.gap < 1.0

    def test_single_sample_echo(self):
        rep = estimate_gap(model_by_name("gl-analytic"), 8, [[0.25]])
        assert rep.y_argmin == pytest.approx([0.25])

    def test_gl_analytic_grid(self):
        ys = [[-1.0], [-0.5], [0.0], [0.5], [1.0]]
        rep = estimate_gap(model_by_name("gl-analytic"), 16, ys)
        assert 0.0 < rep.gap < 1.0
        assert 0.0 < rep.lambda1 < rep.lambda2

    def test_failure_names_the_sample(self, monkeypatch):
        # the "system" at y is y[0]; the stub solver fails at positive y
        last = EigenPair(1.0, np.ones(1), 1.0, 3)
        tols = []

        class Assembler:
            def __init__(self, mesh, model):
                pass

            def system(self, y):
                return y[0]

        def smallest(y, tol):
            tols.append(tol)
            if y > 0.0:
                raise EigenSolveError("stub failure", last=last)
            return EigenPair(1.0, np.ones(1), 0.0, 1, "step")

        monkeypatch.setattr(eigensolver, "Assembler", Assembler)
        monkeypatch.setattr(eigensolver, "smallest_eigenpair", smallest)
        monkeypatch.setattr(eigensolver, "second_eigenpair",
                            lambda y, p1, tol: replace(p1, value=2.0))
        with pytest.raises(EigenSolveError) as err:
            estimate_gap(model_by_name("constant"), 4, [[-0.5], [0.25]])
        assert str(err.value) == "sample 1 (y=[0.25]): stub failure"
        assert err.value.last is last
        assert tols == [1e-12, 1e-12]

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            estimate_gap(model_by_name("constant"), 8, [])
