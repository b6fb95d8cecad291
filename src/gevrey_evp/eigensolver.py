"""Preconditioned eigensolvers for the two smallest generalized eigenpairs.

Solves A u = lambda M u for symmetric positive definite sparse A, M.  The
smallest pair comes from single-vector LOBPCG (Knyazev, SIAM J. Sci.
Comput. 23, 2001): every step takes the Rayleigh-Ritz pair of the basis
[x, T r, p], with r the residual of the iterate x and p the last step's
direction.  T is one of two preconditioners:

- a mesh system (``fem.Assembler``) carries its own in
  ``SparseSystem.precondition``: a fast-sine solve spectrally equivalent to
  (A - sigma M)^-1, four dense GEMMs of order m - 1 and no factorisation;
- a system built by hand has none, and T = (A - sigma M)^-1 through a banded
  factor, which makes the loop shift-invert iteration with Ritz acceleration.

The start is ``SparseSystem.start``, the lowest sine mode scaled by
diag(A)^-1/2 on a mesh system, or else the all-ones vector.

The second pair comes from subspace iteration on a block of a few vectors
held M-orthogonal to the first eigenvector, with a Rayleigh-Ritz step after
every block solve: the lowest Ritz pair converges at the rate set by the
first eigenvalue beyond the block, so a lambda2 equal or close to lambda3
costs no more than a well separated one.

Both loops share one stopping rule: successive Rayleigh quotients differ by
at most ``tol * lambda`` AND the scaled residual ||Au - lambda Mu|| / ||u||
has dropped below 10 * tol * lambda, with a residual-floor and a plateau
fallback, so the solver terminates even when that floor is unreachable.
Both tests are relative, so they mean the same at any eigenvalue scale.
``EigenPair.exit_reason`` names the exit that accepted a pair.

Both loops are shifted by the system's certified lower bound sigma on
lambda1 (``SparseSystem.shift``).  The block loop, and the lambda1 loop of a
hand-built system, factor A - sigma M once by a banded Cholesky
decomposition (LAPACK dpbtrf; in lexicographic order the FEM matrices have
bandwidth m) and reuse the factor in every step; a failed factorisation, or
a lambda1 not above sigma, raises ``EigenSolveError`` naming sigma.  The
band calls are far too small to gain from BLAS threads, and one thread keeps
the rounding of the GEMMs independent of the thread count, so each solve
holds OpenBLAS at one thread while it runs.
"""

from __future__ import annotations

import ctypes
import importlib
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from .fem import Assembler, SparseSystem, build_mesh

__all__ = [
    "EigenPair",
    "GapReport",
    "EigenSolveError",
    "smallest_eigenpair",
    "second_eigenpair",
    "estimate_gap",
]


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue, M-normalized eigenvector, scaled residual, iteration count.

    ``exit_reason`` is the stopping test that accepted the pair: "step",
    "floor" or "plateau" (see ``_converge``); empty on an unconverged iterate.
    """

    value: float
    vector: np.ndarray
    residual: float
    iterations: int
    exit_reason: str = ""


@dataclass(frozen=True)
class GapReport:
    """Sampled minimum of the relative spectral gap 1 - lambda1/lambda2."""

    lambda1: float
    lambda2: float
    gap: float
    y_argmin: np.ndarray


class EigenSolveError(RuntimeError):
    """Raised on non-convergence or an unusable matrix pair.

    Carries the last iterate (if any) in ``last``.
    """

    def __init__(self, message: str, last: EigenPair | None = None):
        super().__init__(message)
        self.last = last


def _openblas_thread_controls():
    """(get, set) pairs for the thread count of each OpenBLAS in use.

    scipy's LAPACK and numpy's dot products may each bring an OpenBLAS of
    their own.  The symbols are looked up through an extension module of
    each package, so they resolve in the library it was linked against.
    """
    controls = {}
    for module in ("scipy.linalg._flapack", "numpy.linalg._umath_linalg"):
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
        except (ImportError, OSError, AttributeError, TypeError):
            continue
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("", "64_")):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            controls[ctypes.cast(put, ctypes.c_void_p).value] = (get, put)
            break
    return tuple(controls.values())


_BLAS_THREADS = _openblas_thread_controls()
_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved: list[int] = []


@contextmanager
def _one_blas_thread():
    """Hold every OpenBLAS in use at one thread while any solve runs.

    The band calls are far too small to gain from threads: with one thread
    per core on 2 cores, dpbtrf took 9.3 ms a call at m = 32 instead of about
    0.5 ms.  One thread also keeps the rounding of the dot products, and so
    the results, independent of the thread count.  The library runs its
    solves one after another, but callers may overlap solves from threads of
    their own, so the previous counts come back when the last one leaves.
    """
    global _blas_users, _blas_saved
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = [get() for get, _ in _BLAS_THREADS]
            for _, put in _BLAS_THREADS:
                put(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                for (_, put), n in zip(_BLAS_THREADS, _blas_saved):
                    put(n)


def _factor_shifted(sys: SparseSystem):
    """Banded Cholesky factor of A - shift M (LAPACK dpbtrf), upper form.

    The bandwidth is read from the matrices.  A failed factorisation means
    A - shift M is not positive definite, i.e. lambda1 <= shift.
    """
    n = sys.n_dof
    rows, cols, vals = [], [], []
    for mat, scale in ((sys.A, 1.0), (sys.M, -sys.shift)):
        rows.append(np.repeat(np.arange(n), np.diff(mat.indptr)))
        cols.append(mat.indices)
        vals.append(scale * mat.data)
    rows, cols, vals = (np.concatenate(v) for v in (rows, cols, vals))
    upper = cols >= rows
    rows, cols, vals = rows[upper], cols[upper], vals[upper]
    u = int((cols - rows).max())
    # entry (i, j) of the upper band sits at ab[u + i - j, j]; bincount sums
    # duplicates, and Fortran order lets LAPACK factor ab in place
    ab = np.bincount(
        (u + rows - cols) + (u + 1) * cols, weights=vals, minlength=(u + 1) * n
    ).reshape((u + 1, n), order="F")
    try:
        return sla.cholesky_banded(ab, overwrite_ab=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(
            f"A - sigma M is not positive definite at sigma = {sys.shift!r}, "
            f"so lambda1 <= sigma, against the certified bound ({exc})"
        ) from exc


def _check_system(sys: SparseSystem):
    for name, mat in (("A", sys.A), ("M", sys.M)):
        if mat.shape != (sys.n_dof, sys.n_dof):
            raise EigenSolveError(f"{name} has shape {mat.shape}, expected square")
        d = mat.diagonal()
        if d.size == 0 or np.any(d <= 0) or not np.all(np.isfinite(mat.data)):
            raise EigenSolveError(f"{name} is not usable (nonpositive diagonal or NaN)")


def _shifted_solver(sys: SparseSystem):
    """b -> (A - shift M)^-1 b through one banded factor; b may hold columns."""
    factor = (_factor_shifted(sys), False)

    def solve(b):
        return sla.cho_solve_banded(factor, b, overwrite_b=True, check_finite=False)

    return solve


def _converge(step, tol: float, max_iter: int) -> EigenPair:
    """Call ``step() -> (lambda, vector, residual)`` until an exit accepts it.

    The exits, tried in this order after every step:

    - ``"step"``: successive lambdas differ by at most ``tol * lambda`` and
      the residual is at most ``10 * tol * lambda``;
    - ``"floor"``: the lambdas have settled as above, but the residual has
      not fallen by 0.1% in 8 steps, so rounding has put its floor above
      ``10 * tol * lambda`` (as it has for any tol near 1e-20);
    - ``"plateau"``: no residual gain in 10 steps, and the last 8 lambdas lie
      within 100 ulps of each other.
    """
    history: list[float] = []  # trailing Rayleigh quotients
    best_res = np.inf
    stall = 0
    pair = None
    lam = np.inf
    eps = float(np.finfo(float).eps)
    for it in range(1, max_iter + 1):
        lam, x, res = step()
        if lam <= 0.0 or not np.isfinite(lam):
            raise EigenSolveError(f"nonpositive Rayleigh quotient {lam}")
        pair = EigenPair(lam, x, res, it)
        # Near machine precision the iterate can settle into a short cycle of
        # floating-point fixed points whose one-step difference never drops
        # below tol; the two-step difference then vanishes.
        diffs = [abs(lam - old) for old in history[-2:]]
        lam_converged = bool(diffs) and min(diffs) <= tol * lam
        if lam_converged and res <= 10.0 * tol * lam:
            return replace(pair, exit_reason="step")
        if res < best_res * (1.0 - 1e-3):
            best_res = res
            stall = 0
        else:
            stall += 1
        if lam_converged and stall >= 8:
            return replace(pair, exit_reason="floor")
        history.append(lam)
        if stall >= 10 and len(history) >= 8:
            window = history[-8:]
            if max(window) - min(window) <= 100.0 * eps * abs(lam):
                return replace(pair, exit_reason="plateau")
    raise EigenSolveError(
        f"no convergence after {max_iter} iterations (last lambda {lam})", last=pair
    )


@_one_blas_thread()
def _iterate(sys: SparseSystem, x0: np.ndarray, tol: float, max_iter: int) -> EigenPair:
    """Single-vector LOBPCG: a Rayleigh-Ritz step on [x, T r, p] per step.

    T is the system's preconditioner, or (A - shift M)^-1 through a banded
    factor where it has none.  The rows of X hold the basis x, w = T r and
    the previous direction p, with their products by A and M in AX and MX;
    w and p are scaled to unit M-norm.  Where the M-Gram matrix of the basis
    is not positive definite (1- and 2-dof systems, converged iterates), p
    and then w are dropped.  A x and M x are recomputed for every iterate,
    so the residual is that of x itself; A p and M p are carried along.
    """
    A, M = sys.A, sys.M
    precondition = sys.precondition or _shifted_solver(sys)
    X, AX, MX = (np.empty((3, sys.n_dof)) for _ in range(3))
    rows = 2  # x and w; p joins after the first step

    def accept(v):
        """M-normalize v into row 0; its Rayleigh quotient and residual."""
        Av, Mv = A @ v, M @ v
        nrm2 = float(v @ Mv)
        if not np.isfinite(nrm2) or nrm2 <= 0.0:
            raise EigenSolveError("iterate collapsed (singular M)")
        scale = 1.0 / np.sqrt(nrm2)
        X[0], AX[0], MX[0] = v * scale, Av * scale, Mv * scale
        lam = float(X[0] @ AX[0])
        return lam, AX[0] - lam * MX[0]

    lam, r = accept(x0)

    def step():
        nonlocal lam, r, rows
        X[1] = precondition(r)
        AX[1], MX[1] = A @ X[1], M @ X[1]
        scale = np.einsum("ij,ij->i", X[1:rows], MX[1:rows])
        scale = (np.where(scale > 0.0, scale, 1.0) ** -0.5)[:, None]
        for Z in (X, AX, MX):
            Z[1:rows] *= scale
        GA, GM = X[:rows] @ AX[:rows].T, X[:rows] @ MX[:rows].T
        for k in range(rows, 0, -1):
            try:
                _, C = sla.eigh(GA[:k, :k], GM[:k, :k], check_finite=False)
                break
            except np.linalg.LinAlgError:
                continue  # rank loss: drop p, then w
        else:
            raise EigenSolveError("iterate collapsed (singular M)")
        c = np.copysign(1.0, C[0, 0]) * C[:, 0]  # keep the orientation of x
        v = c[0] * X[0]
        for Z in (X, AX, MX):
            Z[2] = c[1:] @ Z[1:k]
        v += X[2]
        lam, r = accept(v)
        rows = 3 if k > 1 else 2
        return lam, X[0].copy(), float(np.linalg.norm(r) / np.linalg.norm(X[0]))

    return _converge(step, tol, max_iter)


# Vectors in the lambda2 block.  The Ritz value converges like
# ((lambda2 - sigma) / (lambda_{2+_BLOCK} - sigma))^2 per step.  Over 8 samples
# of qmc-analytic at m = 32 (one BLAS thread), blocks of 2, 3, 5, 6 and 8 took
# 109, 91, 78, 86 and 79 ms against 69 ms for 4.
_BLOCK = 4


@_one_blas_thread()
def _block_iterate(
    sys: SparseSystem, u1: np.ndarray, X0: np.ndarray, tol: float, max_iter: int
) -> EigenPair:
    """Block inverse iteration M-orthogonal to u1, with Rayleigh-Ritz per step.

    Every step solves for all columns at once, projects out u1 twice and
    takes the Ritz pairs of the block; the lowest one is the iterate.
    """
    A, M = sys.A, sys.M
    solve = _shifted_solver(sys)
    Mu1 = M @ u1
    MX = M @ X0

    def step():
        nonlocal MX
        Z = solve(MX)
        for _ in range(2):  # one pass leaves rounding of the size u1 had in Z
            Z -= np.outer(u1, Mu1 @ Z)
        AZ = A @ Z
        MZ = M @ Z
        try:  # eigh reads the lower triangles of the two Gram matrices
            theta, C = sla.eigh(Z.T @ AZ, Z.T @ MZ, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise EigenSolveError(f"block iterate collapsed ({exc})") from exc
        MX = MZ @ C
        c = C[:, 0]
        lam = float(theta[0])
        x = Z @ c
        rvec = AZ @ c - lam * MX[:, 0]
        rvec -= Mu1 * (u1 @ rvec)
        res = float(np.linalg.norm(rvec) / np.linalg.norm(x))
        return lam, x, res

    return _converge(step, tol, max_iter)


def smallest_eigenpair(
    sys: SparseSystem, tol: float = 1e-14, max_iter: int = 10000
) -> EigenPair:
    """Smallest eigenpair of A u = lambda M u by preconditioned LOBPCG.

    Starts from ``sys.start``, or from the all-ones vector where the system
    has none; the eigenvector is returned M-normalized.  Raises
    ``EigenSolveError`` when the eigenvalue found is not above the system's
    certified shift.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _check_system(sys)
    x0 = np.ones(sys.n_dof) if sys.start is None else sys.start
    pair = _iterate(sys, x0, tol, max_iter)
    if pair.value <= sys.shift:
        # mesh systems never factor A - sigma M, which would have caught this
        raise EigenSolveError(
            f"lambda1 = {pair.value!r} is not above sigma = {sys.shift!r}, "
            "against the certified bound", last=pair,
        )
    return pair


def second_eigenpair(
    sys: SparseSystem,
    first: EigenPair,
    tol: float = 1e-14,
    max_iter: int = 10000,
) -> EigenPair:
    """Second-smallest eigenpair by block subspace iteration against ``first``.

    Iterates a block of up to ``_BLOCK`` vectors (at most n_dof - 1) held
    M-orthogonal to ``first.vector`` and returns the lowest Ritz pair, so a
    lambda2 close to or equal to lambda3 converges at the rate of the gap
    to the first eigenvalue beyond the block.  ``iterations`` counts block
    steps; the residual is measured in the deflated subspace.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _check_system(sys)
    n = sys.n_dof
    if n < 2:
        raise EigenSolveError("a one-dof system has no second eigenpair")
    # deterministic start with no mesh symmetry, so all eigencomponents are hit
    freqs = 1.2345 * np.arange(1, min(_BLOCK, n - 1) + 1)
    X0 = np.cos(np.outer(np.arange(n), freqs)) + 0.5
    pair = _block_iterate(sys, first.vector, X0, tol, max_iter)
    if pair.value <= first.value * (1.0 + 1e-12):
        raise EigenSolveError(
            f"second eigenvalue {pair.value} did not separate from {first.value}",
            last=pair,
        )
    return pair


def estimate_gap(
    model,
    m: int,
    y_samples,
    tol: float = 1e-12,
    max_iter: int = 10000,
) -> GapReport:
    """Minimum sampled relative spectral gap 1 - lambda1/lambda2.

    Solves both eigenpairs at every sample, to the same relative ``tol``;
    the result is an upper estimate of the true uniform gap.  lambda2 comes
    from the block iteration of ``second_eigenpair``, which converges as
    fast where lambda2 and lambda3 nearly or exactly coincide.  Solver
    failures are re-raised with the index of the offending sample attached.
    """
    samples = list(y_samples)
    if not samples:
        raise ValueError("need at least one parameter sample")
    asm = Assembler(build_mesh(m), model)
    best = None
    for k, y in enumerate(samples):
        try:
            system = asm.system(y)
            p1 = smallest_eigenpair(system, tol, max_iter)
            p2 = second_eigenpair(system, p1, tol, max_iter)
        except EigenSolveError as exc:
            raise EigenSolveError(f"sample {k} (y={y!r}): {exc}", last=exc.last) from exc
        gap = 1.0 - p1.value / p2.value
        if best is None or gap < best[0]:
            best = (gap, p1.value, p2.value, np.atleast_1d(np.asarray(y, dtype=float)))
    gap, l1, l2, y_argmin = best
    return GapReport(l1, l2, gap, y_argmin)
