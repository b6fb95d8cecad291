"""Inverse power iteration for the smallest generalized eigenpairs.

Solves A u = lambda M u for symmetric positive definite sparse A, M.  The
smallest pair comes from inverse iteration with M-normalization; the second
from the same iteration with M-orthogonal deflation against the first
eigenvector.  Convergence is declared when successive Rayleigh quotients
differ by at most ``tol * lambda`` AND the scaled residual
||Au - lambda Mu|| / ||u|| has dropped below 10 * tol * lambda (with a
stagnation fallback, so the solver terminates even when that floor is
unreachable).  Both tests are relative, so they mean the same at any
eigenvalue scale.

The iteration is shifted by the system's certified lower bound sigma on
lambda1 (``SparseSystem.shift``): every solve factors A - sigma M once by a
banded Cholesky decomposition (LAPACK dpbtrf; in lexicographic order the FEM
matrices have bandwidth m) and reuses the factor in every step.  These band
calls are far too small to gain from BLAS threads, so each solve holds
OpenBLAS at one thread while it runs.
"""

from __future__ import annotations

import ctypes
import importlib
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass

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
    """Eigenvalue, M-normalized eigenvector, scaled residual, iteration count."""

    value: float
    vector: np.ndarray
    residual: float
    iterations: int


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
    the results, independent of the thread count.  Solves may overlap in a
    worker pool, so the previous counts come back when the last one leaves.
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


@_one_blas_thread()
def _iterate(
    sys: SparseSystem,
    x0: np.ndarray,
    tol: float,
    max_iter: int,
    project=None,
):
    """Shared inverse-iteration loop; ``project`` deflates after every step."""
    A, M = sys.A, sys.M
    factor = (_factor_shifted(sys), False)

    def solve(b):
        return sla.cho_solve_banded(factor, b, overwrite_b=True, check_finite=False)

    def m_normalize(v):
        nrm2 = float(v @ (M @ v))
        if not np.isfinite(nrm2) or nrm2 <= 0.0:
            raise EigenSolveError("iterate collapsed (deflation or singular M)")
        return v / np.sqrt(nrm2)

    x = x0
    if project is not None:
        x = project(x)
    x = m_normalize(x)
    lam = np.inf
    history: list[float] = []  # trailing Rayleigh quotients
    best_res = np.inf
    stall = 0
    pair = None
    eps = float(np.finfo(float).eps)
    for it in range(1, max_iter + 1):
        z = solve(M @ x)
        if project is not None:
            z = project(project(z))
        x = m_normalize(z)
        Ax = A @ x
        Mx = M @ x
        lam = float(x @ Ax)
        if lam <= 0.0 or not np.isfinite(lam):
            raise EigenSolveError(f"nonpositive Rayleigh quotient {lam}")
        rvec = Ax - lam * Mx
        if project is not None:
            rvec = project(rvec)
        res = float(np.linalg.norm(rvec) / np.linalg.norm(x))
        pair = EigenPair(lam, x, res, it)
        # Near machine precision the iterate can settle into a short cycle of
        # floating-point fixed points whose one-step difference never drops
        # below tol; the two-step difference then vanishes.
        diffs = [abs(lam - old) for old in history[-2:]]
        lam_converged = bool(diffs) and min(diffs) <= tol * lam
        if lam_converged and res <= 10.0 * tol * lam:
            return pair
        if res < best_res * (1.0 - 1e-3):
            best_res = res
            stall = 0
        else:
            stall += 1
        # residual floor reached: accept once lambda has settled
        if lam_converged and stall >= 8:
            return pair
        # hard rounding plateau: lambda confined to a band of a few dozen ulps
        history.append(lam)
        if stall >= 10 and len(history) >= 8:
            window = history[-8:]
            if max(window) - min(window) <= 100.0 * eps * abs(lam):
                return pair
    raise EigenSolveError(
        f"no convergence after {max_iter} iterations (last lambda {lam})", last=pair
    )


def smallest_eigenpair(
    sys: SparseSystem, tol: float = 1e-14, max_iter: int = 10000
) -> EigenPair:
    """Smallest eigenpair of A u = lambda M u by inverse power iteration.

    Starts from the constant all-ones interior vector; the eigenvector is
    returned M-normalized.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _check_system(sys)
    x0 = np.ones(sys.n_dof)
    return _iterate(sys, x0, tol, max_iter)


def second_eigenpair(
    sys: SparseSystem,
    first: EigenPair,
    tol: float = 1e-14,
    max_iter: int = 10000,
) -> EigenPair:
    """Second-smallest eigenpair via M-orthogonal deflation against ``first``.

    The projection is applied after every multiply and normalization; the
    residual is measured in the deflated subspace.  Fails if the deflated
    iterate collapses (near-degenerate gap).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    _check_system(sys)
    u1 = first.vector
    Mu1 = sys.M @ u1

    def project(v):
        return v - (Mu1 @ v) * u1

    # deterministic start with no mesh symmetry, so all eigencomponents are hit
    n = sys.n_dof
    x0 = np.cos(1.2345 * np.arange(n)) + 0.5
    pair = _iterate(sys, x0, tol, max_iter, project=project)
    if pair.value <= first.value * (1.0 + 1e-12):
        raise EigenSolveError(
            f"deflated eigenvalue {pair.value} did not separate from {first.value}",
            last=pair,
        )
    return pair


def estimate_gap(
    model,
    m: int,
    y_samples,
    tol: float = 1e-12,
    tol2: float = 1e-8,
    max_iter: int = 10000,
) -> GapReport:
    """Minimum sampled relative spectral gap 1 - lambda1/lambda2.

    Solves both eigenpairs at every sample; the result is an upper estimate
    of the true uniform gap.  lambda2 uses its own tolerance ``tol2``:
    models can pass through near-degenerate lambda2/lambda3 clusters where
    the deflated eigenvector converges arbitrarily slowly although the
    eigenvalue itself (all the gap needs) settles quickly.  Both tolerances
    are relative; near such a cluster the deflated iteration contracts by
    about lambda2/lambda3 per step, so the error in lambda2 is some hundreds
    of times its last step, and ``tol2`` is kept that much below the accuracy
    the gap needs.  Solver failures are re-raised with the index of the
    offending sample attached.
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
            p2 = second_eigenpair(system, p1, max(tol, tol2), max_iter)
        except EigenSolveError as exc:
            raise EigenSolveError(f"sample {k} (y={y!r}): {exc}", last=exc.last) from exc
        gap = 1.0 - p1.value / p2.value
        if best is None or gap < best[0]:
            best = (gap, p1.value, p2.value, np.atleast_1d(np.asarray(y, dtype=float)))
    gap, l1, l2, y_argmin = best
    return GapReport(l1, l2, gap, y_argmin)
