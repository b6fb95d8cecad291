"""Preconditioned eigensolvers for the two smallest generalized eigenpairs.

Solves A u = lambda M u for symmetric positive definite sparse A, M.  The
smallest pair comes from single-vector LOBPCG (Knyazev, SIAM J. Sci.
Comput. 23, 2001): every step takes the Rayleigh-Ritz pair of the basis
[x, T r, p], with r the residual of the iterate x and p the last step's
direction.  T and the start are the system's own,
``SparseSystem.precondition`` and ``SparseSystem.start``: on a mesh system
(``fem.Assembler``) a fast-sine solve spectrally equivalent to
(A - sigma(y) M)^-1 (four dense GEMMs of order m - 1, shifted by
0.9 sigma(y)), and the lowest sine mode scaled by diag(A)^-1/2.  The solver factors nothing.

The second pair comes from the same loop, deflated: its start, every T r
and every iterate are M-projected against the first eigenvector, so it
converges to the lowest eigenpair of the M-complement of u1.

Both pairs share one stopping rule: successive Rayleigh quotients differ by
at most ``tol * lambda`` AND the scaled residual ||Au - lambda Mu|| / ||u||
has dropped below 10 * tol * lambda, with a residual-floor and a plateau
fallback, so the solver terminates even when that floor is unreachable.
Both tests are relative, so they mean the same at any eigenvalue scale.
``EigenPair.exit_reason`` names the exit that accepted a pair.

The shift is the system's certified lower bound sigma on lambda1
(``SparseSystem.shift``), on a mesh system sigma(y) = 2 pi^2 min_T a_T(y) /
c_hi; a lambda1 not above sigma raises ``EigenSolveError`` naming sigma.
Each solve holds OpenBLAS at one thread while it runs, so that the rounding
of its dot products and GEMMs does not depend on the thread count.
"""

from __future__ import annotations

import ctypes
import importlib
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsygvd

from .fem import Assembler, SparseSystem, _csr_matvec, build_mesh

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
    "floor" or "plateau" (see ``_iterate``); empty on an unconverged iterate.
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
    """Raised on non-convergence or a breakdown of the iteration.

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

    One thread keeps the rounding of the dot products and the preconditioner's
    GEMMs, and so the results, independent of the thread count: at m = 128
    the CSV bytes differ between one and two threads without it.  The library
    runs its solves one after another, but callers may overlap solves from
    threads of their own, so the previous counts come back when the last one
    leaves.
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


def _tol_problem(tol: float) -> str | None:
    """Why tol is unusable as a relative tolerance, or None where it is finite
    with 0 < tol < 1; the one tol rule of the solver and the config."""
    return None if 0.0 < tol < 1.0 else "tol must be positive and below 1"


@_one_blas_thread()
def _iterate(
    sys: SparseSystem, x0: np.ndarray, tol: float, max_iter: int, deflate=None
) -> EigenPair:
    """Single-vector LOBPCG: a Rayleigh-Ritz step on [x, T r, p] per step.

    T is the system's preconditioner.  The rows of X hold the basis x,
    w = T r and the previous direction p, with their products by A and M in
    AX and MX; w and p are scaled to unit M-norm.  Where the M-Gram matrix
    of the basis is not positive definite (1- and 2-dof systems, converged
    iterates), p and then w are dropped.  A x and M x are recomputed for
    every iterate, so the residual is that of x itself; A p and M p are
    carried along.

    With ``deflate`` (an M-normalized vector u1) the start, every w and every
    new iterate are M-projected against u1, so the loop runs in the
    M-complement of u1; without it the projection is the identity.  A tol
    outside (0, 1), NaN included, raises ``ValueError``.

    The exits, tried in this order after every step:

    - ``"step"``: successive lambdas differ by at most ``tol * lambda`` and
      the residual is at most ``10 * tol * lambda``;
    - ``"floor"``: the lambdas have settled as above, but the residual has
      not fallen by 0.1% in 8 steps, so rounding has put its floor above
      ``10 * tol * lambda`` (as it has for any tol near 1e-20);
    - ``"plateau"``: no residual gain in 10 steps, and the last 8 lambdas lie
      within 100 ulps of each other.
    """
    problem = _tol_problem(tol)
    if problem:
        raise ValueError(f"{problem}, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    A, M, precondition = _csr_matvec(sys.A), _csr_matvec(sys.M), sys.precondition
    X, AX, MX = (np.empty((3, sys.n_dof)) for _ in range(3))
    rows = 2  # x and w; p joins after the first step
    Mu = None if deflate is None else M(deflate)

    def project(v):
        if deflate is not None:
            for _ in range(2):  # one pass leaves rounding of the size u1 had in v
                v = v - deflate * (Mu @ v)
        return v

    def accept(v):
        """M-normalize v into row 0; its Rayleigh quotient and residual."""
        Av, Mv = A(v), M(v)
        nrm2 = float(v @ Mv)
        if not np.isfinite(nrm2) or nrm2 <= 0.0:
            raise EigenSolveError("iterate collapsed (singular M)")
        scale = 1.0 / np.sqrt(nrm2)
        X[0], AX[0], MX[0] = v * scale, Av * scale, Mv * scale
        lam = float(X[0] @ AX[0])
        return lam, AX[0] - lam * MX[0]

    lam, r = accept(project(x0))
    history: list[float] = []  # trailing Rayleigh quotients
    best_res = np.inf
    stall = 0
    eps = float(np.finfo(float).eps)
    for it in range(1, max_iter + 1):
        X[1] = project(precondition(r))
        AX[1], MX[1] = A(X[1]), M(X[1])
        scale = np.einsum("ij,ij->i", X[1:rows], MX[1:rows])
        scale = (np.where(scale > 0.0, scale, 1.0) ** -0.5)[:, None]
        for Z in (X, AX, MX):
            Z[1:rows] *= scale
        GA, GM = X[:rows] @ AX[:rows].T, X[:rows] @ MX[:rows].T
        for k in range(rows, 0, -1):
            # the LAPACK routine behind scipy.linalg.eigh, without its wrapper
            _, C, info = dsygvd(GA[:k, :k], GM[:k, :k])
            if info == 0:
                break  # else rank loss: drop p, then w
        else:
            raise EigenSolveError("iterate collapsed (singular M)")
        c = np.copysign(1.0, C[0, 0]) * C[:, 0]  # keep the orientation of x
        v = c[0] * X[0]
        for Z in (X, AX, MX):
            Z[2] = c[1:] @ Z[1:k]
        v += X[2]
        lam, r = accept(project(v))
        rows = 3 if k > 1 else 2
        res = float(np.linalg.norm(r) / np.linalg.norm(X[0]))
        if lam <= 0.0 or not np.isfinite(lam):
            raise EigenSolveError(f"nonpositive Rayleigh quotient {lam}")
        # Near machine precision the iterate can settle into a short cycle of
        # floating-point fixed points whose one-step difference never drops
        # below tol; the two-step difference then vanishes.
        diffs = [abs(lam - old) for old in history[-2:]]
        settled = bool(diffs) and min(diffs) <= tol * lam
        if res < best_res * (1.0 - 1e-3):
            best_res, stall = res, 0
        else:
            stall += 1
        history.append(lam)
        window = history[-8:]
        if settled and res <= 10.0 * tol * lam:
            reason = "step"
        elif settled and stall >= 8:
            reason = "floor"
        elif stall >= 10 and len(window) == 8 and max(window) - min(window) <= 100.0 * eps * lam:
            reason = "plateau"
        else:
            continue
        return EigenPair(lam, X[0].copy(), res, it, reason)
    raise EigenSolveError(f"no convergence after {max_iter} iterations (last lambda {lam})",
                          last=EigenPair(lam, X[0].copy(), res, max_iter))


def smallest_eigenpair(
    sys: SparseSystem, tol: float = 1e-14, max_iter: int = 10000
) -> EigenPair:
    """Smallest eigenpair of A u = lambda M u by preconditioned LOBPCG.

    Starts from ``sys.start``; the eigenvector is returned M-normalized.
    Raises ``EigenSolveError`` when the eigenvalue found is not above the
    system's certified shift.
    """
    pair = _iterate(sys, sys.start, tol, max_iter)
    if pair.value <= sys.shift:
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
    """Second-smallest eigenpair: the LOBPCG loop deflated against ``first``.

    Runs the lambda1 iteration with the system's own T from a fixed start;
    the start, every preconditioned residual and every iterate are
    M-projected twice against ``first.vector``, so it converges to the
    lowest eigenpair of the M-complement of u1.  Where lambda2 equals
    lambda3 the vector is one of their shared eigenspace.  ``iterations``
    counts LOBPCG steps.  A ``first.vector`` that is not one entry per dof
    raises ``ValueError``.
    """
    n = sys.n_dof
    if n < 2:
        raise EigenSolveError("a one-dof system has no second eigenpair")
    if np.shape(first.vector) != (n,):  # the bound products would read past it
        raise ValueError(f"first.vector has shape {np.shape(first.vector)}, expected ({n},)")
    # deterministic start with no mesh symmetry, so all eigencomponents are hit
    x0 = np.cos(1.2345 * np.arange(n)) + 0.5
    pair = _iterate(sys, x0, tol, max_iter, deflate=first.vector)
    if pair.value <= first.value * (1.0 + 1e-12):
        raise EigenSolveError(
            f"second eigenvalue {pair.value} did not separate from {first.value}",
            last=pair,
        )
    return pair


_GAP_TOL = 1e-12


def estimate_gap(model, m: int, y_samples) -> GapReport:
    """Minimum sampled relative spectral gap 1 - lambda1/lambda2.

    Solves both eigenpairs at every sample to the relative tolerance
    ``_GAP_TOL``; the result is an upper estimate of the true uniform gap.
    lambda2 comes from ``second_eigenpair``, the lambda1 loop deflated
    against u1.  Solver failures are re-raised with the index and the
    parameter of the offending sample attached.
    """
    samples = list(y_samples)
    if not samples:
        raise ValueError("need at least one parameter sample")
    asm = Assembler(build_mesh(m), model)
    best = None
    for k, y in enumerate(samples):
        try:
            system = asm.system(y)
            p1 = smallest_eigenpair(system, _GAP_TOL)
            p2 = second_eigenpair(system, p1, _GAP_TOL)
        except EigenSolveError as exc:
            raise EigenSolveError(f"sample {k} (y={y!r}): {exc}", last=exc.last) from exc
        gap = 1.0 - p1.value / p2.value
        if best is None or gap < best[0]:
            best = (gap, p1.value, p2.value, np.atleast_1d(np.asarray(y, dtype=float)))
    gap, l1, l2, y_argmin = best
    return GapReport(l1, l2, gap, y_argmin)
