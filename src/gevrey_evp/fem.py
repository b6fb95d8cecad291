"""Structured P1 finite elements on the unit square.

The mesh splits an m-by-m grid of squares into two congruent right isosceles
triangles each, all by the same lower-left to upper-right diagonal.  Assembly
produces the pair of sparse symmetric matrices of the generalized eigenvalue
problem A u = lambda M u over the (m-1)^2 interior nodes:

    A[i][j] = sum_T int_T a grad(phi_i).grad(phi_j) + b phi_i phi_j
    M[i][j] = sum_T int_T c phi_i phi_j

Element integrals use the 3-point edge-midpoint rule (exact for quadratics)
with a frozen at the quadrature points; b and c are constants.  Dirichlet rows
and columns are eliminated.  Interior nodes are ordered lexicographically, so
assembly is bit-reproducible.

Every model is symmetric under the swap x1 <-> x2, and the mesh is too: the
lower triangle of cell (i, j) mirrors onto the upper one of cell (j, i).  So
the field is read once per y, at the lower triangles only, and each local
entry of a lower triangle has two CSR slots: one under its own nodes and one
under their mirror images.  ``Assembler.system`` assembles on the whole grid
and keeps both, so A and M are exactly swap-invariant.  The first
eigenfunction is positive and lambda1 simple, so u1 lies in the
swap-symmetric subspace (Bossavit, Comput. Methods Appl. Mech. Eng. 56,
1986), which holds k(k+1)/2 of the k^2 dof, k = m - 1.  Its orthonormal basis
Q is 1 on a diagonal node and 1/sqrt(2) on each node of a mirrored pair.
``Assembler.symmetric_system`` assembles Q^T A Q and Q^T M Q directly on the
half grid, the interior nodes (i, j) with i <= j: it keeps the slot whose
nodes lie in the half, the own one above the diagonal and the mirror one on
and below it, weighted by 2 q_p q_q (``_grid_index``).  The rule: a caller
that needs only lambda1 solves the half system; a caller that needs u1 on the
grid, or lambda2, solves the whole one.  The half system's vectors are in the
basis Q, and no caller reads them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .coefficients import CHI1, CoefficientModel

__all__ = [
    "Mesh",
    "SparseSystem",
    "build_mesh",
    "Assembler",
]

# Local stiffness (h-independent, |T| folded in) of the lower triangle
# [(0,0),(h,0),(h,h)].  Its mirror image under the swap, the upper triangle
# [(0,0),(h,h),(0,h)], has the same one with its corners in mirrored order.
_G_LOWER = 0.5 * np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])

# P1 basis values at the three edge midpoints (m01, m12, m02); the mass
# pattern for midpoint k is the outer product of row k with itself.
_MID_PHI = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
_MID_OUTER = np.einsum("kp,kq->kpq", _MID_PHI, _MID_PHI)

# Corners (dx, dy) of the lower triangle of a cell, in grid units.
_CORNERS = ((0, 0), (1, 0), (1, 1))
# Neighbour offsets (dx, dy) of an interior node in the sparsity pattern: the
# 7-point stencil, in the order of their columns in a CSR row.
_STENCIL = ((-1, -1), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1), (1, 1))
# Neighbour s of node (i, j) mirrors onto neighbour _TRANSPOSED[s] of (j, i).
_TRANSPOSED = tuple(_STENCIL.index((dy, dx)) for dx, dy in _STENCIL)


class Mesh:
    """Uniform triangulation of (0,1)^2 with (m+1)^2 vertices.

    Cell (i, j), numbered j * m + i, holds a lower triangle with corners
    (i, j), (i+1, j), (i+1, j+1), in grid units (``_CORNERS``), and an upper
    one with (i, j), (i+1, j+1), (i, j+1): the mirror image of the lower
    triangle of cell (j, i).  Precomputes the coordinates of the three edge
    midpoints of every lower triangle, shape (m*m, 3); the fields are
    swap-symmetric, so these are all the assembly reads.
    """

    def __init__(self, m: int):
        if m < 2:
            raise ValueError(f"mesh needs m >= 2 cells per side, got {m}")
        self.m = int(m)
        self.h = 1.0 / m
        self.n_dof = (m - 1) ** 2

        cells = np.arange(m * m)
        h = self.h
        x = cells % m * h
        y = cells // m * h
        # edge midpoints in the order (m01, m12, m02)
        self.mid_x1 = np.stack([x + 0.5 * h, x + h, x + 0.5 * h], axis=1)
        self.mid_x2 = np.stack([y, y + 0.5 * h, y + 0.5 * h], axis=1)


def build_mesh(m: int) -> Mesh:
    """Uniform triangular mesh with m cells per side; (m-1)^2 interior dof."""
    return Mesh(m)


@dataclass(frozen=True)
class SparseSystem:
    """Stiffness-plus-reaction matrix A and weighted mass matrix M (CSR).

    The rest is what the eigensolver needs and cannot derive: ``shift``, a
    certified strict lower bound sigma on the smallest eigenvalue (on a mesh
    system sigma(y) = 2 pi^2 min_T a_T(y) / c_hi, its field checked against
    the certified range); ``precondition``, a map from a residual vector to
    a search direction, approximately (A - sigma M)^-1 applied to it; and
    ``start``, the first iterate of a lambda1 solve, close to the first
    eigenvector.  ``Assembler`` supplies all three; a system built by other
    means supplies its own.

    A system checks itself when it is made, ``dataclasses.replace`` copies
    too: A is square and M has its shape, both diagonals are positive, the
    data is finite and ``start`` has one entry per dof; else ``ValueError``.
    """

    A: sp.csr_matrix
    M: sp.csr_matrix
    shift: float
    precondition: Callable[[np.ndarray], np.ndarray]
    start: np.ndarray

    def __post_init__(self):
        if self.M.shape != self.A.shape or self.A.shape[0] != self.A.shape[1]:
            raise ValueError(
                f"M has shape {self.M.shape} and A {self.A.shape}, expected one square shape")
        for name, mat in (("A", self.A), ("M", self.M)):
            d = mat.diagonal()
            if d.size == 0 or np.any(d <= 0) or not np.all(np.isfinite(mat.data)):
                raise ValueError(f"{name} is not usable (nonpositive diagonal or NaN)")
        if np.shape(self.start) != (self.n_dof,):
            raise ValueError(f"start has shape {np.shape(self.start)}, expected ({self.n_dof},)")

    @property
    def n_dof(self) -> int:
        return self.A.shape[0]


def _sine_preconditioner(S: np.ndarray, denom: np.ndarray, d: np.ndarray):
    """r -> D^-1/2 S ((S R S) / denom) S D^-1/2 r, with R the grid form of r.

    S is the orthonormal (and symmetric) DST-I matrix, d the grid of
    diag(D)^-1/2: four GEMMs and no factorisation.
    """

    def precondition(r: np.ndarray) -> np.ndarray:
        R = d * r.reshape(d.shape)
        return (d * (S @ ((S @ R @ S) / denom) @ S)).ravel()

    return precondition


def _csr_matvec(mat: sp.csr_matrix) -> Callable[[np.ndarray], np.ndarray]:
    """v -> mat @ v, bit for bit: the kernel of ``@``, bound once, without its dispatch.

    The kernel does not check v: the caller guarantees v.shape == (mat.shape[1],).
    """
    n_row, n_col = mat.shape

    def product(v: np.ndarray) -> np.ndarray:
        out = np.zeros(n_row)
        csr_matvec(n_row, n_col, mat.indptr, mat.indices, mat.data, v, out)
        return out

    return product


def _grid_index(m: int, half: bool):
    """CSR pattern of the matrices on the whole grid, or on the half grid, and
    the slot and weight of every local entry of a lower triangle.

    A row is an interior node (i, j), numbered lexicographically; on the half
    grid only a node with i <= j is, numbered j (j - 1) / 2 + i - 1, and it
    stands for its orbit {(i, j), (j, i)}.  A row holds those of its stencil
    neighbours that are rows too, in column order.  Entry (p, q) of the lower
    triangle of cell (i, j) joins node (i + px, j + py) to its neighbour
    s = (qx - px, qy - py), and its mirror image joins node (j + py, i + px)
    to neighbour ``_TRANSPOSED[s]``.  The whole grid keeps both, with weight
    1.  The half grid keeps the own entry above the diagonal (i < j), where
    every vertex is in the half, and the mirror entry on and below it, where
    every mirrored vertex is (px >= py), with weight 2 q_p q_q: q is 1 on the
    diagonal and 1/sqrt(2) off it.  Returns (indptr, indices, pos, weight):
    pos[t], shape (2, 9) on the whole grid and (9,) on the half, holds the
    slots of the entries (p, q) of lower triangle t, nnz (one past the last
    slot) where a vertex is on the boundary; weight has the shape of pos.
    """
    k = m - 1
    rows = np.tri(k, dtype=bool) if half else np.ones((k, k), dtype=bool)  # [j - 1, i - 1]
    number = np.full((m + 1, m + 1), -1)
    number[1:m, 1:m][rows] = np.arange(rows.sum())
    # column[j - 1, i - 1, s]: the row of neighbour s of node (i, j), -1 if it is none
    column = np.stack([number[1 + dy : m + dy, 1 + dx : m + dx] for dx, dy in _STENCIL], axis=2)
    present = rows[..., None] & (column >= 0)
    indptr = np.concatenate([[0], np.cumsum(present.sum(axis=2)[rows])])
    indices = column[present]
    slot = np.full((m + 1, m + 1, 7), indices.size)
    slot[1:m, 1:m][present] = np.arange(indices.size)
    above = np.tri(m, k=-1, dtype=bool)  # [j, i]: cell (i, j) lies above the diagonal
    pos = []
    for (px, py), (qx, qy) in itertools.product(_CORNERS, repeat=2):
        s = _STENCIL.index((qx - px, qy - py))
        own = slot[py : py + m, px : px + m, s]
        mirror = slot[px : px + m, py : py + m, _TRANSPOSED[s]].T
        pos.append(np.where(above, own, mirror) if half else (own, mirror))
    if not half:
        pos = np.ascontiguousarray(np.transpose(pos, (2, 3, 1, 0))).reshape(m * m, 2, 9)
        return indptr, indices, pos, np.ones(pos.shape)
    pos = np.ascontiguousarray(np.transpose(pos, (1, 2, 0))).reshape(m * m, 9)
    # vertex p is on the diagonal in cell (c, c) where px == py, in cell
    # (c, c + 1) where px == py + 1, and in no other cell
    cell = np.arange(m)
    px, py = np.array(_CORNERS).T
    table = np.array([1.0, np.sqrt(2.0), 2.0])
    weight = np.ones((m, m, 3, 3))
    for on_diagonal, j, i in ((px == py, cell, cell), (px == py + 1, cell[1:], cell[:-1])):
        count = on_diagonal.astype(int)
        weight[j, i] = table[count[:, None] + count[None, :]]
    return indptr, indices, pos, weight.reshape(m * m, 9)


class _Fixed(NamedTuple):
    """What the mesh systems of one model on one CSR pattern share.

    ``stiffness`` maps the mean diffusion of the lower triangles onto A's
    stiffness data; ``M`` and ``b_data`` are the mass matrix and the
    reaction data; ``diag_slots`` are the slots of the diagonal.
    """

    stiffness: Callable[[np.ndarray], np.ndarray]
    M: sp.csr_matrix
    b_data: np.ndarray
    diag_slots: np.ndarray

    @staticmethod
    def build(model, h, indptr, indices, pos, weight) -> "_Fixed":
        """The fixed part of the pattern (indptr, indices).

        pos[t, ..., :] holds the slots of the local entries that lower
        triangle t stands for, in the (p, q) order of ``_G_LOWER``, and
        weight, of the same shape, the factor on each.
        """
        n, nnz, cols = indptr.size - 1, indices.size, pos.shape[0]
        scale, mass = h * h / 6.0, _MID_OUTER.sum(axis=0).ravel()

        def scatter(f):
            return np.bincount(pos.ravel(), (weight * (scale * (f * mass))).ravel(), nnz + 1)[:nnz]

        # column t of the map holds the local stiffness entries that lower
        # triangle t stands for in the rows of their slots, less the zeros
        # and the row past the last slot (the boundary entries)
        stiff = sp.csc_matrix(((weight * _G_LOWER.ravel()).ravel(), pos.ravel(),
                               np.arange(0, pos.size + 1, pos.size // cols)),
                              shape=(nnz + 1, cols)).tocsr()
        stiff.eliminate_zeros()
        end = stiff.indptr[nnz]
        stiffness = _csr_matvec(sp.csr_matrix(
            (stiff.data[:end], stiff.indices[:end], stiff.indptr[: nnz + 1]), shape=(nnz, cols)
        ))
        M = sp.csr_matrix((scatter(model.c), indices, indptr), shape=(n, n))
        diag_slots = np.flatnonzero(indices == np.repeat(np.arange(n), np.diff(indptr)))
        return _Fixed(stiffness, M, scatter(model.b), diag_slots)


class Assembler:
    """Repeated assembly for one (mesh, model) pair at varying parameters.

    Caches the y-independent part of the diffusion field at the edge
    midpoints of the lower triangles (``CoefficientModel.precompute``), once
    for both grids, and, since b and c are constants, each grid's entire
    mass matrix and reaction contribution.  The sparsity pattern does not
    depend on the parameters either: A shares the pattern of M, and its data
    is one sparse product of a fixed map with the mean diffusion of the lower
    triangles, plus the cached reaction data.  A grid's index
    (``_grid_index``), the CSR slots and weights of the local entries of
    every lower triangle, gives its pattern, its mass and reaction data (one
    ``np.bincount`` each), its map and the slots of A's diagonal.

    ``system`` assembles on the whole grid and ``symmetric_system`` on the
    half grid (see the module docstring).  Each grid is set up on the first
    call that needs it, so a caller pays only for the grid it solves on.

    Every system checks a_lo <= a_T(y) <= a_hi (the certified range, up to
    the rounding of the three-point mean; ``ValueError`` names y and the
    bound).  As A(y) >= min_T a_T(y) K_1 and M <= c_hi M_1, its shift is
    sigma(y) = 2 pi^2 min_T a_T(y) / c_hi, not below 2 pi^2 a_lo / c_hi.

    Every system carries a fast-sine preconditioner for the lambda1 solver.
    For a == 1 the P1 stiffness on this mesh is the 5-point stencil, which
    the 2-D DST-I S diagonalises with eigenvalues Lambda_jk = 4 sin^2(j pi/2m)
    + 4 sin^2(k pi/2m), and the mass of c == 1 is about h^2 I.  Scaled by the
    nodal diffusion D = diag(A)/4, the preconditioner

        T = D^-1/2 S (Lambda - 0.9 sigma(y) h^2 c_mean / a_mean)^-1 S D^-1/2

    is spectrally equivalent to (A - sigma(y) M)^-1 (Knyazev & Neymeyr, Linear
    Algebra Appl. 358, 2003), where a_mean is the mean of the per-triangle
    diffusion at y and c_mean the mass weight c.  The same S gives each
    system's start vector, D^-1/2 times the lowest mode, sin(pi x1) sin(pi x2)
    on the interior grid.  The half system's T is Q^T T Q and its start Q^T
    times the whole grid's.
    """

    def __init__(self, mesh: Mesh, model: CoefficientModel):
        self.mesh = mesh
        self.model = model
        # about 4 ulps for the three-point mean: a == 0.1 gives (a+a+a)/3 < a
        self._a_range = (model.bounds.a_lo * (1 - 1e-15), model.bounds.a_hi * (1 + 1e-15))
        k = np.arange(1, mesh.m)
        # sin(jk pi/m) with jk reduced mod 2m first, so no argument exceeds 2 pi
        phase = np.outer(k, k) % (2 * mesh.m) * (np.pi / mesh.m)
        self._sine = np.sqrt(2.0 / mesh.m) * np.sin(phase)
        lam = 4.0 * np.sin(k * (np.pi / (2 * mesh.m))) ** 2
        self._sine_spectrum = lam[:, None] + lam[None, :]
        self._mode = np.outer(self._sine[:, 0], self._sine[:, 0])
        self._mass_scale = 0.9 * mesh.h * mesh.h * model.c
        self._field = model.precompute(mesh.mid_x1, mesh.mid_x2)

    @functools.cached_property
    def _half(self) -> tuple:
        """The half grid's fixed part, built on first use, and Q as gathers:
        Q r on the grid is q * r[orbit]; Q^T u is u at (i, j) plus u at
        (j, i), times 1/sqrt(2) off the diagonal and 1/2 on it (fold)."""
        mesh = self.mesh
        fixed = _Fixed.build(self.model, mesh.h, *_grid_index(mesh.m, half=True))
        node = np.arange(1, mesh.m)
        lo, hi = np.minimum.outer(node, node), np.maximum.outer(node, node)
        orbit = (hi * (hi - 1) // 2 + lo - 1).ravel()
        q = np.where(lo == hi, 1.0, np.sqrt(0.5)).ravel()
        j, i = np.tril_indices(mesh.m - 1)
        fold = np.where(i == j, 0.5, np.sqrt(0.5))
        return fixed, orbit, q, (j * (mesh.m - 1) + i, i * (mesh.m - 1) + j), fold

    @functools.cached_property
    def _full(self) -> _Fixed:
        """The whole grid's fixed part, built on first use."""
        return _Fixed.build(self.model, self.mesh.h, *_grid_index(self.mesh.m, half=False))

    def _assemble(self, fixed: _Fixed, y):
        """A(y) on one pattern, its shift sigma(y), T's denominator and A's diagonal."""
        a = self.model.a_cached(self._field, y)
        a_mean = (a[:, 0] + a[:, 1] + a[:, 2]) / 3.0  # the bits of mean(axis=1)
        lo, hi = float(a_mean.min()), float(a_mean.max())
        if not self._a_range[0] <= lo <= hi <= self._a_range[1]:  # NaN fails too
            b = self.model.bounds
            bad = (f"max a_T = {hi!r} > a_hi = {b.a_hi!r}" if lo >= self._a_range[0]
                   else f"min a_T = {lo!r} < a_lo = {b.a_lo!r}")
            raise ValueError(f"y = {np.ravel(y).tolist()}: {bad}, outside the certified range")
        shift = CHI1 * lo / self.model.bounds.c_hi
        data = fixed.stiffness(a_mean) + fixed.b_data
        A = sp.csr_matrix((data, fixed.M.indices, fixed.M.indptr), shape=fixed.M.shape)
        denom = self._sine_spectrum - self._mass_scale * shift / a_mean.mean()
        return A, shift, denom, data[fixed.diag_slots]

    def system(self, y) -> SparseSystem:
        """The FEM system on all (m-1)^2 interior nodes."""
        A, shift, denom, diag = self._assemble(self._full, y)
        k = self.mesh.m - 1
        d = (0.25 * diag).reshape(k, k) ** -0.5
        T = _sine_preconditioner(self._sine, denom, d)
        return SparseSystem(A, self._full.M, shift, T, (d * self._mode).ravel())

    def symmetric_system(self, y) -> SparseSystem:
        """The system Q^T A Q, Q^T M Q on the half grid: the nodes (i, j) with i <= j."""
        fixed, orbit, q, (lower, upper), fold = self._half
        A, shift, denom, diag = self._assemble(fixed, y)
        d = (0.25 * diag[orbit]).reshape(self._mode.shape) ** -0.5
        T = _sine_preconditioner(self._sine, denom, d)

        def precondition(r: np.ndarray) -> np.ndarray:
            u = T(q * r[orbit])
            return (u[lower] + u[upper]) * fold

        u = (d * self._mode).ravel()
        return SparseSystem(A, fixed.M, shift, precondition, (u[lower] + u[upper]) * fold)
