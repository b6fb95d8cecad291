"""Structured P1 finite elements on the unit square.

The mesh splits an m-by-m grid of squares into two congruent right isosceles
triangles each, all by the same lower-left to upper-right diagonal.  Assembly
produces the pair of sparse symmetric matrices of the generalized eigenvalue
problem A u = lambda M u over the (m-1)^2 interior nodes:

    A[i][j] = sum_T int_T a grad(phi_i).grad(phi_j) + b phi_i phi_j
    M[i][j] = sum_T int_T c phi_i phi_j

Element integrals use the 3-point edge-midpoint rule (exact for quadratics)
with the coefficients frozen at the quadrature points; Dirichlet rows and
columns are eliminated.  Interior nodes are ordered lexicographically, so
assembly is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .coefficients import CHI1, CoefficientModel

__all__ = [
    "Mesh",
    "SparseSystem",
    "build_mesh",
    "assemble",
    "Assembler",
    "laplace_lambda1_reference",
]

# Per-orientation local stiffness (h-independent, |T| folded in) for the
# lower triangle [(0,0),(h,0),(h,h)] and upper triangle [(0,0),(h,h),(0,h)].
_G_LOWER = 0.5 * np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
_G_UPPER = 0.5 * np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]])

# P1 basis values at the three edge midpoints (m01, m12, m02); the mass
# pattern for midpoint k is the outer product of row k with itself.
_MID_PHI = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
_MID_OUTER = np.einsum("kp,kq->kpq", _MID_PHI, _MID_PHI)

# Corners (dx, dy) of the lower and upper triangle of a cell, in grid units.
_CORNERS = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))
# Neighbour offsets (dx, dy) of an interior node in the sparsity pattern: the
# 7-point stencil, in the order of their columns in a CSR row.
_STENCIL = ((-1, -1), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1), (1, 1))


class Mesh:
    """Uniform triangulation of (0,1)^2 with (m+1)^2 vertices.

    Cell (i, j), numbered j * m + i, holds a lower triangle with corners
    (i, j), (i+1, j), (i+1, j+1) and an upper one with (i, j), (i+1, j+1),
    (i, j+1), in grid units (``_CORNERS``).  Precomputes the coordinates of
    the three edge midpoints of every triangle.
    """

    def __init__(self, m: int):
        if m < 2:
            raise ValueError(f"mesh needs m >= 2 cells per side, got {m}")
        self.m = int(m)
        self.h = 1.0 / m
        self.n_vertices = (m + 1) ** 2
        self.n_triangles = 2 * m * m
        self.n_dof = (m - 1) ** 2

        cells = np.arange(m * m)
        h = self.h
        x = cells % m * h
        y = cells // m * h
        # edge midpoints in the order (m01, m12, m02), shape (2, m*m, 3):
        # orientation 0 = lower, 1 = upper
        self.mid_x1 = np.stack(
            [
                np.stack([x + 0.5 * h, x + h, x + 0.5 * h], axis=1),
                np.stack([x + 0.5 * h, x + 0.5 * h, x], axis=1),
            ]
        )
        self.mid_x2 = np.stack(
            [
                np.stack([y, y + 0.5 * h, y + 0.5 * h], axis=1),
                np.stack([y + 0.5 * h, y + h, y + 0.5 * h], axis=1),
            ]
        )


def build_mesh(m: int) -> Mesh:
    """Uniform triangular mesh with m cells per side; (m-1)^2 interior dof."""
    return Mesh(m)


@dataclass(frozen=True)
class SparseSystem:
    """Stiffness-plus-reaction matrix A and weighted mass matrix M (CSR).

    ``shift`` is a certified strict lower bound on the smallest eigenvalue;
    systems built by hand keep 0.  ``precondition`` maps a residual vector to
    a search direction for the lambda1 solver, approximately (A - shift M)^-1
    applied to it; systems built by hand keep None, and the solver then uses
    the exact inverse through a banded factor of A - shift M.  ``start`` is
    the first iterate of that solver, close to the first eigenvector; None
    starts it from the all-ones vector.
    """

    A: sp.csr_matrix
    M: sp.csr_matrix
    n_dof: int
    shift: float = 0.0
    precondition: Callable[[np.ndarray], np.ndarray] | None = None
    start: np.ndarray | None = None


def _sine_preconditioner(S: np.ndarray, denom: np.ndarray, d: np.ndarray):
    """r -> D^-1/2 S ((S R S) / denom) S D^-1/2 r, with R the grid form of r.

    S is the orthonormal (and symmetric) DST-I matrix, d the grid of
    diag(D)^-1/2: four GEMMs and no factorisation.
    """

    def precondition(r: np.ndarray) -> np.ndarray:
        R = d * r.reshape(d.shape)
        return (d * (S @ ((S @ R @ S) / denom) @ S)).ravel()

    return precondition


def _position_index(m: int):
    """CSR pattern of the mesh matrices, and the slot of every local entry.

    The pattern is the 7-point stencil cut at the boundary, so it follows in
    closed form.  Returns (indptr, indices, pos): pos, flat in the order
    (o, t, p, q), is the CSR slot on which local entry (p, q) of triangle t
    of orientation o lands; where vertex p or q is on the boundary it is
    nnz, one past the last slot.
    """
    k = m - 1
    node = np.arange(1, m)
    inside = [(node + d >= 1) & (node + d <= k) for d in (-1, 0, 1)]
    # present[j, i, s]: neighbour s of interior node (i, j) is interior too
    present = np.stack(
        [inside[dy + 1][:, None] & inside[dx + 1][None, :] for dx, dy in _STENCIL], axis=2
    )
    slot = np.cumsum(present.ravel()).reshape(present.shape) - 1
    indptr = np.concatenate([[0], np.cumsum(present.sum(axis=2).ravel())])
    offsets = np.array([dx + k * dy for dx, dy in _STENCIL])
    indices = (np.arange(k * k).reshape(k, k, 1) + offsets)[present]
    pos = np.full((2, 3, 3, m, m), indices.size)
    for o, corners in enumerate(_CORNERS):
        for p, (px, py) in enumerate(corners):
            for q, (qx, qy) in enumerate(corners):
                # both vertices are interior in the cells (i, j) with
                # 1 - min(px, qx) <= i <= k - max(px, qx), likewise for j
                i0, i1 = 1 - min(px, qx), m - max(px, qx)
                j0, j1 = 1 - min(py, qy), m - max(py, qy)
                s = _STENCIL.index((qx - px, qy - py))
                pos[o, p, q, j0:j1, i0:i1] = slot[j0 + py - 1 : j1 + py - 1,
                                                  i0 + px - 1 : i1 + px - 1, s]
    return indptr, indices, pos.transpose(0, 3, 4, 1, 2).ravel()


class Assembler:
    """Repeated assembly for one (mesh, model) pair at varying parameters.

    Caches the midpoint evaluation tables of the diffusion field and, since
    b and c do not depend on the parameters for any built-in model, the
    entire mass matrix and reaction contribution.  The sparsity pattern does
    not depend on the parameters either: A shares the pattern of M, and its
    data is one sparse product of a fixed map with the per-triangle mean
    diffusion, plus the cached reaction data.  One position index, the CSR
    slot of every local entry (``_position_index``), gives the pattern, the
    mass and reaction data (one ``np.bincount`` each) and the map.

    Every system carries a fast-sine preconditioner for the lambda1 solver.
    For a == 1 the P1 stiffness on this mesh is the 5-point stencil, which
    the 2-D DST-I S diagonalises with eigenvalues Lambda_jk = 4 sin^2(j pi/2m)
    + 4 sin^2(k pi/2m), and the mass of c == 1 is about h^2 I.  Scaled by the
    nodal diffusion D = diag(A)/4, the preconditioner

        T = D^-1/2 S (Lambda - 0.9 sigma h^2 c_mean / a_mean)^-1 S D^-1/2

    is spectrally equivalent to (A - sigma M)^-1 (Knyazev & Neymeyr, Linear
    Algebra Appl. 358, 2003), where a_mean is the mean of the per-triangle
    diffusion at y and c_mean that of the mass weight.  The same S gives each
    system's start vector, D^-1/2 times the lowest mode, sin(pi x1) sin(pi x2)
    on the interior grid.
    """

    def __init__(self, mesh: Mesh, model: CoefficientModel):
        self.mesh = mesh
        self.model = model
        self._a_cache = model.precompute(mesh.mid_x1, mesh.mid_x2)
        scale = mesh.h * mesh.h / 6.0
        b_mid = model.b(mesh.mid_x1, mesh.mid_x2, np.zeros(1))
        c_mid = model.c(mesh.mid_x1, mesh.mid_x2, np.zeros(1))
        indptr, indices, pos = _position_index(mesh.m)
        n, nnz = mesh.n_dof, indices.size

        def scatter(weights):
            blocks = scale * (weights @ _MID_OUTER.reshape(3, 9))
            return np.bincount(pos, blocks.ravel(), nnz + 1)[:nnz]

        self._M = sp.csr_matrix((scatter(c_mid), indices, indptr), shape=(n, n))
        self._indptr, self._indices = self._M.indptr, self._M.indices
        self._b_data = scatter(b_mid)
        # column o * m^2 + t of the map holds the local stiffness entries of
        # triangle t of orientation o in the rows of their slots, less the
        # zeros and the row past the last slot (the boundary entries)
        cols = 2 * mesh.m**2
        g = np.stack([_G_LOWER, _G_UPPER]).reshape(2, 1, 9).repeat(cols // 2, axis=1)
        stiff = sp.csc_matrix(
            (g.ravel(), pos, np.arange(0, pos.size + 1, 9)), shape=(nnz + 1, cols)
        ).tocsr()
        stiff.eliminate_zeros()
        end = stiff.indptr[nnz]
        self._map = sp.csr_matrix(
            (stiff.data[:end], stiff.indices[:end], stiff.indptr[: nnz + 1]), shape=(nnz, cols)
        )
        # conforming P1 with frozen coefficients in the certified ranges:
        # lambda1_h >= (a_lo / c_hi) * lambda1 of the Laplacian = CHI1 a_lo / c_hi
        self._shift = CHI1 * model.bounds.a_lo / model.bounds.c_hi
        k = np.arange(1, mesh.m)
        # sin(jk pi/m) with jk reduced mod 2m first, so no argument exceeds 2 pi
        phase = np.outer(k, k) % (2 * mesh.m) * (np.pi / mesh.m)
        self._sine = np.sqrt(2.0 / mesh.m) * np.sin(phase)
        lam = 4.0 * np.sin(k * (np.pi / (2 * mesh.m))) ** 2
        self._sine_spectrum = lam[:, None] + lam[None, :]
        self._mode = np.outer(self._sine[:, 0], self._sine[:, 0])
        self._mass_shift = 0.9 * self._shift * mesh.h * mesh.h * c_mid.mean()

    def system(self, y) -> SparseSystem:
        a_mean = self.model.a_cached(self._a_cache, y).mean(axis=2)
        data = self._map @ a_mean.ravel() + self._b_data
        n = self.mesh.n_dof
        A = sp.csr_matrix((data, self._indices, self._indptr), shape=(n, n))
        k = self.mesh.m - 1
        d = (0.25 * A.diagonal()).reshape(k, k) ** -0.5
        denom = self._sine_spectrum - self._mass_shift / a_mean.mean()
        T = _sine_preconditioner(self._sine, denom, d)
        return SparseSystem(A, self._M, n, self._shift, T, (d * self._mode).ravel())


def assemble(mesh: Mesh, model: CoefficientModel, y) -> SparseSystem:
    """Assemble the generalized eigenproblem matrices at parameter y."""
    return Assembler(mesh, model).system(y)


def laplace_lambda1_reference() -> float:
    """Smallest Dirichlet-Laplace eigenvalue of the unit square, 2 pi^2."""
    return CHI1
