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


class Mesh:
    """Uniform triangulation of (0,1)^2 with (m+1)^2 vertices.

    Precomputes, per triangle: the interior-dof indices of its vertices
    (-1 on the boundary) and the coordinates of its three edge midpoints.
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
        ci = cells % m
        cj = cells // m

        def dof(i, j):
            inner = (i >= 1) & (i <= m - 1) & (j >= 1) & (j <= m - 1)
            return np.where(inner, (j - 1) * (m - 1) + (i - 1), -1)

        # vertex dof indices, shape (2, m*m, 3): orientation 0 = lower, 1 = upper
        self.tri_dofs = np.stack(
            [
                np.stack([dof(ci, cj), dof(ci + 1, cj), dof(ci + 1, cj + 1)], axis=1),
                np.stack([dof(ci, cj), dof(ci + 1, cj + 1), dof(ci, cj + 1)], axis=1),
            ]
        )
        h = self.h
        x = ci * h
        y = cj * h
        # edge midpoints in the order (m01, m12, m02), shape (2, m*m, 3)
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
    the exact inverse through a banded factor of A - shift M.
    """

    A: sp.csr_matrix
    M: sp.csr_matrix
    n_dof: int
    shift: float = 0.0
    precondition: Callable[[np.ndarray], np.ndarray] | None = None


def _scatter(mesh: Mesh, values: np.ndarray) -> sp.csr_matrix:
    """Scatter per-triangle local 3x3 blocks into a CSR matrix.

    ``values`` has shape (2, n_cells, 3, 3).  Every off-diagonal entry
    receives exactly two contributions (the two triangles sharing the edge),
    so the summed matrix is exactly symmetric whenever the local blocks are.
    """
    rows, cols, data = [], [], []
    for o in range(2):
        dofs = mesh.tri_dofs[o]
        for p in range(3):
            for q in range(3):
                r = dofs[:, p]
                c = dofs[:, q]
                keep = (r >= 0) & (c >= 0)
                rows.append(r[keep])
                cols.append(c[keep])
                data.append(values[o, keep, p, q])
    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_dof, mesh.n_dof),
    ).tocsr()
    mat.sort_indices()
    return mat


def _sine_preconditioner(S: np.ndarray, denom: np.ndarray, d: np.ndarray):
    """r -> D^-1/2 S ((S R S) / denom) S D^-1/2 r, with R the grid form of r.

    S is the orthonormal (and symmetric) DST-I matrix, d the grid of
    diag(D)^-1/2: four GEMMs and no factorisation.
    """

    def precondition(r: np.ndarray) -> np.ndarray:
        R = d * r.reshape(d.shape)
        return (d * (S @ ((S @ R @ S) / denom) @ S)).ravel()

    return precondition


def _stiffness_map(mesh: Mesh, indptr: np.ndarray, indices: np.ndarray) -> sp.csr_matrix:
    """Sparse map from per-triangle mean diffusion to the data of A.

    Row k of the map holds the local stiffness entries that land on the k-th
    stored entry of the CSR pattern (indptr, indices); column o * n_cells + t
    belongs to triangle t of orientation o.
    """
    n = mesh.n_dof
    n_cells = mesh.m * mesh.m
    # one key per stored entry, ascending: CSR rows with sorted indices
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n + indices
    cells = np.arange(n_cells, dtype=np.int64)
    pos, col, val = [], [], []
    for o, g in enumerate((_G_LOWER, _G_UPPER)):
        dofs = mesh.tri_dofs[o]
        for p in range(3):
            for q in range(3):
                if g[p, q] == 0.0:
                    continue
                r = dofs[:, p]
                c = dofs[:, q]
                keep = (r >= 0) & (c >= 0)
                pos.append(np.searchsorted(keys, r[keep] * n + c[keep]))
                col.append(o * n_cells + cells[keep])
                val.append(np.full(pos[-1].size, g[p, q]))
    return sp.csr_matrix(
        (np.concatenate(val), (np.concatenate(pos), np.concatenate(col))),
        shape=(keys.size, 2 * n_cells),
    )


class Assembler:
    """Repeated assembly for one (mesh, model) pair at varying parameters.

    Caches the midpoint evaluation tables of the diffusion field and, since
    b and c do not depend on the parameters for any built-in model, the
    entire mass matrix and reaction contribution.  The sparsity pattern does
    not depend on the parameters either: A shares the pattern of M, and its
    data is one sparse product of a fixed map with the per-triangle mean
    diffusion, plus the cached reaction data.

    Every system carries a fast-sine preconditioner for the lambda1 solver.
    For a == 1 the P1 stiffness on this mesh is the 5-point stencil, which
    the 2-D DST-I S diagonalises with eigenvalues Lambda_jk = 4 sin^2(j pi/2m)
    + 4 sin^2(k pi/2m), and the mass of c == 1 is about h^2 I.  Scaled by the
    nodal diffusion D = diag(A)/4, the preconditioner

        T = D^-1/2 S (Lambda - 0.9 sigma h^2 c_mean / a_mean)^-1 S D^-1/2

    is spectrally equivalent to (A - sigma M)^-1 (Knyazev & Neymeyr, Linear
    Algebra Appl. 358, 2003), where a_mean is the mean of the per-triangle
    diffusion at y and c_mean that of the mass weight.
    """

    def __init__(self, mesh: Mesh, model: CoefficientModel):
        self.mesh = mesh
        self.model = model
        self._a_cache = model.precompute(mesh.mid_x1, mesh.mid_x2)
        scale = mesh.h * mesh.h / 6.0
        b_mid = model.b(mesh.mid_x1, mesh.mid_x2, np.zeros(1))
        c_mid = model.c(mesh.mid_x1, mesh.mid_x2, np.zeros(1))
        self._M = _scatter(mesh, scale * np.einsum("otk,kpq->otpq", c_mid, _MID_OUTER))
        # _scatter keeps every local entry, zeros included, so the reaction
        # part has the pattern of M entry for entry
        b_blocks = scale * np.einsum("otk,kpq->otpq", b_mid, _MID_OUTER)
        self._b_data = _scatter(mesh, b_blocks).data
        self._indptr = self._M.indptr.copy()
        self._indices = self._M.indices.copy()
        self._map = _stiffness_map(mesh, self._indptr, self._indices)
        # conforming P1 with frozen coefficients in the certified ranges:
        # lambda1_h >= (a_lo / c_hi) * lambda1 of the Laplacian = CHI1 a_lo / c_hi
        self._shift = CHI1 * model.bounds.a_lo / model.bounds.c_hi
        k = np.arange(1, mesh.m)
        # sin(jk pi/m) with jk reduced mod 2m first, so no argument exceeds 2 pi
        phase = np.outer(k, k) % (2 * mesh.m) * (np.pi / mesh.m)
        self._sine = np.sqrt(2.0 / mesh.m) * np.sin(phase)
        lam = 4.0 * np.sin(k * (np.pi / (2 * mesh.m))) ** 2
        self._sine_spectrum = lam[:, None] + lam[None, :]
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
        return SparseSystem(A, self._M, n, self._shift, T)


def assemble(mesh: Mesh, model: CoefficientModel, y) -> SparseSystem:
    """Assemble the generalized eigenproblem matrices at parameter y."""
    return Assembler(mesh, model).system(y)


def laplace_lambda1_reference() -> float:
    """Smallest Dirichlet-Laplace eigenvalue of the unit square, 2 pi^2."""
    return CHI1
