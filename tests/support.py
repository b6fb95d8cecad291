"""Shared helpers for the test suite."""

from itertools import combinations

import numpy as np
import scipy.sparse as sp

from gevrey_evp import fem
from gevrey_evp.fem import Mesh, SparseSystem
from gevrey_evp.qmc import PODWeights, bernoulli2, pod_weight


def system_from_dense(A, M):
    A = np.asarray(A, dtype=float)
    M = np.asarray(M, dtype=float)
    return SparseSystem(sp.csr_matrix(A), sp.csr_matrix(M), A.shape[0])


def random_spd_pair(rng, n):
    """SPD pair with well-separated low eigenvalues."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = np.sort(rng.uniform(1.0, 50.0, n))
    d[1] = d[0] * rng.uniform(1.6, 3.0)  # keep the first gap healthy
    A = q @ np.diag(d) @ q.T
    A = (A + A.T) / 2
    r = rng.standard_normal((n, n)) * 0.2
    M = r @ r.T + np.eye(n)
    return system_from_dense(A, M)


def triangle_dofs(mesh: Mesh) -> np.ndarray:
    """Interior-dof numbers of the vertices of every triangle, -1 on the boundary.

    Shape (2, m*m, 3): orientation 0 is the lower triangle of a cell, with
    corners (i, j), (i+1, j), (i+1, j+1); 1 the upper, (i, j), (i+1, j+1),
    (i, j+1).
    """
    m = mesh.m
    cells = np.arange(m * m)
    ci = cells % m
    cj = cells // m

    def dof(i, j):
        inner = (i >= 1) & (i <= m - 1) & (j >= 1) & (j <= m - 1)
        return np.where(inner, (j - 1) * (m - 1) + (i - 1), -1)

    return np.stack(
        [
            np.stack([dof(ci, cj), dof(ci + 1, cj), dof(ci + 1, cj + 1)], axis=1),
            np.stack([dof(ci, cj), dof(ci + 1, cj + 1), dof(ci, cj + 1)], axis=1),
        ]
    )


def scatter_blocks(mesh: Mesh, values: np.ndarray) -> sp.csr_matrix:
    """Scatter per-triangle local 3x3 blocks into a CSR matrix through COO.

    ``values`` has shape (2, m*m, 3, 3).  Every local entry whose two
    vertices are interior is kept, zeros included.  The reference for the
    fixed-pattern assembly of ``fem.Assembler``.
    """
    tri_dofs = triangle_dofs(mesh)
    rows, cols, data = [], [], []
    for o in range(2):
        dofs = tri_dofs[o]
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


def stiffness_map(mesh: Mesh, indptr: np.ndarray, indices: np.ndarray) -> sp.csr_matrix:
    """Sparse map from per-triangle mean diffusion to the data of A, by search.

    Row k holds the local stiffness entries that land on the k-th stored
    entry of the CSR pattern (indptr, indices); column o * m^2 + t belongs to
    triangle t of orientation o.  Each entry's slot is found by a binary
    search over the (row, column) keys of the pattern.
    """
    n = mesh.n_dof
    n_cells = mesh.m * mesh.m
    tri_dofs = triangle_dofs(mesh)
    # one key per stored entry, ascending: CSR rows with sorted indices
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n + indices
    cells = np.arange(n_cells, dtype=np.int64)
    pos, col, val = [], [], []
    for o, g in enumerate((fem._G_LOWER, fem._G_UPPER)):
        dofs = tri_dofs[o]
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


def worst_case_error_sq(z, n: int, w: PODWeights) -> float:
    """Shift-averaged squared worst-case error by direct subset enumeration.

    Exponential in the dimension: the small-case oracle for the CBC
    recursion.
    """
    z = np.asarray(z, dtype=np.int64)
    s = z.size
    k = np.arange(n)
    omega = bernoulli2(((k[None, :] * (z[:, None] % n)) % n) / n)  # (s, n)
    total = 0.0
    for ell in range(1, s + 1):
        for u in combinations(range(1, s + 1), ell):
            prod = np.ones(n)
            for j in u:
                prod = prod * omega[j - 1]
            total += pod_weight(w, u) * prod.mean()
    return total


def gather_scores(q, n: int) -> np.ndarray:
    """sum_k B2({z k / n}) q(k) for every odd z in [1, n), by direct gather.

    O(n^2): the oracle for the FFT candidate scores of the CBC construction.
    """
    k = np.arange(n)
    vals = bernoulli2(k / n)
    cand = np.arange(1, n, 2, dtype=np.int64)
    block = 256  # candidates per (block, n) gather
    return np.concatenate([
        vals[(cand[lo : lo + block, None] * k[None, :]) % n] @ q
        for lo in range(0, cand.size, block)
    ])


def read_csv(path):
    """Read back a CSV written by harness.emit_csv: (metadata, columns, rows).

    Metadata comes from the '# key = value' lines; cells parse as int
    where they can, else as float.
    """
    metadata: dict[str, str] = {}
    columns: list[str] = []
    rows: list[tuple] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                metadata[key.strip()] = val.strip()
                continue
            if not columns:
                columns = line.split(",")
                continue
            cells = []
            for cell in line.split(","):
                try:
                    cells.append(int(cell))
                except ValueError:
                    cells.append(float(cell))
            rows.append(tuple(cells))
    return metadata, columns, rows
