"""Shared helpers for the test suite."""

import math
from itertools import combinations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from gevrey_evp.fem import Mesh, SparseSystem
from gevrey_evp.qmc import PODWeights, bernoulli2


def shift_invert(A, M, shift):
    """r -> (A - shift M)^-1 r through a dense LU factor: the exact T."""
    lu = sla.lu_factor((A - shift * M).toarray())
    return lambda r: sla.lu_solve(lu, r)


def system_from_dense(A, M):
    """The system of dense A, M: shift 0, exact shift-invert T, ones start."""
    A = sp.csr_matrix(np.asarray(A, dtype=float))
    M = sp.csr_matrix(np.asarray(M, dtype=float))
    return SparseSystem(A, M, 0.0, shift_invert(A, M, 0.0), np.ones(A.shape[0]))


def sine_series(indices, amplitudes, x1, x2, t):
    """sum_j amp_j t_j sin(j pi x1) sin(j pi x2), summed directly.

    One (points x terms) table of sine products, times amp, times t: the
    oracle for the separable field of ``CoefficientModel.a_cached``.
    """
    idx = np.asarray(indices) * math.pi
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    table = np.sin(np.multiply.outer(x1.ravel(), idx)) * np.sin(np.multiply.outer(x2.ravel(), idx))
    return (table * amplitudes @ t).reshape(x1.shape)


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


# Local stiffness of the lower and the upper triangle of a cell, corners in
# the order of ``triangle_dofs``.
LOCAL_STIFFNESS = 0.5 * np.array([
    [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]],
    [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]],
])


def mirror_cells(m: int) -> np.ndarray:
    """Number of cell (j, i) for every cell (i, j): the upper triangle of a
    cell is the mirror image of the lower triangle of its mirror cell."""
    return np.arange(m * m).reshape(m, m).T.ravel()


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


def _map_by_search(indptr: np.ndarray, indices: np.ndarray, n_cols: int, entries) -> sp.csr_matrix:
    """Sparse map whose row k holds the local entries that land on the k-th
    stored entry of the CSR pattern (indptr, indices).

    ``entries`` holds batches (rows, cols, cells, values): a batch's entry e
    joins pattern row rows[e] to column cols[e] (-1 on the boundary, where it
    is dropped) and goes in map column cells[e].  Each entry's slot is found
    by a binary search over the (row, column) keys of the pattern.  Within a
    row the entries are in map-column order, those of one column in batch
    order, and entries on one slot and column are kept apart, not summed.
    """
    n = indptr.size - 1
    # one key per stored entry, ascending: CSR rows with sorted indices
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n + indices
    pos, col, val = [], [], []
    for rows, cols, cells, values in entries:
        keep = (rows >= 0) & (cols >= 0)
        pos.append(np.searchsorted(keys, rows[keep] * n + cols[keep]))
        col.append(cells[keep])
        val.append(np.broadcast_to(values, rows.shape)[keep])
    pos, col, val = np.concatenate(pos), np.concatenate(col), np.concatenate(val)
    order = np.lexsort((col, pos))  # stable: batch order within a column
    starts = np.concatenate([[0], np.cumsum(np.bincount(pos, minlength=keys.size))])
    return sp.csr_matrix((val[order], col[order], starts), shape=(keys.size, n_cols))


def stiffness_map(mesh: Mesh, indptr: np.ndarray, indices: np.ndarray) -> sp.csr_matrix:
    """Sparse map from the mean diffusion of the lower triangles to the data
    of A, by search (``_map_by_search``).

    Column t belongs to lower triangle t and to its mirror image, the upper
    triangle of the mirror cell, which takes its field; a lower triangle's
    own entry comes before its mirror's.
    """
    columns = (np.arange(mesh.m * mesh.m), mirror_cells(mesh.m))
    entries = [(dofs[:, p], dofs[:, q], cells, g[p, q])
               for dofs, g, cells in zip(triangle_dofs(mesh), LOCAL_STIFFNESS, columns)
               for p in range(3) for q in range(3) if g[p, q] != 0.0]
    return _map_by_search(indptr, indices, mesh.m * mesh.m, entries)


def half_stiffness_map(mesh: Mesh, indptr: np.ndarray, indices: np.ndarray) -> sp.csr_matrix:
    """Sparse map from the mean diffusion of the lower triangles to the data
    of the half grid's A, by search (``_map_by_search``).

    A vertex stands for its orbit under the swap, the half node of its
    sorted corners (lo, hi), numbered hi (hi - 1) / 2 + lo - 1.  Local entry
    (p, q) of lower triangle t lands on the orbits of its two vertices with
    weight 2 q_p q_q = sqrt(4 / (n_p n_q)), n the size of the orbit: its
    mirror image lands there too.
    """
    m = mesh.m
    cells = np.arange(m * m)

    def orbit(x, y):
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        inner = (lo >= 1) & (hi <= m - 1)
        return np.where(inner, hi * (hi - 1) // 2 + lo - 1, -1), np.where(lo == hi, 1, 2)

    corners = ((0, 0), (1, 0), (1, 1))
    node, size = zip(*(orbit(cells % m + dx, cells // m + dy) for dx, dy in corners))
    g = LOCAL_STIFFNESS[0]
    entries = [(node[p], node[q], cells, np.sqrt(4.0 / (size[p] * size[q])) * g[p, q])
               for p in range(3) for q in range(3) if g[p, q] != 0.0]
    return _map_by_search(indptr, indices, m * m, entries)


def pod_weight(w: PODWeights, u) -> float:
    """Weight gamma_u of a subset u of {1..s}; gamma_empty = 1."""
    u = sorted(set(int(j) for j in u))
    if any(j < 1 or j > w.s for j in u):
        raise ValueError(f"subset {u} not contained in 1..{w.s}")
    ell = len(u)
    if ell == 0:
        return 1.0
    if ell <= 20:
        prod = float(math.factorial(ell)) ** w.delta
        root_phi = math.sqrt(w.phi())
        for j in u:
            prod *= w.beta[j - 1] / root_phi
        return prod ** w.exponent()
    log_gamma = w.delta * math.lgamma(ell + 1)
    log_gamma += sum(math.log(w.beta[j - 1]) for j in u)
    log_gamma -= 0.5 * ell * math.log(w.phi())
    return math.exp(w.exponent() * log_gamma)


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
