"""Shared helpers for the test suite."""

from itertools import combinations

import numpy as np
import scipy.sparse as sp

from gevrey_evp.fem import SparseSystem
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
