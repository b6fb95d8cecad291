"""Randomly shifted rank-1 lattice rules, CBC construction, and MC baseline.

The lattice rule with generating vector z and n points evaluates an
integrand F over [-1/2, 1/2]^s as the equal-weight average of
F({i z / n + Delta} - 1/2), i = 1..n, for a uniform random shift Delta.
Shift randomness comes from a counter-based PRNG (Philox) with an explicit
stream contract: shift r draws from stream (master_seed, r) and, inside a
study, the i-th Monte Carlo sample overall draws from stream
(master_seed, R + i), so every run is reproducible and parallel-safe.

Generating vectors are built by the component-by-component construction
minimizing the shift-averaged squared worst-case error

    e^2(z) = sum_{u nonempty} gamma_u (1/n) sum_k prod_{j in u} B2({k z_j / n})

in the weighted Sobolev space of mixed first derivatives, with the Bernoulli
polynomial B2(x) = x^2 - x + 1/6 and product-and-order-dependent weights
gamma_u = ((|u|!)^delta prod_{j in u} beta_j / sqrt(phi(theta)))^(2/(1+theta)).
Each CBC step scores all odd candidates at once in O(n log n), by FFT
correlations over the odd residues +-5^c mod 2^m (Nuyens & Cools 2006).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .coefficients import CoefficientModel, zeta
from .eigensolver import EigenSolveError, smallest_eigenpair
from .fem import Assembler, build_mesh

__all__ = [
    "bernoulli_zeta_factor",
    "bernoulli2",
    "PODWeights",
    "parse_beta_rule",
    "cbc_construct",
    "LatticeRule",
    "make_lattice_rule",
    "lattice_points",
    "qmc_estimate",
    "mc_estimate",
    "mc_study",
    "ErrorRecord",
    "RmseStudyResult",
    "default_weights",
    "rmse_study",
    "truncation_study",
    "save_vector",
    "load_vector",
    "prng_stream",
]

_ORDER_CAP = 30
# zeta(2 theta) has its pole at theta = 1/2, and phi(theta) grows without
# bound as theta nears it; the weights refuse theta below this floor
_THETA_FLOOR = 0.5 + 1e-6


def bernoulli2(x: np.ndarray) -> np.ndarray:
    """Bernoulli polynomial B2 on [0, 1): x^2 - x + 1/6."""
    return x * x - x + 1.0 / 6.0


def theta_problem(theta: float) -> str | None:
    """Why theta is unusable for POD weights, or None where it lies in
    [_THETA_FLOOR, 1]; the one theta rule of the weights and the config."""
    if not 0.5 < theta <= 1.0:
        return "theta must lie in (1/2, 1]"
    if theta < _THETA_FLOOR:
        return f"theta must be at least {_THETA_FLOOR} (zeta pole at 1/2)"
    return None


def _delta_problem(delta: float) -> str | None:
    """Why delta is unusable as the POD Gevrey order, or None where it is a
    finite value >= 1; the one delta rule of the weights and the config."""
    return None if 1.0 <= delta < math.inf else "delta must be a finite value >= 1"


def bernoulli_zeta_factor(theta: float) -> float:
    """phi(theta) = 2 zeta(2 theta) / (2 pi^2)^theta for theta in (1/2, 1]."""
    theta = float(theta)
    problem = theta_problem(theta)
    if problem:
        raise ValueError(f"{problem}, got {theta}")
    return 2.0 * zeta(2.0 * theta) / (2.0 * math.pi**2) ** theta


@dataclass(frozen=True)
class PODWeights:
    """Product-and-order-dependent weight family gamma_u.

    ``beta`` holds the per-coordinate factors beta_j = 1/R~_j for
    j = 1..s; ``delta`` >= 1 is the Gevrey order driving the |u|! part.
    """

    delta: float
    theta: float
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        problem = _delta_problem(self.delta)
        if problem:
            raise ValueError(f"{problem}, got {self.delta}")
        bernoulli_zeta_factor(self.theta)  # validates theta
        if self.beta.ndim != 1 or self.beta.size == 0 or np.any(self.beta <= 0):
            raise ValueError("beta must be a nonempty positive sequence")

    @property
    def s(self) -> int:
        return int(self.beta.size)

    def phi(self) -> float:
        return bernoulli_zeta_factor(self.theta)

    def exponent(self) -> float:
        return 2.0 / (1.0 + self.theta)

    def order_factor(self, ell: int) -> float:
        """(ell!)^(2 delta / (1 + theta)), in log space for large ell; a value
        past the float range is a ValueError that names the weight."""
        power = self.exponent() * self.delta
        try:
            if ell <= 20:
                value = float(math.factorial(ell)) ** power
            else:
                value = math.exp(power * math.lgamma(ell + 1))
        except OverflowError:
            value = math.inf
        if value == math.inf:
            raise ValueError(f"POD order weight ({ell}!)^{power:.6g} overflows a float "
                             f"(delta = {self.delta}, theta = {self.theta})")
        return value

    def product_factor(self, j: int) -> float:
        """(beta_j / sqrt(phi))^(2/(1+theta)) for 1-based coordinate j."""
        return (self.beta[j - 1] / math.sqrt(self.phi())) ** self.exponent()


_BETA_RULE = re.compile(r"^\s*(?:([0-9.eE+-]+)\s*\*\s*)?j\^(-?[0-9.eE+]+)\s*$")


def parse_beta_rule(rule: str, s: int) -> np.ndarray:
    """Per-coordinate factors from a power-law rule like 'j^-5' or '0.5*j^-2'."""
    m = _BETA_RULE.match(rule)
    if not m:
        raise ValueError(f"beta rule must look like 'j^-5' or 'c*j^-p', got {rule!r}")
    scale = float(m.group(1)) if m.group(1) else 1.0
    power = float(m.group(2))
    j = np.arange(1, s + 1, dtype=float)
    return scale * j**power


def _require_pow2(n: int) -> int:
    n = int(n)
    if n < 2 or n & (n - 1):
        raise ValueError(f"point count must be a power of 2 (>= 2), got {n}")
    return n


def _candidate_scorer(n: int, vals: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """q -> [sum_k vals[z k mod n] q(k) for odd z = 1, 3, ..., n - 1] in O(n log n).

    ``vals`` must satisfy vals[j] = vals[n - j].  Write k = 2^t k' with k'
    odd; then z k mod n = 2^t (z k' mod N_t), N_t = 2^(m - t).  For
    N_t >= 8 the odd residues mod N_t are +-5^c, c < N_t / 4, so with
    z = +-5^a the level-t sum is the cyclic correlation
    sum_c f_t(a + c) g_t(c) of f_t(c) = vals[2^t 5^c mod n], fixed (its FFT
    is taken once), and g_t(c) = q(2^t 5^c mod n) + q(n - 2^t 5^c mod n).
    k = 0 and the levels with N_t <= 4 (k a multiple of n/4) are summed
    directly.  z and n - z share their class a, so they score bitwise equal.
    """
    cand = np.arange(1, n, 2, dtype=np.int64)
    L = max(n // 4, 1)
    pow5 = np.ones(L, dtype=np.int64)  # 5^c mod n, by doubling
    size = 1
    while size < L:
        pow5[size : 2 * size] = pow5[:size] * pow(5, size, n) % n
        size *= 2
    class_of = np.empty(cand.size, dtype=np.int64)  # candidate (z - 1)/2 -> a
    class_of[(pow5 - 1) // 2] = np.arange(L)
    class_of[(n - pow5 - 1) // 2] = np.arange(L)
    levels = []  # per level t with N_t >= 8: (2^t 5^c mod n, rfft of f_t)
    t = 0
    while n >> t >= 8:
        r = (pow5[: n >> (t + 2)] << t) % n
        levels.append((r, np.fft.rfft(vals[r])))
        t += 1
    direct = np.arange(0, n, L)

    def scores(q: np.ndarray) -> np.ndarray:
        per_class = np.zeros(L)
        for r, f_hat in levels:
            g_hat = np.fft.rfft(q[r] + q[n - r])
            tiles = per_class.reshape(-1, r.size)  # view: class a += h_t(a mod L_t)
            tiles += np.fft.irfft(f_hat * np.conj(g_hat), r.size)
        out = per_class[class_of]
        for k in direct:
            out += vals[(cand * k) % n] * q[k]
        return out

    return scores


@np.errstate(over="ignore", invalid="ignore")
def cbc_construct(
    s: int,
    n: int,
    w: PODWeights,
    return_errors: bool = False,
):
    """Component-by-component generating vector minimizing the worst-case error.

    Each z_j is chosen greedily among the odd integers in [1, n); the POD
    order recursion keeps per-point accumulators P(k, ell) of the subset
    sums of order ell (capped at _ORDER_CAP = 30).  All candidates of a step
    are scored at once by FFT in O(n log n) (Nuyens & Cools 2006).

    Tie rule: z_1 = 1, since every odd z_1 has the same error exactly.
    B2 is tabulated at min(k, n - k)/n, so z and n - z score bitwise
    equal; of equal computed scores the smallest candidate wins, hence
    every z_d <= n/2.  Other exact ties are still told apart by rounding.
    """
    n = _require_pow2(n)
    if s < 1 or s > w.s:
        raise ValueError(f"dimension must lie in 1..{w.s}, got {s}")
    cap = min(s, _ORDER_CAP)
    k = np.arange(n)
    vals = bernoulli2(np.minimum(k, n - k) / n)
    score_sums = _candidate_scorer(n, vals)
    gammas = np.array([w.order_factor(ell) for ell in range(cap + 1)])  # index 0 unused
    P = np.zeros((n, cap + 1))
    P[:, 0] = 1.0
    z = np.zeros(s, dtype=np.int64)
    errors = np.zeros(s)
    for d in range(1, s + 1):
        b = w.product_factor(d)
        best_z = 1
        if d > 1:
            q = P[:, 0:cap] @ gammas[1 : cap + 1]  # q(k) = sum_l Gamma_l P(k, l-1)
            # errors[d - 2] is the error of z_1..z_(d-1): the k-sum of P so far
            scores = errors[d - 2] + (b / n) * score_sums(q)
            best_z = 2 * int(np.argmin(scores)) + 1
        z[d - 1] = best_z
        omega_best = vals[(best_z * k) % n]
        for ell in range(min(d, cap), 0, -1):
            P[:, ell] += b * omega_best * P[:, ell - 1]
        errors[d - 1] = float((P[:, 1 : cap + 1] * gammas[1 : cap + 1]).sum()) / n
    if not np.isfinite(errors).all():
        d = int(np.argmin(np.isfinite(errors))) + 1
        raise ValueError(f"worst-case error is not finite from dimension {d} on: "
                         "the POD weights overflow a float")
    if return_errors:
        return z, errors
    return z


def prng_stream(master_seed: int, index: int) -> Generator:
    """Counter-based PRNG stream keyed by (master_seed, index)."""
    return Generator(Philox(key=[int(master_seed) & (2**64 - 1), int(index)]))


@dataclass(frozen=True)
class LatticeRule:
    """Generating vector, point count (power of 2), and the shift set."""

    s: int
    n: int
    z: np.ndarray
    shifts: np.ndarray  # (R, s) in [0, 1)^s

    def __post_init__(self):
        n = _require_pow2(self.n)
        z = np.asarray(self.z, dtype=np.int64) % n
        if z.ndim != 1 or z.size != self.s:
            raise ValueError("generating vector length must equal the dimension")
        if np.any(z % 2 == 0):
            raise ValueError("components of z must be odd (coprime with 2^m)")
        shifts = np.asarray(self.shifts, dtype=float)
        if shifts.ndim != 2 or shifts.shape[1] != self.s:
            raise ValueError("shifts must have shape (R, s)")
        if np.any(shifts < 0) or np.any(shifts >= 1):
            raise ValueError("shifts must lie in [0, 1)")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "shifts", shifts)

    @property
    def n_shifts(self) -> int:
        return int(self.shifts.shape[0])


def make_lattice_rule(
    s: int,
    n: int,
    z: Sequence[int] | None = None,
    R: int = 8,
    master_seed: int = 0,
    weights: PODWeights | None = None,
) -> LatticeRule:
    """Lattice rule with R random shifts from streams (master_seed, 0..R-1).

    If no generating vector is supplied one is CBC-constructed with the
    given weights (required in that case).
    """
    n = _require_pow2(n)
    if z is None:
        if weights is None:
            raise ValueError("either a generating vector or weights must be given")
        z = cbc_construct(s, n, weights)
    shifts = np.stack([prng_stream(master_seed, r).random(s) for r in range(R)])
    return LatticeRule(s, n, np.asarray(z), shifts)


def lattice_points(rule: LatticeRule, shift_index: int) -> np.ndarray:
    """The n shifted lattice points in [-1/2, 1/2)^s for one shift."""
    if not 0 <= shift_index < rule.n_shifts:
        raise ValueError(f"shift index {shift_index} out of range")
    i = np.arange(1, rule.n + 1, dtype=np.int64)
    frac = ((i[:, None] * rule.z[None, :]) % rule.n) / rule.n
    return (frac + rule.shifts[shift_index]) % 1.0 - 0.5


def qmc_estimate(
    F: Callable[[np.ndarray], float], rule: LatticeRule
) -> tuple[float, np.ndarray]:
    """Mean over shifts of the per-shift equal-weight lattice averages.

    Point sums accumulate in index order within each shift and shifts reduce
    in shift order, so the result is reproducible.  Integrand failures are
    re-raised with (shift, point) indices attached.
    """
    per_shift = np.zeros(rule.n_shifts)
    for r in range(rule.n_shifts):
        total = 0.0
        for i, y in enumerate(lattice_points(rule, r)):
            try:
                total += F(y)
            except EigenSolveError as exc:
                raise EigenSolveError(
                    f"integrand failed at shift {r}, point {i + 1} (y={y!r}): {exc}",
                    last=exc.last,
                ) from exc
        per_shift[r] = total / rule.n
    return float(per_shift.mean()), per_shift


def mc_estimate(
    F: Callable[[np.ndarray], float],
    s: int,
    n: int,
    seed: int,
    stream_offset: int = 0,
) -> tuple[float, np.ndarray]:
    """Plain Monte Carlo average of F over uniform points on [-1/2, 1/2]^s.

    Sample i draws from the counter-based stream (seed, stream_offset + i),
    so output is bitwise reproducible for a fixed seed.  Integrand failures
    are re-raised with the sample index, its stream and y attached.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    values = np.empty(n)
    for i in range(n):
        y = prng_stream(seed, stream_offset + i).random(s) - 0.5
        try:
            values[i] = F(y)
        except EigenSolveError as exc:
            raise EigenSolveError(
                f"integrand failed at sample {i}, stream ({seed}, {stream_offset + i}) "
                f"(y={y!r}): {exc}", last=exc.last,
            ) from exc
    return float(values.mean()), values


@dataclass(frozen=True)
class ErrorRecord:
    """Relative RMSE of the randomized estimator at one point count."""

    n: int
    rmse: float
    per_shift: np.ndarray


@dataclass(frozen=True)
class RmseStudyResult:
    qmc: list[ErrorRecord]
    mc: list[ErrorRecord]
    reference: float


def default_weights(model: CoefficientModel, s: int) -> PODWeights:
    """POD weights matched to a model: its Gevrey order, theta = 0.6 and beta_j = j^-5."""
    return PODWeights(model.gevrey_order, 0.6, parse_beta_rule("j^-5", s))


def _relative_rmse(reference: float, estimates: np.ndarray) -> float:
    devs = (reference - estimates) / reference
    return float(np.sqrt(np.mean(devs * devs)))


def _lambda1_map(
    model: CoefficientModel, m: int, tol: float
) -> Callable[[np.ndarray], float]:
    """y -> lambda1(y): the smallest FEM eigenvalue on the mesh of parameter m,
    solved on the half grid (``Assembler.symmetric_system``)."""
    asm = Assembler(build_mesh(m), model)

    def lam(y: np.ndarray) -> float:
        return smallest_eigenpair(asm.symmetric_system(y), tol=tol).value

    return lam


def _mc_replicates(
    F: Callable[[np.ndarray], float],
    s: int,
    n_list: Sequence[int],
    replicates: int,
    seed: int,
    stream_offset: int,
) -> list[np.ndarray]:
    """Per level n, ``replicates`` independent n-sample MC estimates of F.

    Samples are numbered across all levels and replicates: sample i draws
    from stream (seed, stream_offset + i).
    """
    counter = stream_offset
    per_level = []
    for n in n_list:
        reps = np.zeros(replicates)
        for rep in range(replicates):
            reps[rep], _ = mc_estimate(F, s, n, seed, stream_offset=counter)
            counter += n
        per_level.append(reps)
    return per_level


def rmse_study(
    model: CoefficientModel,
    m: int,
    s: int,
    n_list: Sequence[int],
    R: int,
    master_seed: int,
    mc_replicates: int | None = None,
    weights: PODWeights | None = None,
    z_by_level: dict[int, Sequence[int]] | None = None,
    tol: float = 1e-14,
    with_mc: bool = True,
) -> RmseStudyResult:
    """Relative RMSE of QMC and MC estimates of the mean smallest eigenvalue.

    The reference value is the shift-mean of the highest-level QMC estimate;
    per-level relative RMSE is taken over the R shifts (QMC) and over
    ``mc_replicates`` independent replicates (MC, default R).  Generating
    vectors are CBC-constructed per level unless supplied via ``z_by_level``.
    """
    n_list = [int(n) for n in n_list]
    if not n_list or sorted(n_list) != n_list:
        raise ValueError("n_list must be nonempty and ascending")
    for n in n_list:
        _require_pow2(n)
    if mc_replicates is None:
        mc_replicates = R

    if weights is None:
        weights = default_weights(model, s)
    if z_by_level is None:
        vectors = {n: cbc_construct(s, n, weights) for n in n_list}
    else:
        vectors = {n: np.asarray(z_by_level[n], dtype=np.int64) for n in n_list}

    F = _lambda1_map(model, m, tol)
    per_level: dict[int, np.ndarray] = {}
    for n in n_list:
        rule = make_lattice_rule(s, n, vectors[n], R, master_seed)
        per_level[n] = qmc_estimate(F, rule)[1]
    reference = float(per_level[n_list[-1]].mean())
    qmc_records = [
        ErrorRecord(n, _relative_rmse(reference, per_level[n]), per_level[n])
        for n in n_list
    ]

    mc_records: list[ErrorRecord] = []
    if with_mc:  # MC sample i draws from stream (seed, R + i)
        per_level_mc = _mc_replicates(F, s, n_list, mc_replicates, master_seed, R)
        mc_records = [
            ErrorRecord(n, _relative_rmse(reference, reps), reps)
            for n, reps in zip(n_list, per_level_mc)
        ]

    return RmseStudyResult(qmc_records, mc_records, reference)


def mc_study(
    model: CoefficientModel,
    m: int,
    s: int,
    n_list: Sequence[int],
    replicates: int,
    master_seed: int,
    tol: float = 1e-14,
) -> list[ErrorRecord]:
    """MC-only convergence record: relative RMSE over independent replicates.

    The reference is the replicate mean at the highest level; the sample
    stream contract matches rmse_study with R = 0 lattice shifts.
    """
    n_list = [int(n) for n in n_list]
    if not n_list or sorted(n_list) != n_list:
        raise ValueError("n_list must be nonempty and ascending")
    F = _lambda1_map(model, m, tol)
    per_level = _mc_replicates(F, s, n_list, replicates, master_seed, 0)
    reference = float(per_level[-1].mean())
    return [
        ErrorRecord(n, _relative_rmse(reference, reps), reps)
        for n, reps in zip(n_list, per_level)
    ]


def truncation_study(
    model: CoefficientModel,
    m: int,
    s_list: Sequence[int],
    rule: LatticeRule,
    tol: float = 1e-14,
) -> list[tuple[int, float]]:
    """Truncation-dimension errors |I_ref - I_s| of the mean eigenvalue.

    I_s applies the s-dimensional sub-rule of the fixed high-accuracy
    reference rule (its points are the first s coordinates of the rule's
    points; the model sets the parameters beyond s to zero); I_ref applies
    the rule itself to the untruncated ``rule.s``-dimensional integrand.
    """
    s_list = [int(s) for s in s_list]
    if not s_list or sorted(s_list) != s_list:
        raise ValueError("s_list must be nonempty and ascending")
    if s_list[0] < 0:
        raise ValueError(f"s_list entries must be >= 0, got {s_list[0]}")
    if max(s_list) >= rule.s:
        raise ValueError("reference rule dimension must exceed max(s_list)")
    lam = _lambda1_map(model, m, tol)
    reference = qmc_estimate(lam, rule)[0]
    records = []
    for s in s_list:
        sub_rule = LatticeRule(s, rule.n, rule.z[:s], rule.shifts[:, :s])
        records.append((s, abs(reference - qmc_estimate(lam, sub_rule)[0])))
    return records


def save_vector(path, z: Sequence[int], s: int, n: int) -> None:
    """Write a generating vector: '# s n' header then one integer per line."""
    z = np.asarray(z, dtype=np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {s} {n}\n")
        for v in z:
            fh.write(f"{int(v)}\n")


def load_vector(path) -> tuple[np.ndarray, int, int]:
    """Read a generating vector file; returns (z, s, n).  A bad line raises
    ``ValueError`` naming ``path:line``."""
    z = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        m = re.match(r"^#\s+(\d+)\s+(\d+)\s*$", header)
        if not m:
            raise ValueError(f"{path}: expected '# s n' header, got {header!r}")
        s, n = int(m.group(1)), int(m.group(2))
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                z.append(int(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected one integer component, "
                                 f"got {line.strip()!r}") from None
    z = np.array(z, dtype=np.int64)
    if z.size != s:
        raise ValueError(f"{path}: expected {s} components, found {z.size}")
    return z, s, n
