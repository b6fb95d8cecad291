"""The benchmark's workloads: the inputs each builds, the study call it times,
and the checks it makes on the program's outputs.

Every check compares against a computation made apart from the program
(scipy's dense or shift-invert eigensolvers, numpy's Gauss-Legendre nodes,
the benchmark's own POD error formula) or against a property the method must
have.  None compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
import scipy.special

from gevrey_evp import eigensolver, qmc, quad1d
from gevrey_evp.coefficients import bound_constants, model_by_name
from gevrey_evp.fem import Assembler, build_mesh

RTOL = 1e-10  # agreement asked of every re-solved eigenvalue
MC_SIGMAS = 5.0  # QMC reference vs MC mean, in combined standard errors


def _sample(seed: int, count: int, k: int) -> frozenset[int]:
    """k distinct call indices below count, drawn from the seed."""
    rng = np.random.default_rng(seed)
    return frozenset(int(i) for i in rng.choice(count, size=min(k, count), replace=False))


def reference_eigenvalues(system, k: int) -> np.ndarray:
    """The k smallest eigenvalues of A u = lambda M u, computed by scipy.

    Dense LAPACK where the matrices are small, shift-invert Lanczos about 0
    otherwise.
    """
    if system.n_dof <= 4000:
        return scipy.linalg.eigh(
            system.A.toarray(), system.M.toarray(),
            subset_by_index=[0, k - 1], eigvals_only=True,
        )
    vals = scipy.sparse.linalg.eigsh(
        system.A, k=k, M=system.M, sigma=0.0, which="LM", tol=0.0,
        return_eigenvectors=False,
    )
    return np.sort(vals)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_band(model, values) -> list[str]:
    """Every lambda1 in the certified band [2 pi^2 a_lo / c_hi, lambda1_bar]."""
    lo = 2.0 * math.pi**2 * model.bounds.a_lo / model.bounds.c_hi
    hi = bound_constants(model, mu=0.5).lambda1_bar  # lambda1_bar does not use mu
    bad = [v for v in values if not lo <= v <= hi]
    if bad:
        return [f"{len(bad)} lambda1 outside [{lo:.6g}, {hi:.6g}], e.g. {bad[0]!r}"]
    return []


def check_kept(probe) -> list[str]:
    """The sampled lambda1 of the first study against scipy's eigensolvers."""
    problems = []
    for idx, rec in sorted(probe.kept.items()):
        system = rec["call"][1].arguments["sys"]
        ref = reference_eigenvalues(system, 1)[0]
        if _rel(rec["value"], ref) > RTOL:
            problems.append(f"lambda1 of solve {idx} is {rec['value']!r}, scipy {ref!r}")
    if len(probe.kept) != len(probe.keep):
        problems.append(f"kept {len(probe.kept)} sampled solves of {len(probe.keep)}")
    return problems


class Workload:
    """One study call, timed as a whole, and the checks on what it returns.

    ``keep`` names the lambda1 calls of the first study whose systems the
    checks re-solve and the traced run caps at one iteration.
    """

    ops_per_round = 1
    keep: frozenset[int] = frozenset()

    def study(self):
        raise NotImplementedError

    def expected(self) -> dict[str, int]:
        """Per-study call counts that the make-up implies; absent means 0."""
        raise NotImplementedError

    def check(self, result, probe) -> list[str]:
        raise NotImplementedError

    def failed_ops(self, result) -> int:
        """Operations of a round, beside the study call, whose output is wrong."""
        return 0


class QmcM32(Workload):
    """qmc.rmse_study in criterion 5's set-up, levels cut to 2..3.

    Many small solves (961 dof).  QMC spends R * sum(n) solves, MC
    replicates * sum(n).  The seed offsets criterion 5's master seed, which
    moves the random shifts and every MC sample.
    """

    M, S, LEVELS, R, REPLICATES, BASE_SEED = 32, 20, (2, 3), 8, 32, 20240817

    def __init__(self, seed: int):
        self.model = model_by_name("qmc-analytic")
        self.weights = qmc.PODWeights(
            self.model.gevrey_order, 0.6, qmc.parse_beta_rule("j^-5", self.S)
        )
        self.n_list = [2**level for level in self.LEVELS]
        self.master_seed = self.BASE_SEED + seed
        self.keep = _sample(seed, self.expected()["solves"], 8)

    def study(self):
        return qmc.rmse_study(
            self.model, self.M, self.S, self.n_list, R=self.R,
            master_seed=self.master_seed, mc_replicates=self.REPLICATES,
            weights=self.weights,
        )

    def expected(self):
        qmc_solves = self.R * sum(self.n_list)
        mc_solves = self.REPLICATES * sum(self.n_list)
        return {
            "solves": qmc_solves + mc_solves, "qmc_solves": qmc_solves,
            "mc_solves": mc_solves, "cbc_calls": len(self.n_list),
        }

    def check(self, result, probe):
        problems = check_band(self.model, [v for v, _ in probe.first[0]])
        problems += check_kept(probe)
        if [r.n for r in result.qmc] != self.n_list or [r.n for r in result.mc] != self.n_list:
            problems.append("QMC/MC records do not cover the levels")
        # The reference is an unbiased QMC estimate; the pooled MC mean is
        # another.  They must agree within their combined standard error.
        n = np.array(self.n_list, dtype=float)
        reps = np.array([r.per_shift for r in result.mc])  # (levels, replicates)
        mc_mean = float((n[:, None] * reps).sum() / (n.sum() * reps.shape[1]))
        sample_var = float(np.mean(n * reps.var(axis=1, ddof=1)))
        se_mc2 = sample_var / (n.sum() * reps.shape[1])
        finest = result.qmc[-1].per_shift
        se_ref2 = float(finest.var(ddof=1)) / finest.size
        z = abs(result.reference - mc_mean) / math.sqrt(se_mc2 + se_ref2)
        if not z <= MC_SIGMAS:
            problems.append(
                f"QMC reference {result.reference!r} is {z:.2f} standard errors "
                f"from the MC mean {mc_mean!r}"
            )
        return problems


class GlM128(Workload):
    """quad1d.gl_study for gl-gevrey3 at m = 128 with n = 2, 3, 4 and n* = 5.

    A few large solves (16,129 dof).  The rules are fixed: the seed picks the
    nodes whose lambda1 the checks re-solve.
    """

    M, N_LIST, N_STAR = 128, (2, 3, 4), 5

    def __init__(self, seed: int):
        self.model = model_by_name("gl-gevrey3")
        nodes = np.concatenate(
            [np.polynomial.legendre.leggauss(n)[0] for n in (*self.N_LIST, self.N_STAR)]
        )
        self.n_nodes = int(np.unique(np.round(nodes, 12)).size)
        self.keep = _sample(seed, self.n_nodes, 2)

    def study(self):
        return quad1d.gl_study(self.model, self.M, list(self.N_LIST), self.N_STAR)

    def expected(self):
        return {"solves": self.n_nodes, "nodes": self.n_nodes}

    def check(self, result, probe):
        problems = check_band(self.model, [v for v, _ in probe.first[0]])
        problems += check_kept(probe)
        if [n for n, _ in result] != list(self.N_LIST):
            problems.append(f"records for n = {[n for n, _ in result]}")
        bad = [e for _, e in result if not 0.0 <= e < 1.0]
        if bad:
            problems.append(f"relative errors outside [0, 1): {bad}")
        return problems


class GapM32(Workload):
    """eigensolver.estimate_gap for qmc-analytic at m = 32 over 8 fixed samples.

    Each sample costs one lambda1 and one deflated lambda2 solve, and lambda2
    takes about a hundred times the iterations of lambda1.  That count ranged
    from 1,164 to 1,831 over 12 random samples, so the samples are fixed
    rather than drawn from the seed, which would make the study time depend
    on the seed.
    The seed picks the samples whose lambda1 the checks re-solve.

    A round is two operations: the study call, and the lambda2 it reports at
    the argmin, which must match scipy to RTOL.
    """

    M, DIM, SAMPLES, SAMPLE_SEED = 32, 20, 8, 31415
    ops_per_round = 2

    def __init__(self, seed: int):
        self.model = model_by_name("qmc-analytic")
        rng = np.random.default_rng(self.SAMPLE_SEED)
        self.samples = rng.random((self.SAMPLES, self.DIM)) - 0.5
        self.keep = _sample(seed, self.SAMPLES, 2)
        self._argmin_refs: dict[bytes, np.ndarray] = {}

    def study(self):
        return eigensolver.estimate_gap(self.model, self.M, self.samples)

    def expected(self):
        return {"solves": self.SAMPLES, "second_solves": self.SAMPLES}

    def _argmin_reference(self, result) -> np.ndarray:
        key = result.y_argmin.tobytes()
        if key not in self._argmin_refs:
            system = Assembler(build_mesh(self.M), self.model).system(result.y_argmin)
            self._argmin_refs[key] = reference_eigenvalues(system, 2)
        return self._argmin_refs[key]

    def check(self, result, probe):
        lam1 = [v for v, _ in probe.first[0]]
        lam2 = [v for v, _ in probe.second[0]]
        problems = check_band(self.model, lam1)
        problems += check_kept(probe)
        if not 0.0 < result.gap < 1.0:
            problems.append(f"gap {result.gap!r} outside (0, 1)")
        gaps = [1.0 - a / b for a, b in zip(lam1, lam2)]
        if gaps and result.gap != min(gaps):
            problems.append(f"gap {result.gap!r} is not the sampled minimum {min(gaps)!r}")
        ref = self._argmin_reference(result)
        if _rel(result.lambda1, ref[0]) > RTOL:
            problems.append(f"lambda1 at the argmin {result.lambda1!r}, scipy {ref[0]!r}")
        return problems

    def failed_ops(self, result):
        return int(_rel(result.lambda2, self._argmin_reference(result)[1]) > RTOL)


class CbcS100(Workload):
    """qmc.cbc_construct at s = 100, n = 2^11, POD weights (1, 0.6, j^-5).

    No eigensolves: the null workload for every eigensolver change.  Its
    inputs are fixed by its make-up; the seed is not used.
    """

    S, N, DELTA, THETA = 100, 2**11, 1.0, 0.6

    def __init__(self, seed: int):
        self.weights = qmc.PODWeights(
            self.DELTA, self.THETA, qmc.parse_beta_rule("j^-5", self.S)
        )

    def study(self):
        return qmc.cbc_construct(self.S, self.N, self.weights, return_errors=True)

    def expected(self):
        return {"cbc_calls": 1}

    def check(self, result, probe):
        z, errors = (np.asarray(a) for a in result)
        n = self.N
        if z.shape != (self.S,) or np.any(z % 2 == 0) or np.any((z < 1) | (z >= n)):
            return [f"z is not {self.S} odd integers in [1, {n})"]
        errors_ref, averages, slack = pod_errors(
            z, n, self.DELTA, self.THETA, np.arange(1, self.S + 1.0) ** -5.0
        )
        problems = []
        off = [d + 1 for d in range(self.S) if abs(errors[d] - errors_ref[d]) > slack[d]]
        if off:
            d = off[0] - 1
            problems.append(
                f"reported error at steps {off[:5]} differs from the POD formula: "
                f"{errors[d]!r} against {errors_ref[d]!r} (+- {slack[d]:.2g})"
            )
        over = [d + 1 for d in range(self.S) if errors[d] > averages[d] + slack[d]]
        if over:
            problems.append(f"error above the CBC average at steps {over[:5]}")
        return problems


def pod_errors(z, n, delta, theta, beta):
    """Squared worst-case errors of the first d components of z, d = 1..s,
    at each step the mean of that error over every odd candidate z_d, and
    the rounding error either may carry.

    POD weights gamma_u = Gamma_|u| prod_{j in u} b_j, with
    Gamma_l = (l!)^(2 delta / (1 + theta)) and
    b_j = (beta_j / sqrt(phi))^(2 / (1 + theta)),
    phi = 2 zeta(2 theta) / (2 pi^2)^theta.  Summing over subsets by order,
    e^2 = (1/n) sum_k sum_l Gamma_l e_l(b_1 B2(x_1k), ..., b_d B2(x_dk)),
    with e_l the elementary symmetric polynomials.  The CBC choice of z_d
    minimizes over the candidates, so its error is at most their mean.

    The sum over k cancels: at d = 1 it is 1/(6n) from terms of size 1/6.
    So two correct evaluations agree only to about eps times the same sum
    taken over absolute values, times the number of roundings per term
    (d + log2 n); that product is the slack returned.
    """
    s = len(z)
    expo = 2.0 / (1.0 + theta)
    phi = 2.0 * scipy.special.zeta(2.0 * theta) / (2.0 * math.pi**2) ** theta
    b = (np.asarray(beta) / math.sqrt(phi)) ** expo
    order = np.arange(s + 1)
    gamma = np.exp(delta * expo * scipy.special.gammaln(order + 1))
    gamma[0] = 0.0  # the empty subset is not part of the error
    k = np.arange(n)

    def b2(x):
        return x * x - x + 1.0 / 6.0

    odd = np.arange(1, n, 2)
    mean_omega = b2(((odd[:, None] * k[None, :]) % n) / n).mean(axis=0)
    elem = np.zeros((n, s + 1))
    elem[:, 0] = 1.0
    elem_abs = elem.copy()
    errors, averages, slack = np.zeros(s), np.zeros(s), np.zeros(s)
    previous = 0.0
    for d in range(s):
        # adding coordinate d multiplies in (1 + t b_d omega), so the new
        # terms of order l are b_d omega e_{l-1}
        q = elem[:, :-1] @ gamma[1:]
        averages[d] = previous + b[d] * float(mean_omega @ q) / n
        omega = b2(((int(z[d]) * k) % n) / n)
        elem[:, 1:] = elem[:, 1:] + (b[d] * omega)[:, None] * elem[:, :-1]
        elem_abs[:, 1:] = elem_abs[:, 1:] + (b[d] * np.abs(omega))[:, None] * elem_abs[:, :-1]
        errors[d] = previous = float((elem @ gamma).sum()) / n
        roundings = d + 1 + math.log2(n)
        slack[d] = roundings * np.finfo(float).eps * float((elem_abs @ gamma).sum()) / n
    return errors, averages, slack


WORKLOADS = {
    "qmc-m32": QmcM32,
    "gl-m128": GlM128,
    "gap-m32": GapM32,
    "cbc-s100": CbcS100,
}
