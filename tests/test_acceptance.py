"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 4 and 7 contain sub-assertions that are known not to hold for the
true eigenvalue maps (see the printed diagnostics): the convergence-law fits
on the prescribed n = 3..16 window, and the coefficient-decay order of the
endpoint-singular model.  They are asserted as stated anyway; the
supplementary trend test documents the laws on windows where they do hold.
"""

import time

import numpy as np
import scipy.linalg as sla

import gevrey_evp as g
from gevrey_evp.cli import main
from gevrey_evp.harness import fit_rate
from gevrey_evp.qmc import PODWeights, parse_beta_rule
from gevrey_evp.quad1d import axis_eigenvalue_map
from support import random_spd_pair, worst_case_error_sq


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_combinatorics_exactness():
    t0 = time.time()
    rows = g.identity_checks(60, 8)
    elapsed = time.time() - t0
    failed = [label for label, ok in rows if not ok]
    detail = f"{len(rows) - len(failed)} of {len(rows)} identity rows hold (n <= 60, |nu| <= 8)"
    if failed:
        detail += f", failed: {failed}"
    assert report(1, not failed and elapsed < 10.0, f"{detail}; runtime {elapsed:.1f}s < 10s")


def test_criterion_2_fem_sanity():
    t0 = time.time()
    const = g.model_by_name("constant")
    ref = g.CHI1
    lam = {}
    for m in (8, 16, 32, 64):
        lam[m] = g.smallest_eigenpair(g.Assembler(g.build_mesh(m), const).system([0.0])).value
    rel64 = abs(lam[64] - ref) / ref
    ratios = [(lam[m] - ref) / (lam[2 * m] - ref) for m in (8, 16, 32)]
    ratios_ok = all(3.6 <= r <= 4.4 for r in ratios)
    elapsed = time.time() - t0
    ok = rel64 <= 1e-3 and ratios_ok and elapsed < 60.0
    assert report(
        2, ok,
        f"lambda1(m=64) rel err {rel64:.2e} <= 1e-3; O(h^2) ratios "
        f"{[f'{r:.2f}' for r in ratios]} in [3.6, 4.4]; runtime {elapsed:.1f}s",
    )


def test_criterion_3_eigensolver_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2718)
    worst = 0.0
    ok = True
    for _ in range(20):
        n = int(rng.integers(4, 60))
        sysm = random_spd_pair(rng, n)
        w = sla.eigh(sysm.A.toarray(), sysm.M.toarray(), eigvals_only=True)
        p1 = g.smallest_eigenpair(sysm, tol=1e-14)
        p2 = g.second_eigenpair(sysm, p1, tol=1e-14)
        worst = max(worst, abs(p1.value - w[0]) / w[0], abs(p2.value - w[1]) / w[1])
    cases = [
        ("gl-analytic", [-0.7]),
        ("gl-analytic", [0.3]),
        ("gl-gevrey3", [0.5]),
        ("qmc-analytic", 0.2 * np.ones(5)),
    ]
    for m in range(3, 12):  # every FEM size with n_dof <= 100
        for name, y in cases:
            sysm = g.Assembler(g.build_mesh(m), g.model_by_name(name)).system(y)
            w = sla.eigh(sysm.A.toarray(), sysm.M.toarray(), eigvals_only=True)
            p1 = g.smallest_eigenpair(sysm, tol=1e-14)
            p2 = g.second_eigenpair(sysm, p1, tol=1e-14)
            worst = max(worst, abs(p1.value - w[0]) / w[0],
                        abs(p2.value - w[1]) / w[1])
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    assert report(
        3, ok,
        f"worst relative deviation from dense oracle {worst:.2e} <= 1e-10 "
        f"(20 random pairs + FEM m=3..11); runtime {elapsed:.1f}s",
    )


def test_criterion_4_gauss_legendre_trends():
    t0 = time.time()
    worst_moment = 0.0
    for n in range(1, 65):
        rule = g.gauss_legendre(n)
        ks = np.arange(2 * n)
        vals = rule.nodes[None, :] ** ks[:, None]
        exact = np.where(ks % 2 == 1, 0.0, 2.0 / (ks + 1))
        worst_moment = max(worst_moment, float(np.max(np.abs(vals @ rule.weights - exact))))
    moments_ok = worst_moment <= 1e-13
    print(f"  moments: worst deviation {worst_moment:.2e} <= 1e-13: {moments_ok}")

    rec1 = g.gl_study(g.model_by_name("gl-analytic"), 64, list(range(3, 17)), 40)
    fit1 = fit_rate(rec1, "log-vs-n")
    fit1_ok = fit1.r_squared >= 0.97 and fit1.slope < -0.5
    print(f"  gl-analytic n=3..16, n*=40: slope {fit1.slope:.3f} (< -0.5), "
          f"r2 {fit1.r_squared:.4f} (>= 0.97 required): {fit1_ok}")

    rec2 = g.gl_study(g.model_by_name("gl-gevrey3"), 64, list(range(3, 17)), 123)
    fit2 = fit_rate(rec2, "log-vs-cuberoot-n")
    fit2_ok = fit2.r_squared >= 0.95
    print(f"  gl-gevrey3 n=3..16, n*=123: slope {fit2.slope:.3f}, "
          f"r2 {fit2.r_squared:.4f} (>= 0.95 required): {fit2_ok}")
    print("  note: the fitted-law r2 thresholds are unattainable on the 3..16 "
          "window; the quadrature error of both eigenvalue maps oscillates "
          "around its decay trend (see test_supplementary_wide_window_trends).")
    elapsed = time.time() - t0
    ok = moments_ok and fit1_ok and fit2_ok and elapsed < 1800.0
    assert report(4, ok, f"moment exactness {moments_ok}, analytic fit {fit1_ok}, "
                         f"gevrey fit {fit2_ok}; runtime {elapsed:.0f}s")


def test_supplementary_wide_window_trends():
    """Fitted-law forms on windows long enough for the asymptotics.

    Not an acceptance criterion: documents that the convergence laws hold
    with high r2 once the window extends past the oscillation scale.
    """
    rec1 = g.gl_study(g.model_by_name("gl-analytic"), 32, list(range(3, 25)), 40)
    fit1 = fit_rate(rec1, "log-vs-n")
    print(f"  analytic n=3..24 (m=32): slope {fit1.slope:.3f} r2 {fit1.r_squared:.4f}")
    assert fit1.r_squared >= 0.95
    assert fit1.slope < -0.5

    rec2 = g.gl_study(g.model_by_name("gl-gevrey3"), 32, list(range(3, 61)), 123)
    fit2 = fit_rate(rec2, "log-vs-cuberoot-n")
    print(f"  gevrey3 n=3..60 (m=32): slope {fit2.slope:.3f} r2 {fit2.r_squared:.4f}")
    assert fit2.r_squared >= 0.95
    # the cube-root law fits the gevrey model far better than a plain
    # semilog law fits it
    fit2_lin = fit_rate(rec2, "loglog")
    assert fit2.r_squared > fit2_lin.r_squared


def test_criterion_5_qmc_vs_mc_separation():
    t0 = time.time()
    res = g.rmse_study(
        g.model_by_name("qmc-analytic"),
        m=32,
        s=20,
        n_list=[2**k for k in range(4, 11)],
        R=8,
        master_seed=20240817,
        mc_replicates=32,
    )
    qmc_fit = fit_rate([(r.n, r.rmse) for r in res.qmc], "loglog")
    mc_fit = fit_rate([(r.n, r.rmse) for r in res.mc], "loglog")
    qmc_ok = -1.15 <= qmc_fit.slope <= -0.85
    mc_ok = -0.6 <= mc_fit.slope <= -0.4
    elapsed = time.time() - t0
    for r in res.qmc:
        print(f"  qmc n={r.n:5d} rmse {r.rmse:.3e}")
    for r in res.mc:
        print(f"  mc  n={r.n:5d} rmse {r.rmse:.3e}")
    ok = qmc_ok and mc_ok and elapsed < 3600.0
    assert report(
        5, ok,
        f"QMC slope {qmc_fit.slope:.3f} in [-1.15, -0.85]: {qmc_ok}; "
        f"MC slope {mc_fit.slope:.3f} in [-0.6, -0.4]: {mc_ok}; "
        f"runtime {elapsed:.0f}s",
    )


def test_criterion_6_lattice_cbc_properties():
    t0 = time.time()
    dual_ok = True
    for n in (8, 16):
        for z2 in (3, 7):
            rule = g.make_lattice_rule(2, n, z=[1, z2], R=2, master_seed=77)
            for k1 in range(-3, 4):
                for k2 in range(-3, 4):
                    if (k1 + z2 * k2) % n == 0:
                        continue
                    for trig in (np.cos, np.sin):
                        _, per = g.qmc_estimate(
                            lambda y: trig(2 * np.pi * (k1 * y[0] + k2 * y[1])),
                            rule,
                        )
                        dual_ok &= float(np.max(np.abs(per))) <= 1e-14

    cbc_ok = True
    for n in (8, 16, 32):
        for delta, theta in ((1.0, 1.0), (2.0, 0.8)):
            w = PODWeights(delta, theta, parse_beta_rule("j^-2", 2))
            z, errs = g.cbc_construct(2, n, w, return_errors=True)
            best = min(
                worst_case_error_sq([z1, z2], n, w)
                for z1 in range(1, n, 2)
                for z2 in range(1, n, 2)
            )
            cbc_ok &= abs(errs[-1] - best) <= 1e-12

    phi_ok = abs(g.bernoulli_zeta_factor(1.0) - 1.0 / 6.0) <= 1e-14
    elapsed = time.time() - t0
    ok = dual_ok and cbc_ok and phi_ok and elapsed < 10.0
    assert report(
        6, ok,
        f"dual-lattice exactness {dual_ok}; CBC equals exhaustive search "
        f"{cbc_ok}; phi(1)=1/6 {phi_ok}; runtime {elapsed:.1f}s",
    )


def test_criterion_7_gevrey_classification():
    t0 = time.time()
    rng = np.random.default_rng(99)
    k = np.arange(25, dtype=float)
    planted_ok = True
    for delta in (1.0, 2.0, 3.0):
        for _ in range(20):
            c = rng.uniform(0.5, 20.0)
            r = rng.uniform(0.5, 2.0)
            fit = g.classify_decay(c * np.exp(-r * k ** (1.0 / delta)),
                                   delta_candidates=(1.0, 2.0, 3.0))
            planted_ok &= fit.delta == delta and fit.goodness >= 0.99
    print(f"  planted delta recovery (60 draws): {planted_ok}")

    candidates = (1.0, 1.5, 2.0, 3.0, 4.0)
    f1 = axis_eigenvalue_map(g.model_by_name("gl-analytic"), 32, 1e-14)
    fit1 = g.classify_decay(g.legendre_coeffs(f1, 20, 64), candidates)
    analytic_ok = fit1.delta == 1.0
    print(f"  gl-analytic selects delta={fit1.delta} (want 1): {analytic_ok}")

    f3 = axis_eigenvalue_map(g.model_by_name("gl-gevrey3"), 32, 1e-14)
    fit3 = g.classify_decay(g.legendre_coeffs(f3, 20, 64), candidates)
    gevrey_ok = fit3.delta == 3.0
    print(f"  gl-gevrey3 selects delta={fit3.delta} (want 3): {gevrey_ok}")
    print("  note: for this endpoint-singular map the coefficient-decay "
          "exponent is (delta+1)/2 = 2, not delta = 3; candidate fits: "
          + ", ".join(f"{d}: r2={r2:.4f}" for d, (_, r2) in
                      sorted(fit3.candidates.items())))
    elapsed = time.time() - t0
    ok = planted_ok and analytic_ok and gevrey_ok and elapsed < 1200.0
    assert report(
        7, ok,
        f"synthetic recovery {planted_ok}; gl-analytic delta=1 {analytic_ok}; "
        f"gl-gevrey3 delta=3 {gevrey_ok}; runtime {elapsed:.0f}s",
    )


def test_criterion_8_bound_consistency():
    t0 = time.time()
    rng = np.random.default_rng(31415)
    ok = True
    details = []
    for name in ("gl-analytic", "gl-gevrey3", "qmc-analytic", "qmc-gevrey2"):
        model = g.model_by_name(name)
        bc = g.bound_constants(model, mu=0.5)
        asm = g.Assembler(g.build_mesh(16), model)
        dim = min(model.dim, 20)
        worst_lam = -np.inf
        worst_gap = (np.inf, -np.inf)
        for _ in range(200):
            y = (rng.random(dim) - 0.5) * 2 * model.param_halfwidth
            if name == "gl-gevrey3":
                y = np.maximum(y, -0.999999)
            sysm = asm.system(y)
            p1 = g.smallest_eigenpair(sysm, tol=1e-12)
            p2 = g.second_eigenpair(sysm, p1, tol=1e-8)
            gap = 1.0 - p1.value / p2.value
            worst_lam = max(worst_lam, p1.value)
            worst_gap = (min(worst_gap[0], gap), max(worst_gap[1], gap))
            ok &= p1.value <= bc.lambda1_bar and 0.0 < gap < 1.0
        details.append(
            f"{name}: max lam1 {worst_lam:.2f} <= {bc.lambda1_bar:.2f}, "
            f"gap in [{worst_gap[0]:.3f}, {worst_gap[1]:.3f}]"
        )
    elapsed = time.time() - t0
    for d in details:
        print("  " + d)
    ok = ok and elapsed < 1200.0
    assert report(8, ok, f"200 samples per model at m=16; runtime {elapsed:.0f}s")


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    blobs = {}
    for tag in ("a", "b"):
        gl_csv = tmp_path / f"gl_{tag}.csv"
        qmc_csv = tmp_path / f"qmc_{tag}.csv"
        assert main(["gl-study", "--model", "gl-analytic", "--m", "8",
                     "--n-min", "2", "--n-max", "6", "--n-star", "10",
                     "--out", str(gl_csv)]) == 0
        assert main(["qmc-study", "--model", "qmc-analytic", "--m", "8",
                     "--s", "5", "--levels", "3..5", "--shifts", "3",
                     "--mc-shifts", "3", "--seed", "4242",
                     "--out", str(qmc_csv)]) == 0
        blobs[tag] = (gl_csv.read_bytes(), qmc_csv.read_bytes())
    elapsed = time.time() - t0
    ok = blobs["a"] == blobs["b"]
    assert report(
        9, ok,
        f"identical config+seed reproduce byte-identical CSVs: {ok}; "
        f"runtime {elapsed:.0f}s",
    )
