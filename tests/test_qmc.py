import math

import numpy as np
import pytest

from gevrey_evp.coefficients import model_by_name, zeta
from gevrey_evp.eigensolver import EigenPair, EigenSolveError
from gevrey_evp.qmc import (
    LatticeRule,
    PODWeights,
    _candidate_scorer,
    _lambda1_map,
    bernoulli2,
    bernoulli_zeta_factor,
    cbc_construct,
    lattice_points,
    load_vector,
    make_lattice_rule,
    mc_estimate,
    mc_study,
    parse_beta_rule,
    prng_stream,
    qmc_estimate,
    rmse_study,
    save_vector,
    truncation_study,
)
from support import gather_scores, pod_weight, worst_case_error_sq


class TestBernoulliZetaFactor:
    def test_at_one(self):
        assert abs(bernoulli_zeta_factor(1.0) - 1.0 / 6.0) <= 1e-14

    def test_at_three_quarters(self):
        expect = 2.0 * zeta(1.5) / (2.0 * math.pi**2) ** 0.75
        assert bernoulli_zeta_factor(0.75) == pytest.approx(expect, rel=1e-14)

    def test_pole_guard(self):
        with pytest.raises(ValueError):
            bernoulli_zeta_factor(0.5)
        with pytest.raises(ValueError):
            bernoulli_zeta_factor(0.5 + 1e-9)
        with pytest.raises(ValueError):
            bernoulli_zeta_factor(1.2)


class TestPodWeights:
    def test_empty_subset(self):
        w = PODWeights(1.0, 1.0, np.ones(3))
        assert pod_weight(w, []) == 1.0

    def test_singleton_delta1_theta1(self):
        beta = np.array([0.7, 0.2])
        w = PODWeights(1.0, 1.0, beta)
        assert pod_weight(w, [2]) == pytest.approx(0.2 * math.sqrt(6.0), rel=1e-14)

    def test_pair_delta2_theta1(self):
        beta = np.array([0.5, 0.25])
        w = PODWeights(2.0, 1.0, beta)
        assert pod_weight(w, [1, 2]) == pytest.approx(4.0 * 6.0 * 0.5 * 0.25, rel=1e-14)

    def test_log_space_matches_direct(self):
        beta = parse_beta_rule("j^-2", 30)
        w = PODWeights(1.5, 0.8, beta)
        u20 = list(range(1, 21))  # direct path
        u25 = list(range(1, 26))  # log path
        direct20 = pod_weight(w, u20)
        expo = w.exponent()
        log_val = 1.5 * math.lgamma(26.0)
        log_val += sum(math.log(b) for b in beta[:25])
        log_val -= 12.5 * math.log(w.phi())
        assert pod_weight(w, u25) == pytest.approx(math.exp(expo * log_val), rel=1e-12)
        assert direct20 > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PODWeights(0.5, 1.0, np.ones(2))
        with pytest.raises(ValueError):
            PODWeights(1.0, 1.0, np.array([1.0, -1.0]))
        # the Gevrey order is a finite value >= 1, as the config requires
        for delta in (math.inf, math.nan):
            with pytest.raises(ValueError, match="delta must be a finite value >= 1"):
                PODWeights(delta, 0.6, [1.0])
        w = PODWeights(1.0, 1.0, np.ones(2))
        with pytest.raises(ValueError):
            pod_weight(w, [3])

    def test_beta_rule_parsing(self):
        assert parse_beta_rule("j^-5", 3) == pytest.approx([1.0, 2.0**-5, 3.0**-5])
        assert parse_beta_rule("0.5*j^-2", 2) == pytest.approx([0.5, 0.125])
        with pytest.raises(ValueError):
            parse_beta_rule("five", 3)


class TestCBC:
    def test_dimension_one_matches_unit_vector(self):
        for n in (8, 16, 32):
            w = PODWeights(1.0, 1.0, np.ones(4))
            z, errs = cbc_construct(1, n, w, return_errors=True)
            e_unit = worst_case_error_sq([1], n, w)
            assert errs[0] == pytest.approx(e_unit, abs=1e-12)

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize(
        "delta,theta,beta",
        [(1.0, 1.0, np.ones(2)), (2.0, 0.75, parse_beta_rule("j^-5", 2))],
    )
    def test_matches_exhaustive_search_s2(self, n, delta, theta, beta):
        w = PODWeights(delta, theta, beta)
        z, errs = cbc_construct(2, n, w, return_errors=True)
        best = min(
            worst_case_error_sq([z1, z2], n, w)
            for z1 in range(1, n, 2)
            for z2 in range(1, n, 2)
        )
        assert errs[-1] == pytest.approx(best, abs=1e-12)

    def test_greedy_step_is_minimal_given_prefix(self):
        n = 16
        w = PODWeights(1.0, 0.8, parse_beta_rule("j^-2", 3))
        z, errs = cbc_construct(3, n, w, return_errors=True)
        for d in (2, 3):
            best = min(
                worst_case_error_sq(list(z[: d - 1]) + [c], n, w)
                for c in range(1, n, 2)
            )
            assert errs[d - 1] == pytest.approx(best, rel=1e-10)

    def test_recursion_matches_direct_evaluator(self):
        w = PODWeights(1.5, 0.8, np.array([1.0, 0.5, 0.3]))
        z, errs = cbc_construct(3, 8, w, return_errors=True)
        assert errs[-1] == pytest.approx(worst_case_error_sq(z, 8, w), abs=1e-14)

    def test_order_weight_past_float_range_is_named(self):
        # (9!)^(2 * 50 / 1.6) overflows; both the direct and the log-space path
        w = PODWeights(50.0, 0.6, parse_beta_rule("j^-5", 40))
        with pytest.raises(ValueError, match=r"POD order weight \(9!\)\^62.5 overflows"):
            cbc_construct(40, 16, w)
        with pytest.raises(ValueError, match=r"POD order weight \(21!\)"):
            PODWeights(15.0, 0.6, [1.0]).order_factor(21)
        assert PODWeights(15.0, 0.6, [1.0]).order_factor(2) == 2.0 ** 18.75

    def test_refuses_a_non_finite_error(self):
        # beta_j = 1e300 / j: each product factor is finite, their products are not
        w = PODWeights(1.0, 1.0, parse_beta_rule("1e300*j^-1", 4))
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match="not finite from dimension 2 on"):
            cbc_construct(4, 16, w)

    def test_rejects_non_power_of_two(self):
        w = PODWeights(1.0, 1.0, np.ones(2))
        with pytest.raises(ValueError):
            cbc_construct(2, 12, w)

    def test_tie_rule(self):
        # z_1 = 1 (every odd z_1 ties exactly); z and n - z tie bitwise, so
        # the smaller one, at most n/2, wins
        w = PODWeights(1.0, 0.6, parse_beta_rule("j^-5", 20))
        for m in range(1, 13):
            n = 2**m
            z = cbc_construct(20, n, w)
            assert z[0] == 1
            assert np.all(z <= n // 2)


class TestFastScores:
    @pytest.mark.parametrize("n", [2**m for m in range(1, 13)])
    def test_matches_gather_oracle(self, n):
        # n = 2 and 4 have no FFT level: every k is summed directly
        k = np.arange(n)
        score_sums = _candidate_scorer(n, bernoulli2(np.minimum(k, n - k) / n))
        rng = np.random.default_rng(n)
        for _ in range(3):
            q = rng.standard_normal(n)
            ref = gather_scores(q, n)
            assert np.max(np.abs(score_sums(q) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_greedy_step_is_minimal_given_prefix(self):
        n = 2**10
        w = PODWeights(1.0, 0.8, parse_beta_rule("j^-2", 4))
        z, errs = cbc_construct(4, n, w, return_errors=True)
        for d in (2, 3, 4):
            best = min(
                worst_case_error_sq(list(z[: d - 1]) + [c], n, w)
                for c in range(1, n, 2)
            )
            assert errs[d - 1] == pytest.approx(best, rel=1e-10)


class TestLattice:
    def test_points_example(self):
        rule = LatticeRule(1, 4, np.array([1]), np.zeros((1, 1)))
        pts = lattice_points(rule, 0).ravel()
        assert pts == pytest.approx([-0.25, 0.0, 0.25, -0.5], abs=0)

    def test_points_in_half_open_box(self):
        rule = make_lattice_rule(3, 16, z=[1, 5, 7], R=4, master_seed=3)
        for r in range(4):
            pts = lattice_points(rule, r)
            assert np.all(pts >= -0.5) and np.all(pts < 0.5)

    def test_shift_composition_identity(self):
        z = np.array([1, 3])
        base = LatticeRule(2, 8, z, np.zeros((1, 2)))
        delta = np.array([[0.3, 0.8]])
        shifted = LatticeRule(2, 8, z, delta)
        p0 = lattice_points(base, 0)
        p1 = lattice_points(shifted, 0)
        assert np.allclose((p1 - p0) % 1.0, np.array([0.3, 0.8]) % 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeRule(2, 8, np.array([2, 3]), np.zeros((1, 2)))  # even component
        with pytest.raises(ValueError):
            LatticeRule(2, 12, np.array([1, 5]), np.zeros((1, 2)))  # not power of 2
        with pytest.raises(ValueError):
            LatticeRule(2, 8, np.array([1, 5]), np.full((1, 2), 1.0))  # shift = 1


class TestEstimates:
    def test_constant_integrand_exact(self):
        rule = make_lattice_rule(2, 8, z=[1, 3], R=3, master_seed=5)
        mean, per_shift = qmc_estimate(lambda y: 4.25, rule)
        assert np.all(per_shift == 4.25)
        assert mean == 4.25

    def test_linear_example(self):
        rule = LatticeRule(1, 4, np.array([1]), np.zeros((1, 1)))
        mean, _ = qmc_estimate(lambda y: y[0], rule)
        assert mean == pytest.approx(-0.125, abs=0)

    def test_dual_lattice_exactness(self):
        # single Fourier modes integrate to zero unless k.z = 0 mod n
        for n in (8, 16):
            rule = make_lattice_rule(2, n, z=[1, 7], R=2, master_seed=11)
            for k1 in range(-4, 5):
                for k2 in range(-4, 5):
                    if (k1 + 7 * k2) % n == 0:
                        continue
                    for trig in (np.cos, np.sin):
                        _, per = qmc_estimate(
                            lambda y: trig(2 * np.pi * (k1 * y[0] + k2 * y[1])), rule
                        )
                        assert np.max(np.abs(per)) <= 1e-14

    def test_aliased_mode_not_zero(self):
        n = 8
        rule = make_lattice_rule(2, n, z=[1, 7], R=1, master_seed=1)
        k = (1, 1)  # 1 + 7 = 8 = 0 mod 8: aliased
        _, per = qmc_estimate(
            lambda y: np.cos(2 * np.pi * (k[0] * y[0] + k[1] * y[1])), rule
        )
        assert abs(per[0]) > 1e-3

    def test_mc_constant_and_determinism(self):
        mean, vals = mc_estimate(lambda y: 2.5, 3, 10, seed=9)
        assert mean == 2.5
        a = mc_estimate(lambda y: y.sum(), 4, 50, seed=77)
        b = mc_estimate(lambda y: y.sum(), 4, 50, seed=77)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_mc_clt_bound(self):
        n = 100_000
        mean, _ = mc_estimate(lambda y: y[0], 1, n, seed=2024)
        assert abs(mean) <= 5.0 / math.sqrt(12.0 * n)

    def test_failures_name_the_point(self):
        last = EigenPair(1.0, np.ones(1), 1.0, 3)

        def fail_at(k):
            calls = []

            def F(y):
                calls.append(y)
                if len(calls) > k:
                    raise EigenSolveError("stub failure", last=last)
                return 1.0
            return F

        rule = make_lattice_rule(2, 8, z=[1, 3], R=2, master_seed=5)
        with pytest.raises(EigenSolveError) as err:
            qmc_estimate(fail_at(10), rule)  # the third point of shift 1
        y = lattice_points(rule, 1)[2]
        assert str(err.value) == (
            f"integrand failed at shift 1, point 3 (y={y!r}): stub failure")
        assert err.value.last is last
        with pytest.raises(EigenSolveError) as err:
            mc_estimate(fail_at(2), 3, 10, seed=9, stream_offset=4)
        y = prng_stream(9, 6).random(3) - 0.5
        assert str(err.value) == (
            f"integrand failed at sample 2, stream (9, 6) (y={y!r}): stub failure")
        assert err.value.last is last

    def test_shift_streams_reproducible(self):
        r1 = make_lattice_rule(3, 8, z=[1, 3, 5], R=4, master_seed=42)
        r2 = make_lattice_rule(3, 8, z=[1, 3, 5], R=4, master_seed=42)
        assert np.array_equal(r1.shifts, r2.shifts)
        r3 = make_lattice_rule(3, 8, z=[1, 3, 5], R=4, master_seed=43)
        assert not np.array_equal(r1.shifts, r3.shifts)


class TestStudies:
    def test_rmse_zero_for_constant_model(self):
        res = rmse_study(
            model_by_name("constant"), 4, 3, [4, 8], R=3, master_seed=1,
            mc_replicates=3,
        )
        for rec in res.qmc + res.mc:
            # per-shift estimates are identical; the reference mean can sit
            # one rounding away from them
            assert np.all(rec.per_shift == rec.per_shift[0])
            assert rec.rmse <= 1e-15

    def test_smooth_integrand_rmse_decays(self):
        def smooth(y):
            return float(np.prod(1.0 + y / 4.0))

        w = PODWeights(1.0, 0.8, parse_beta_rule("j^-2", 5))
        slopes = []
        for seed in (1, 2, 3):
            rmses = []
            ns = [16, 64, 256, 1024]
            for n in ns:
                rule = make_lattice_rule(5, n, z=cbc_construct(5, n, w), R=8,
                                         master_seed=seed)
                _, per = qmc_estimate(smooth, rule)
                dev = per - 1.0  # exact integral of the product is 1
                rmses.append(float(np.sqrt(np.mean(dev**2))))
            x = np.log(ns)
            slope = np.polyfit(x, np.log(rmses), 1)[0]
            slopes.append(slope)
            assert rmses[-1] < rmses[0]
        assert np.mean(slopes) < -0.8

    def test_truncation_zero_beyond_active_dimension(self):
        # only the first series term is active: truncation at s >= 1 is exact
        from gevrey_evp.coefficients import CoefficientModel

        model = CoefficientModel(
            "custom",
            {"indices": list(range(1, 9)),
             "amplitudes": [0.5] + [0.0] * 7},
        )
        w = PODWeights(1.0, 0.8, np.ones(8))
        rule = make_lattice_rule(8, 16, z=cbc_construct(8, 16, w), R=2, master_seed=6)
        records = truncation_study(model, 4, [1, 2, 4], rule, tol=1e-12)
        assert all(err <= 1e-13 for _, err in records)

    def test_truncation_reference_is_the_untruncated_integrand(self):
        # the last requested s still drops terms s + 1..rule.s, so its error
        # is non-zero and depends on the rule's dimension
        model = model_by_name("qmc-analytic")
        errors = []
        for ref_s in (4, 8):
            w = PODWeights(1.0, 0.6, np.arange(1, ref_s + 1.0) ** -5.0)
            rule = make_lattice_rule(ref_s, 8, z=cbc_construct(ref_s, 8, w), R=2,
                                     master_seed=5)
            records = truncation_study(model, 4, [0, 1, 2], rule)
            lam = _lambda1_map(model, 4, 1e-14)
            reference = qmc_estimate(lam, rule)[0]
            truncated = qmc_estimate(lambda y: lam(np.concatenate([y[:2], np.zeros(ref_s - 2)])),
                                     rule)[0]
            assert records[-1] == (2, abs(reference - truncated))
            assert records[-1][1] > 0.0
            errors.append(records[-1][1])
        assert errors[0] != errors[1]

    def test_truncation_rejects_negative_s(self):
        # s = -1 would zero only the last parameter; s = 0 zeroes them all
        model = model_by_name("qmc-analytic")
        w = PODWeights(1.0, 0.6, np.ones(4))
        rule = make_lattice_rule(4, 8, z=cbc_construct(4, 8, w), R=2, master_seed=5)
        with pytest.raises(ValueError, match="s_list entries must be >= 0, got -1"):
            truncation_study(model, 4, [-1, 2], rule)
        assert [s for s, _ in truncation_study(model, 4, [0, 2], rule)] == [0, 2]

    def test_truncation_failure_names_the_solved_y(self, monkeypatch):
        # the "system" at y is y itself; the first solve of the s = 1 pass
        # (after 2 x 8 reference solves) fails
        last = EigenPair(1.0, np.ones(1), 1.0, 3)
        solved = []

        class Assembler:
            def __init__(self, mesh, model):
                pass

            def symmetric_system(self, y):
                return np.array(y)

        def smallest_eigenpair(y, tol):
            solved.append(y)
            if len(solved) > 16:
                raise EigenSolveError("stub failure", last=last)
            return EigenPair(1.0, np.ones(1), 0.0, 1)

        monkeypatch.setattr("gevrey_evp.qmc.Assembler", Assembler)
        monkeypatch.setattr("gevrey_evp.qmc.smallest_eigenpair", smallest_eigenpair)
        rule = make_lattice_rule(4, 8, z=[1, 3, 5, 7], R=2, master_seed=5)
        with pytest.raises(EigenSolveError) as err:
            truncation_study(model_by_name("qmc-analytic"), 4, [1, 2], rule)
        y = solved[-1]
        assert y.shape == (1,) and y[0] == lattice_points(rule, 0)[0][0]
        assert str(err.value) == (
            f"integrand failed at shift 0, point 1 (y={y!r}): stub failure")
        assert err.value.last is last

    def test_mc_study_records(self):
        records = mc_study(model_by_name("constant"), 4, 2, [4, 8], 3, 5, tol=1e-12)
        assert [r.n for r in records] == [4, 8]
        for r in records:
            # replicates are identical; the reference mean can sit one
            # rounding away from them
            assert np.all(r.per_shift == r.per_shift[0])
            assert r.rmse <= 1e-15

    def test_vector_roundtrip(self, tmp_path):
        path = tmp_path / "vec.txt"
        save_vector(path, [1, 5, 7], 3, 16)
        z, s, n = load_vector(path)
        assert list(z) == [1, 5, 7]
        assert (s, n) == (3, 16)
