import math
import tracemalloc

import numpy as np
import pytest

from support import sine_series

from gevrey_evp.coefficients import (
    CHI1,
    MODEL_NAMES,
    BoundConstants,
    CoefficientModel,
    bound_constants,
    derivative_bound,
    load_custom_model,
    model_by_name,
    zeta,
)
from gevrey_evp.combinatorics import Multiindex, ff_half
from gevrey_evp.fem import build_mesh


def zeta_series_oracle(s, terms=2_000_000):
    """Independent slow oracle: direct series plus integral tail bracket."""
    total = sum(k**-s for k in range(1, terms))
    # integral bounds: tail in [int_{terms}, int_{terms-1}]
    lo = terms ** (1 - s) / (s - 1)
    hi = (terms - 1) ** (1 - s) / (s - 1)
    return total + 0.5 * (lo + hi), 0.5 * (hi - lo)


class TestZeta:
    def test_closed_forms(self):
        assert zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-14)
        assert zeta(4.0) == pytest.approx(math.pi**4 / 90, rel=1e-14)

    def test_zeta5_reference(self):
        assert zeta(5.0) == pytest.approx(1.03692775514337, abs=1e-14)

    def test_against_series_oracle(self):
        for s in (1.5, 2.5, 5.0, 10.0):
            val, err = zeta_series_oracle(s, terms=200_000)
            assert abs(zeta(s) - val) <= err + 1e-13

    def test_rejects_pole(self):
        with pytest.raises(ValueError):
            zeta(1.0)
        with pytest.raises(ValueError):
            zeta(0.5)


def a_at(model, x, y):
    """Diffusion field at one point, through the cached evaluation."""
    cache = model.precompute(np.array([x[0]]), np.array([x[1]]))
    return float(model.a_cached(cache, y)[0])


class TestModels:
    def test_descriptions_are_exact(self, tmp_path):
        assert MODEL_NAMES == (
            "gl-analytic", "gl-gevrey3", "qmc-analytic", "qmc-gevrey2", "constant")
        # (dim, param_halfwidth, gevrey_order, a_lo, a_hi, b_lo, b_hi, c_lo, c_hi)
        expected = {
            "gl-analytic": (1, 1.0, 1.0, 1.0, 3.0, 0.0, 0.0, 1.0, 1.0),
            "gl-gevrey3": (1, 1.0, 3.0, 1.0, 1.9861373827904796, 0.0, 0.0, 1.0, 1.0),
            "qmc-analytic": (
                100, 0.5, 1.0, 2.422213380326506, 3.1908690122282133, 0.0, 0.0, 1.0, 1.0),
            "qmc-gevrey2": (
                100, 0.5, 2.0, 2.6321205588285577, 3.3678794411714423, 0.0, 0.0, 1.0, 1.0),
            "constant": (1, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0),
            "custom": (2, 0.5, 1.0, 1.625, 2.375, 0.0, 0.0, 1.0, 1.0),
        }
        path = tmp_path / "series.txt"
        path.write_text("1 0.5\n3 -0.25\n")
        models = {name: model_by_name(name) for name in MODEL_NAMES}
        models["custom"] = load_custom_model(path)
        for name, model in models.items():
            b = model.bounds
            got = (model.dim, model.param_halfwidth, model.gevrey_order,
                   b.a_lo, b.a_hi, b.b_lo, b.b_hi, b.c_lo, b.c_hi)
            assert got == expected[name], name

    def test_gl_analytic_point_values(self):
        model = model_by_name("gl-analytic")
        x1, x2 = np.array([0.3]), np.array([0.7])
        assert a_at(model, (0.5, 0.5), [0.0]) == pytest.approx(2.0, abs=1e-15)
        assert model.c(x1, x2)[0] == 1.0
        assert model.b(x1, x2)[0] == 0.0

    def test_qmc_analytic_at_zero(self):
        model = model_by_name("qmc-analytic")
        expect = 2.0 + 2.0 * math.exp(-zeta(5.0))
        assert a_at(model, (0.123, 0.77), np.zeros(100)) == pytest.approx(
            expect, rel=1e-14
        )

    def test_truncation_padding_is_exact(self):
        model = model_by_name("qmc-analytic")
        x1 = np.linspace(0.05, 0.95, 7)
        x2 = np.linspace(0.1, 0.9, 7)
        y5 = np.array([0.3, -0.2, 0.1, 0.05, -0.4])
        y100 = np.concatenate([y5, np.zeros(95)])
        cache = model.precompute(x1, x2)
        a5 = model.a_cached(cache, y5)
        a100 = model.a_cached(cache, y100)
        assert np.array_equal(a5, a100)

    def test_bounds_hold_on_samples(self):
        rng = np.random.default_rng(42)
        grid = np.linspace(0.01, 0.99, 25)
        x1, x2 = np.meshgrid(grid, grid)
        for name in ("gl-analytic", "gl-gevrey3", "qmc-analytic", "qmc-gevrey2"):
            model = model_by_name(name)
            b = model.bounds
            for _ in range(16):
                dim = min(model.dim, 30)
                y = (rng.random(dim) - 0.5) * 2 * model.param_halfwidth
                if name == "gl-gevrey3":
                    y = np.maximum(y, -0.9999)
                a = model.a_cached(model.precompute(x1, x2), y)
                assert np.all(a >= b.a_lo - 1e-12) and np.all(a <= b.a_hi + 1e-12)
                assert np.all(model.b(x1, x2) >= b.b_lo - 1e-12)
                c = model.c(x1, x2)
                assert np.all(c >= b.c_lo - 1e-12) and np.all(c <= b.c_hi + 1e-12)

    def test_gevrey2_endpoint_limit(self):
        model = model_by_name("qmc-gevrey2")
        val = a_at(model, (0.5, 0.25), np.full(100, -0.5))
        assert val == pytest.approx(3.0, abs=1e-15)  # all series terms vanish

    def test_rejects_bad_parameters(self):
        model = model_by_name("gl-analytic")
        with pytest.raises(ValueError, match=r"lie in \[-1.0, 1.0\]"):
            a_at(model, (0.5, 0.5), [1.5])
        with pytest.raises(ValueError, match="undefined at y = -1"):
            a_at(model_by_name("gl-gevrey3"), (0.5, 0.5), [-1.0])
        with pytest.raises(ValueError, match="one-dimensional"):
            model.pad_y(np.zeros((1, 1)))
        with pytest.raises(ValueError, match=r"lie in \[-0.5, 0.5\]"):
            model_by_name("qmc-analytic").pad_y([0.0, 0.6])
        with pytest.raises(ValueError, match="at most 100 parameters"):
            model_by_name("qmc-analytic").pad_y(np.zeros(101))
        custom = CoefficientModel("custom", {"indices": [1, 3], "amplitudes": [0.5, 0.25]})
        for model in [model_by_name(name) for name in MODEL_NAMES] + [custom]:
            # abs(nan) > halfwidth is False, so the box test alone lets NaN in
            for bad in ([np.nan], [0.0, np.inf], [-np.inf]):
                with pytest.raises(ValueError, match="must be finite"):
                    model.pad_y(bad)
        with pytest.raises(ValueError):
            model_by_name("no-such-model")

    def test_rejects_unknown_params(self):
        # the table kinds take none; constant takes a, b, c; custom its tables
        for name, params, key in (("qmc-analytic", {"dim": 5}, "dim"),
                                  ("gl-analytic", {"a": 3.0}, "a"),
                                  ("constant", {"a": 2.0, "base": 9}, "base")):
            with pytest.raises(ValueError, match=f"^the {name} model takes no parameter '{key}'$"):
                model_by_name(name, **params)
        with pytest.raises(ValueError, match="^the custom model takes no parameter 'base'$"):
            CoefficientModel("custom", {"indices": [1], "amplitudes": [0.5], "base": 2.0})

    def test_custom_model_file(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("# index amplitude\n1 0.5\n3, 0.25\n")
        model = load_custom_model(path)
        assert model.dim == 2
        assert model.bounds.a_lo == pytest.approx(2.0 - 0.375)
        x = np.array([0.5])
        val = model.a_cached(model.precompute(x, x), [0.5, 0.0])
        expect = 2.0 + 0.5 * math.sin(math.pi / 2) ** 2 * 0.5
        assert val[0] == pytest.approx(expect, rel=1e-14)

    def test_custom_model_must_stay_positive(self):
        with pytest.raises(ValueError):
            CoefficientModel("custom", {"indices": [1], "amplitudes": [10.0]})


class TestSeriesField:
    """The separable field of the series kinds against the direct series."""

    # scattered points, on no grid: every coordinate is distinct
    X1, X2 = np.random.default_rng(7).random((2, 9, 13))

    def _assert_field(self, model, y, expect):
        a = model.a_cached(model.precompute(self.X1, self.X2), y)
        assert a.shape == self.X1.shape
        assert np.max(np.abs(a - expect) / np.abs(expect)) <= 1e-14

    def _samples(self, model):
        rng = np.random.default_rng(11)
        return [rng.random(model.dim) - 0.5, rng.random(3) - 0.5, np.zeros(model.dim)]

    def test_qmc_analytic(self):
        model = model_by_name("qmc-analytic")
        idx = np.arange(1, 101)
        for y in self._samples(model):
            series = sine_series(idx, idx**-5.0, self.X1, self.X2, model.pad_y(y))
            self._assert_field(model, y, 2.0 + 2.0 * np.exp(-zeta(5.0) + series))

    def test_qmc_gevrey2_to_the_endpoint(self):
        model = model_by_name("qmc-gevrey2")
        idx = np.arange(1, 101)
        mixed = np.random.default_rng(5).random(100) - 0.5
        mixed[::3] = -0.5
        for y in self._samples(model) + [mixed, np.full(100, -0.5)]:
            with np.errstate(divide="ignore"):
                t = np.exp(-1.0 / (model.pad_y(y) + 0.5))  # exp(-inf) = 0 at -1/2
            series = sine_series(idx, idx**-5.0, self.X1, self.X2, t)
            self._assert_field(model, y, 3.0 + series / zeta(5.0))

    def test_custom_with_gaps_in_the_indices(self):
        idx, amp = [1, 3, 7], [0.4, -0.3, 0.2]
        model = CoefficientModel("custom", {"indices": idx, "amplitudes": amp})
        for y in self._samples(model) + [[0.0, 0.0, 0.5]]:
            series = sine_series(idx, amp, self.X1, self.X2, model.pad_y(y))
            self._assert_field(model, y, 2.0 + series)

    def test_field_cache_is_small(self):
        # per-axis sine values and one index: a (points x terms) table at
        # m = 128 would hold 6 m^2 x 100 doubles, 79 MB
        mesh = build_mesh(128)
        model = model_by_name("qmc-analytic")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cache = model.precompute(mesh.mid_x1, mesh.mid_x2)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert cache["U1"].shape == (2 * 128 + 1, 100)
        assert held < 2e6


class TestBoundConstants:
    def test_formula_example(self):
        bc = BoundConstants.from_bars(6.0, 0.0, 2.0, 1.0, 1.0, mu=0.5)
        assert bc.K_a == 3.0
        assert bc.K_c == 1.0
        assert bc.lambda1_bar == 3.0
        assert bc.u1_bar == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert bc.sigma1 == 12.0
        assert bc.sigma == 27.0
        assert bc.rho1 == 1332.0
        assert bc.rho == 3321.0

    def test_constant_model_contrast(self):
        bc = bound_constants(model_by_name("constant", a=2.0, b=0.0, c=3.0), mu=0.5)
        assert bc.K_a == pytest.approx(1.0)
        assert bc.K_c == pytest.approx(1.0)

    def test_dimensionless_identity(self):
        for name in ("gl-analytic", "gl-gevrey3", "qmc-analytic", "qmc-gevrey2"):
            bc = bound_constants(model_by_name(name), mu=0.3)
            lhs = bc.u1_bar**2 * bc.c_bar / 2.0
            mid = bc.K_a * bc.K_c
            rhs = bc.lambda1_bar * bc.c_bar / (2.0 * bc.a_low)
            assert lhs == pytest.approx(mid, rel=1e-12)
            assert mid == pytest.approx(rhs, rel=1e-12)

    def test_sigma_decreasing_in_mu(self):
        model = model_by_name("gl-analytic")
        sigmas = [bound_constants(model, mu).sigma for mu in (0.2, 0.4, 0.6, 0.8)]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))

    def test_chi1_scaling_of_gl_analytic(self):
        bc = bound_constants(model_by_name("gl-analytic"), mu=0.5)
        # contrasts are scale free; the eigenvalue bar carries the Laplace factor
        assert bc.K_a == pytest.approx(3.0)
        assert bc.lambda1_bar == pytest.approx(3.0 * CHI1, rel=1e-15)
        assert bc.u1_bar == pytest.approx(math.sqrt(3.0), rel=1e-14)
        assert bc.sigma == pytest.approx(27.0)
        assert bc.rho == pytest.approx(3321.0)

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            BoundConstants.from_bars(6, 0, 2, 1, 1, mu=0.0)
        with pytest.raises(ValueError):
            BoundConstants.from_bars(6, 0, 2, 1, 1, mu=1.0)


class TestDerivativeBound:
    @pytest.fixture
    def consts(self):
        return BoundConstants.from_bars(6.0, 0.0, 2.0, 1.0, 1.0, mu=0.5)

    def test_unit_index_formula(self, consts):
        lam_b, u_b = derivative_bound(consts, Multiindex((1,)), 1.0, {1: consts.rho})
        expect = consts.lambda1_bar * consts.sigma / (2.0 * consts.rho)
        assert lam_b == pytest.approx(expect, rel=1e-14)
        assert u_b == pytest.approx(consts.u1_bar * consts.sigma / (2 * consts.rho),
                                    rel=1e-14)

    def test_delta_ratio(self, consts):
        R = {1: 2.0}
        l1, _ = derivative_bound(consts, Multiindex((1,)), 1.0, R)
        l2, _ = derivative_bound(consts, Multiindex((1,)), 2.0, R)
        assert l2 == pytest.approx(l1, rel=1e-14)  # (1!)^(delta-1) = 1
        l1, _ = derivative_bound(consts, Multiindex((2,)), 1.0, R)
        l2, _ = derivative_bound(consts, Multiindex((2,)), 2.0, R)
        assert l2 == pytest.approx(2.0 * l1, rel=1e-14)  # (2!)^(delta-1)

    def test_monotone_in_delta(self, consts):
        R = [1.0, 1.0]
        nu = Multiindex((2, 1))
        vals = [derivative_bound(consts, nu, d, R)[0] for d in (1.0, 1.5, 2.0, 3.0)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_matches_direct_formula(self, consts):
        nu = Multiindex((2, 0, 1))
        R = {1: 1.5, 3: 0.75}
        lam_b, u_b = derivative_bound(consts, nu, 2.0, R)
        geom = (consts.rho / 1.5) ** 2 * (consts.rho / 0.75)
        common = (consts.sigma / consts.rho) * geom * float(ff_half(3)) * 6.0
        assert lam_b == pytest.approx(consts.lambda1_bar * common, rel=1e-12)
        assert u_b == pytest.approx(consts.u1_bar * common, rel=1e-12)

    def test_rejects_zero_order(self, consts):
        with pytest.raises(ValueError):
            derivative_bound(consts, Multiindex(()), 1.0, [1.0])
