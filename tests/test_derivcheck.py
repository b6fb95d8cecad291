import math

import numpy as np
import pytest

from gevrey_evp.coefficients import bound_constants, model_by_name
from gevrey_evp.combinatorics import Multiindex
from gevrey_evp.derivcheck import classify_decay, fd_derivative, legendre_coeffs
from gevrey_evp.eigensolver import estimate_gap, smallest_eigenpair
from gevrey_evp.fem import Assembler, build_mesh


class TestLegendreCoeffs:
    def test_quadratic_expansion(self):
        c = legendre_coeffs(lambda y: y * y, K=6, quad_n=16)
        assert c[0] == pytest.approx(1 / 3, abs=1e-14)
        assert c[2] == pytest.approx(2 / 3, abs=1e-14)
        for k in (1, 3, 4, 5, 6):
            assert abs(c[k]) <= 1e-14

    def test_orthogonality_p3(self):
        def p3(y):
            return 0.5 * (5 * y**3 - 3 * y)

        c = legendre_coeffs(p3, K=6, quad_n=16)
        assert c[3] == pytest.approx(1.0, abs=1e-14)
        for k in (0, 1, 2, 4, 5, 6):
            assert abs(c[k]) <= 1e-14

    def test_linearity(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            pa = rng.standard_normal(6)
            pb = rng.standard_normal(6)
            alpha, beta = rng.standard_normal(2)
            fa = lambda y: float(np.polyval(pa, y))
            fb = lambda y: float(np.polyval(pb, y))
            fc = lambda y: alpha * fa(y) + beta * fb(y)
            ca = legendre_coeffs(fa, 8, 20)
            cb = legendre_coeffs(fb, 8, 20)
            cc = legendre_coeffs(fc, 8, 20)
            assert np.max(np.abs(cc - alpha * ca - beta * cb)) <= 1e-12

    def test_rejects_undersampled(self):
        with pytest.raises(ValueError):
            legendre_coeffs(lambda y: y, K=10, quad_n=19)


class TestClassifyDecay:
    def test_synthetic_analytic(self):
        k = np.arange(30)
        fit = classify_decay(np.exp(-2.0 * k))
        assert fit.delta == 1.0
        assert fit.rate == pytest.approx(2.0, rel=1e-8)
        assert fit.goodness >= 0.999

    def test_synthetic_gevrey3(self):
        k = np.arange(30)
        fit = classify_decay(np.exp(-2.0 * k ** (1.0 / 3.0)))
        assert fit.delta == 3.0

    def test_planted_recovery_randomized(self):
        rng = np.random.default_rng(11)
        k = np.arange(25, dtype=float)
        for delta in (1.0, 2.0, 3.0):
            for _ in range(20):
                c = rng.uniform(0.5, 20.0)
                r = rng.uniform(0.5, 2.0)
                coeffs = c * np.exp(-r * k ** (1.0 / delta))
                fit = classify_decay(coeffs, delta_candidates=(1.0, 2.0, 3.0))
                assert fit.delta == delta
                assert fit.goodness >= 0.99

    def test_tie_breaks_toward_smaller_delta(self):
        # constant log-decay fits every candidate equally once rates adjust;
        # a pure k^(1/2) law ties between none, so craft an exact tie by
        # duplicating candidates
        k = np.arange(20)
        fit = classify_decay(np.exp(-k), delta_candidates=(1.0, 1.0, 2.0))
        assert fit.delta == 1.0

    def test_constant_map_rejected(self):
        with pytest.raises(ValueError):
            classify_decay(np.full(20, 1e-15))

    def test_noise_floor_exclusion(self):
        k = np.arange(40, dtype=float)
        coeffs = np.exp(-1.0 * k)
        coeffs[25:] = 1e-16  # below floor: excluded, fit still clean
        fit = classify_decay(coeffs)
        assert fit.delta == 1.0
        assert fit.goodness >= 0.999


class TestFdDerivative:
    def test_cubic_third_derivative(self):
        val, cons = fd_derivative(lambda y: y**3, 0.3, order=3, h=0.05)
        assert val == pytest.approx(6.0, rel=1e-9)
        assert cons <= 1e-8

    def test_sine_first_derivative(self):
        val, _ = fd_derivative(math.sin, 0.0, order=1, h=1e-4)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_polynomial_exactness(self):
        for order in (1, 2, 3, 4):
            coeffs = np.arange(1, order + 2, dtype=float)
            poly = np.polynomial.Polynomial(coeffs)
            dpoly = poly.deriv(order)
            val, _ = fd_derivative(lambda y: float(poly(y)), 0.2, order=order, h=0.1)
            assert val == pytest.approx(float(dpoly(0.2)), rel=1e-7)

    def test_order_guard(self):
        with pytest.raises(ValueError):
            fd_derivative(math.sin, 0.0, order=7, h=0.1)

    def test_interval_guard(self):
        with pytest.raises(ValueError):
            fd_derivative(math.sin, 0.95, order=2, h=0.2, interval=(-1.0, 1.0))
        val, _ = fd_derivative(math.sin, 0.5, order=2, h=0.2, interval=(-1.0, 1.0))
        assert val == pytest.approx(-math.sin(0.5), rel=5e-3)  # h^2/12 truncation

    def test_eigenvalue_derivative_within_theoretical_bound(self):
        # inequality-direction check: the measured first derivative of the
        # eigenvalue map sits below the closed-form envelope built from the
        # measured gap; the coefficient radius R = sqrt(6)/(2 pi) satisfies
        # |d^n a| = pi^n <= (sup a) n!/(2R)^n (binding at n = 2)
        model = model_by_name("gl-analytic")
        m = 16
        asm = Assembler(build_mesh(m), model)

        def lam(y):
            return smallest_eigenpair(asm.system([y])).value

        gap = estimate_gap(model, m, [[y] for y in np.linspace(-1, 1, 5)])
        consts = bound_constants(model, mu=gap.gap)
        from gevrey_evp.coefficients import derivative_bound

        radius = math.sqrt(6.0) / (2.0 * math.pi)
        measured, _ = fd_derivative(lam, 0.0, order=1, h=1e-3, interval=(-1, 1))
        bound, _ = derivative_bound(consts, Multiindex((1,)), 1.0, [radius])
        assert abs(measured) <= bound
