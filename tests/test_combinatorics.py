import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevrey_evp.combinatorics import (
    Multiindex,
    binomial_ff_sum,
    factorial_ratio,
    ff_convolution_bound,
    ff_double_convolution_bound,
    ff_half,
    square_domination_check,
    vandermonde_slice,
)


def small_multiindices(max_order, max_dim):
    """All multiindices with |nu| <= max_order over max_dim dimensions."""
    for dim in range(1, max_dim + 1):
        for parts in itertools.product(range(max_order + 1), repeat=dim):
            if sum(parts) <= max_order:
                yield Multiindex(parts)


class TestFallingFactorial:
    def test_examples(self):
        assert ff_half(0) == 1
        assert ff_half(2) == Fraction(1, 4)
        assert ff_half(3) == Fraction(3, 8)

    def test_ratio_examples(self):
        assert factorial_ratio(0) == 1
        assert factorial_ratio(2) == 8  # attains the upper bound 2*2^2
        assert factorial_ratio(3) == 16

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ff_half(-1)
        with pytest.raises(ValueError):
            factorial_ratio(-2)

    def test_factorial_identity_up_to_200(self):
        for n in range(201):
            ratio = factorial_ratio(n)
            assert ff_half(n) * ratio == math.factorial(n)
            assert 1 <= ratio <= 2 * 2**n

    @given(st.integers(min_value=0, max_value=400))
    def test_factorial_identity_property(self, n):
        assert ff_half(n) * factorial_ratio(n) == math.factorial(n)


class TestBinomialFfSums:
    def test_examples(self):
        assert binomial_ff_sum(2, "inner") == Fraction(1, 2)
        assert binomial_ff_sum(2, "inner") == 2 * ff_half(2)
        assert binomial_ff_sum(2, "mid") == Fraction(3, 4)
        assert binomial_ff_sum(1, "inner") == 0  # empty sum

    def test_identities_2_to_60(self):
        for n in range(2, 61):
            base = ff_half(n)
            assert binomial_ff_sum(n, "inner") == 2 * base
            assert binomial_ff_sum(n, "mid") == 3 * base
            assert binomial_ff_sum(n, "full") == 4 * base

    def test_small_n_inequalities(self):
        for n in (0, 1):
            assert binomial_ff_sum(n, "inner") <= 2 * ff_half(n)
            assert binomial_ff_sum(n, "mid") <= 3 * ff_half(n)
            assert binomial_ff_sum(n, "full") <= 4 * ff_half(n)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            binomial_ff_sum(3, "outer")

    @settings(max_examples=30)
    @given(st.integers(min_value=2, max_value=120))
    def test_identity_property(self, n):
        assert binomial_ff_sum(n, "full") == 4 * ff_half(n)


class TestMultiindex:
    def test_order_and_partial_order(self):
        nu = Multiindex((2, 0, 1))
        assert nu.order() == 3
        assert nu[1] == 2 and nu[2] == 0 and nu[3] == 1
        assert Multiindex((1, 0, 1)) <= nu
        assert not nu <= Multiindex((1, 0, 1))
        assert Multiindex((1,)) < nu

    def test_binom_and_subtraction(self):
        nu = Multiindex((2, 1))
        m = Multiindex((1, 1))
        assert nu.binom(m) == 2
        assert (nu - m) == Multiindex((1, 0))
        with pytest.raises(ValueError):
            Multiindex((3,)) - Multiindex((0, 1))

    def test_submultiindex_count(self):
        nu = Multiindex((2, 3))
        assert sum(1 for _ in nu.submultiindices()) == 3 * 4

    def test_support_cap(self):
        with pytest.raises(ValueError):
            Multiindex([1] * 9)


class TestVandermondeSlice:
    def test_examples(self):
        assert vandermonde_slice(Multiindex((2, 1)), 1) == 3
        assert vandermonde_slice(Multiindex((2, 1)), 0) == 1
        assert vandermonde_slice(Multiindex((1, 1)), 2) == 1

    def test_rejects_r_out_of_range(self):
        with pytest.raises(ValueError):
            vandermonde_slice(Multiindex((2, 1)), 4)

    def test_exhaustive_scan(self):
        for nu in small_multiindices(8, 4):
            for r in range(nu.order() + 1):
                assert vandermonde_slice(nu, r) == math.comb(nu.order(), r)


class TestConvolutionBounds:
    def test_single_examples(self):
        lhs, rhs, equal = ff_convolution_bound(Multiindex((1, 1)))
        assert (lhs, rhs, equal) == (Fraction(3, 4), Fraction(3, 4), True)
        lhs, rhs, equal = ff_convolution_bound(Multiindex((1,)))
        assert (lhs, rhs, equal) == (Fraction(1, 2), Fraction(3, 2), False)
        lhs, rhs, equal = ff_convolution_bound(Multiindex(()))
        assert (lhs, rhs, equal) == (0, 3, False)

    def test_equality_iff_order_at_least_two(self):
        for nu in small_multiindices(8, 4):
            lhs, rhs, equal = ff_convolution_bound(nu)
            assert lhs <= rhs
            assert equal == (nu.order() >= 2)

    def test_double_examples(self):
        lhs, rhs = ff_double_convolution_bound(Multiindex((1,)))
        assert (lhs, rhs) == (0, 4)

    def test_double_against_direct_enumeration_1d(self):
        # independent oracle: explicit scalar loops for nu = (n)
        for n in range(0, 7):
            nu = Multiindex((n,))
            expect = Fraction(0)
            for m in range(1, n):
                for ell in range(0, m + 1):
                    expect += (
                        math.comb(n, m)
                        * math.comb(m, ell)
                        * ff_half(n - m)
                        * ff_half(m - ell)
                        * ff_half(ell)
                    )
            lhs, rhs = ff_double_convolution_bound(nu)
            assert lhs == expect
            assert lhs <= rhs

    def test_double_bound_scan(self):
        for nu in small_multiindices(6, 3):
            lhs, rhs = ff_double_convolution_bound(nu)
            assert lhs <= rhs
        lhs, rhs = ff_double_convolution_bound(Multiindex((1, 1, 1)))
        assert rhs == 8 * ff_half(3) == 3
        assert lhs <= rhs


class TestSquareDomination:
    def test_trivial_point(self):
        report = square_domination_check(0, [0.0])
        assert report.ok

    def test_first_derivative_at_zero(self):
        from gevrey_evp.combinatorics import _f_derivative, _g_derivative

        assert _f_derivative(1, 0.0) == pytest.approx(0.25, abs=1e-15)
        assert _g_derivative(1, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert _f_derivative(2, 0.0) == pytest.approx(0.125, abs=1e-15)
        assert _g_derivative(2, 0.0) == _f_derivative(2, 0.0)

    def test_grid_check(self):
        report = square_domination_check(12, [-2.5, -1.0, -0.3, 0.0, 0.5, 0.9])
        assert report.ok
        assert report.max_ratio <= 1.0 + 1e-12
        assert report.max_equality_defect <= 1e-12

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            square_domination_check(3, [1.0])
        with pytest.raises(ValueError):
            square_domination_check(3, [-3.5])
