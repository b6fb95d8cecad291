from types import SimpleNamespace

import numpy as np
import pytest

from gevrey_evp import quad1d
from gevrey_evp.cli import main
from gevrey_evp.coefficients import model_by_name
from gevrey_evp.eigensolver import EigenPair, EigenSolveError
from gevrey_evp.quad1d import gauss_legendre, gl_study
from support import read_csv


class TestGaussLegendre:
    def test_one_point(self):
        rule = gauss_legendre(1)
        assert rule.nodes == pytest.approx([0.0], abs=0)
        assert rule.weights == pytest.approx([2.0], abs=0)

    def test_two_point_closed_form(self):
        rule = gauss_legendre(2)
        assert rule.nodes == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)], abs=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)
        # moment-matching oracle on 1, y, y^2, y^3
        for k, exact in ((0, 2.0), (1, 0.0), (2, 2 / 3), (3, 0.0)):
            assert rule.integrate(rule.nodes**k) == pytest.approx(exact, abs=1e-15)

    def test_three_point_degree_five(self):
        rule = gauss_legendre(3)
        assert rule.integrate(rule.nodes**4) == pytest.approx(0.4, abs=1e-14)

    def test_moment_exactness_up_to_64(self):
        for n in range(1, 65):
            rule = gauss_legendre(n)
            ks = np.arange(2 * n)
            vals = rule.nodes[None, :] ** ks[:, None]
            exact = np.where(ks % 2 == 1, 0.0, 2.0 / (ks + 1))
            assert np.max(np.abs(vals @ rule.weights - exact)) <= 1e-13

    def test_exact_symmetry(self):
        for n in (7, 12, 40, 123):
            rule = gauss_legendre(n)
            assert np.array_equal(rule.nodes, -rule.nodes[::-1])
            assert np.array_equal(rule.weights, rule.weights[::-1])
            assert np.all(np.diff(rule.nodes) > 0)
            assert abs(rule.weights.sum() - 2.0) <= 1e-14

    def test_against_numpy(self):
        for n in (5, 17, 64):
            rule = gauss_legendre(n)
            x, w = np.polynomial.legendre.leggauss(n)
            assert np.max(np.abs(rule.nodes - x)) <= 1e-13
            assert np.max(np.abs(rule.weights - w)) <= 1e-13

    def test_range_guard(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)
        with pytest.raises(ValueError):
            gauss_legendre(513)


class FakeAxis:
    """Stands in for the assembler and the solver behind ``gl_study``.

    The "system" at parameter y is y itself, and its "eigenvalue" is g(y);
    every solve's y is recorded.
    """

    def __init__(self, monkeypatch, g):
        self.ys = []

        class Assembler:
            def __init__(self, mesh, model):
                pass

            def symmetric_system(self, y):
                return float(y[0])

        def smallest_eigenpair(y, tol):
            self.ys.append(y)
            return SimpleNamespace(value=g(y))

        monkeypatch.setattr(quad1d, "Assembler", Assembler)
        monkeypatch.setattr(quad1d, "smallest_eigenpair", smallest_eigenpair)


class TestGlStudy:
    def test_constant_model_error_vanishes(self):
        records = gl_study(model_by_name("constant"), 4, [1, 2, 4], 8)
        for _, err in records:
            assert err <= 1e-14

    def test_requires_reference_above_levels(self):
        with pytest.raises(ValueError):
            gl_study(model_by_name("constant"), 4, [2, 8], 8)

    def test_each_distinct_node_solved_once(self, monkeypatch):
        fake = FakeAxis(monkeypatch, np.exp)
        gl_study(model_by_name("constant"), 4, [2, 2, 3], 4)
        # the nodes of the 2-, 3- and 4-point rules are pairwise distinct:
        # 2 + 3 + 4 solves expected
        assert len(fake.ys) == 9

    def test_shared_zero_node_cached(self, monkeypatch):
        fake = FakeAxis(monkeypatch, np.cos)
        gl_study(model_by_name("constant"), 4, [1, 3], 5)
        # odd rules share the node 0: 1 + 3 + 5 minus two duplicates
        assert len(fake.ys) == 7

    def test_analytic_vs_synthetic_map(self, monkeypatch):
        # independent integrand with known integral: errors shrink fast
        FakeAxis(monkeypatch, lambda y: 1.0 / (2.0 + y))
        records = gl_study(model_by_name("constant"), 4, [2, 4, 6, 8], 16)
        errs = [e for _, e in records]
        assert errs[-1] < errs[0] * 1e-4

    def test_nodes_rescaled_to_parameter_interval(self, monkeypatch):
        fake = FakeAxis(monkeypatch, lambda y: 1.0)
        gl_study(model_by_name("qmc-analytic"), 4, [2], 3)
        nodes = np.concatenate([gauss_legendre(n).nodes for n in (2, 3)])
        assert fake.ys == [0.5 * t for t in nodes]

    def test_failure_names_the_node(self, monkeypatch):
        last = EigenPair(1.0, np.ones(1), 1.0, 3)

        def g(y):
            if y > 0.0:
                raise EigenSolveError("stub failure", last=last)
            return 1.0

        FakeAxis(monkeypatch, g)
        with pytest.raises(EigenSolveError) as err:
            gl_study(model_by_name("constant"), 4, [2], 3)
        t = gauss_legendre(2).nodes[1]
        assert str(err.value) == f"eigensolve failed at node t={t}: stub failure"
        assert err.value.last is last

    def test_half_width_model_matches_cli(self, tmp_path, capsys):
        model = model_by_name("qmc-analytic")
        assert model.param_halfwidth == 0.5
        records = gl_study(model, 8, [2], 3)
        out = tmp_path / "gl.csv"
        assert main(["gl-study", "--model", "qmc-analytic", "--m", "8",
                     "--n-min", "2", "--n-max", "2", "--n-star", "3",
                     "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert rows == records
