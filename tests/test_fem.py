import math

import numpy as np
import pytest

from support import random_spd_pair, scatter_blocks, stiffness_map

from gevrey_evp import fem
from gevrey_evp.coefficients import MODEL_NAMES, model_by_name
from gevrey_evp.eigensolver import smallest_eigenpair
from gevrey_evp.fem import Assembler, assemble, build_mesh, laplace_lambda1_reference

CONST = model_by_name("constant")


class TestMesh:
    def test_counts_m2(self):
        mesh = build_mesh(2)
        assert mesh.n_dof == 1

    def test_paper_scale_dof(self):
        assert build_mesh(128).n_dof == 16129
        assert build_mesh(64).n_dof == 3969

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            build_mesh(1)


class TestAssembly:
    def test_hand_assembled_m2(self):
        sysm = assemble(build_mesh(2), CONST, [0.0])
        assert sysm.A.toarray() == pytest.approx(np.array([[4.0]]), rel=1e-15)
        assert sysm.M.toarray() == pytest.approx(np.array([[0.125]]), rel=1e-15)
        assert smallest_eigenpair(sysm).value == pytest.approx(32.0, rel=1e-12)

    def test_exact_symmetry(self):
        for name, y in (("constant", [0.0]), ("gl-analytic", [0.37]),
                        ("qmc-analytic", np.linspace(-0.4, 0.4, 9))):
            sysm = assemble(build_mesh(12), model_by_name(name), y)
            assert (sysm.A - sysm.A.T).nnz == 0
            assert (sysm.M - sysm.M.T).nnz == 0

    def test_stencil_width(self):
        sysm = assemble(build_mesh(9), model_by_name("gl-analytic"), [0.2])
        assert np.diff(sysm.A.indptr).max() <= 7
        assert np.diff(sysm.M.indptr).max() <= 7

    def test_zero_padding_bit_identical(self):
        mesh = build_mesh(8)
        model = model_by_name("qmc-analytic")
        y = np.array([0.21, -0.37, 0.05])
        a = assemble(mesh, model, y)
        b = assemble(mesh, model, np.concatenate([y, np.zeros(97)]))
        assert np.array_equal(a.A.data, b.A.data)
        assert np.array_equal(a.A.indices, b.A.indices)
        assert np.array_equal(a.M.data, b.M.data)

    def test_assembler_matches_assemble(self):
        mesh = build_mesh(6)
        model = model_by_name("gl-gevrey3")
        asm = Assembler(mesh, model)
        for y in (-0.5, 0.0, 0.9):
            a = asm.system([y])
            b = assemble(mesh, model, [y])
            assert np.array_equal(a.A.data, b.A.data)
            assert np.array_equal(a.M.data, b.M.data)

    @pytest.mark.parametrize(
        "model",
        [model_by_name(name) for name in MODEL_NAMES]
        + [model_by_name("constant", a=1.5, b=2.5, c=0.75)],
        ids=[*MODEL_NAMES, "constant-reaction"],
    )
    def test_fixed_pattern_matches_scatter(self, model):
        # reference: the per-triangle blocks scattered through COO -> CSR
        g = np.stack([fem._G_LOWER, fem._G_UPPER])
        rng = np.random.default_rng(11)
        for m in (2, 3, 11):
            mesh = build_mesh(m)
            asm = Assembler(mesh, model)
            scale = mesh.h * mesh.h / 6.0
            blocks = {name: scale * np.einsum("otk,kpq->otpq", f(mesh.mid_x1, mesh.mid_x2),
                                              fem._MID_OUTER)
                      for name, f in (("b", model.b), ("c", model.c))}
            M = scatter_blocks(mesh, blocks["c"])
            assert np.array_equal(asm._M.indptr, M.indptr)
            assert np.array_equal(asm._M.indices, M.indices)
            # b and c are constant for these models, so every contribution
            # to an entry is the same and the sums agree bit for bit
            assert np.array_equal(asm._M.data, M.data)
            assert np.array_equal(asm._b_data, scatter_blocks(mesh, blocks["b"]).data)
            search_map = stiffness_map(mesh, M.indptr, M.indices)
            cache = model.precompute(mesh.mid_x1, mesh.mid_x2)
            for _ in range(3):
                y = (rng.random(min(model.dim, 20)) - 0.5) * model.param_halfwidth
                a_mean = model.a_cached(cache, y).mean(axis=2)
                ref = scatter_blocks(mesh, np.einsum("ot,opq->otpq", a_mean, g) + blocks["b"])
                A = asm.system(y).A
                assert np.array_equal(A.data[asm._diag_slots], A.diagonal())
                assert np.array_equal(A.indptr, ref.indptr)
                assert np.array_equal(A.indices, ref.indices)
                # a diagonal entry sums six exact products, and COO -> CSR adds
                # duplicates in an order of its own, so the sums can differ in
                # the last two bits
                assert np.all(np.abs(A.data - ref.data) <= 2 * np.spacing(np.abs(ref.data)))
                # the map found by binary search over the pattern gives A bit
                # for bit
                assert np.array_equal(A.data, search_map @ a_mean.ravel() + asm._b_data)

    def test_coercivity_vs_unit_stiffness(self):
        # discrete analogue of a_lo ||v||^2 <= A_y(v, v)
        mesh = build_mesh(10)
        model = model_by_name("gl-analytic")
        a0 = assemble(mesh, CONST, [0.0]).A
        rng = np.random.default_rng(7)
        a_lo = model.bounds.a_lo
        sysm = assemble(mesh, model, [0.63])
        for _ in range(100):
            v = rng.standard_normal(mesh.n_dof)
            assert a_lo * (v @ (a0 @ v)) <= v @ (sysm.A @ v) + 1e-10


class TestBoundProduct:
    def test_bitwise_equal_to_matmul(self):
        # the product calls scipy's private kernel behind ``@``; a scipy
        # release that moves or changes it fails here
        rng = np.random.default_rng(5)
        model = model_by_name("qmc-analytic")
        systems = [assemble(build_mesh(m), model, rng.random(20) - 0.5) for m in (8, 32)]
        systems.append(random_spd_pair(rng, 12))
        for sysm in systems:
            rows = rng.standard_normal((3, sysm.n_dof))  # the solver passes row views
            for mat in (sysm.A, sysm.M):
                product = fem._csr_matvec(mat)
                for v in (rng.standard_normal(sysm.n_dof), rows[1]):
                    assert np.array_equal(product(v), mat @ v)


class TestLaplaceReference:
    def test_value(self):
        assert laplace_lambda1_reference() == pytest.approx(2 * math.pi**2, rel=1e-15)

    def test_discrete_above_continuum(self):
        ref = laplace_lambda1_reference()
        for m in (2, 4, 8, 16):
            lam = smallest_eigenpair(assemble(build_mesh(m), CONST, [0.0])).value
            assert lam >= ref

    def test_quadratic_convergence_ratio(self):
        ref = laplace_lambda1_reference()
        errs = []
        for m in (8, 16, 32):
            lam = smallest_eigenpair(assemble(build_mesh(m), CONST, [0.0])).value
            errs.append(lam - ref)
        for a, b in zip(errs, errs[1:]):
            assert 3.6 <= a / b <= 4.4

    def test_m64_close_to_reference(self):
        ref = laplace_lambda1_reference()
        lam = smallest_eigenpair(assemble(build_mesh(64), CONST, [0.0])).value
        assert abs(lam - ref) / ref <= 1e-3
