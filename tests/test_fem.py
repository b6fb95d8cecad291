import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from support import (LOCAL_STIFFNESS, half_stiffness_map, mirror_cells, random_spd_pair,
                     scatter_blocks, stiffness_map)

from gevrey_evp import fem
from gevrey_evp.coefficients import CHI1, MODEL_NAMES, CoefficientModel, model_by_name
from gevrey_evp.eigensolver import smallest_eigenpair
from gevrey_evp.fem import Assembler, build_mesh

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
        sysm = Assembler(build_mesh(2), CONST).system([0.0])
        assert sysm.A.toarray() == pytest.approx(np.array([[4.0]]), rel=1e-15)
        assert sysm.M.toarray() == pytest.approx(np.array([[0.125]]), rel=1e-15)
        assert smallest_eigenpair(sysm).value == pytest.approx(32.0, rel=1e-12)

    def test_exact_symmetry(self):
        for name, y in (("constant", [0.0]), ("gl-analytic", [0.37]),
                        ("qmc-analytic", np.linspace(-0.4, 0.4, 9))):
            sysm = Assembler(build_mesh(12), model_by_name(name)).system(y)
            assert (sysm.A - sysm.A.T).nnz == 0
            assert (sysm.M - sysm.M.T).nnz == 0

    def test_stencil_width(self):
        sysm = Assembler(build_mesh(9), model_by_name("gl-analytic")).system([0.2])
        assert np.diff(sysm.A.indptr).max() <= 7
        assert np.diff(sysm.M.indptr).max() <= 7

    def test_zero_padding_bit_identical(self):
        mesh = build_mesh(8)
        model = model_by_name("qmc-analytic")
        y = np.array([0.21, -0.37, 0.05])
        asm = Assembler(mesh, model)
        a = asm.system(y)
        b = asm.system(np.concatenate([y, np.zeros(97)]))
        assert np.array_equal(a.A.data, b.A.data)
        assert np.array_equal(a.A.indices, b.A.indices)
        assert np.array_equal(a.M.data, b.M.data)

    @pytest.mark.parametrize(
        "model",
        [model_by_name(name) for name in MODEL_NAMES]
        + [model_by_name("constant", a=1.5, b=2.5, c=0.75)],
        ids=[*MODEL_NAMES, "constant-reaction"],
    )
    def test_fixed_pattern_matches_scatter(self, model):
        # reference: the per-triangle blocks of both orientations scattered
        # through COO -> CSR, the upper triangle of cell (j, i) taking the
        # field of the lower triangle of cell (i, j)
        rng = np.random.default_rng(11)
        for m in (2, 3, 11):
            mesh = build_mesh(m)
            asm = Assembler(mesh, model)
            scale = mesh.h * mesh.h / 6.0
            blocks = {name: scale * np.einsum("otk,kpq->otpq", np.full((2, m * m, 3), f),
                                              fem._MID_OUTER)
                      for name, f in (("b", model.b), ("c", model.c))}
            M = scatter_blocks(mesh, blocks["c"])
            assert np.array_equal(asm._full.M.indptr, M.indptr)
            assert np.array_equal(asm._full.M.indices, M.indices)
            # b and c are numbers, so every contribution to an entry is the
            # same and the sums agree bit for bit
            assert np.array_equal(asm._full.M.data, M.data)
            assert np.array_equal(asm._full.b_data, scatter_blocks(mesh, blocks["b"]).data)
            search_map = stiffness_map(mesh, M.indptr, M.indices)
            cache = model.precompute(mesh.mid_x1, mesh.mid_x2)
            for _ in range(3):
                y = (rng.random(min(model.dim, 20)) - 0.5) * model.param_halfwidth
                a_mean = model.a_cached(cache, y).mean(axis=1)
                both = np.stack([a_mean, a_mean[mirror_cells(m)]])
                ref = scatter_blocks(
                    mesh, np.einsum("ot,opq->otpq", both, LOCAL_STIFFNESS) + blocks["b"])
                A = asm.system(y).A
                assert np.array_equal(A.data[asm._full.diag_slots], A.diagonal())
                assert np.array_equal(A.indptr, ref.indptr)
                assert np.array_equal(A.indices, ref.indices)
                # a diagonal entry sums six exact products, and COO -> CSR adds
                # duplicates in an order of its own, so the sums can differ in
                # the last two bits
                assert np.all(np.abs(A.data - ref.data) <= 2 * np.spacing(np.abs(ref.data)))
                # the map found by binary search over the pattern gives A bit
                # for bit
                assert np.array_equal(A.data, search_map @ a_mean + asm._full.b_data)

    def test_coercivity_vs_unit_stiffness(self):
        # discrete analogue of a_lo ||v||^2 <= A_y(v, v)
        mesh = build_mesh(10)
        model = model_by_name("gl-analytic")
        a0 = Assembler(mesh, CONST).system([0.0]).A
        rng = np.random.default_rng(7)
        a_lo = model.bounds.a_lo
        sysm = Assembler(mesh, model).system([0.63])
        for _ in range(100):
            v = rng.standard_normal(mesh.n_dof)
            assert a_lo * (v @ (a0 @ v)) <= v @ (sysm.A @ v) + 1e-10


# every kind, the constant one also with a reaction and a weight
KINDS = [model_by_name(name) for name in MODEL_NAMES] + [
    model_by_name("constant", a=1.5, b=2.5, c=0.75),
    CoefficientModel("custom", {"indices": [1, 3], "amplitudes": [0.5, 0.25]}),
]
KIND_IDS = [*MODEL_NAMES, "constant-reaction", "custom"]


def random_y(model, rng):
    return (2 * rng.random(min(model.dim, 20)) - 1) * 0.99 * model.param_halfwidth


def swap_basis(m: int) -> sp.csr_matrix:
    """Q: the orthonormal basis of the swap-symmetric grid functions, one
    column per interior node (i, j) with i <= j in lexicographic order."""
    k = m - 1
    rows, cols, vals = [], [], []
    for j in range(k):
        for i in range(j + 1):
            col = j * (j + 1) // 2 + i
            nodes = {j * k + i, i * k + j}
            for node in nodes:
                rows.append(node)
                cols.append(col)
                vals.append(1.0 / math.sqrt(len(nodes)))
    return sp.csr_matrix((vals, (rows, cols)), shape=(k * k, k * (k + 1) // 2))


class TestSymmetricSystem:
    """The half system against the explicit fold Q^T (.) Q of the whole one."""

    @pytest.mark.parametrize("model", KINDS, ids=KIND_IDS)
    def test_matches_the_explicit_fold(self, model):
        rng = np.random.default_rng(3)
        for m in range(2, 10):
            asm = Assembler(build_mesh(m), model)
            y = random_y(model, rng)
            whole, half = asm.system(y), asm.symmetric_system(y)
            Q = swap_basis(m)
            for full, reduced in ((whole.A, half.A), (whole.M, half.M)):
                # the pattern of the product, which has no cancellation as
                # Q and the stored entries set to 1 are positive
                ones = sp.csr_matrix((np.ones(full.nnz), full.indices, full.indptr), full.shape)
                pattern = (Q.T @ ones @ Q).tocsr()
                pattern.sort_indices()
                assert np.array_equal(reduced.indptr, pattern.indptr)
                assert np.array_equal(reduced.indices, pattern.indices)
                fold = (Q.T @ full @ Q).toarray()
                assert np.all(np.abs(reduced.toarray() - fold) <= 1e-14 * np.abs(fold))
            for _ in range(3):
                r = rng.standard_normal(half.n_dof)
                ref = Q.T @ whole.precondition(Q @ r)
                assert np.max(np.abs(half.precondition(r) - ref)) <= 1e-14 * np.max(np.abs(ref))
            ref = Q.T @ whole.start
            assert np.max(np.abs(half.start - ref)) <= 1e-14 * np.max(np.abs(ref))
            assert half.shift == pytest.approx(whole.shift, rel=1e-15)

    @pytest.mark.parametrize("model", KINDS, ids=KIND_IDS)
    def test_matches_the_search_map(self, model):
        # the map found by binary search over the half pattern, each entry
        # on the orbits of its vertices, gives A bit for bit
        rng = np.random.default_rng(8)
        for m in (2, 3, 11, 32):
            mesh = build_mesh(m)
            asm = Assembler(mesh, model)
            cache = model.precompute(mesh.mid_x1, mesh.mid_x2)
            for _ in range(3):
                y = random_y(model, rng)
                A = asm.symmetric_system(y).A
                search_map = half_stiffness_map(mesh, A.indptr, A.indices)
                a_mean = model.a_cached(cache, y).mean(axis=1)
                assert np.array_equal(A.data, search_map @ a_mean + asm._half[0].b_data)

    @pytest.mark.parametrize("model", KINDS, ids=KIND_IDS)
    def test_field_is_swap_symmetric(self, model):
        # the premise: lower triangle (i, j) mirrors onto upper triangle
        # (j, i), its midpoints (m01, m12, m02) onto (m02, m12, m01)
        m = 12
        mesh = build_mesh(m)
        h = 1.0 / m
        x, y = np.arange(m * m) % m * h, np.arange(m * m) // m * h
        # midpoints of the upper triangles [(0,0), (h,h), (0,h)]
        upper_x1 = np.stack([x + 0.5 * h, x + 0.5 * h, x], axis=1)
        upper_x2 = np.stack([y + 0.5 * h, y + h, y + 0.5 * h], axis=1)

        def mirrored(f):
            return f.reshape(m, m, 3).transpose(1, 0, 2)[..., ::-1].reshape(m * m, 3)

        assert np.array_equal(mesh.mid_x1, mirrored(upper_x2))
        assert np.array_equal(mesh.mid_x2, mirrored(upper_x1))
        lower = model.precompute(mesh.mid_x1, mesh.mid_x2)
        upper = model.precompute(upper_x1, upper_x2)
        rng = np.random.default_rng(4)
        for _ in range(5):
            y = random_y(model, rng)
            a, b = model.a_cached(lower, y), mirrored(model.a_cached(upper, y))
            assert np.all(np.abs(a - b) <= 4 * np.spacing(np.abs(a)))

    @pytest.mark.parametrize("model", KINDS, ids=KIND_IDS)
    def test_whole_grid_is_swap_invariant(self, model):
        # each lower triangle stands for its mirror image too, so swapping
        # x1 and x2 leaves A and M unchanged bit for bit
        rng = np.random.default_rng(6)
        for m in (2, 3, 8, 13, 32):
            k = m - 1
            swap = np.arange(k * k).reshape(k, k).T.ravel()
            sysm = Assembler(build_mesh(m), model).system(random_y(model, rng))
            for mat in (sysm.A, sysm.M):
                swapped = mat[swap][:, swap].tocsr()
                swapped.sort_indices()
                assert np.array_equal(swapped.indptr, mat.indptr)
                assert np.array_equal(swapped.indices, mat.indices)
                assert np.array_equal(swapped.data, mat.data)

    @pytest.mark.parametrize("model", KINDS, ids=KIND_IDS)
    def test_both_grids_share_the_shift(self, model):
        # both read the field at the lower triangles, so min_T a_T(y) agrees
        rng = np.random.default_rng(7)
        for m in (2, 5, 16):
            asm = Assembler(build_mesh(m), model)
            y = random_y(model, rng)
            assert asm.system(y).shift == asm.symmetric_system(y).shift

    @pytest.mark.parametrize("model", KINDS, ids=KIND_IDS)
    def test_half_lambda1_is_lambda1(self, model):
        # an antisymmetric first eigenvector would leave the half's lambda1
        # above the whole system's
        rng = np.random.default_rng(5)
        for m in (8, 16):
            asm = Assembler(build_mesh(m), model)
            y = random_y(model, rng)
            whole = asm.system(y)
            ref = sla.eigh(whole.A.toarray(), whole.M.toarray(), eigvals_only=True,
                           subset_by_index=[0, 0])[0]
            assert smallest_eigenpair(asm.symmetric_system(y)).value == pytest.approx(
                ref, rel=1e-12)


class TestBoundProduct:
    def test_bitwise_equal_to_matmul(self):
        # the product calls scipy's private kernel behind ``@``; a scipy
        # release that moves or changes it fails here
        rng = np.random.default_rng(5)
        model = model_by_name("qmc-analytic")
        systems = [Assembler(build_mesh(m), model).system(rng.random(20) - 0.5) for m in (8, 32)]
        systems.append(random_spd_pair(rng, 12))
        for sysm in systems:
            rows = rng.standard_normal((3, sysm.n_dof))  # the solver passes row views
            for mat in (sysm.A, sysm.M):
                product = fem._csr_matvec(mat)
                for v in (rng.standard_normal(sysm.n_dof), rows[1]):
                    assert np.array_equal(product(v), mat @ v)


class TestLaplaceReference:
    def test_value(self):
        assert CHI1 == pytest.approx(2 * math.pi**2, rel=1e-15)

    def test_discrete_above_continuum(self):
        ref = CHI1
        for m in (2, 4, 8, 16):
            lam = smallest_eigenpair(Assembler(build_mesh(m), CONST).system([0.0])).value
            assert lam >= ref

    def test_quadratic_convergence_ratio(self):
        ref = CHI1
        errs = []
        for m in (8, 16, 32):
            lam = smallest_eigenpair(Assembler(build_mesh(m), CONST).system([0.0])).value
            errs.append(lam - ref)
        for a, b in zip(errs, errs[1:]):
            assert 3.6 <= a / b <= 4.4

    def test_m64_close_to_reference(self):
        ref = CHI1
        lam = smallest_eigenpair(Assembler(build_mesh(64), CONST).system([0.0])).value
        assert abs(lam - ref) / ref <= 1e-3
