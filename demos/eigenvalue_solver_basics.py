"""Assemble and solve the parametric eigenvalue problem on the unit square.

-div(a grad u) + b u = lambda c u with zero boundary values, discretized by
P1 triangles on a uniform mesh; the smallest eigenpair comes from LOBPCG
with a fast-sine preconditioner, the second from the same loop held
M-orthogonal to the first.
"""

import numpy as np

from gevrey_evp import (
    CHI1,
    Assembler,
    bound_constants,
    build_mesh,
    estimate_gap,
    model_by_name,
    second_eigenpair,
    smallest_eigenpair,
)

# constant coefficients reproduce the Dirichlet Laplacian: lambda1 = 2 pi^2
const = model_by_name("constant")
print("Laplace benchmark (a=c=1, b=0):")
for m in (8, 16, 32, 64):
    lam = smallest_eigenpair(Assembler(build_mesh(m), const).system([0.0])).value
    print(f"  m={m:3d}: lambda1 = {lam:.8f}   rel err vs 2 pi^2: "
          f"{abs(lam - CHI1) / CHI1:.2e}")

# a parametric field: a(x, y) = 2 + sin(pi (x1 + x2 + y))
model = model_by_name("gl-analytic")
mesh = build_mesh(32)
asm = Assembler(mesh, model)  # caches everything y-independent
print("\ngl-analytic eigenvalues along the parameter:")
for y in (-1.0, -0.5, 0.0, 0.5, 1.0):
    system = asm.system([y])
    p1 = smallest_eigenpair(system)
    p2 = second_eigenpair(system, p1, tol=1e-10)
    print(f"  y={y:5.2f}: lambda1 = {p1.value:10.6f}  lambda2 = {p2.value:10.6f}  "
          f"gap = {1 - p1.value / p2.value:.4f}  ({p1.iterations} iterations, "
          f"residual {p1.residual:.1e})")

# the sampled minimum of the relative spectral gap feeds the bound constants
grid = [[y] for y in np.linspace(-1, 1, 9)]
gap = estimate_gap(model, 32, grid)
bc = bound_constants(model, mu=gap.gap)
print(f"\nsampled spectral gap:   mu <= {gap.gap:.4f} (argmin y = {gap.y_argmin})")
print(f"eigenvalue bound:       lambda1_bar = {bc.lambda1_bar:.4f}")
print(f"contrasts:              K_a = {bc.K_a:.3f}, K_c = {bc.K_c:.3f}")
print(f"derivative growth:      sigma = {bc.sigma:.2f}, rho = {bc.rho:.1f}")
