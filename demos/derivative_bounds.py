"""Compare measured eigenvalue derivatives with the theoretical envelope.

The closed-form growth factors sigma and rho (functions of the coefficient
contrasts and the relative spectral gap alone) bound every parameter
derivative of lambda1:

    |d^nu lambda1| <= lambda1_bar * sigma/rho * (rho/R)^nu
                      * ff_half(|nu|) * (|nu|!)^(delta-1).

The envelope is deliberately generous; the point of this demo is the
inequality direction and the machinery, not tightness.
"""

import numpy as np

from gevrey_evp import (
    Assembler,
    Multiindex,
    bound_constants,
    build_mesh,
    derivative_bound,
    estimate_gap,
    fd_derivative,
    model_by_name,
    smallest_eigenpair,
)

model = model_by_name("gl-analytic")
MESH_M = 32

# step 1: measure the relative spectral gap on a parameter grid
grid = [[y] for y in np.linspace(-1.0, 1.0, 9)]
gap = estimate_gap(model, MESH_M, grid)
print(f"sampled relative spectral gap: mu <= {gap.gap:.4f}")

# step 2: closed-form constants from the coefficient ranges and the gap
bc = bound_constants(model, mu=gap.gap)
print(f"lambda1_bar = {bc.lambda1_bar:.3f}, sigma = {bc.sigma:.2f}, "
      f"rho = {bc.rho:.1f}")

# step 3: a radius for the single parameter.  The diffusion field obeys
# |d^n_y a| <= pi^n <= (sup a) n! / (2 R)^n for R = sqrt(6)/(2 pi) (the
# n = 2 case is binding), so that value is an admissible choice.
R1 = np.sqrt(6.0) / (2.0 * np.pi)
print(f"derivative radius R_1 = {R1:.4f}")

# step 4: measure low-order derivatives by central differences and compare
asm = Assembler(build_mesh(MESH_M), model)
lam = lambda y: smallest_eigenpair(asm.symmetric_system([y])).value  # lambda1 only: the half grid
print(f"\n{'order':>5} {'|fd derivative|':>16} {'theoretical bound':>18}")
for order, h in ((1, 1e-3), (2, 1e-2), (3, 3e-2)):
    measured, consistency = fd_derivative(lam, 0.0, order, h, interval=(-1, 1))
    bound, _ = derivative_bound(bc, Multiindex((order,)), delta=1.0, R=[R1])
    ok = abs(measured) <= bound
    print(f"{order:5d} {abs(measured):16.4f} {bound:18.4g}   within bound: {ok}")
    assert ok
