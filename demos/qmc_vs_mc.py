"""Randomly shifted lattice rules against plain Monte Carlo.

Estimates the mean smallest eigenvalue of a 20-parameter diffusion field.
The shifted rank-1 lattice rule converges like n^(-1); Monte Carlo like
n^(-1/2).  Scaled down from the production setting (s = 100, m = 128,
n up to 2^13) to finish in about a minute; raise the constants to match.
"""

import pathlib

from gevrey_evp import emit_csv, emit_svg, fit_rate, model_by_name, rmse_study
from gevrey_evp.qmc import default_weights

HERE = pathlib.Path(__file__).resolve().parent

S_DIM = 10
MESH_M = 16
LEVELS = [2**k for k in range(4, 10)]
SHIFTS = 8

model = model_by_name("qmc-analytic")
weights = default_weights(model, S_DIM)  # beta_j = j^-5
result = rmse_study(
    model,
    m=MESH_M,
    s=S_DIM,
    n_list=LEVELS,
    R=SHIFTS,
    master_seed=1905,
    mc_replicates=16,
    weights=weights,
)
provenance = f"cbc(delta={weights.delta},theta={weights.theta},beta=j^-5)"

print(f"reference value (highest-level lattice estimate): {result.reference:.10f}")
print(f"generating vectors: {provenance}")
print(f"{'n':>6} {'rmse_qmc':>12} {'rmse_mc':>12}")
mc_by_n = {r.n: r.rmse for r in result.mc}
records = [(r.n, r.rmse, mc_by_n[r.n]) for r in result.qmc]
for n, rq, rm in records:
    print(f"{n:6d} {rq:12.3e} {rm:12.3e}")

qmc_fit = fit_rate([(n, rq) for n, rq, _ in records], "loglog")
mc_fit = fit_rate([(n, rm) for n, _, rm in records], "loglog")
print(f"\nfitted log-log slopes: lattice {qmc_fit.slope:.3f} (expect about -1), "
      f"Monte Carlo {mc_fit.slope:.3f} (expect about -0.5)")

csv_path = HERE / "qmc_vs_mc.csv"
emit_csv(records, csv_path, ["n", "rmse_qmc", "rmse_mc"],
         metadata={"model": "qmc-analytic", "m": MESH_M, "s": S_DIM,
                   "shifts": SHIFTS, "seed": 1905,
                   "vectors": provenance})
emit_svg([(n, rq) for n, rq, _ in records], qmc_fit, HERE / "qmc_vs_mc.svg",
         "loglog", title="lattice rule vs Monte Carlo", ylabel="log rel. RMSE")
print(f"wrote {csv_path.name} and qmc_vs_mc.svg")
