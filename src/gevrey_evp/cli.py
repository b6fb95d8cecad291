"""Command-line entry point ``gevrey-evp``.

Subcommands: checks, solve-evp, gl-study, qmc-study, mc-study, trunc-study,
cbc.  Each reads an optional ``--config`` file (one [section] of
``key = value`` lines) and applies command-line flag overrides on top.
Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import struct
import sys

import numpy as np

from . import combinatorics as comb
from . import harness, qmc
from .coefficients import resolve_model
from .derivcheck import classify_decay, legendre_coeffs
from .eigensolver import EigenSolveError, second_eigenpair, smallest_eigenpair
from .fem import Assembler, build_mesh
from .harness import ConfigError, RunConfig, emit_csv, emit_svg, fit_rate, parse_config
from .quad1d import axis_eigenvalue_map, gl_study

_EIGVEC_MAGIC = b"GEVREVP\x00"  # 8 bytes; header is magic + little-endian u64 n_dof

_FLAG_HELP = {
    "tol": "relative eigensolver tolerance: stop once successive Rayleigh "
    "quotients differ by at most tol * lambda (default 1e-14)",
}


class _Parser(argparse.ArgumentParser):
    """A usage error is a validation error: usage, then exit 1 (argparse: 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError([f"{self.prog}: {message}"])


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gevrey-evp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for experiment, schema in harness._EXPERIMENTS.items():
        p = sub.add_parser(experiment)
        p.add_argument("--config", default=None, help="config file path")
        for key, spec in schema.items():
            if experiment == "checks" and key == "which":
                p.add_argument("which", choices=harness._CHECKS)
                continue
            flag = "--" + key.replace("_", "-")
            if spec.typ == "bool":
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, type=str, default=None, help=_FLAG_HELP.get(key))
    return parser


def _config_from_args(args) -> RunConfig:
    text = f"[{args.command}]\n"
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_config(text, vars(args))


# -- subcommand bodies --------------------------------------------------------

def _run_checks(cfg: RunConfig) -> int:
    if cfg["which"] == "combinatorics":
        failed = False
        for label, passed in comb.identity_checks(cfg["n_max"], cfg["nu_max"]):
            print(f"{'PASS' if passed else 'FAIL'}  {label}")
            failed |= not passed
        return 2 if failed else 0
    model = resolve_model(cfg["model"])
    f = axis_eigenvalue_map(model, cfg["m"], 1e-14)
    coeffs = legendre_coeffs(f, cfg["K"], cfg["quad_n"])
    fit = classify_decay(coeffs)
    if cfg["out"]:
        emit_csv([(k, abs(c)) for k, c in enumerate(coeffs)], cfg["out"], ["k", "abs_coeff"],
                 metadata={"model": cfg["model"], "m": cfg["m"], "K": cfg["K"]})
    print(f"model {cfg['model']}: best delta = {fit.delta} "
          f"(rate {fit.rate:.4f}, goodness {fit.goodness:.5f})")
    for delta, (rate, r2) in sorted(fit.candidates.items()):
        print(f"  delta {delta:>4}: rate {rate:8.4f}  r2 {r2:.5f}")
    return 0


def _run_solve_evp(cfg: RunConfig) -> int:
    model = resolve_model(cfg["model"])
    system = Assembler(build_mesh(cfg["m"]), model).system(list(cfg["y"]))
    pair = smallest_eigenpair(system, tol=cfg["tol"])
    print(f"lambda1 = {pair.value!r}  iterations = {pair.iterations}  "
          f"residual = {pair.residual:.3e}")
    if cfg["second"]:
        pair2 = second_eigenpair(system, pair, tol=cfg["tol"])
        print(f"lambda2 = {pair2.value!r}  iterations = {pair2.iterations}  "
              f"residual = {pair2.residual:.3e}")
    if cfg["dump"]:
        with open(cfg["dump"], "wb") as fh:
            fh.write(_EIGVEC_MAGIC)
            fh.write(struct.pack("<Q", system.n_dof))
            fh.write(pair.vector.astype("<f8").tobytes())
    if cfg["dump_matrix"]:
        from scipy.io import mmwrite

        mmwrite(cfg["dump_matrix"] + ".A", system.A)
        mmwrite(cfg["dump_matrix"] + ".M", system.M)
    return 0


def _emit_study(cfg: RunConfig, records, columns, keys: str, **derived) -> None:
    """The study CSV: ``experiment``, then each of ``keys`` in order, taken
    from ``derived`` where given and from the config otherwise."""
    meta = {"experiment": cfg.experiment}
    meta.update((k, derived[k] if k in derived else cfg[k]) for k in keys.split())
    emit_csv(records, cfg["out"], columns, metadata=meta)


def _emit_plot(cfg: RunConfig, records, transform: str, what: str, ylabel: str) -> None:
    """The ``--svg`` plot of (t, error) records, with a fitted line once at
    least 4 errors are positive."""
    if cfg["svg"]:
        fit = fit_rate(records, transform) if sum(e > 0 for _, e in records) >= 4 else None
        emit_svg(records, fit, cfg["svg"], transform,
                 title=f"{cfg['model']} {what}", ylabel=ylabel)


def _point_counts(cfg: RunConfig) -> list[int]:
    lo, hi = cfg["levels"]
    return [2**level for level in range(lo, hi + 1)]


def _run_gl_study(cfg: RunConfig) -> int:
    model = resolve_model(cfg["model"])
    records = gl_study(model, cfg["m"], list(range(cfg["n_min"], cfg["n_max"] + 1)),
                       cfg["n_star"], tol=cfg["tol"])
    _emit_study(cfg, records, ["n", "error"], "model m n_star tol")
    transform = "log-vs-cuberoot-n" if model.gevrey_order >= 3 else "log-vs-n"
    _emit_plot(cfg, records, transform, "quadrature error", "log rel. error")
    print(f"wrote {cfg['out']} ({len(records)} records)")
    return 0


def _weights_for(cfg: RunConfig, s: int, model) -> qmc.PODWeights:
    delta = cfg["delta"] or model.gevrey_order
    beta = qmc.parse_beta_rule(cfg["beta"], s)
    return qmc.PODWeights(delta, cfg["theta"], beta)


def _run_qmc_study(cfg: RunConfig) -> int:
    model = resolve_model(cfg["model"])
    n_list = _point_counts(cfg)
    weights = _weights_for(cfg, cfg["s"], model)
    provenance = f"cbc(delta={weights.delta},theta={weights.theta},beta={cfg['beta']})"
    z_by_level = None
    if cfg["vectors"]:
        provenance = "supplied"
        z_by_level = {}
        for n in n_list:
            path = cfg["vectors"].replace("{n}", str(n))
            z, s_file, n_file = qmc.load_vector(path)
            if s_file < cfg["s"] or n_file != n:
                raise ConfigError([f"vector file {path} does not match s={cfg['s']}, n={n}"])
            z_by_level[n] = z[: cfg["s"]]
    result = qmc.rmse_study(
        model, cfg["m"], cfg["s"], n_list, R=cfg["shifts"], master_seed=cfg["seed"],
        mc_replicates=cfg["mc_shifts"], weights=weights, z_by_level=z_by_level,
        tol=cfg["tol"], with_mc=cfg["with_mc"],
    )
    mc_by_n = {rec.n: rec.rmse for rec in result.mc}
    records = [
        (rec.n, rec.rmse, mc_by_n.get(rec.n, float("nan"))) for rec in result.qmc
    ]
    _emit_study(cfg, records, ["n", "rmse_qmc", "rmse_mc"],
                "model m s shifts mc_shifts seed vectors", vectors=provenance)
    _emit_plot(cfg, [(n, r) for n, r, _ in records], "loglog", "QMC error", "log rel. RMSE")
    print(f"wrote {cfg['out']} ({len(records)} levels, reference {result.reference!r})")
    return 0


def _run_mc_study(cfg: RunConfig) -> int:
    model = resolve_model(cfg["model"])
    records = qmc.mc_study(model, cfg["m"], cfg["s"], _point_counts(cfg), cfg["shifts"],
                           cfg["seed"], tol=cfg["tol"])
    _emit_study(cfg, [(r.n, r.rmse) for r in records], ["n", "rmse_mc"],
                "model m s shifts seed")
    print(f"wrote {cfg['out']} ({len(records)} levels)")
    return 0


def _run_trunc_study(cfg: RunConfig) -> int:
    model = resolve_model(cfg["model"])
    weights = _weights_for(cfg, cfg["ref_s"], model)
    rule = qmc.make_lattice_rule(
        cfg["ref_s"], 2 ** cfg["level"], R=cfg["shifts"],
        master_seed=cfg["seed"], weights=weights,
    )
    records = qmc.truncation_study(model, cfg["m"], list(cfg["s_list"]), rule,
                                   tol=cfg["tol"])
    _emit_study(cfg, records, ["s", "error"], "model m ref_s n seed", n=rule.n)
    print(f"wrote {cfg['out']} ({len(records)} truncation levels)")
    return 0


def _run_cbc(cfg: RunConfig) -> int:
    beta = qmc.parse_beta_rule(cfg["beta"], cfg["s"])
    weights = qmc.PODWeights(cfg["delta"], cfg["theta"], beta)
    z, errors = qmc.cbc_construct(cfg["s"], cfg["n"], weights, return_errors=True)
    qmc.save_vector(cfg["out"], z, cfg["s"], cfg["n"])
    print(f"wrote {cfg['out']}: z = {list(map(int, z))}")
    print(f"worst-case error = {float(np.sqrt(errors[-1])):.6e}")
    return 0


_RUNNERS = {
    "checks": _run_checks,
    "solve-evp": _run_solve_evp,
    "gl-study": _run_gl_study,
    "qmc-study": _run_qmc_study,
    "mc-study": _run_mc_study,
    "trunc-study": _run_trunc_study,
    "cbc": _run_cbc,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _config_from_args(args)
        return _RUNNERS[cfg.experiment](cfg)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 1
    except EigenSolveError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
