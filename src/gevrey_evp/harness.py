"""Experiment configuration, rate fitting, and CSV/SVG emission.

Config files are line-oriented ``key = value`` text with a single
``[experiment]`` section; command-line flags override their lines.
Validation reports every violation (with line numbers, or the flag), not
just the first.  CSV is the contract format: floats are
written as shortest round-trip decimals so emitted files are byte-stable
and re-parse exactly; SVG plots are dependency-free conveniences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .coefficients import MODEL_NAMES
from .qmc import _delta_problem, theta_problem
# after qmc: imported ahead of it, eigensolver made `import gevrey_evp` about
# 4 % slower (2-core VM, 24 alternating processes each way)
from .eigensolver import _tol_problem

__all__ = [
    "RunConfig",
    "ConfigError",
    "parse_config",
    "RateFit",
    "fit_rate",
    "TRANSFORMS",
    "emit_csv",
    "emit_svg",
]


class ConfigError(ValueError):
    """All config violations, each tagged with its line number or flag."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class _Field:
    typ: str  # int, float, str, bool, intpair, intlist, floatlist
    default: object  # None marks a required key
    check: Callable[[object], str | None] | None = None


def _at_least(name, lo):
    return lambda v: None if v >= lo else f"{name} must be >= {lo}"


def _model_name(v):
    if v in MODEL_NAMES or v.startswith("custom:"):
        return None
    return f"unknown model {v!r}"


# POD weights need the finite zeta(2 theta), so theta in (1/2, 1]
_THETA = _Field("float", 0.6, theta_problem)
_DELTA = _Field("float", 0.0, lambda v: None if v == 0.0 or not _delta_problem(v)
                else "delta must be 0 (the model's Gevrey order) or a finite value >= 1")
_TOL = _Field("float", 1e-14, _tol_problem)
_LEVELS = _Field("intpair", (4, 10), lambda v: None if 1 <= v[0] <= v[1]
                 else f"levels {v[0]}..{v[1]} must satisfy 1 <= lo <= hi")
_CHECKS = ("combinatorics", "gevrey")  # the `which` of checks; also argparse's choices

_EXPERIMENTS: dict[str, dict[str, _Field]] = {
    "gl-study": {
        "model": _Field("str", None, _model_name),
        "m": _Field("int", 64, _at_least("m", 2)),
        "n_min": _Field("int", 3, _at_least("n_min", 1)),
        "n_max": _Field("int", 16, _at_least("n_max", 1)),
        "n_star": _Field("int", 40, _at_least("n_star", 2)),
        "tol": _TOL,
        "out": _Field("str", "gl_study.csv"),
        "svg": _Field("str", ""),
    },
    "qmc-study": {
        "model": _Field("str", None, _model_name),
        "m": _Field("int", 32, _at_least("m", 2)),
        "s": _Field("int", 20, _at_least("s", 1)),
        "levels": _LEVELS,
        "shifts": _Field("int", 8, _at_least("shifts", 1)),
        "mc_shifts": _Field("int", 32, _at_least("mc_shifts", 1)),
        "seed": _Field("int", 7193, _at_least("seed", 0)),
        "theta": _THETA,
        "delta": _DELTA,
        "beta": _Field("str", "j^-5"),
        "tol": _TOL,
        "with_mc": _Field("bool", True),
        "vectors": _Field("str", ""),
        "out": _Field("str", "qmc_study.csv"),
        "svg": _Field("str", ""),
    },
    "mc-study": {
        "model": _Field("str", None, _model_name),
        "m": _Field("int", 32, _at_least("m", 2)),
        "s": _Field("int", 20, _at_least("s", 1)),
        "levels": _LEVELS,
        "shifts": _Field("int", 32, _at_least("shifts", 1)),
        "seed": _Field("int", 7193, _at_least("seed", 0)),
        "tol": _TOL,
        "out": _Field("str", "mc_study.csv"),
    },
    "trunc-study": {
        "model": _Field("str", None, _model_name),
        "m": _Field("int", 32, _at_least("m", 2)),
        "s_list": _Field("intlist", (1, 2, 4, 8), lambda v: (
            "s_list must be nonempty ascending" if not v or list(v) != sorted(v)
            else f"s_list entries must be >= 0, got {v[0]}" if v[0] < 0 else None)),
        "ref_s": _Field("int", 16, _at_least("ref_s", 2)),
        "level": _Field("int", 10, _at_least("level", 1)),
        "shifts": _Field("int", 8, _at_least("shifts", 1)),
        "seed": _Field("int", 7193, _at_least("seed", 0)),
        "theta": _THETA,
        "delta": _DELTA,
        "beta": _Field("str", "j^-5"),
        "tol": _TOL,
        "out": _Field("str", "trunc_study.csv"),
    },
    "checks": {
        "which": _Field("str", None, lambda v: None if v in _CHECKS
                        else f"which must be {' or '.join(_CHECKS)}, got {v!r}"),
        "n_max": _Field("int", 60, _at_least("n_max", 2)),
        "nu_max": _Field("int", 8, _at_least("nu_max", 1)),
        "model": _Field("str", "gl-analytic", _model_name),
        "m": _Field("int", 32, _at_least("m", 2)),
        "K": _Field("int", 20, _at_least("K", 8)),
        "quad_n": _Field("int", 64, _at_least("quad_n", 2)),
        "out": _Field("str", ""),
    },
    "solve-evp": {
        "model": _Field("str", None, _model_name),
        "m": _Field("int", 64, _at_least("m", 2)),
        "y": _Field("floatlist", (0.0,)),
        "tol": _TOL,
        "second": _Field("bool", False),
        "dump": _Field("str", ""),
        "dump_matrix": _Field("str", ""),
    },
    "cbc": {
        "s": _Field("int", 16, _at_least("s", 1)),
        "n": _Field("int", 1024, _at_least("n", 2)),
        "delta": _Field("float", 1.0, _delta_problem),
        "theta": _THETA,
        "beta": _Field("str", "j^-5"),
        "out": _Field("str", "vector.txt"),
    },
}


@dataclass
class RunConfig:
    """One validated experiment: its name plus the schema-typed fields."""

    experiment: str
    fields: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.fields[key]


def _parse_value(typ: str, raw: str):
    raw = raw.strip()
    if typ == "int":
        return int(raw)
    if typ == "float":
        return float(raw)
    if typ == "str":
        return raw.strip("\"'")
    if typ == "bool":
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"expected true/false, got {raw!r}")
    if typ == "intpair":
        lo, _, hi = raw.partition("..")
        if not _:
            raise ValueError(f"expected 'lo..hi', got {raw!r}")
        return (int(lo), int(hi))
    if typ == "intlist":
        return tuple(int(p) for p in raw.split(",") if p.strip())
    if typ == "floatlist":
        return tuple(float(p) for p in raw.split(",") if p.strip())
    raise AssertionError(typ)


def _checked_value(spec: _Field, raw: str):
    """Parse one raw value and apply its key's check; ValueError names the fault."""
    value = _parse_value(spec.typ, raw)
    msg = spec.check(value) if spec.check is not None else None
    if msg is not None:
        raise ValueError(msg)
    return value


def _cross_checks(cfg: RunConfig) -> list[str]:
    """Rules that read two keys; each single key is checked by its _Field."""
    errs = []
    f = cfg.fields
    if cfg.experiment == "gl-study":
        if f["n_min"] > f["n_max"]:
            errs.append("n_min must not exceed n_max")
        if f["n_max"] >= f["n_star"]:
            errs.append(f"n_star = {f['n_star']} must exceed n_max = {f['n_max']}")
    if cfg.experiment == "trunc-study" and max(f["s_list"]) >= f["ref_s"]:
        errs.append(f"ref_s = {f['ref_s']} must exceed max(s_list) = {max(f['s_list'])}")
    return errs


def parse_config(text: str, flags: dict | None = None) -> RunConfig:
    """Parse and fully validate one experiment section.

    ``flags`` holds the command line: ``flags["command"]`` names the
    experiment, which the section must match, and each schema key maps to
    its raw string (True for a bool flag given) or None when absent; other
    keys are ignored.  A flag value overrides the file's and is parsed and
    checked by the same code as a line.  Raises ConfigError carrying every
    violation found, each prefixed with its line number or its flag (a
    missing required key has neither).
    """
    errors: list[str] = []
    section: str | None = None
    seen: dict[str, int] = {}
    fields: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if section is not None:
                errors.append(f"line {lineno}: second section [{name}] (one per file)")
            elif name not in _EXPERIMENTS:
                errors.append(f"line {lineno}: unknown experiment [{name}]")
                section = name
            else:
                section = name
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        if section is None:
            errors.append(f"line {lineno}: key outside any [section]")
            continue
        schema = _EXPERIMENTS.get(section)
        if schema is None:
            continue  # section name already reported
        key, _, rawval = line.partition("=")
        key = key.strip()
        if key in seen:
            errors.append(
                f"line {lineno}: duplicate key {key!r} (first at line {seen[key]})"
            )
            continue
        seen[key] = lineno
        if key not in schema:
            errors.append(f"line {lineno}: unknown key {key!r} for [{section}]")
            continue
        try:
            fields[key] = _checked_value(schema[key], rawval)
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
    if section is None:
        errors.append("line 1: no [experiment] section found")
    elif flags is not None and section != flags["command"]:
        errors.append(f"config is for [{section}], command is {flags['command']}")
    elif section in _EXPERIMENTS:
        schema = _EXPERIMENTS[section]
        given = {k: v for k, v in (flags or {}).items() if k in schema and v is not None}
        for key, raw in given.items():
            try:
                fields[key] = _checked_value(schema[key], str(raw))
            except ValueError as exc:
                errors.append(f"flag --{key.replace('_', '-')}: {exc}")
        for key, spec in schema.items():
            if key in seen or key in given:  # a bad line or flag is reported above
                continue
            if spec.default is None:
                errors.append(f"missing required key {key!r}")
            else:
                fields[key] = spec.default
        cfg = RunConfig(section, fields)
        if not errors:
            errors.extend(_cross_checks(cfg))
        if not errors:
            return cfg
    raise ConfigError(errors)


# -- rate fitting -------------------------------------------------------------

TRANSFORMS: dict[str, Callable[[float], float]] = {
    "log-vs-n": lambda t: float(t),
    "log-vs-cuberoot-n": lambda t: float(t) ** (1.0 / 3.0),
    "loglog": lambda t: math.log(t),
}


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y ~ slope * x + intercept: (slope, intercept, r^2).

    r^2 is 1 when y is constant, since the flat line then fits exactly.
    """
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ np.array([slope, intercept])
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), r2


def fit_rate(records: Sequence[tuple[float, float]], transform: str) -> RateFit:
    """Least-squares line through transformed (t, error) records.

    The ordinate is always log(error); the abscissa is t, t^(1/3) or log t
    according to ``transform``.  Records with nonpositive error are dropped;
    at least 4 must remain.
    """
    if transform not in TRANSFORMS:
        raise ValueError(f"transform must be one of {sorted(TRANSFORMS)}")
    xf = TRANSFORMS[transform]
    pts = [(xf(t), math.log(e)) for t, e in records if e > 0.0]
    if len(pts) < 4:
        raise ValueError(f"need >= 4 records with positive error, got {len(pts)}")
    slope, intercept, r2 = _fit_line(np.array([p[0] for p in pts]),
                                     np.array([p[1] for p in pts]))
    return RateFit(slope, intercept, r2)


# -- CSV / SVG emission -------------------------------------------------------

def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip decimal
    return str(value)


def emit_csv(records, path, columns: Sequence[str], metadata: dict | None = None):
    """Write records as CSV with '#'-prefixed metadata lines and a header."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for key, value in (metadata or {}).items():
                fh.write(f"# {key} = {value}\n")
            fh.write(",".join(columns) + "\n")
            for rec in records:
                fh.write(",".join(_cell(v) for v in rec) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV {path}: {exc}") from exc


def emit_svg(
    records,
    fit: RateFit | None,
    path,
    transform: str,
    title: str = "convergence",
    ylabel: str = "log error",
):
    """Plot transformed records as a polyline, with the fitted line if given.

    Refuses an empty record list; records with no positive error give the
    frame with a note.  The fit overlay is skipped when absent.
    """
    if not records:
        raise ValueError("no records to plot")
    pts = [(TRANSFORMS[transform](t), math.log(e)) for t, e in records if e > 0.0]
    width, height, margin = 640, 480, 60
    xs = [p[0] for p in pts] or [0.0]
    ys = [p[1] for p in pts] or [0.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    poly = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle">'
        f"{title} [{transform}]</text>",
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle">n</text>',
        f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {height / 2:.0f})">{ylabel}</text>',
        f'<polyline points="{poly}" fill="none" stroke="steelblue" stroke-width="1.5"/>'
        if pts else f'<text x="{width / 2:.0f}" y="{height / 2:.0f}" text-anchor="middle">'
        "no positive error to plot</text>",
    ]
    for x, y in pts:
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="steelblue"/>')
    if fit is not None:
        y0 = fit.intercept + fit.slope * x_lo
        y1 = fit.intercept + fit.slope * x_hi
        parts.append(
            f'<line x1="{sx(x_lo):.2f}" y1="{sy(y0):.2f}" x2="{sx(x_hi):.2f}" '
            f'y2="{sy(y1):.2f}" stroke="firebrick" stroke-dasharray="6 3"/>'
        )
        parts.append(
            f'<text x="{width - margin}" y="40" text-anchor="end">'
            f"slope {fit.slope:.3f}, r2 {fit.r_squared:.4f}</text>"
        )
    parts.append("</svg>")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write SVG {path}: {exc}") from exc
