"""Command-line interface: strict JSON configuration, subcommand dispatch,
and bit-stable CSV/JSON outputs.

Subcommands: green (point evaluation of the flat-interface kernels),
forward (near-field dataset synthesis), demo-uniqueness (the
singular-source blow-up experiment), verify (self-check suite).

The configuration maps onto the scene types key by key (parse_config);
those types hold every default and every range check, so the library
and the command line reject the same settings with the same messages.

Exit codes: 0 success, 1 check failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AccuracyError,
    ConfigurationError,
    GeometryError,
    SingularityError,
    SolverError,
)
from .geometry import SUBSAMPLE, InterfaceProfile, ObstacleCurve, ReceiverLine
from .layered_green import MediumParams, PlanarGreen, SourceSpec, beta
from .obstacle import green_rough_columns
from .forward import (
    BlowupSequenceConfig,
    ForwardSolver,
    ObstacleSpec,
    SceneConfig,
    blowup_experiment,
    synthesize_dataset,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# Strict JSON configuration
# ---------------------------------------------------------------------------
# Each section of the document is a table key -> (converter, field): the
# converter checks the JSON value's type and turns it into the field of the
# scene type that the section builds.  Only the keys present are passed on,
# and a key is required when its field has no default there.
def _number(value, context: str) -> float:
    """A JSON number, finite in floating point (no boolean: Python would
    pass it as the integer 0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{context} must be a number")
    if not abs(value) <= sys.float_info.max:   # inf, nan, huge integers
        raise ConfigurationError(f"{context} must be finite")
    return float(value)


def _integer(value, context: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"{context} must be an integer")
    _number(value, context)
    return value


def _string(value, context: str) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{context} must be a string")
    return value


def _numbers(size: int, form: str):
    """Converter of a list of size numbers into a tuple."""
    def convert(value, context):
        if not isinstance(value, list) or len(value) != size:
            raise ConfigurationError(f"{context} must be {form}")
        return tuple(_number(v, context) for v in value)
    return convert


_point = _numbers(2, "a [x1, x2] pair")


def _complex(value, context: str) -> complex:
    if isinstance(value, list):
        return complex(*_numbers(2, "a [re, im] pair")(value, context))
    return complex(_number(value, context))


def _each(convert):
    """Converter of a JSON list, entry by entry, into a tuple."""
    def each(value, context):
        if not isinstance(value, list):
            raise ConfigurationError(f"{context} must be a list")
        return tuple(convert(v, f"{context}[{i}]")
                     for i, v in enumerate(value))
    return each


def _fields(table: dict, cls, obj, context: str) -> dict:
    """Keyword arguments of cls from the JSON object obj, each key through
    its table entry; a nested table's keys set fields of the same cls."""
    where = context or "config"
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    out = {}
    for key, value in obj.items():
        if key not in table:
            raise ConfigurationError(f"unknown key {key!r} in {where}")
        inner = f"{context}.{key}".lstrip(".")
        if isinstance(table[key], dict):
            out.update(_fields(table[key], cls, value, inner))
        else:
            convert, name = table[key]
            out[name] = convert(value, inner)
    required = {f.name for f in dataclasses.fields(cls)
                if f.default is f.default_factory is dataclasses.MISSING}
    missing = [key for key, entry in table.items() if isinstance(entry, tuple)
               and entry[1] in required and entry[1] not in out]
    if missing:
        raise ConfigurationError(f"{where} needs {' and '.join(missing)}")
    return out


def _section(cls, table: dict):
    """Converter of a JSON object into an instance of cls."""
    return lambda obj, context: cls(**_fields(table, cls, obj, context))


_OBSTACLE = {
    "kind": (_string, "condition"),
    "curve": (_section(ObstacleCurve, {
        "kind": (_string, "kind"), "center": (_point, "center"),
        "radius": (_number, "radius"), "scale": (_number, "scale")}),
        "curve"),
    "lambda": (_number, "lam"), "n": (_complex, "n"),
    "boundary_M": (_integer, "boundary_M"),
    "cell_size": (_number, "cell_size"),
}
_EXPERIMENT = {
    "z_star_x1": (_number, "z_star"), "delta0": (_number, "delta0"),
    "eps0": (_number, "eps0"), "n_max": (_integer, "n_max"),
    "min_cell": (_number, "min_cell"),
}
# The document, onto the fields of SceneConfig; sources, experiment,
# arc_radius_R and mesh.subsample are taken off before the scene is built.
# The solver has no auxiliary arc, and its sub-grid is fixed (SUBSAMPLE),
# but the benchmark scenes under perfbench/scenes carry both keys:
# arc_radius_R is accepted as a finite number, mesh.subsample as SUBSAMPLE.
_CONFIG = {
    "medium": (_section(MediumParams, {"kappa1": (_number, "kappa1"),
                                       "kappa2": (_number, "kappa2")}),
               "medium"),
    "interface": (_section(InterfaceProfile, {"bumps": (_each(_numbers(
        3, "[center, halfwidth, height]")), "bumps")}), "profile"),
    "obstacle": (_section(ObstacleSpec, _OBSTACLE), "obstacle"),
    "receivers": (_section(ReceiverLine, {"b": (_number, "b"),
                                          "a": (_number, "a"),
                                          "count": (_integer, "count")}),
                  "receivers"),
    "mesh": {"cell_size": (_number, "cell_size"),
             "subsample": (_integer, "subsample")},
    "quadrature": {"tol": (_number, "quad_tol")},
    "sources": (_each(_section(SourceSpec, {
        "kind": (_string, "kind"), "position": (_point, "position"),
        "direction": (_integer, "direction")})), "sources"),
    "experiment": (functools.partial(_fields, _EXPERIMENT,
                                     BlowupSequenceConfig), "experiment"),
    "arc_radius_R": (_number, "arc_radius_R"),
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated configuration document."""

    scene: SceneConfig
    sources: tuple = ()
    experiment: Optional[BlowupSequenceConfig] = None


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig (strict schema).

    The experiment's z* is the point of the interface graph over
    experiment.z_star_x1."""
    fields = _fields(_CONFIG, SceneConfig, doc, "")
    fields.pop("arc_radius_R", None)
    if fields.pop("subsample", SUBSAMPLE) != SUBSAMPLE:
        raise ConfigurationError(f"mesh.subsample must be {SUBSAMPLE}")
    run = {key: fields.pop(key) for key in ("sources", "experiment")
           if key in fields}
    scene = SceneConfig(**fields)
    if "experiment" in run:
        x1 = run["experiment"].pop("z_star")
        run["experiment"] = BlowupSequenceConfig(
            z_star=(x1, float(scene.profile(x1))), **run["experiment"])
    return RunConfig(scene=scene, **run)


def _reject_constant(name: str):
    raise ConfigurationError(f"non-finite number {name} in config")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON: {exc}") from exc
    return parse_config(doc)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------
def _fmt15(x: float) -> str:
    return "%.15g" % x


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
def cmd_green(args) -> int:
    config = load_config(args.config)
    green = PlanarGreen(config.scene.medium, config.scene.quad_tol)
    kind, _, ell = args.kind.partition("-")    # "dipole-2": dipole, ell 2
    point = ((args.x[0], args.x[1]), (args.xs[0], args.xs[1]), kind,
             int(ell or 0))
    scattered, total = green.scattered(*point), green.total(*point)
    print("scattered %s %s" % (_fmt15(scattered.real), _fmt15(scattered.imag)))
    print("total %s %s" % (_fmt15(total.real), _fmt15(total.imag)))
    return EXIT_OK


def cmd_forward(args) -> int:
    config = load_config(args.config)
    if not config.sources:
        raise ConfigurationError("forward needs at least one source")
    if config.scene.receivers is None:
        raise ConfigurationError("forward needs a receivers section")
    records = synthesize_dataset(config.scene, list(config.sources),
                                 threads=args.threads)
    rows = ((str(r.source_index),
             repr(r.source_position[0]), repr(r.source_position[1]),
             repr(r.receiver[0]), repr(r.receiver[1]),
             repr(r.value.real), repr(r.value.imag))
            for r in records)
    _write_csv(args.output, "source_index,xs1,xs2,x1,x2,re_us,im_us", rows)
    print("wrote %d rows to %s" % (len(records), args.output))
    return EXIT_OK


def cmd_demo_uniqueness(args) -> int:
    config = load_config(args.config)
    if config.experiment is None:
        raise ConfigurationError("demo-uniqueness needs an experiment section")
    report = blowup_experiment(config.scene, config.experiment)
    rows = [(str(n), repr(val)) for n, val in report["rows"]]
    footer = json.dumps({"exponent": report["exponent"],
                         "ratio": report["ratio"],
                         "mesh_cells": report["mesh_cells"]},
                        sort_keys=True)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,N_n\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
        fh.write("# " + footer + "\n")
    print("wrote %d rows to %s" % (len(rows), args.output))
    return EXIT_OK


def _verify_checks(config: RunConfig, flip_beta: bool):
    """The self-check list: (name, value, tolerance) triples.

    The configured scene's solver is built first, so its rule check runs
    (AccuracyError, exit code 3, on a rule that misses its tolerance)."""
    solver = ForwardSolver(config.scene)
    medium = config.scene.medium
    k1, k2 = medium.kappa1, medium.kappa2
    rng = np.random.default_rng(7)
    checks = []

    xi = rng.uniform(-3.0 * max(k1, k2), 3.0 * max(k1, k2), 1000)
    b = beta(xi, k1)
    if flip_beta:
        b = np.conj(b)   # negative control: wrong branch
    checks.append(("beta_identity",
                   float(np.max(np.abs(b * b - (k1 * k1 - xi * xi)))), 1e-13))
    checks.append(("beta_branch",
                   float(np.max(np.maximum(-b.real, -b.imag))), 0.0))

    degenerate = MediumParams(1.5, 1.5)
    gd = PlanarGreen(degenerate, 1e-10)
    checks.append(("trivial_contrast_collapse",
                   abs(gd.scattered((0.4, 0.9), (-0.3, 1.2))), 1e-7))

    green = PlanarGreen(medium, 1e-10)
    x, xs = (0.3, 0.7), (-0.2, 1.1)
    gs = green.scattered(x, xs)
    checks.append(("planar_reciprocity",
                   abs(gs - green.scattered(xs, x)) / abs(gs), 1e-6))

    h = 1e-4
    for ell, e in ((1, (h, 0.0)), (2, (0.0, h))):
        fd = -(green.scattered(x, (xs[0] + e[0], xs[1] + e[1]))
               - green.scattered(x, (xs[0] - e[0], xs[1] - e[1]))) / (2.0 * h)
        us = green.scattered(x, xs, "dipole", ell)
        checks.append(("dipole_consistency_ell%d" % ell,
                       abs(us - fd) / max(abs(us), 1e-300), 1e-5))

    eps = 1e-4
    above = green.total((0.5, eps), xs)
    below = green.total((0.5, -eps), xs)
    checks.append(("interface_continuity",
                   abs(above - below) / abs(above), 1e-2))

    from .verify import mie_series_circle, stencil_convergence_ratio
    from .specfun import phi_matrix
    src = (2.0, 0.0)
    a = 0.5
    trace = abs(complex(phi_matrix(2.0, src[0] - a))
                + mie_series_circle("sound_soft", a, 2.0, src, (a, 0.0)))
    checks.append(("mie_boundary_trace", trace, 1e-10))

    ratio = stencil_convergence_ratio(
        lambda p: green.total(p, xs), (0.4, 2.0), 1e-2, k1)
    checks.append(("stencil_order_ratio", abs(ratio - 4.0), 1.0))

    # the discrete rough-interface kernel is symmetric up to rounding
    top = max(0.0, config.scene.profile.max_height())
    x, y = np.array([[0.43, top + 1.07]]), np.array([[-0.81, top + 0.63]])
    g = green_rough_columns(x, solver.b2, medium, y)[0, 0]
    checks.append(("rough_reciprocity", float(
        abs(g - green_rough_columns(y, solver.b2, medium, x)[0, 0]) / abs(g)),
        1e-10))
    return checks


def cmd_verify(args) -> int:
    config = load_config(args.config)
    checks = _verify_checks(config, args.debug_flip_beta)
    report = []
    ok = True
    for name, value, tol in checks:
        passed = value <= tol
        ok = ok and passed
        report.append({"check": name, "value": value, "tolerance": tol,
                       "pass": passed})
    print(json.dumps({"checks": report, "pass": ok}, sort_keys=True,
                     indent=2))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layered-scatter",
        description="Forward scattering in a two-layer medium with a "
                    "locally rough interface and an optional obstacle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("green", help="evaluate the flat-interface kernels")
    p.add_argument("config")
    p.add_argument("--x", type=_finite_float, nargs=2, required=True,
                   metavar=("X1", "X2"))
    p.add_argument("--xs", type=_finite_float, nargs=2, required=True,
                   metavar=("XS1", "XS2"))
    p.add_argument("--kind", default="monopole",
                   choices=["monopole", "dipole-1", "dipole-2"])
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("forward", help="synthesize the near-field dataset")
    p.add_argument("config")
    p.add_argument("--output", default="nearfield.csv")
    p.add_argument("--threads", type=int, default=1,
                   help="dataset worker processes, forked and sharing the "
                        "solver copy-on-write; rows are byte-identical for "
                        "any count (default: 1)")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("demo-uniqueness",
                       help="run the singular-source blow-up experiment")
    p.add_argument("config")
    p.add_argument("--output", default="blowup.csv")
    p.set_defaults(func=cmd_demo_uniqueness)

    p = sub.add_parser("verify", help="run the self-check suite")
    p.add_argument("config")
    p.add_argument("--debug-flip-beta", action="store_true",
                   help="corrupt the vertical-wavenumber branch "
                        "(negative control; must fail)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, GeometryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AccuracyError, SingularityError, SolverError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
