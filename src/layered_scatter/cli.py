"""Command-line interface: strict JSON configuration, subcommand dispatch,
and bit-stable CSV/JSON outputs.

Subcommands: green (point evaluation of the flat-interface kernels),
forward (near-field dataset synthesis), demo-uniqueness (the
singular-source blow-up experiment), verify (self-check suite).

Exit codes: 0 success, 1 check failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AccuracyError,
    ConfigurationError,
    GeometryError,
    SingularityError,
    SolverError,
)
from .geometry import InterfaceProfile, ObstacleCurve, ReceiverLine
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
def _require_keys(obj: dict, allowed: dict, context: str):
    """Reject unknown keys and type-check the known ones.  No field takes
    a boolean, which Python would otherwise pass as the integer 0 or 1."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{context} must be a JSON object")
    for key in obj:
        if key not in allowed:
            raise ConfigurationError(f"unknown key {key!r} in {context}")
    for key, value in obj.items():
        kinds = allowed[key]
        if kinds is not None and (isinstance(value, bool)
                                  or not isinstance(value, kinds)):
            raise ConfigurationError(
                f"{context}.{key} has the wrong type ({type(value).__name__})")


def _as_number(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{context} must be a number")
    if not math.isfinite(value):
        raise ConfigurationError(f"{context} must be finite")
    return float(value)


def _as_point(value, context: str):
    if (not isinstance(value, list)) or len(value) != 2:
        raise ConfigurationError(f"{context} must be a [x1, x2] pair")
    return (_as_number(value[0], context), _as_number(value[1], context))


def _parse_complex(value, context: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_as_number(value, context))
    if isinstance(value, list) and len(value) == 2:
        return complex(_as_number(value[0], context),
                       _as_number(value[1], context))
    raise ConfigurationError(f"{context} must be a number or [re, im] pair")


def _parse_sources(raw) -> list:
    if not isinstance(raw, list):
        raise ConfigurationError("sources must be a list")
    out = []
    for i, entry in enumerate(raw):
        ctx = f"sources[{i}]"
        _require_keys(entry, {"kind": str, "position": list,
                              "direction": int}, ctx)
        if "kind" not in entry or "position" not in entry:
            raise ConfigurationError(f"{ctx} needs kind and position")
        try:
            out.append(SourceSpec(kind=entry["kind"],
                                  position=_as_point(entry["position"],
                                                     f"{ctx}.position"),
                                  direction=entry.get("direction", 0)))
        except ValueError as exc:
            raise ConfigurationError(f"{ctx}: {exc}") from exc
    return out


def _parse_obstacle(raw) -> ObstacleSpec:
    _require_keys(raw, {"kind": str, "curve": dict, "lambda": (int, float),
                        "n": (int, float, list), "boundary_M": int,
                        "cell_size": (int, float)}, "obstacle")
    if "kind" not in raw or "curve" not in raw:
        raise ConfigurationError("obstacle needs kind and curve")
    curve_raw = raw["curve"]
    _require_keys(curve_raw, {"kind": str, "center": list,
                              "radius": (int, float), "scale": (int, float)},
                  "obstacle.curve")
    if "kind" not in curve_raw or "center" not in curve_raw:
        raise ConfigurationError("obstacle.curve needs kind and center")
    curve = ObstacleCurve(kind=curve_raw["kind"],
                          center=_as_point(curve_raw["center"],
                                           "obstacle.curve.center"),
                          radius=_as_number(curve_raw.get("radius", 1.0),
                                            "obstacle.curve.radius"),
                          scale=_as_number(curve_raw.get("scale", 1.0),
                                           "obstacle.curve.scale"))
    kwargs = {}
    if "lambda" in raw:
        kwargs["lam"] = _as_number(raw["lambda"], "obstacle.lambda")
    if "n" in raw:
        kwargs["n"] = _parse_complex(raw["n"], "obstacle.n")
    if "boundary_M" in raw:
        kwargs["boundary_M"] = raw["boundary_M"]
    if "cell_size" in raw:
        kwargs["cell_size"] = _as_number(raw["cell_size"],
                                         "obstacle.cell_size")
    return ObstacleSpec(curve=curve, condition=raw["kind"], **kwargs)


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration document."""

    scene: SceneConfig
    sources: tuple
    experiment: Optional[BlowupSequenceConfig]


# quadrature.tol: below 1e-12 the reference that judges the fixed rules
# (run at a hundredth of tol, but no finer than 1e-12) is coarser than the
# rule; above 1e-4 the tolerance is no longer small against the fields.
_TOL_RANGE = (1e-12, 1e-4)

# arc_radius_R sized an auxiliary arc that the solver no longer has; it is
# still accepted, as a finite number with no effect, because the benchmark
# scenes under perfbench/scenes carry it.
_TOP_LEVEL = {
    "medium": dict, "interface": dict, "arc_radius_R": (int, float),
    "obstacle": dict, "mesh": dict, "quadrature": dict,
    "sources": list, "receivers": dict, "experiment": dict,
}


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document into a RunConfig (strict schema)."""
    _require_keys(doc, _TOP_LEVEL, "config")
    if "medium" not in doc:
        raise ConfigurationError("config needs a medium section")
    med = doc["medium"]
    _require_keys(med, {"kappa1": (int, float), "kappa2": (int, float)},
                  "medium")
    if "kappa1" not in med or "kappa2" not in med:
        raise ConfigurationError("medium needs kappa1 and kappa2")
    try:
        medium = MediumParams(_as_number(med["kappa1"], "medium.kappa1"),
                              _as_number(med["kappa2"], "medium.kappa2"))
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc

    bumps = ()
    if "interface" in doc:
        _require_keys(doc["interface"], {"bumps": list}, "interface")
        raw = doc["interface"].get("bumps", [])
        parsed = []
        for i, b in enumerate(raw):
            if not isinstance(b, list) or len(b) != 3:
                raise ConfigurationError(
                    f"interface.bumps[{i}] must be [center, halfwidth, height]")
            parsed.append(tuple(_as_number(v, f"interface.bumps[{i}]")
                                for v in b))
        bumps = tuple(parsed)
    profile = InterfaceProfile(bumps)

    mesh = doc.get("mesh", {})
    _require_keys(mesh, {"cell_size": (int, float), "subsample": int}, "mesh")
    quad = doc.get("quadrature", {})
    _require_keys(quad, {"tol": (int, float)}, "quadrature")

    receivers = None
    if "receivers" in doc:
        r = doc["receivers"]
        _require_keys(r, {"b": (int, float), "a": (int, float), "count": int},
                      "receivers")
        if not all(k in r for k in ("b", "a", "count")):
            raise ConfigurationError("receivers needs b, a and count")
        receivers = ReceiverLine(b=_as_number(r["b"], "receivers.b"),
                                 a=_as_number(r["a"], "receivers.a"),
                                 count=r["count"])

    obstacle = _parse_obstacle(doc["obstacle"]) if "obstacle" in doc else None
    cell_size = _as_number(mesh.get("cell_size", 0.1), "mesh.cell_size")
    if not cell_size > 0.0:
        raise ConfigurationError("mesh.cell_size must be positive")
    subsample = mesh.get("subsample", 4)
    if subsample < 1:
        raise ConfigurationError("mesh.subsample must be at least 1")
    tol = _as_number(quad.get("tol", 1e-8), "quadrature.tol")
    if not _TOL_RANGE[0] <= tol <= _TOL_RANGE[1]:
        raise ConfigurationError("quadrature.tol must lie in [%g, %g]"
                                 % _TOL_RANGE)

    if "arc_radius_R" in doc:
        _as_number(doc["arc_radius_R"], "arc_radius_R")
    scene = SceneConfig(
        medium=medium, profile=profile, obstacle=obstacle,
        receivers=receivers, cell_size=cell_size, subsample=subsample,
        quad_tol=tol)
    scene.geometry()   # run all admissibility checks now

    experiment = None
    if "experiment" in doc:
        e = doc["experiment"]
        _require_keys(e, {"z_star_x1": (int, float), "delta0": (int, float),
                          "eps0": (int, float), "n_max": int,
                          "min_cell": (int, float)}, "experiment")
        if "z_star_x1" not in e:
            raise ConfigurationError("experiment needs z_star_x1")
        x1 = _as_number(e["z_star_x1"], "experiment.z_star_x1")
        kwargs = {}
        if "min_cell" in e:
            kwargs["min_cell"] = _as_number(e["min_cell"],
                                            "experiment.min_cell")
        experiment = BlowupSequenceConfig(
            z_star=(x1, float(profile(x1))),
            delta0=_as_number(e.get("delta0", 0.1), "experiment.delta0"),
            eps0=_as_number(e.get("eps0", 0.5), "experiment.eps0"),
            n_max=e.get("n_max", 64), **kwargs)

    return RunConfig(scene=scene, sources=tuple(_parse_sources(
        doc.get("sources", []))), experiment=experiment)


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
    x = (args.x[0], args.x[1])
    xs = (args.xs[0], args.xs[1])
    if args.kind == "monopole":
        scattered = green.scattered(x, xs)
        total = green.total(x, xs)
    else:
        ell = int(args.kind.split("-")[1])
        scattered = green.dipole_scattered(x, xs, ell)
        total = green.dipole_total(x, xs, ell)
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
    rows = [(str(r.source_index),
             repr(r.source_position[0]), repr(r.source_position[1]),
             repr(r.receiver[0]), repr(r.receiver[1]),
             repr(r.value.real), repr(r.value.imag))
            for r in records]
    _write_csv(args.output, "source_index,xs1,xs2,x1,x2,re_us,im_us", rows)
    print("wrote %d rows to %s" % (len(rows), args.output))
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
        us = green.dipole_scattered(x, xs, ell)
        checks.append(("dipole_consistency_ell%d" % ell,
                       abs(us - fd) / max(abs(us), 1e-300), 1e-5))

    eps = 1e-4
    above = green.total((0.5, eps), xs)
    below = green.total((0.5, -eps), xs)
    checks.append(("interface_continuity",
                   abs(above - below) / abs(above), 1e-2))

    from .verify import mie_series_circle, stencil_convergence_ratio
    from .specfun import fundamental_solution
    src = (2.0, 0.0)
    a = 0.5
    trace = abs(fundamental_solution(2.0, (a, 0.0), src)
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
    p.add_argument("--threads", type=int, default=None,
                   help="dataset worker processes, forked and sharing the "
                        "solver copy-on-write; rows are byte-identical for "
                        "any count (default: LAYERED_SCATTER_THREADS or 1)")
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
