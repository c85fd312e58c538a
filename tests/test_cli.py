"""Command-line interface: strict config schema, exit codes and
bit-stable outputs.  main() is driven in-process for speed."""

import dataclasses
import functools
import inspect
import itertools
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from layered_scatter import (
    ForwardSolver,
    MediumParams,
    PlanarGreen,
    SourceSpec,
    green_rough_columns,
)
from layered_scatter.cli import (
    _CONFIG,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    load_config,
    main,
    parse_config,
)
from layered_scatter.errors import ConfigurationError

ROOT = Path(__file__).resolve().parents[1]
BASE = {
    "medium": {"kappa1": 1.0, "kappa2": 1.5},
    "interface": {"bumps": [[0.0, 1.0, 0.3]]},
    "mesh": {"cell_size": 0.25, "subsample": 4},
    "sources": [{"kind": "monopole", "position": [0.3, 1.2]}],
    "receivers": {"b": 2.0, "a": 3.0, "count": 3},
}


@pytest.fixture()
def config_path(tmp_path):
    def write(doc):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        return str(p)
    return write


# ---------------------------------------------------------------------------
# Strict schema
# ---------------------------------------------------------------------------
def test_parse_valid_config():
    cfg = parse_config(dict(BASE))
    assert cfg.scene.medium.kappa2 == 1.5
    assert len(cfg.sources) == 1
    assert cfg.experiment is None
    # arc_radius_R is accepted, as a finite number with no effect, and
    # mesh.subsample as the one sub-grid size the meshes use
    assert parse_config(dict(BASE, arc_radius_R=2.6)).scene == cfg.scene
    assert parse_config(dict(BASE, mesh={"cell_size": 0.25})).scene \
        == cfg.scene
    with pytest.raises(ConfigurationError):
        parse_config(dict(BASE, arc_radius_R="2.6"))


def _inner_table(convert):
    """The key table a converter reads and the mark of its path: "" for a
    section (_section, or _fields on a table), "[i]" before a list of
    sections (_each); None for a value."""
    if isinstance(convert, functools.partial):
        return convert.args[0], ""
    free = inspect.getclosurevars(convert).nonlocals
    if "table" in free:
        return free["table"], ""
    if convert.__name__ == "each":
        inner, mark = _inner_table(free["convert"])
        return inner, "[i]" + mark
    return None, ""


def _accepted_keys(table, prefix=""):
    """The dotted path of every key the parser accepts."""
    for key, entry in table.items():
        inner, mark = (entry, "") if isinstance(entry, dict) \
            else _inner_table(entry[0])
        if inner is None:
            yield prefix + key
        else:
            yield from _accepted_keys(inner, prefix + key + mark + ".")


def _readme_keys():
    """The keys of the README's configuration table; a name that starts
    with a dot continues the first name of its row."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = text.split("| key | field | default | admissible |\n")[1]
    keys = set()
    for row in rows.splitlines()[1:]:
        if not row.startswith("|"):
            break
        names = re.findall(r"`([^`]+)`", row.split("|")[1])
        keys.update(names[0].rsplit(".", 1)[0] + name
                    if name.startswith(".") else name for name in names)
    return keys


def test_readme_configuration_table_lists_every_accepted_key():
    accepted = set(_accepted_keys(_CONFIG))
    assert {"obstacle.curve.center", "sources[i].direction",
            "experiment.min_cell", "mesh.subsample"} <= accepted
    assert _readme_keys() == accepted


def test_unknown_top_level_key_rejected():
    doc = dict(BASE)
    doc["surprise"] = 1
    with pytest.raises(ConfigurationError):
        parse_config(doc)


def test_unknown_nested_key_rejected():
    doc = dict(BASE)
    doc["medium"] = {"kappa1": 1.0, "kappa2": 1.5, "kappa3": 2.0}
    with pytest.raises(ConfigurationError):
        parse_config(doc)


def test_missing_medium_rejected():
    with pytest.raises(ConfigurationError):
        parse_config({"sources": []})


def test_wrong_types_rejected():
    doc = dict(BASE)
    doc["medium"] = {"kappa1": "one", "kappa2": 1.5}
    with pytest.raises(ConfigurationError):
        parse_config(doc)
    doc = dict(BASE)
    doc["sources"] = [{"kind": "monopole", "position": [0.0]}]
    with pytest.raises(ConfigurationError):
        parse_config(doc)


def test_obstacle_section_parsed():
    doc = dict(BASE)
    doc["obstacle"] = {"kind": "penetrable", "n": [1.5, 0.1],
                       "curve": {"kind": "circle", "center": [0.0, -1.3],
                                 "radius": 0.5}}
    cfg = parse_config(doc)
    assert cfg.scene.obstacle.condition == "penetrable"
    assert cfg.scene.obstacle.n == 1.5 + 0.1j


def test_experiment_z_star_snaps_to_graph():
    doc = dict(BASE)
    doc["experiment"] = {"z_star_x1": 0.0, "delta0": 0.1, "eps0": 0.4,
                         "n_max": 8}
    cfg = parse_config(doc)
    assert cfg.experiment.z_star == (0.0, pytest.approx(0.3))


def test_load_config_io_errors(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_config(str(bad))


@pytest.mark.parametrize("text", [
    '{"medium": {"kappa1": NaN, "kappa2": 1.5}}',
    '{"medium": {"kappa1": Infinity, "kappa2": 1.5}}',
    '{"medium": {"kappa1": 1e400, "kappa2": 1.5}}',
    '{"medium": {"kappa1": 1.0, "kappa2": 1.5},'
    ' "sources": [{"kind": "monopole", "position": [-Infinity, 1.2]}]}',
    '{"medium": {"kappa1": 1.0, "kappa2": 1.5},'
    ' "sources": [{"kind": "monopole", "position": [0.3, 1.2],'
    ' "direction": 1}]}',
    '{"medium": {"kappa1": 1.0, "kappa2": 1.5},'
    ' "sources": [{"kind": "dipole", "position": [0.3, 1.2],'
    ' "direction": true}]}',
])
def test_non_finite_and_invalid_numbers_exit_2(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_config(str(path))
    rc = main(["green", str(path), "--x", "0.4", "0.8", "--xs", "0.3", "1.2"])
    assert rc == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_non_finite_point_argument_exits_2(config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["green", config_path(BASE), "--x", "nan", "0.8",
              "--xs", "0.3", "1.2"])
    assert exc.value.code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# Subcommands and exit codes
# ---------------------------------------------------------------------------
def test_green_subcommand(config_path, capsys):
    path = config_path(BASE)
    green = PlanarGreen(MediumParams(1.0, 1.5), 1e-8)
    kinds = (("monopole", 0), ("dipole", 1), ("dipole", 2))
    # a same-side and a cross-side point, for every kind
    for x, (kind, ell) in itertools.product([(0.4, 0.8), (0.4, -0.8)],
                                            kinds):
        argv = ["green", path, "--x", repr(x[0]), repr(x[1]),
                "--xs", "0.3", "1.2",
                "--kind", kind if kind == "monopole" else "dipole-%d" % ell]
        rc = main(argv)
        assert rc == EXIT_OK
        out = capsys.readouterr().out.strip().splitlines()
        # the printed digits are those of the point calls
        want = [green.scattered(x, (0.3, 1.2), kind, ell),
                green.total(x, (0.3, 1.2), kind, ell)]
        assert out == ["%s %.15g %.15g" % (name, v.real, v.imag)
                       for name, v in zip(("scattered", "total"), want)]
        # bit-stable: a second run prints the same bytes
        main(argv)
        assert capsys.readouterr().out.strip().splitlines() == out


def test_green_config_error_exit(config_path, capsys):
    doc = dict(BASE)
    doc["medium"] = {"kappa1": -1.0, "kappa2": 1.5}
    rc = main(["green", config_path(doc),
               "--x", "0.4", "0.8", "--xs", "0.3", "1.2"])
    assert rc == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def _every_subcommand(path, out):
    """The argv of each subcommand on the configuration at path."""
    return (["green", path, "--x", "0.4", "0.8", "--xs", "0.3", "1.2"],
            ["forward", path, "--output", out], ["verify", path],
            ["demo-uniqueness", path, "--output", out])


# valid sections that BASE lacks, for the settings checked inside them
_SECTIONS = {
    "experiment": {"z_star_x1": 0.2, "delta0": 0.1, "eps0": 0.4, "n_max": 8},
    "obstacle": {"kind": "penetrable", "n": 1.2,
                 "curve": {"kind": "circle", "center": [0.0, -1.5],
                           "radius": 0.3}},
}


@pytest.mark.parametrize("section,key,value", [
    ("quadrature", "tol", 0), ("quadrature", "tol", -1e-8),
    ("quadrature", "tol", 1e-15), ("quadrature", "tol", 1.0),
    ("mesh", "subsample", 0), ("mesh", "subsample", 5),
    ("mesh", "subsample", 65),
    ("mesh", "cell_size", 0),
    ("mesh", "cell_size", -0.1), ("experiment", "min_cell", 0),
    ("experiment", "min_cell", -1), ("experiment", "min_cell", 1e-300),
    # at 2 eps0 and above the graded mesh of D' has no cell
    ("experiment", "min_cell", 1e6), ("experiment", "min_cell", 1e300),
    ("experiment", "delta0", 1e-200),
    ("obstacle", "boundary_M", 3), ("obstacle", "boundary_M", 0),
    ("obstacle", "cell_size", 0), ("obstacle", "cell_size", -0.05),
    # JSON booleans are not integers, though Python's bool is an int
    ("receivers", "count", True), ("mesh", "subsample", True),
    ("obstacle", "boundary_M", True), ("experiment", "n_max", True)])
def test_out_of_range_setting_exits_2_in_every_subcommand(
        config_path, tmp_path, capsys, section, key, value):
    doc = dict(BASE)
    doc[section] = dict(doc.get(section, _SECTIONS.get(section, {})),
                        **{key: value})
    path = config_path(doc)
    out = str(tmp_path / "out.csv")
    for argv in _every_subcommand(path, out):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert f"{section}.{key}" in err


@pytest.mark.parametrize("kind", ["penetrable", "sound_soft"])
@pytest.mark.parametrize("n", [[-1, 0], [0, 0], [1.5, -0.1]],
                         ids=["negative", "zero", "gain"])
def test_invalid_index_exits_2_in_every_subcommand(config_path, tmp_path,
                                                   capsys, kind, n):
    # the index is checked whatever the condition, so every subcommand
    # rejects it, not only those that build the obstacle
    doc = dict(BASE, experiment=_SECTIONS["experiment"],
               obstacle=dict(_SECTIONS["obstacle"], kind=kind, n=n))
    path = config_path(doc)
    out = str(tmp_path / "out.csv")
    for argv in _every_subcommand(path, out):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert "obstacle.n" in err


@pytest.mark.parametrize("kind", ["penetrable", "sound_soft"])
def test_obstacle_above_the_flat_line_exits_2_in_every_subcommand(
        config_path, tmp_path, capsys, kind):
    # under the bump (top 0.5) the disk reaches x2 = 0.25, among the cells
    # of D_f; the check is the scene's, so every subcommand makes it
    doc = dict(BASE, interface={"bumps": [[0.0, 1.0, 0.5]]},
               experiment=_SECTIONS["experiment"],
               obstacle=dict(_SECTIONS["obstacle"], kind=kind,
                             curve={"kind": "circle", "center": [0.0, 0.05],
                                    "radius": 0.2}))
    with pytest.raises(ConfigurationError, match="x2 = 0"):
        parse_config(doc)
    path = config_path(doc)
    out = str(tmp_path / "out.csv")
    for argv in _every_subcommand(path, out):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "x2 = 0" in err and "Traceback" not in err


# a document that sets every key, each to an admissible value
_FULL = dict(
    BASE, arc_radius_R=2.6, quadrature={"tol": 1e-8},
    sources=[{"kind": "dipole", "position": [0.3, 1.2], "direction": 1}],
    experiment=dict(_SECTIONS["experiment"], min_cell=0.01),
    obstacle={"kind": "impedance", "lambda": 1.0, "n": 1.2, "boundary_M": 8,
              "cell_size": 0.1,
              "curve": {"kind": "circle", "center": [0.0, -1.5],
                        "radius": 0.3, "scale": 1.0}})


def _fields_of(doc, path=()):
    """The path of every value in doc, sections and list entries
    included."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _fields_of(value, path + (key,))
    if path:
        yield path


# accuracy warnings (a blow-up source near the finest cells) are expected
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("path", list(_fields_of(_FULL)),
                         ids=lambda p: ".".join(map(str, p)))
def test_every_field_ends_typed_in_bounded_time(tmp_path, capsys, path):
    # zero, negative, tiny, huge (a float and an integer), an integer past
    # the float range and the wrong type, in every subcommand: an exit code of 0, 2 or 3, never a
    # traceback; a document that parse_config rejects exits 2 everywhere
    file = tmp_path / "config.json"
    out = str(tmp_path / "out.csv")
    for value in (0, -1, 1e-300, 1e300, 10 ** 18, 10 ** 400, "x"):
        doc = json.loads(json.dumps(_FULL))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        try:
            parse_config(json.loads(json.dumps(doc)))
            codes = (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
        except ConfigurationError:
            codes = (EXIT_CONFIG,)
        file.write_text(json.dumps(doc), encoding="utf-8")
        for argv in _every_subcommand(str(file), out):
            t0 = time.perf_counter()
            try:
                rc = main(argv)
            except Exception as exc:
                pytest.fail(f"{argv[0]} with {value!r} raised {exc!r}")
            assert rc in codes, (argv[0], value, rc)
            assert time.perf_counter() - t0 < 5.0, (argv[0], value)
            assert "Traceback" not in capsys.readouterr().err


def test_solver_section_is_an_unknown_key(config_path, capsys):
    # nothing reads a solver section, so it is not accepted, empty or not
    with pytest.raises(ConfigurationError, match="unknown key 'solver'"):
        parse_config(dict(BASE, solver={}))
    rc = main(["green", config_path(dict(BASE, solver={})),
               "--x", "0.4", "0.8", "--xs", "0.3", "1.2"])
    assert rc == EXIT_CONFIG
    assert "unknown key 'solver'" in capsys.readouterr().err


def test_threads_is_an_option_of_forward_only(config_path, tmp_path,
                                              capsys):
    # only forward runs worker processes; the others reject --threads
    path = config_path(dict(BASE, experiment=_SECTIONS["experiment"]))
    out = str(tmp_path / "out.csv")
    for argv in (["green", path, "--x", "0.4", "0.8", "--xs", "0.3", "1.2"],
                 ["verify", path],
                 ["demo-uniqueness", path, "--output", out]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--threads", "2"])
        assert exc.value.code == EXIT_CONFIG
        assert "--threads" in capsys.readouterr().err
    assert main(["forward", path, "--output", out, "--threads", "2"]) \
        == EXIT_OK


def test_blowup_work_past_its_budget_exits_2_in_seconds(tmp_path, capsys):
    # n_max 2000000 on the shipped default passes every other check; at
    # about 2e-7 s per source and cell it would run for minutes
    with open(ROOT / "configs" / "default.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["experiment"]["n_max"] = 2000000
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "blowup.csv"
    t0 = time.perf_counter()
    rc = main(["demo-uniqueness", str(path), "--output", str(out)])
    assert time.perf_counter() - t0 < 10.0
    assert rc == EXIT_CONFIG and not out.exists()
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert "experiment.n_max" in err


@pytest.mark.parametrize("bump", [[1e300, 1.0, 0.3], [0.0, 1e300, 0.3]],
                         ids=["center", "halfwidth"])
def test_huge_interface_support_exits_2(config_path, tmp_path, capsys, bump):
    # the size guard counts the cells of the lattice without building it
    path = config_path(dict(BASE, interface={"bumps": [bump]}))
    out = str(tmp_path / "out.csv")
    for argv in (["forward", path, "--output", out], ["verify", path]):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err


def test_underflowing_wavenumber_exits_3(config_path, tmp_path, capsys):
    # kappa1^2 underflows, so a vertical wavenumber vanishes at a rule node
    # and the folded weight there is infinite
    path = config_path(dict(BASE, medium={"kappa1": 1e-300, "kappa2": 1.5}))
    out = str(tmp_path / "out.csv")
    for argv in (["green", path, "--x", "0.4", "0.8", "--xs", "0.3", "1.2"],
                 ["forward", path, "--output", out], ["verify", path]):
        assert main(argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure" in err and "Traceback" not in err


def test_forward_subcommand_writes_csv(config_path, tmp_path, capsys):
    out = str(tmp_path / "nf.csv")
    rc = main(["forward", config_path(BASE), "--output", out])
    assert rc == EXIT_OK
    lines = open(out, encoding="utf-8").read().splitlines()
    assert lines[0] == "source_index,xs1,xs2,x1,x2,re_us,im_us"
    assert len(lines) == 1 + 3   # header + 1 source x 3 receivers
    # values round-trip exactly through repr
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "0"
        complex(float(fields[5]), float(fields[6]))


def test_forward_deterministic_across_threads(config_path, tmp_path, capsys):
    path = config_path(BASE)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["forward", path, "--output", a, "--threads", "1"]) == EXIT_OK
    assert main(["forward", path, "--output", b, "--threads", "4"]) == EXIT_OK
    assert open(a, "rb").read() == open(b, "rb").read()


def test_forward_source_under_the_bump_exits_2(config_path, capsys):
    doc = dict(BASE)
    doc["sources"] = [{"kind": "monopole", "position": [0.0, 0.1]}]
    rc = main(["forward", config_path(doc), "--output", "/dev/null"])
    assert rc == EXIT_CONFIG
    assert "interface graph" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["sound_soft", "neumann", "impedance"])
@pytest.mark.parametrize("source", [
    {"kind": "monopole", "position": [0.0, -1.3]},
    {"kind": "dipole", "position": [0.5, -1.3], "direction": 1},
    {"kind": "monopole",
     "position": [0.5 * np.cos(0.05), -1.3 + 0.5 * np.sin(0.05)]}],
    ids=["inside", "on-a-node", "on-the-boundary"])
def test_forward_source_inside_or_on_the_obstacle_exits_2(
        config_path, capsys, kind, source):
    doc = dict(BASE)
    doc["obstacle"] = {
        "kind": kind,
        "curve": {"kind": "circle", "center": [0.0, -1.3], "radius": 0.5},
        "boundary_M": 16}
    if kind == "impedance":
        doc["obstacle"]["lambda"] = 1.0
    doc["sources"] = [source]
    rc = main(["forward", config_path(doc), "--output", "/dev/null"])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "inside or on the obstacle" in err and "Traceback" not in err


def test_forward_inaccurate_rule_exits_3(config_path, capsys, monkeypatch):
    import layered_scatter.layered_green as layered_green
    orig = layered_green.fixed_rule

    def truncated(*args, **kwargs):
        bps, tail_end, panels = orig(*args, **kwargs)
        return bps, 0.5 * tail_end, panels

    monkeypatch.setattr(layered_green, "fixed_rule", truncated)
    rc = main(["forward", config_path(BASE), "--output", "/dev/null"])
    assert rc == EXIT_NUMERICAL


def test_verify_inaccurate_rule_exits_3(config_path, capsys, monkeypatch):
    # verify builds the configured scene's solver, whose rule check fails
    import layered_scatter.layered_green as layered_green
    orig = layered_green.fixed_rule

    def truncated(*args, **kwargs):
        bps, tail_end, panels = orig(*args, **kwargs)
        return bps, 0.5 * tail_end, panels

    monkeypatch.setattr(layered_green, "fixed_rule", truncated)
    rc = main(["verify", config_path(BASE)])
    assert rc == EXIT_NUMERICAL
    assert "fixed xi-rule" in capsys.readouterr().err


def test_forward_requires_sources(config_path, capsys):
    doc = dict(BASE)
    doc["sources"] = []
    rc = main(["forward", config_path(doc), "--output", "/dev/null"])
    assert rc == EXIT_CONFIG


def test_demo_uniqueness_subcommand(config_path, tmp_path, capsys):
    doc = dict(BASE)
    doc["experiment"] = {"z_star_x1": 0.2, "delta0": 0.1, "eps0": 0.4,
                         "n_max": 8}
    out = str(tmp_path / "blowup.csv")
    rc = main(["demo-uniqueness", config_path(doc), "--output", out])
    assert rc == EXIT_OK
    lines = open(out, encoding="utf-8").read().splitlines()
    assert lines[0] == "n,N_n"
    assert len(lines) == 1 + 8 + 1
    footer = json.loads(lines[-1].lstrip("# "))
    assert set(footer) == {"exponent", "mesh_cells", "ratio"}
    ns = [int(l.split(",")[0]) for l in lines[1:-1]]
    assert ns == list(range(1, 9))


def test_demo_uniqueness_needs_experiment(config_path, capsys):
    rc = main(["demo-uniqueness", config_path(BASE), "--output", "/dev/null"])
    assert rc == EXIT_CONFIG


def test_verify_passes(config_path, capsys):
    rc = main(["verify", config_path(BASE)])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert all(c["pass"] for c in report["checks"])
    assert "rough_reciprocity" in [c["check"] for c in report["checks"]]


def test_verify_passes_on_a_penetrable_disk_under_a_bump_and_dip(
        config_path, capsys):
    doc = dict(BASE, interface={"bumps": [[-0.9, 0.7, 0.3],
                                          [0.9, 0.7, -0.3]]},
               obstacle={"kind": "penetrable", "n": [2.0, 0.3],
                         "cell_size": 0.1,
                         "curve": {"kind": "circle", "center": [0.0, -1.5],
                                   "radius": 0.5}})
    path = config_path(doc)
    assert main(["verify", path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert "rough_reciprocity" in [c["check"] for c in report["checks"]]
    # the kernel that rough_reciprocity checks is that of the scene with
    # the disk: the field of a monopole, which the disk changes by 9 %
    scene = load_config(path).scene
    solver = ForwardSolver(scene)
    x, y = np.array([[0.43, 1.37]]), np.array([[-0.81, 0.93]])
    g = green_rough_columns(x, solver.b2, scene.medium, y)[0, 0]
    field = solver.solve(SourceSpec("monopole", tuple(y[0]))).total(x[0])
    assert abs(g - field) <= 1e-12 * abs(field)
    bare = ForwardSolver(dataclasses.replace(scene, obstacle=None))
    g0 = green_rough_columns(x, bare.b2, scene.medium, y)[0, 0]
    assert abs(g - g0) > 1e-2 * abs(g)


def test_verify_flip_beta_negative_control(config_path, capsys):
    rc = main(["verify", config_path(BASE), "--debug-flip-beta"])
    assert rc == EXIT_CHECK_FAILED
    report = json.loads(capsys.readouterr().out)
    failed = [c["check"] for c in report["checks"] if not c["pass"]]
    assert "beta_branch" in failed


def test_forward_too_few_cells_per_wavelength_exits_2(config_path, capsys):
    doc = dict(BASE)
    doc["medium"] = {"kappa1": 20.0, "kappa2": 30.0}
    doc["mesh"] = {"cell_size": 0.2, "subsample": 4}
    rc = main(["forward", config_path(doc), "--output", "/dev/null"])
    assert rc == EXIT_CONFIG
    assert "cells" in capsys.readouterr().err


def test_penetrable_cells_too_coarse_for_the_interior_wave_exit_2(
        config_path, capsys):
    # n = 4 shortens the wavelength inside the disk to 2 pi/(1.5 * 2) =
    # 2.09, which cells of 1.0 resolve with 2.1: the disk would get one
    # cell, and the largest receiver field would read 0.033 for 0.021
    doc = dict(BASE, obstacle={"kind": "penetrable", "n": 4.0,
                               "cell_size": 1.0,
                               "curve": {"kind": "circle",
                                         "center": [0.0, -1.3],
                                         "radius": 0.5}})
    path = config_path(doc)
    for argv in (["forward", path, "--output", "/dev/null"],
                 ["verify", path]):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "obstacle.cell_size 1 resolves" in err
        assert "Traceback" not in err


def test_bump_without_a_cell_exits_2(config_path, capsys):
    # a bump 0.02 high reaches no sub-grid point of a 0.2 cell (the lowest
    # lie at 0.025): solved, its field would be the flat scene's, 2 % off
    doc = dict(BASE, interface={"bumps": [[0.0, 1.0, 0.02]]},
               mesh={"cell_size": 0.2})
    path = config_path(doc)
    for argv in (["forward", path, "--output", "/dev/null"],
                 ["verify", path]):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "mesh.cell_size 0.2 gives no cell to the bump (0, 1, 0.02)" \
            in err
        assert "Traceback" not in err


def test_forward_dataset_past_physical_memory_exits_2(config_path, capsys,
                                                      monkeypatch):
    # the table of records, not the solver, is what outgrows memory here
    import layered_scatter.forward as forward
    monkeypatch.setattr(forward, "_physical_memory",
                        lambda: 3 * forward._RECORD_BYTES - 1)
    rc = main(["forward", config_path(BASE), "--output", "/dev/null"])
    assert rc == EXIT_CONFIG
    assert "dataset table (1 sources x 3 receivers)" \
        in capsys.readouterr().err


def test_forward_scene_too_large_for_memory_exits_2(config_path, capsys):
    doc = dict(BASE)
    doc["mesh"] = {"cell_size": 1e-4, "subsample": 4}
    rc = main(["forward", config_path(doc), "--output", "/dev/null"])
    assert rc == EXIT_CONFIG
    assert "physical memory" in capsys.readouterr().err


def test_forward_receiver_line_too_large_for_memory_exits_2(config_path,
                                                             capsys):
    # a flat scene builds no cell, so only the receivers count
    doc = dict(BASE, interface={"bumps": []},
               receivers={"b": 2.0, "a": 3.0, "count": 10 ** 12})
    t0 = time.perf_counter()
    rc = main(["forward", config_path(doc), "--output", "/dev/null"])
    assert rc == EXIT_CONFIG
    assert "physical memory" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 1.0
