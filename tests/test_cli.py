"""Command-line interface: strict config schema, exit codes and
bit-stable outputs.  main() is driven in-process for speed."""

import json

import numpy as np
import pytest

from layered_scatter.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    load_config,
    main,
    parse_config,
)
from layered_scatter.errors import ConfigurationError

BASE = {
    "medium": {"kappa1": 1.0, "kappa2": 1.5},
    "interface": {"bumps": [[0.0, 1.0, 0.3]]},
    "arc_radius_R": 2.6,
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
    assert cfg.scene.arc_radius == 2.6
    assert len(cfg.sources) == 1
    assert cfg.experiment is None


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
    rc = main(["green", path, "--x", "0.4", "0.8", "--xs", "0.3", "1.2"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("scattered ") and out[1].startswith("total ")
    # bit-stable: a second run prints the same bytes
    main(["green", path, "--x", "0.4", "0.8", "--xs", "0.3", "1.2"])
    assert capsys.readouterr().out.strip().splitlines() == out


def test_green_config_error_exit(config_path, capsys):
    doc = dict(BASE)
    doc["medium"] = {"kappa1": -1.0, "kappa2": 1.5}
    rc = main(["green", config_path(doc),
               "--x", "0.4", "0.8", "--xs", "0.3", "1.2"])
    assert rc == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


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


def test_forward_inaccurate_rule_exits_3(config_path, capsys, monkeypatch):
    import layered_scatter.layered_green as layered_green
    orig = layered_green.fixed_rule

    def truncated(*args, **kwargs):
        xi, w = orig(*args, **kwargs)
        keep = xi < 0.5 * xi.max()
        return xi[keep], w[keep]

    monkeypatch.setattr(layered_green, "fixed_rule", truncated)
    rc = main(["forward", config_path(BASE), "--output", "/dev/null"])
    assert rc == EXIT_NUMERICAL


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


def test_forward_scene_too_large_for_memory_exits_2(config_path, capsys):
    doc = dict(BASE)
    doc["mesh"] = {"cell_size": 1e-4, "subsample": 4}
    rc = main(["forward", config_path(doc), "--output", "/dev/null"])
    assert rc == EXIT_CONFIG
    assert "physical memory" in capsys.readouterr().err
