"""Tests for the JSON config front end and its CSV artifacts."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gossipfield
from gossipfield import cli
from gossipfield.cli import (ConfigError, RunConfig, dispatch, main,
                             parse_config, serialize)
from gossipfield.kernels import (BoundedConfidence, Bump, Constant, Law,
                                 WeightLaw)
from gossipfield.measures import AtomicMeasure

MINIMAL = {
    "kernel": {"alpha": 1.0, "internal": {"type": "constant", "omega": 0.5}},
    "initial": {"type": "uniform", "a": 0.0, "b": 1.0},
}

ENV_STYLE = {
    "kernel": {"alpha": 0.5,
               "internal": {"type": "constant", "omega": 0.5},
               "external": {"type": "constant", "omega": 0.5},
               "environment": {"type": "bump"}},
    "initial": {"type": "uniform", "a": 0.0, "b": 10.0},
}


def cfg_of(d):
    return parse_config(json.dumps(d).encode())


# ---------------------------------------------------------------------------
# parsing and validation


def test_minimal_config_defaults():
    cfg = cfg_of(MINIMAL)
    assert cfg.seed == 0
    assert cfg.data["simulate"]["n"] == 1000
    assert cfg.data["simulate"]["horizon"] == 10.0
    assert cfg.data["meanfield"]["dt"] == 0.01
    assert cfg.data["meanfield"]["m"] == 1000
    assert cfg.data["moments"]["K"] == 8


def test_alpha_out_of_range_names_field():
    bad = json.loads(json.dumps(MINIMAL))
    bad["kernel"]["alpha"] = 1.5
    with pytest.raises(ConfigError) as err:
        cfg_of(bad)
    assert any("alpha" in v for v in err.value.violations)


def test_environment_required_when_alpha_below_one():
    bad = json.loads(json.dumps(MINIMAL))
    bad["kernel"]["alpha"] = 0.5
    with pytest.raises(ConfigError) as err:
        cfg_of(bad)
    assert any("environment required" in v for v in err.value.violations)


def test_all_violations_collected():
    bad = {"kernel": {"alpha": 2.0,
                      "internal": {"type": "constant", "omega": -1.0}},
           "initial": {"type": "uniform", "a": 1.0, "b": 0.0},
           "simulate": {"n": 1}}
    with pytest.raises(ConfigError) as err:
        cfg_of(bad)
    assert len(err.value.violations) >= 4


def test_unknown_keys_rejected():
    bad = json.loads(json.dumps(MINIMAL))
    bad["extra_section"] = {}
    bad["simulate"] = {"n": 100, "bogus": 1}
    with pytest.raises(ConfigError) as err:
        cfg_of(bad)
    text = "; ".join(err.value.violations)
    assert "extra_section" in text and "bogus" in text


def test_malformed_json_reports_byte_offset():
    with pytest.raises(ConfigError, match="malformed JSON at byte"):
        parse_config(b'{"kernel": }')


def test_round_trip():
    for d in (MINIMAL, ENV_STYLE):
        cfg = cfg_of(d)
        assert parse_config(serialize(cfg)) == cfg


# The default-filled config, pinned across versions: a changed default
# changes these. MINIMAL and ENV_STYLE differ only in kernel and initial.
PINNED = (
    '{"concentrate":{"eps_list":[],"n_list":[100,300,1000,3000],'
    '"replicas":100,"sample_times":[],"tau":5},%s,"meanfield":{"dt":0.01,'
    '"hi":null,"horizon":10,"lo":null,"m":1000,"scheme":"euler",'
    '"snapshot_times":null},"moments":{"K":8,"T":10,"dt":0.005},'
    '"output_dir":".","seed":0,"simulate":{"allow_self":false,"horizon":10,'
    '"n":1000,"snapshot_times":null,"symmetric":false}}')


@pytest.mark.parametrize("d, kernel_and_initial, digest", [
    (MINIMAL, '"initial":{"a":0,"b":1,"type":"uniform"},"kernel":{"alpha":1,'
     '"environment":null,"external":null,'
     '"internal":{"omega":0.5,"type":"constant"}}', "ab51c96ca03f8175"),
    (ENV_STYLE, '"initial":{"a":0,"b":10,"type":"uniform"},'
     '"kernel":{"alpha":0.5,"environment":{"type":"bump"},'
     '"external":{"omega":0.5,"type":"constant"},'
     '"internal":{"omega":0.5,"type":"constant"}}', "b66b9fa9d1141199"),
], ids=["MINIMAL", "ENV_STYLE"])
def test_default_filled_config_is_pinned(d, kernel_and_initial, digest):
    cfg = cfg_of(d)
    assert serialize(cfg) == PINNED % kernel_and_initial
    assert cfg.config_hash() == digest


def test_readme_section_table_matches_the_dataclasses():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([a-z ]+) \| `(.+)` \|$",
                      readme.read_text(), re.MULTILINE)
    table = {}
    for section, key, kind, default in rows:
        table.setdefault(section, {})[key] = (kind, json.loads(default))
    schema = {section: {key: (cli._ANNOTATIONS[ann][0],
                              list(d) if isinstance(d, tuple) else d)
                        for key, (ann, d) in cli._json_fields(cls).items()}
              for section, cls in cli._SECTIONS.items()}
    assert table == schema


def test_config_hash_stable_under_key_order():
    reordered = {"initial": MINIMAL["initial"], "kernel": MINIMAL["kernel"]}
    assert cfg_of(MINIMAL).config_hash() == cfg_of(reordered).config_hash()


def test_build_kernel_and_initial():
    k = cfg_of(ENV_STYLE).kernel
    assert k.alpha == 0.5
    assert isinstance(k.internal, Constant)
    assert isinstance(k.environment, Bump)
    init = cfg_of(ENV_STYLE).initial
    assert (init.a, init.b) == (0.0, 10.0)


def test_build_bounded_confidence():
    d = json.loads(json.dumps(MINIMAL))
    d["kernel"]["internal"] = {"type": "bounded_confidence",
                               "omega0": 0.5, "radius": 1.0}
    k = cfg_of(d).kernel
    assert isinstance(k.internal, BoundedConfidence)


# ---------------------------------------------------------------------------
# dispatch and artifacts


def write_cfg(tmp_path, d):
    p = tmp_path / "run.json"
    p.write_text(json.dumps(d))
    return p


def quick_sim_cfg():
    d = json.loads(json.dumps(MINIMAL))
    d["simulate"] = {"n": 50, "horizon": 1.0, "snapshot_times": [0.5, 1.0]}
    d["meanfield"] = {"m": 100, "dt": 0.05, "horizon": 1.0,
                      "snapshot_times": [1.0]}
    d["moments"] = {"K": 3, "T": 1.0, "dt": 0.005}
    return d


def test_simulate_artifact(tmp_path):
    cfg = cfg_of(quick_sim_cfg())
    paths = dispatch(cfg, "simulate", out_dir=tmp_path)
    text = paths[0].read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# config_hash=")
    assert f"seed={cfg.seed}" in lines[0]
    assert lines[1] == "t,position,mass"
    assert len(lines) == 2 + 2 * 50


def test_meanfield_artifacts(tmp_path):
    cfg = cfg_of(quick_sim_cfg())
    paths = dispatch(cfg, "meanfield", out_dir=tmp_path)
    assert [p.name for p in paths] == ["meanfield_t1.csv"]
    lines = paths[0].read_text().splitlines()
    assert lines[1] == "t,position,mass"
    assert len(lines) == 2 + 100


def test_moments_artifacts(tmp_path):
    d = quick_sim_cfg()
    d["kernel"] = ENV_STYLE["kernel"]
    d["initial"] = ENV_STYLE["initial"]
    cfg = cfg_of(d)
    paths = dispatch(cfg, "moments", out_dir=tmp_path)
    names = sorted(p.name for p in paths)
    assert names == ["limits.csv", "moments.csv"]
    limits = [line for line in paths[1].read_text().splitlines()
              if not line.startswith("#")]
    assert limits[0] == "k,value"
    k1 = float(limits[1].split(",")[1])
    assert k1 == pytest.approx(3.0, abs=1e-8)


def test_moments_start_from_the_exact_initial_moments(tmp_path):
    # uniform on (0, 1): m^(k) = 1/(k+1), whatever the meanfield grid
    path = dispatch(cfg_of(quick_sim_cfg()), "moments", out_dir=tmp_path)[0]
    rows = np.loadtxt(path, delimiter=",", skiprows=2)[:3]
    assert rows[:, 0].tolist() == [0.0, 0.0, 0.0]
    assert rows[:, 2] == pytest.approx([1 / 2, 1 / 3, 1 / 4], rel=1e-15)


def test_moments_csv_ends_at_T(tmp_path):
    # 14287 rows at stride 7: the last row is not a multiple of the stride
    d = quick_sim_cfg()
    d["moments"] = {"K": 2, "T": 100.0, "dt": 0.007}
    path = dispatch(cfg_of(d), "moments", out_dir=tmp_path)[0]
    last = path.read_text().splitlines()[-1]
    assert float(last.split(",")[0]) == 100.0


def test_compare_artifact(tmp_path):
    cfg = cfg_of(quick_sim_cfg())
    paths = dispatch(cfg, "compare", out_dir=tmp_path)
    lines = paths[0].read_text().splitlines()
    assert lines[1] == "t,w1"
    assert len(lines) == 3  # header comment + header + one snapshot


def uniform_w1(x, width):
    """W1 between the empirical measure of x and the uniform law on
    (0, width), in closed form: the i-th smallest value carries the
    quantiles u in [i/n, (i + 1)/n], where the law sits at width * u."""
    n = x.size
    a, b = np.arange(n) / n, np.arange(1, n + 1) / n
    c = np.sort(x) / width
    y = np.clip(c, a, b)
    return width * float(np.sum(np.abs(c - y) / n
                                + ((y - a) ** 2 + (b - y) ** 2) / 2))


def test_compare_reads_the_solver_grid_as_its_density(tmp_path):
    # at t = 0 the solver's 50 cells hold the uniform law exactly, so the
    # t = 0 row is the W1 of the simulator's opening draw to that law. Read
    # as cell-centre atoms, the grid would add up to h/4 = 0.05, more than
    # twice the sampling scale 0.31 * 10 / sqrt(n) = 0.022
    d = {"seed": 3, "kernel": MINIMAL["kernel"],
         "initial": {"type": "uniform", "a": 0.0, "b": 10.0},
         "simulate": {"n": 20_000, "horizon": 1.0, "snapshot_times": [0.0]},
         "meanfield": {"m": 50, "dt": 0.05, "horizon": 1.0,
                       "snapshot_times": [0.0, 1.0]}}
    cfg = cfg_of(d)
    (traj,) = dispatch(cfg, "simulate", out_dir=tmp_path)
    x = np.loadtxt(traj, delimiter=",", skiprows=2)[:, 1]
    (path,) = dispatch(cfg, "compare", out_dir=tmp_path)
    rows = np.loadtxt(path, delimiter=",", skiprows=2)
    assert rows[0, 0] == 0.0 and x.size == 20_000
    assert rows[0, 1] == pytest.approx(uniform_w1(x, 10.0), rel=1e-12)


def test_measure_csv_layout(tmp_path):
    snaps = [(0.0, AtomicMeasure(np.array([0.25, 0.75]),
                                 np.array([0.5, 0.5])))]
    path = cli._write_csv(tmp_path / "m.csv", cfg_of(MINIMAL),
                          *cli._MEASURE_CSV, cli._measure_rows(snaps))
    lines = path.read_text().splitlines()[1:]
    assert lines[0] == "t,position,mass"
    assert lines[1] == "0,0.25,0.5"
    assert len(lines) == 3


def test_rerun_byte_identical(tmp_path):
    cfg = cfg_of(quick_sim_cfg())
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for cmd in ("simulate", "meanfield", "moments"):
        p1 = dispatch(cfg, cmd, out_dir=out1)
        p2 = dispatch(cfg, cmd, out_dir=out2)
        for a, b in zip(p1, p2):
            assert a.read_bytes() == b.read_bytes()


def test_unknown_subcommand_exits_nonzero(tmp_path, capsys):
    p = write_cfg(tmp_path, MINIMAL)
    assert main(["frobnicate", "--config", str(p)]) != 0


def test_main_config_error_exit_code(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"kernel": {"alpha": 9}}')
    assert main(["simulate", "--config", str(p)]) == 1


BOUNDED_CONFIDENCE = {"type": "bounded_confidence", "radius": 1.0}
ZERO_GRID = {"type": "grid", "lo": 0.0, "hi": 1.0, "cells": [0.0, 0.0]}
GAUSSIAN = {"type": "gaussian", "omega0": 0.5, "sigma": 1.0}
ONE_ATOM = {"type": "atoms", "points": [[0.5, 1.0]]}
MIXTURE = {"type": "mixture", "omegas": [0.2, 0.8], "probs": [0.5, 0.5]}

# (command, {dotted config path: value}, the violation main must print)
INVALID_CONFIGS = {
    "bc_omega0_0": ("simulate",
                    {"kernel.internal": dict(BOUNDED_CONFIDENCE, omega0=0.0)},
                    "kernel.internal: bounded-confidence weight"),
    "bc_omega0_1": ("simulate",
                    {"kernel.internal": dict(BOUNDED_CONFIDENCE, omega0=1.0)},
                    "kernel.internal: bounded-confidence weight"),
    "grid_no_cells": ("simulate",
                      {"initial": {"type": "grid", "lo": 0.0, "hi": 1.0}},
                      "initial.cells: required"),
    "grid_zero_cells": ("simulate", {"initial": ZERO_GRID},
                        "initial: empty measure"),
    "grid_hi_below_lo": ("simulate",
                         {"initial": dict(ZERO_GRID, lo=1.0, hi=0.0,
                                          cells=[1.0, 1.0])},
                         "initial: grid needs hi > lo"),
    "atoms_no_points": ("simulate", {"initial": {"type": "atoms"}},
                        "initial.points: required"),
    "atoms_nested_points": ("simulate",
                            {"initial": {"type": "atoms",
                                         "points": [[[0.0, 1.0], 1.0]]}},
                            "initial.points: expected [x, w] list"),
    "atoms_mass_0.7": ("simulate",
                       {"initial": {"type": "atoms",
                                    "points": [[0.0, 0.3], [1.0, 0.4]]}},
                       "initial: atomic law must be normalized"),
    "initial_unknown_type": ("simulate", {"initial": {"type": "normal"}},
                             "initial.type: unknown initial law 'normal'"),
    "environment_unknown_type": ("simulate",
                                 {"kernel": dict(ENV_STYLE["kernel"],
                                                 environment={
                                                     "type": "normal"})},
                                 "kernel.environment.type: unknown "
                                 "environment 'normal'"),
    # a bump start and an atoms environment are checked as any law in
    # either role: the window must cover the bump, the atoms must sum to 1
    "initial_bump": ("meanfield", {"initial": {"type": "bump"},
                                   "meanfield.lo": 0.0, "meanfield.hi": 3.0},
                     "meanfield: lo and hi must cover [2, 4]"),
    "environment_atoms": ("simulate",
                          {"kernel": dict(ENV_STYLE["kernel"], environment={
                              "type": "atoms",
                              "points": [[1.0, 0.3], [5.0, 0.4]]})},
                          "kernel.environment: atomic law must be "
                          "normalized"),
    "environment_zero_cells": ("simulate",
                               {"kernel": dict(ENV_STYLE["kernel"],
                                               environment=ZERO_GRID)},
                               "kernel.environment: empty measure"),
    "seed_true": ("simulate", {"seed": True}, "seed: expected integer >= 0"),
    "seed_-1": ("simulate", {"seed": -1}, "seed: expected integer >= 0"),
    "meanfield_rk5": ("meanfield", {"meanfield.scheme": "rk5"},
                      "meanfield: scheme"),
    "meanfield_snapshot_past_horizon": (
        "meanfield", {"meanfield.snapshot_times": [0.5, 2.0]},
        "meanfield: snapshot times must lie in [0, horizon]"),
    "meanfield_snapshots_unsorted": (
        "meanfield", {"meanfield.snapshot_times": [1.0, 0.5]},
        "meanfield: snapshot times must be sorted"),
    "meanfield_horizon_negative": (
        "meanfield", {"meanfield.horizon": -1, "meanfield.snapshot_times": []},
        "meanfield: horizon must be nonnegative"),
    "meanfield_horizon_negative_default_times": (
        "meanfield", {"meanfield.horizon": -1, "meanfield.snapshot_times": None},
        "meanfield: horizon must be nonnegative"),
    "meanfield_lo_above_hi": ("meanfield",
                              {"meanfield.lo": 2.0, "meanfield.hi": 1.0},
                              "meanfield: hi must exceed lo"),
    "meanfield_lo_only": ("meanfield", {"meanfield.lo": -1.0},
                          "meanfield: give both lo and hi"),
    "meanfield_window_misses_initial": (
        "meanfield", {"initial": {"type": "uniform", "a": 0.0, "b": 10.0},
                      "meanfield.lo": 0.0, "meanfield.hi": 5.0},
        "meanfield: lo and hi must cover [0, 10]"),
    "meanfield_window_misses_environment": (
        "meanfield", {"kernel": ENV_STYLE["kernel"], "meanfield.lo": 0.0,
                      "meanfield.hi": 1.0},
        "meanfield: lo and hi must cover [0, 4]"),
    "meanfield_window_edge_environment": (
        "meanfield", {"kernel": dict(ENV_STYLE["kernel"],
                                     environment={"type": "atom", "z": 1.0}),
                      "meanfield.lo": 0.0, "meanfield.hi": 1.0},
        "meanfield: the environment's hull [1, 1] must lie within [0.005, "
        "0.995], the first and last cell centres"),
    "meanfield_window_edge_initial_atoms": (
        "meanfield", {"initial": {"type": "atoms",
                                  "points": [[0.0, 0.5], [1.0, 0.5]]},
                      "meanfield.lo": 0.0, "meanfield.hi": 1.0},
        "meanfield: the initial atoms' hull [0, 1] must lie within [0.005, "
        "0.995], the first and last cell centres"),
    "meanfield_window_edge_initial_atom": (
        "meanfield", {"initial": {"type": "atom", "z": 0.0},
                      "meanfield.lo": 0.0, "meanfield.hi": 1.0},
        "meanfield: the initial atoms' hull [0, 0] must lie within [0.005, "
        "0.995], the first and last cell centres"),
    **{f"{command}_single_point_hull": (
        command, {"initial": ONE_ATOM},
        f"{path}: the initial law and the environment span a single point")
       for command, path in (("meanfield", "meanfield"),
                             ("compare", "meanfield"),
                             ("concentrate", "concentrate"))},
    "simulate_snapshots_unsorted": (
        "simulate", {"simulate.snapshot_times": [1.0, 0.5]},
        "simulate: snapshot times must be sorted"),
    "simulate_snapshot_past_horizon": (
        "simulate", {"simulate.snapshot_times": [0.5, 2.0]},
        "simulate: snapshot times must lie in [0, horizon]"),
    "concentrate_n_1": ("concentrate", {"concentrate.n_list": [1, 20]},
                        "concentrate: n_list"),
    "concentrate_n_repeated": ("concentrate",
                               {"concentrate.n_list": [20, 40, 20]},
                               "concentrate: n_list repeats a population "
                               "size"),
    "concentrate_tau_negative": ("concentrate", {"concentrate.tau": -1.0},
                                 "concentrate: tau must be nonnegative"),
    "concentrate_sample_past_tau": (
        "concentrate", {"concentrate.sample_times": [0.2, 0.9]},
        "concentrate: sample times must lie in [0, tau]"),
    "concentrate_samples_unsorted": (
        "concentrate", {"concentrate.sample_times": [0.4, 0.2]},
        "concentrate: sample times must be sorted"),
    "concentrate_eps_not_a_list": ("concentrate",
                                   {"concentrate.eps_list": "a"},
                                   "concentrate.eps_list: expected"),
    "moments_K_0": ("moments", {"moments.K": 0}, "moments: K must lie"),
    "moments_K_171": ("moments", {"moments.K": 171}, "moments: K must lie"),
    "moments_T_negative": ("moments", {"moments.T": -1},
                           "moments: T must be nonnegative"),
    **{f"moments_dt_{dt}": ("moments", {"moments.dt": dt},
                            "moments: dt must lie in (0, 0.01]")
       for dt in (5.0, 0.02, 0, -0.01)},
    **{f"moments_internal_{law['type']}": (
        "moments", {"kernel.internal": law},
        "kernel.internal: moments needs a constant-weight law")
       for law in (GAUSSIAN, dict(BOUNDED_CONFIDENCE, omega0=0.5), MIXTURE)},
    "moments_external_gaussian": (
        "moments", {"kernel": dict(ENV_STYLE["kernel"], external=GAUSSIAN)},
        "kernel.external: moments needs a constant-weight law"),
    **{f"moments_external_weight_{omega:g}": (
        "moments", {"kernel": dict(ENV_STYLE["kernel"], external={
            "type": "constant", "omega": omega})},
        "kernel.external: moments needs a positive external weight")
       # 1e-300 is positive, but gamma_1 = 1 - alpha - (1 - alpha)(1 - 1e-300)
       # rounds to 0
       for omega in (0.0, 1e-300)},
    "compare_symmetric": ("compare", {"simulate.symmetric": True},
                          "simulate.symmetric: compare needs one-sided"),
    # sigma ** 2 underflows to 0, where the weight at distance 0 is nan, or
    # overflows, where the float power raises
    **{f"{command}_gaussian_sigma_{sigma:g}": (
        command, {"kernel.internal": dict(GAUSSIAN, sigma=sigma),
                  "initial": {"type": "atoms",
                              "points": [[0.0, 0.5], [1.0, 0.5]]}},
        f"kernel.internal: sigma = {sigma:g} has a square that underflows")
       for command in ("simulate", "compare") for sigma in (1e-200, 1e200)},
    # moments of order up to K = 170 past the largest float, which a float
    # power raises on and numpy's power makes inf
    **{f"moments_K_170_{start['type']}": (
        "moments", {"moments.K": 170, "initial": start},
        "moments.K: a moment of order at most 170 of the initial law or the "
        "environment is not a finite float")
       for start in ({"type": "uniform", "a": 0.0, "b": 100.0},
                     {"type": "atoms", "points": [[1000.0, 1.0]]},
                     {"type": "grid", "lo": 0.0, "hi": 100.0,
                      "cells": [1.0, 2.0, 3.0, 4.0]})},
    # step grids past MAX_STEPS, rejected while parsing; `simulate` builds
    # no step grid, so no run here ever allocates one
    **{f"steps_{path}_{value:g}": ("simulate", {path: value}, message)
       for path, value, message in (
           ("meanfield.dt", 1e-12, "meanfield: horizon / dt must be at most "
                                   "1e+07 steps"),
           ("meanfield.horizon", 1e9, "meanfield: horizon / dt must be at "
                                      "most 1e+07 steps"),
           ("moments.dt", 1e-12, "moments: T / dt must be at most 1e+07 "
                                 "steps"),
           ("moments.T", 1e12, "moments: T / dt must be at most 1e+07 steps"),
           ("concentrate.tau", 1e12, "concentrate: tau must be at most "
                                     "250000"))},
    # json.dumps writes NaN, Infinity and -Infinity, and json.loads reads
    # them back
    **{f"{path}_{value}": (command, {path: float(value)},
                           f"{path}: expected number")
       for command, path, value in (("meanfield", "meanfield.dt", "nan"),
                                    ("simulate", "concentrate.tau", "inf"),
                                    ("simulate", "moments.T", "inf"),
                                    ("simulate", "initial.b", "inf"),
                                    ("compare", "initial.a", "-inf"))},
}


def with_changes(d, changes):
    """d with each {dotted config path: value} of changes set."""
    for path, value in changes.items():
        *parents, key = path.split(".")
        node = d
        for p in parents:
            node = node[p]
        node[key] = value
    return d


@pytest.mark.parametrize("name", sorted(INVALID_CONFIGS))
def test_invalid_config_exits_1_naming_field(name, tmp_path, capsys):
    command, changes, message = INVALID_CONFIGS[name]
    d = quick_sim_cfg()
    d["concentrate"] = {"tau": 0.5, "n_list": [20, 40], "replicas": 20}
    p = write_cfg(tmp_path, with_changes(d, changes))
    assert main([command, "--config", str(p), "--out",
                 str(tmp_path / "out")]) == 1
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_bump_start_and_atoms_environment_run(command, tmp_path):
    # the initial law and the environment take every law of one table: the
    # grid solver starts from the bump as the simulator samples it, and
    # reads the atoms as its own
    d = with_changes(quick_sim_cfg(), {
        "initial": {"type": "bump"},
        "kernel": dict(ENV_STYLE["kernel"], environment={
            "type": "atoms", "points": [[1.0, 0.25], [5.0, 0.75]]})})
    d["concentrate"] = {"tau": 0.5, "n_list": [20, 40], "replicas": 20}
    p = write_cfg(tmp_path, d)
    assert main([command, "--config", str(p), "--out",
                 str(tmp_path / "out")]) == 0


def test_law_tables_cover_the_law_unions():
    # one JSON type per class, for the weight laws and the laws on the line
    for table, union in ((cli._LINE_LAWS, Law), (cli._LAWS, WeightLaw)):
        assert len(set(table.values())) == len(table)
        assert set(table.values()) == set(typing.get_args(union))


@pytest.mark.parametrize("command, changes", [
    # a bounded-confidence kernel under the default moments section
    ("meanfield", {"kernel.internal": dict(BOUNDED_CONFIDENCE, omega0=0.5)}),
    ("moments", {"moments.dt": 0.01}),
])
def test_moments_checks_pass_valid_runs(command, changes, tmp_path):
    d = quick_sim_cfg()
    d["moments"] = {}
    p = write_cfg(tmp_path, with_changes(d, changes))
    assert main([command, "--config", str(p), "--out",
                 str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_1_with_usage(threads, tmp_path, capsys):
    d = dict(quick_sim_cfg(), concentrate={"tau": 0.5, "n_list": [20, 40],
                                           "replicas": 20})
    p = write_cfg(tmp_path, d)
    assert main(["concentrate", "--config", str(p), "--out",
                 str(tmp_path / "out"), "--threads", threads]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: gossipfield")
    assert f"--threads must be at least 1, got {threads}" in err
    assert not (tmp_path / "out").exists()


def test_default_eps_is_the_median_at_the_middle_n(tmp_path):
    # n_list need not be sorted: the default eps reads the middle n of the
    # sorted list, here 300
    d = dict(MINIMAL, concentrate={"tau": 0.5, "sample_times": [0.0, 0.5],
                                   "n_list": [1000, 100, 300],
                                   "replicas": 20})
    dispatch(cfg_of(d), "concentrate", out_dir=tmp_path)
    rows = np.loadtxt(tmp_path / "deviations.csv", delimiter=",",
                      skiprows=2)
    eps = np.median(rows[rows[:, 0] == 300, 2])
    summary = (tmp_path / "rates.csv").read_text().splitlines()[-1]
    assert summary.startswith(f"# eps={eps:.17g} ")


def test_meanfield_window_covering_the_laws_runs(tmp_path):
    # the bump environment lies on (2, 4), the initial law on (0, 1)
    d = with_changes(quick_sim_cfg(), {"kernel": ENV_STYLE["kernel"],
                                       "meanfield.lo": -1.0,
                                       "meanfield.hi": 5.0})
    p = write_cfg(tmp_path, d)
    assert main(["meanfield", "--config", str(p), "--out",
                 str(tmp_path / "out")]) == 0


def test_simulate_runs_on_a_single_point_hull(tmp_path):
    d = with_changes(quick_sim_cfg(), {"initial": ONE_ATOM})
    p = write_cfg(tmp_path, d)
    assert main(["simulate", "--config", str(p), "--out",
                 str(tmp_path / "out")]) == 0


def test_simulate_runs_symmetric_updates(tmp_path):
    d = with_changes(quick_sim_cfg(), {"simulate.symmetric": True})
    p = write_cfg(tmp_path, d)
    assert main(["simulate", "--config", str(p), "--out",
                 str(tmp_path / "out")]) == 0


def test_moments_runs_on_a_single_point_hull(tmp_path):
    # the initial moments come from the law itself, with no grid window;
    # a point mass at z = 1/2 stays there, so every row holds z^k
    p = write_cfg(tmp_path, with_changes(quick_sim_cfg(),
                                         {"initial": ONE_ATOM}))
    assert main(["moments", "--config", str(p), "--out",
                 str(tmp_path / "out")]) == 0
    rows = np.loadtxt(tmp_path / "out" / "moments.csv", delimiter=",",
                      skiprows=2)
    assert rows.shape == (3 * 201, 3)
    assert np.array_equal(rows[:, 2], 0.5 ** rows[:, 1])


@pytest.mark.parametrize("command", ["meanfield", "compare"])
@pytest.mark.parametrize("environment, m", [
    ({"type": "atom", "z": 1.0}, 2000),
    ({"type": "bump"}, 100),
    ({"type": "uniform", "a": 0.5, "b": 3.0}, 300),
], ids=["atom_at_1", "bump", "uniform_0.5_3"])
def test_environment_at_the_default_window_edge_runs(command, environment, m,
                                                     tmp_path):
    # the default window is widened by half a cell at each end, so that its
    # first and last cell centres reach the environment
    d = with_changes(quick_sim_cfg(), {
        "kernel": dict(ENV_STYLE["kernel"], environment=environment),
        "meanfield.m": m})
    p = write_cfg(tmp_path, d)
    assert main([command, "--config", str(p), "--out",
                 str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["meanfield", "compare"])
def test_environment_inside_a_vast_default_window_runs(command, tmp_path):
    # the cell centres of a window 1e300 wide are exact only to about 1e281,
    # which the solver's check that they reach the environment allows for
    d = with_changes(quick_sim_cfg(), {
        "kernel": dict(ENV_STYLE["kernel"],
                       environment={"type": "uniform", "a": 0.2, "b": 0.8}),
        "initial.b": 1e300})
    p = write_cfg(tmp_path, d)
    assert main([command, "--config", str(p), "--out",
                 str(tmp_path / "out")]) == 0


def test_bench_tracer_wraps_the_cli(tmp_path):
    # bench/tracing.py wraps program functions by name; a rename in the
    # package would break only the traced benchmark run without this test
    root = Path(__file__).resolve().parents[1]
    p = write_cfg(tmp_path, with_changes(quick_sim_cfg(),
                                         {"kernel": ENV_STYLE["kernel"]}))
    code = ("import sys\n"
            f"sys.path.insert(0, {str(root / 'bench')!r})\n"
            "import tracing\n"
            "from gossipfield import cli\n"
            "tracer = tracing.Tracer()\n"
            "tracing.install(tracer)\n"
            f"code = cli.main(['compare', '--config', {str(p)!r}, '--out', "
            f"{str(tmp_path / 'out')!r}])\n"
            "print(code, sorted({s['name'] for s in tracer.spans}))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(root / "src")))
    code, names = out.stdout.splitlines()[-1].split(" ", 1)
    assert code == "0"
    for name in ("parse", "dispatch", "integrate", "setup", "f_eval", "run",
                 "run_with_state", "w1", "env_setup"):
        assert repr(name) in names


def test_bench_tracer_wraps_a_concentrate_run(tmp_path):
    # the traced concentration round: the harness hands its pool batches
    # of replicas, and the spans of this process must still be recorded
    root = Path(__file__).resolve().parents[1]
    p = write_cfg(tmp_path, dict(quick_sim_cfg(), concentrate={
        "tau": 0.5, "n_list": [20, 40], "replicas": 20}))
    code = ("import sys\n"
            f"sys.path.insert(0, {str(root / 'bench')!r})\n"
            "import tracing\n"
            "from gossipfield import cli\n"
            "tracer = tracing.Tracer()\n"
            "tracing.install(tracer)\n"
            f"code = cli.main(['concentrate', '--config', {str(p)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}, '--threads', '2'])\n"
            "print(code, sorted({s['name'] for s in tracer.spans\n"
            "                    if not s.get('worker')}))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(root / "src")))
    code, names = out.stdout.splitlines()[-1].split(" ", 1)
    assert code == "0"
    for name in ("run_concentration", "reference", "refinement",
                 "tail_rates"):
        assert repr(name) in names


def test_parsing_a_bump_environment_leaves_scipy_unimported(tmp_path):
    # with scipy blocked outright, so that importing any of it fails: the
    # package, parsing, and the subcommands that set the bump up (its
    # moments, its grid atoms and its sampler)
    d = dict(ENV_STYLE, moments={"K": 8, "T": 10.0, "dt": 0.01},
             simulate={"n": 2000},
             meanfield={"m": 200, "dt": 0.01, "scheme": "rk4",
                        "horizon": 2.0, "snapshot_times": [0.0, 1.0, 2.0]})
    p = write_cfg(tmp_path, d)
    commands = ("simulate", "meanfield", "moments", "compare")
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import gossipfield, gossipfield.cli as c\n"
            f"c.parse_config({json.dumps(d)!r})\n"
            f"print(*[c.main([cmd, '--config', {str(p)!r}, '--out', "
            f"{str(tmp_path / 'out')!r}]) for cmd in {commands!r}])")
    src = str(Path(gossipfield.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split()[-4:] == ["0"] * 4, out.stderr
    assert (tmp_path / "out" / "compare.csv").exists()


def test_cli_import_leaves_the_process_pool_unimported(tmp_path):
    # only `concentrate` starts a pool: with concurrent.futures blocked
    # outright, the package imports without it, and `moments` and
    # `compare` run
    d = dict(ENV_STYLE, moments={"K": 4, "T": 2.0, "dt": 0.01},
             simulate={"n": 500},
             meanfield={"m": 100, "dt": 0.05, "scheme": "rk4",
                        "horizon": 1.0, "snapshot_times": [0.0, 1.0]})
    p = write_cfg(tmp_path, d)
    commands = ("moments", "compare")
    code = ("import sys\n"
            "import gossipfield.cli as c\n"
            "print('concurrent.futures' in sys.modules)\n"
            "sys.modules['concurrent.futures'] = None\n"
            f"print(*[c.main([cmd, '--config', {str(p)!r}, '--out', "
            f"{str(tmp_path / 'out')!r}]) for cmd in {commands!r}])")
    src = str(Path(gossipfield.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    words = out.stdout.split()
    assert [words[0], *words[-2:]] == ["False", "0", "0"], out.stderr


def test_main_missing_file_exit_code(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 1


def test_main_success_and_seed_override(tmp_path, capsys):
    p = write_cfg(tmp_path, quick_sim_cfg())
    out = tmp_path / "art"
    assert main(["simulate", "--config", str(p), "--out", str(out),
                 "--seed", "5"]) == 0
    captured = capsys.readouterr()
    assert "trajectory.csv" in captured.out
    assert "seed=5" in (out / "trajectory.csv").read_text().splitlines()[0]


def test_main_seed_override_is_checked(tmp_path, capsys):
    p = write_cfg(tmp_path, quick_sim_cfg())
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path),
                 "--seed", "-3"]) == 1
    assert "config error: seed: expected integer >= 0, got -3" \
        in capsys.readouterr().err


# ---------------------------------------------------------------------------
# invalid configs found by search

# criterion 11's config without its concentrate section, and a variant with
# an environment
SEARCH_BASES = (
    {"kernel": {"alpha": 1.0,
                "internal": {"type": "constant", "omega": 0.5}},
     "initial": {"type": "uniform", "a": 0.0, "b": 1.0},
     "simulate": {"n": 60, "horizon": 1.0, "snapshot_times": [0.5, 1.0]},
     "meanfield": {"m": 120, "dt": 0.05, "horizon": 1.0,
                   "snapshot_times": [0.5, 1.0]},
     "moments": {"K": 4, "T": 1.0, "dt": 0.005}},
    {"kernel": {"alpha": 0.5,
                "internal": {"type": "constant", "omega": 0.5},
                "external": {"type": "constant", "omega": 0.5},
                "environment": {"type": "uniform", "a": 0.2, "b": 0.8}},
     "initial": {"type": "uniform", "a": 0.0, "b": 1.0},
     "simulate": {"n": 60, "horizon": 1.0, "snapshot_times": [0.5, 1.0]},
     "meanfield": {"m": 120, "dt": 0.05, "horizon": 1.0,
                   "snapshot_times": [0.5, 1.0]},
     "moments": {"K": 4, "T": 1.0, "dt": 0.005}},
)

# odd JSON values for any leaf: wrong types, the ends of the float range
# and the non-finite numbers that json.loads reads
_ODD = st.sampled_from([None, True, "x", [], {}, -1, 0, 1, 2, 0.0, 0.3, 0.5,
                        7.5, -2.5, 1e-300, 1e12, 1e300, -1e300,
                        float("nan"), float("inf"), float("-inf")])
_ODD_NUMBER = st.sampled_from([-1.0, 0.0, 1e-300, 0.25, 0.5, 1.0, 3.0,
                               1e300, float("nan"), float("inf")])
_TIMES = st.one_of(st.none(), st.lists(st.sampled_from(
    [-1.0, 0.0, 0.25, 0.5, 1.0, 2.0, float("nan"), float("inf")]),
    max_size=4))


def _typed(kind, **fields):
    return st.fixed_dictionaries({"type": st.just(kind), **fields})


_LAW = st.one_of(
    _typed("constant", omega=_ODD),
    _typed("bounded_confidence", omega0=_ODD, radius=_ODD),
    _typed("gaussian", omega0=_ODD, sigma=_ODD),
    _typed("mixture", omegas=st.lists(_ODD_NUMBER, max_size=3),
           probs=st.lists(_ODD_NUMBER, max_size=3)))
_GRID = {"lo": _ODD, "hi": _ODD,
         "cells": st.lists(_ODD_NUMBER, min_size=1, max_size=4)}
# the initial law and the environment take the same types
_LINE_LAW = st.one_of(
    _typed("atom", z=_ODD), _typed("uniform", a=_ODD, b=_ODD),
    _typed("bump"), _typed("grid", **_GRID),
    _typed("atoms", points=st.lists(st.lists(_ODD_NUMBER, min_size=2,
                                             max_size=2), max_size=3)))

# the leaves the search sets, each with its values. Sizes and horizons take
# small values or ones far past a bound, so that every example runs in
# milliseconds: the simulator's work n * horizon is not bounded, and a step
# grid may hold up to meanfield.MAX_STEPS steps
SEARCH_LEAVES = {
    "seed": _ODD,
    "kernel.alpha": _ODD,
    "kernel.internal": _LAW,
    "kernel.internal.omega": _ODD,
    "kernel.external": _LAW,
    "kernel.environment": _LINE_LAW,
    "initial": _LINE_LAW,
    "initial.a": _ODD,
    "initial.b": _ODD,
    "simulate.n": st.sampled_from([None, True, "x", -1, 0, 1, 2, 2.5, 200,
                                   1e300, float("nan")]),
    "simulate.horizon": st.sampled_from([None, "x", -1.0, 0, 0.5, 2.0,
                                         float("nan"), float("inf")]),
    "simulate.snapshot_times": _TIMES,
    "simulate.symmetric": _ODD,
    "simulate.allow_self": _ODD,
    "meanfield.m": st.sampled_from([None, True, "x", -1, 0, 1, 2, 3, 2.5,
                                    400, 1e300]),
    "meanfield.dt": st.sampled_from([None, "x", -0.05, 0, 1e-300, 1e-12,
                                     0.05, 0.1, 0.2, float("nan")]),
    "meanfield.horizon": st.sampled_from([None, -1.0, 0, 0.5, 2.0, 1e12,
                                          float("nan"), float("inf")]),
    "meanfield.snapshot_times": _TIMES,
    "meanfield.scheme": st.sampled_from(["euler", "rk4", "rk5", 1, None]),
    "meanfield.lo": _ODD,
    "meanfield.hi": _ODD,
    "moments.K": st.sampled_from([None, True, -1, 0, 1, 4, 2.5, 170, 171]),
    "moments.T": st.sampled_from([None, -1.0, 0, 0.5, 1.0, 1e12,
                                  float("nan"), float("inf")]),
    "moments.dt": st.sampled_from([None, -0.005, 0, 1e-300, 1e-12, 0.005,
                                   0.01, 0.02, float("nan")]),
}


def _set_leaf(d, path, value):
    """d with the dotted path set to value, where each parent on the path
    is an object; otherwise d unchanged."""
    *parents, key = path.split(".")
    node = d
    for p in parents:
        node = node.get(p) if isinstance(node, dict) else None
    if isinstance(node, dict):
        node[key] = value


def _artifact_numbers(out_dir):
    """Every number in the CSV rows of the artifacts under out_dir."""
    for path in sorted(Path(out_dir).glob("*.csv")):
        lines = path.read_text().splitlines()
        for line in lines[2:]:
            if not line.startswith("#"):
                yield from map(float, line.split(","))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SEARCH_BASES),
       st.lists(st.sampled_from(sorted(SEARCH_LEAVES)), min_size=1,
                max_size=2, unique=True).flatmap(
           lambda paths: st.tuples(*(st.tuples(st.just(p), SEARCH_LEAVES[p])
                                     for p in paths))),
       st.sampled_from(["simulate", "meanfield", "moments", "compare"]))
def test_mutated_configs_exit_0_or_1(base, changes, command):
    # every mutation of one or two leaves of a small valid config is run, or
    # is a config error: never a stack trace, and never a number that is
    # not finite in an artifact
    d = json.loads(json.dumps(base))
    for path, value in changes:
        _set_leaf(d, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "run.json"
        p.write_text(json.dumps(d))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), \
                np.errstate(all="ignore"):
            code = main([command, "--config", str(p), "--out",
                         str(Path(tmp) / "out")])
        assert code in (0, 1), err.getvalue()
        if code == 1:
            assert "config error: " in err.getvalue()
        else:
            assert all(map(math.isfinite, _artifact_numbers(
                Path(tmp) / "out"))), (command, changes)
