"""Command-line front end: JSON run-config in, CSV artifacts out.

Subcommands: simulate, meanfield, moments, concentrate, compare. Every
artifact starts with a comment line carrying the sha-256 of the canonical
config and the seed, so outputs are traceable to their inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import agent_sim, experiments, meanfield, moments
from .kernels import (Atom, Atoms, BoundedConfidence, Bump, Constant,
                      FiniteMixture, Gaussian, Grid, KernelError, KernelSpec,
                      Law, Uniform, env_moment, env_support)
from .measures import (AtomicMeasure, GridMeasure1D, MeasureError,
                       wasserstein1_1d)


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


_TOP_KEYS = {"seed", "output_dir", "kernel", "initial", "simulate",
             "meanfield", "moments", "concentrate"}


def _is_number(v) -> bool:
    """A JSON number that is finite: json.loads reads NaN and Infinity."""
    return _is_integer(v) or (isinstance(v, float) and math.isfinite(v))


def _is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# JSON types of the config fields. Ranges and domains are not checked here:
# the objects built from the config check them (see _build_objects).
_TYPES = {
    "number": _is_number,
    "integer": _is_integer,
    "integer >= 0": lambda v: _is_integer(v) and v >= 0,
    "bool": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "number list": lambda v: isinstance(v, list) and all(map(_is_number, v)),
    "integer list": lambda v: isinstance(v, list) and all(map(_is_integer,
                                                              v)),
    "[x, w] list": lambda v: isinstance(v, list) and all(
        isinstance(p, list) and len(p) == 2 and all(map(_is_number, p))
        for p in v),
}

# field annotation -> (JSON type, cast from the JSON value)
_ANNOTATIONS = {
    "int": ("integer", int), "float": ("number", float),
    "bool": ("bool", bool), "str": ("string", str),
    "tuple[float, ...]": ("number list", lambda v: tuple(map(float, v))),
    "tuple[int, ...]": ("integer list", tuple),
}

# Each section configures one dataclass. Its JSON keys are the class's
# fields except these, which come from the rest of the config.
_SECTIONS = {"simulate": agent_sim.SimConfig,
             "meanfield": meanfield.SolverConfig,
             "moments": moments.MomentConfig,
             "concentrate": experiments.ConcentrationConfig}
_CONTEXT = {"kernel", "initial", "seed", "base_seed"}

# {"type": ...} objects: type -> class; every field is required. The
# environment and the initial law are laws of one family (kernels.Law), and
# either takes every type of it.
_LAWS = {"constant": Constant, "bounded_confidence": BoundedConfidence,
         "gaussian": Gaussian, "mixture": FiniteMixture}
_LINE_LAWS = {"atom": Atom, "atoms": Atoms, "uniform": Uniform,
              "grid": Grid, "bump": Bump}
# kernel part -> (its types, what they name); a null part (no external law,
# no environment) takes KernelSpec's default
_KERNEL_PARTS = {"internal": (_LAWS, "weight law"),
                 "external": (_LAWS, "weight law"),
                 "environment": (_LINE_LAWS, "environment")}


def _grid(spec: dict) -> GridMeasure1D:
    return GridMeasure1D(float(spec["lo"]), float(spec["hi"]),
                         np.asarray(spec["cells"], dtype=float)).normalize()


# The two JSON forms that are not their class's fields: a grid is written
# flat, as lo, hi and cells, and atoms as [x, w] points.
# class -> (key -> JSON type, builder)
_GRID = {"lo": "number", "hi": "number", "cells": "number list"}
_FORMS = {
    Grid: (_GRID, lambda spec: Grid(_grid(spec))),
    Atoms: ({"points": "[x, w] list"}, lambda spec: Atoms(
        AtomicMeasure.from_points(spec["points"]))),
}


def _json_fields(cls) -> dict:
    """The fields of cls that the JSON sets: name -> (annotation, default).
    A field without a default reads as JSON null, and a default of None
    also admits null."""
    return {f.name: (f.type, None if f.default is MISSING else f.default)
            for f in fields(cls) if f.name not in _CONTEXT}


@dataclass(frozen=True)
class RunConfig:
    """Validated, default-filled run configuration and the objects built
    from it. Equality and the hash cover `data` alone. `meanfield` is None
    where no window is configured and the laws span a single point."""

    data: dict
    kernel: KernelSpec
    initial: Law
    simulate: agent_sim.SimConfig
    meanfield: meanfield.SolverConfig | None
    moments: moments.MomentConfig
    concentrate: experiments.ConcentrationConfig

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.data == other.data

    def __hash__(self):
        return hash(serialize(self))

    @property
    def seed(self) -> int:
        return self.data["seed"]

    def config_hash(self) -> str:
        return hashlib.sha256(serialize(self).encode()).hexdigest()[:16]


def _check_type(errs, name, v, kind) -> bool:
    if _TYPES[kind](v):
        return True
    errs.append(f"{name}: expected {kind}, got {v!r}")
    return False


def _check_typed_object(errs, name, obj, classes, what) -> bool:
    """Check a {"type": ...} object: a known type, each of its fields
    present with its JSON type, and no other keys."""
    if not isinstance(obj, dict) or "type" not in obj:
        errs.append(f"{name}: expected object with 'type'")
        return False
    t = obj["type"]
    if not isinstance(t, str) or t not in classes:
        errs.append(f"{name}.type: unknown {what} {t!r}")
        return False
    n = len(errs)
    cls = classes[t]
    kinds = _FORMS[cls][0] if cls in _FORMS else {
        key: _ANNOTATIONS[ann][0]
        for key, (ann, _) in _json_fields(cls).items()}
    extra = set(obj) - set(kinds) - {"type"}
    if extra:
        errs.append(f"{name}: unknown keys {sorted(extra)}")
    for key, kind in kinds.items():
        if key not in obj:
            errs.append(f"{name}.{key}: required")
        else:
            _check_type(errs, f"{name}.{key}", obj[key], kind)
    return len(errs) == n


def parse_config(text) -> RunConfig:
    """Parse and validate a JSON run-config, collecting all violations.

    The JSON's shape is checked here: keys, types and defaults. Ranges and
    domains are checked by building the objects the subcommands run."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([f"malformed JSON at byte {e.pos}: {e.msg}"])
    errs: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        errs.append(f"unknown top-level keys {sorted(unknown)}")

    data = {"seed": raw.get("seed", 0),
            "output_dir": raw.get("output_dir", ".")}
    _check_type(errs, "seed", data["seed"], "integer >= 0")
    if not isinstance(data["output_dir"], str):
        errs.append("output_dir: expected string")
    shape_ok = {}  # config path -> whether its JSON shape is sound

    kernel = raw.get("kernel")
    if not isinstance(kernel, dict):
        errs.append("kernel: required object")
        kernel = {}
    extra = set(kernel) - {f.name for f in fields(KernelSpec)}
    if extra:
        errs.append(f"kernel: unknown keys {sorted(extra)}")
    alpha = kernel.get("alpha", 1.0)
    shape_ok["kernel"] = _check_type(errs, "kernel.alpha", alpha, "number")
    for part, (classes, what) in _KERNEL_PARTS.items():
        if kernel.get(part) is not None:
            shape_ok[f"kernel.{part}"] = _check_typed_object(
                errs, f"kernel.{part}", kernel[part], classes, what)
    internal = kernel.get("internal")
    external = kernel.get("external")
    if internal is None and (not shape_ok["kernel"] or alpha > 0):
        errs.append("kernel.internal: required when alpha > 0")
    if external is None and shape_ok["kernel"] and alpha < 1.0:
        errs.append("kernel.external: required when alpha < 1")
    data["kernel"] = {
        "alpha": float(alpha) if shape_ok["kernel"] else alpha,
        "internal": internal if internal is not None
        else {"type": "constant", "omega": 0.5},
        "external": external, "environment": kernel.get("environment")}

    data["initial"] = raw.get("initial")
    shape_ok["initial"] = _check_typed_object(
        errs, "initial", data["initial"], _LINE_LAWS, "initial law")

    for section, cls in _SECTIONS.items():
        n = len(errs)
        given = raw.get(section, {})
        if not isinstance(given, dict):
            errs.append(f"{section}: expected object")
            given = {}
        schema = _json_fields(cls)
        extra = set(given) - set(schema)
        if extra:
            errs.append(f"{section}: unknown keys {sorted(extra)}")
        sec = {key: list(default) if isinstance(default, tuple) else default
               for key, (_, default) in schema.items()}
        for key, v in given.items():
            if key in schema:
                ann, default = schema[key]
                if v is not None or default is not None:
                    _check_type(errs, f"{section}.{key}", v,
                                _ANNOTATIONS[ann][0])
                sec[key] = v
        shape_ok[section] = len(errs) == n
        data[section] = sec

    mf = data["meanfield"]
    if (mf["lo"] is None) != (mf["hi"] is None):
        errs.append("meanfield: give both lo and hi, or neither")
        shape_ok["meanfield"] = False

    data = _normalize(data)
    objects = _build_objects(data, shape_ok, errs)
    if errs:
        raise ConfigError(errs)
    return RunConfig(data, **objects)


def _normalize(obj):
    if isinstance(obj, dict):
        return {k: _normalize(obj[k]) for k in sorted(obj)}
    if isinstance(obj, list):
        return [_normalize(v) for v in obj]
    if isinstance(obj, float) and obj.is_integer() and abs(obj) < 2 ** 53:
        return int(obj)
    return obj


def serialize(cfg: RunConfig) -> str:
    return json.dumps(cfg.data, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# config -> domain objects


def _cast_fields(cls, values: dict) -> dict:
    """The JSON fields of cls from `values`, each cast by its annotation."""
    return {key: None if values[key] is None
            else _ANNOTATIONS[ann][1](values[key])
            for key, (ann, _) in _json_fields(cls).items()}


def _build_object(spec: dict, classes: dict):
    cls = classes[spec["type"]]
    if cls in _FORMS:
        return _FORMS[cls][1](spec)
    return cls(**_cast_fields(cls, spec))


_DOMAIN_ERRORS = (KernelError, MeasureError, agent_sim.SimError,
                  meanfield.SolverError, moments.MomentError,
                  experiments.ExperimentError)

_ONE_POINT = ("the initial law and the environment span a single point, "
              "where the grid solver has no default window")


def _build_objects(data: dict, shape_ok: dict, errs: list) -> dict:
    """Build every object the subcommands run, recording each constructor's
    error under its config path. A part whose shape is unsound, or whose
    constructor failed, is passed on as None."""

    def build(path, make, *args):
        if not shape_ok.get(path, True):
            return None
        try:
            return make(*args)
        except _DOMAIN_ERRORS as e:
            errs.append(f"{path}: {e}")
            return None

    def section(name, **context):
        cls = _SECTIONS[name]
        return build(name, lambda: cls(
            **{**_cast_fields(cls, data[name]), **context}))

    k = data["kernel"]
    parts = {part: build(f"kernel.{part}", _build_object, k[part], classes)
             for part, (classes, _) in _KERNEL_PARTS.items()
             if k[part] is not None}
    kernel = build("kernel", lambda: KernelSpec(float(k["alpha"]), **parts))
    initial = build("initial", _build_object, data["initial"], _LINE_LAWS)
    laws = kernel is not None and initial is not None
    objects = {"kernel": kernel, "initial": initial,
               "simulate": section("simulate", kernel=kernel,
                                   initial=initial, seed=data["seed"])}
    # The configured lo/hi, or else the laws' default window. Where there is
    # none the unit interval stands in to check the section's own fields.
    mf = data["meanfield"]
    window = None
    if shape_ok["meanfield"] and mf["lo"] is not None:
        window = (float(mf["lo"]), float(mf["hi"]))
    elif shape_ok["meanfield"] and laws:
        lo, hi = experiments.solver_domain(kernel, initial, max(mf["m"], 2))
        window = (lo, hi) if hi > lo else None
    lo, hi = window or (0.0, 1.0)
    solver = section("meanfield", lo=lo, hi=hi)
    objects["meanfield"] = solver if window else None
    # A configured window must cover the hull, and every point mass, which
    # is split between cell centres, must lie within the outer two.
    if mf["lo"] is not None and solver is not None and laws:
        a, b = experiments.opinion_hull(kernel, initial)
        if lo > a or hi < b:
            errs.append(f"meanfield: lo and hi must cover [{a:g}, {b:g}], "
                        "the hull of the initial law and the environment")
        else:
            for what, law in experiments.point_masses(kernel,
                                                      initial).items():
                build("meanfield", meanfield.check_within_centres, lo, hi,
                      solver.m, env_support(law), what)
    objects["concentrate"] = section("concentrate", kernel=kernel,
                                     initial=initial, base_seed=data["seed"])
    # The weight laws must be constant when `moments` runs, not here: every
    # config has a moments section, and the other subcommands take any law.
    objects["moments"] = section("moments")
    return objects


def _solver(cfg: RunConfig) -> meanfield.SolverConfig:
    if cfg.meanfield is None:
        raise ConfigError([f"meanfield: {_ONE_POINT}; give lo and hi"])
    return cfg.meanfield


_MEASURE_CSV = ("t,position,mass", "%.17g,%.17g,%.17g")


def _measure_rows(snapshots):
    """(t, position, mass) rows of (t, measure) snapshots. A simulator
    snapshot is a row of n opinions, each of mass 1/n."""
    for t, m in snapshots:
        if isinstance(m, GridMeasure1D):
            m = m.as_atoms()
        if isinstance(m, AtomicMeasure):
            yield from zip(repeat(t), m.positions.tolist(),
                           m.weights.tolist())
        else:
            yield from zip(repeat(t), m.tolist(), repeat(1.0 / m.size))


def _write_csv(path: Path, cfg: RunConfig, header: str, fmt: str, rows,
               footer=()) -> Path:
    """Write one artifact: the line with the config hash and the seed, the
    header, each row formatted by fmt, then the footer lines."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# config_hash={cfg.config_hash()} seed={cfg.seed}\n"
                 f"{header}\n")
        fh.writelines(fmt % row + "\n" for row in rows)
        fh.writelines(f"{text}\n" for text in footer)
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: RunConfig, out_dir: Path, threads: int) -> list[Path]:
    sim = cfg.simulate
    return [_write_csv(out_dir / "trajectory.csv", cfg, *_MEASURE_CSV,
                       _measure_rows(zip(sim.snapshot_times,
                                         agent_sim.run(sim))))]


def _run_meanfield(cfg: RunConfig):
    solver = _solver(cfg)
    g0 = experiments.initial_grid(cfg.initial, solver.lo, solver.hi, solver.m)
    return meanfield.integrate(g0, cfg.kernel, solver)


def cmd_meanfield(cfg: RunConfig, out_dir: Path, threads: int) -> list[Path]:
    return [_write_csv(out_dir / f"meanfield_t{t:g}.csv", cfg, *_MEASURE_CSV,
                       _measure_rows([(t, g)]))
            for t, g in _run_meanfield(cfg)]


def _moment_params(cfg: RunConfig, K: int) -> moments.MomentParams:
    kernel = cfg.kernel
    parts = ("internal", "external") if kernel.alpha < 1.0 else ("internal",)
    bad = [f"kernel.{part}: moments needs a constant-weight law"
           for part in parts if not isinstance(getattr(kernel, part), Constant)]
    if bad:
        raise ConfigError(bad)
    orders = range(1, K + 1)
    try:  # a float power past the largest float raises, numpy's gives inf
        with np.errstate(over="ignore", invalid="ignore"):
            init = [env_moment(cfg.initial, k) for k in orders]
            env = [env_moment(kernel.environment, k) for k in orders] \
                if kernel.alpha < 1.0 else [0.0] * K
    except OverflowError:
        init = env = [math.inf]
    if not all(map(math.isfinite, init + env)):
        raise ConfigError([f"moments.K: a moment of order at most {K} of the "
                           "initial law or the environment is not a finite "
                           "float"])
    params = moments.MomentParams(alpha=kernel.alpha,
                                  omega=kernel.internal.omega,
                                  upsilon=kernel.external.omega
                                  if kernel.alpha < 1.0 else 0.0,
                                  env_moments=tuple(env),
                                  initial_moments=tuple(init))
    # gamma_1 = (1 - alpha) * upsilon, and the stationary recursion divides
    # by every gamma_k; all are positive exactly when upsilon is, but as
    # floats an upsilon below about 1e-16 rounds gamma_1 to 0
    if params.alpha < 1.0 and not all(moments.gamma_k(params, k) > 0
                                      for k in orders):
        raise ConfigError(["kernel.external: moments needs a positive "
                           "external weight when alpha < 1, for the "
                           "stationary moments: every gamma_k must be "
                           "positive as a float"])
    return params


def cmd_moments(cfg: RunConfig, out_dir: Path, threads: int) -> list[Path]:
    mcfg = cfg.moments
    params = _moment_params(cfg, mcfg.K)
    traj = moments.integrate_moments(params, mcfg.T, mcfg.dt)
    last = traj.times.size - 1  # every stride-th row, and the last, at T
    stride = max(1, traj.times.size // 2000)
    rows = ((traj.times[i], k, traj.values[k - 1, i])
            for i in [*range(0, last, stride), last]
            for k in range(1, params.K + 1))
    paths = [_write_csv(out_dir / "moments.csv", cfg, "t,k,value",
                        "%.17g,%d,%.17g", rows)]
    if params.alpha < 1.0:
        paths.append(_write_csv(out_dir / "limits.csv", cfg, "k,value",
                                "%d,%.17g", enumerate(
                                    moments.limit_moments(params), start=1)))
    return paths


def cmd_concentrate(cfg: RunConfig, out_dir: Path, threads: int) -> list[Path]:
    ccfg = cfg.concentrate
    a, b = experiments.opinion_hull(cfg.kernel, cfg.initial)
    if not b > a:  # the reference's window ignores meanfield.lo and hi
        raise ConfigError([f"concentrate: {_ONE_POINT} for the reference"])
    table = experiments.run_concentration(ccfg, threads=threads)
    paths = [_write_csv(out_dir / "deviations.csv", cfg, "n,replica,D",
                        "%d,%d,%.17g", table.rows)]
    mid_n = ccfg.n_list[len(ccfg.n_list) // 2]  # n_list is sorted
    rows, summaries = [], []
    for eps in ccfg.eps_list or [float(np.median(table.for_n(mid_n)))]:
        try:
            points, slope, stderr = experiments.tail_rates(table, eps)
        except experiments.ExperimentError as e:
            summaries.append(f"# eps={eps:.17g} error={e}")
            continue
        rows += [(eps, n, p) for n, p in points]
        summaries.append(f"# eps={eps:.17g} slope={slope:.17g} "
                         f"stderr={stderr:.17g}")
    paths.append(_write_csv(out_dir / "rates.csv", cfg, "eps,n,tail_prob",
                            "%.17g,%d,%.17g", rows, summaries))
    return paths


def cmd_compare(cfg: RunConfig, out_dir: Path, threads: int) -> list[Path]:
    if cfg.simulate.symmetric:
        raise ConfigError(["simulate.symmetric: compare needs one-sided "
                           "updates, the dynamics the grid solver models"])
    mf_snaps = _run_meanfield(cfg)
    times = tuple(t for t, _ in mf_snaps)
    sim = replace(cfg.simulate, snapshot_times=times,
                  horizon=max(times, default=cfg.simulate.horizon))
    rows = [(t, wasserstein1_1d(AtomicMeasure.empirical(x), ref))
            for x, (t, ref) in zip(agent_sim.run(sim), mf_snaps)]
    return [_write_csv(out_dir / "compare.csv", cfg, "t,w1", "%.17g,%.17g",
                       rows)]


_COMMANDS = {"simulate": cmd_simulate, "meanfield": cmd_meanfield,
             "moments": cmd_moments, "concentrate": cmd_concentrate,
             "compare": cmd_compare}


def dispatch(cfg: RunConfig, command: str, out_dir=None,
             threads: int = 1) -> list[Path]:
    if command not in _COMMANDS:
        raise ValueError(f"unknown subcommand {command!r}")
    out = Path(out_dir) if out_dir is not None else Path(cfg.data["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[command](cfg, out, threads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gossipfield",
        description="Gossip opinion dynamics: simulation, mean-field "
                    "integration, moment analysis, concentration experiments")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run-config path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="parallel workers (concentrate only), at least "
                             "1, capped at the core count")
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            parser.error(f"--threads must be at least 1, got {args.threads}")
    except SystemExit as e:
        return 1 if e.code else 0
    try:
        cfg = parse_config(Path(args.config).read_bytes())
        if args.seed is not None:  # checked as the config's own seed is
            cfg = parse_config(json.dumps({**cfg.data, "seed": args.seed}))
        try:
            paths = dispatch(cfg, args.command, args.out, args.threads)
        except ConfigError:  # a subcommand's own demand on the config
            raise
        except Exception as e:
            print(f"{args.command} error [{type(e).__module__}]: {e}",
                  file=sys.stderr)
            return 2
    except ConfigError as e:
        for v in e.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
