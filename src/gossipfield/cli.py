"""Command-line front end: JSON run-config in, CSV artifacts out.

Subcommands: simulate, meanfield, moments, concentrate, compare. Every
artifact starts with a comment line carrying the sha-256 of the canonical
config and the seed, so outputs are traceable to their inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import agent_sim, experiments, meanfield, moments
from .agent_sim import InitAtoms, InitGrid, InitUniform
from .kernels import (BoundedConfidence, Constant, EnvAtom, EnvBump, EnvGrid,
                      EnvUniform, FiniteMixture, Gaussian, KernelError,
                      KernelSpec, env_moment,
                      env_support)  # noqa: F401 (bench/tracing.py wraps it)
from .measures import (AtomicMeasure, GridMeasure1D, MeasureError, moment,
                       wasserstein1_1d, write_measure_csv)


class ConfigError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


_TOP_KEYS = {"seed", "output_dir", "kernel", "initial", "simulate",
             "meanfield", "moments", "concentrate"}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# JSON types of the config fields. Ranges and domains are not checked here:
# the objects built from the config check them (see _check_domain).
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
_CONTEXT = {"kernel", "initial", "seed", "base_seed", "ref_dt", "ref_m"}

# {"type": ...} objects: type -> class; every field is required
_LAWS = {"constant": Constant, "bounded_confidence": BoundedConfidence,
         "gaussian": Gaussian, "mixture": FiniteMixture}
_ENVIRONMENTS = {"atom": EnvAtom, "uniform": EnvUniform, "bump": EnvBump,
                 "grid": EnvGrid}
_INITIALS = {"uniform": InitUniform, "atoms": InitAtoms, "grid": InitGrid}
# kernel part -> (its types, what they name); a null part (no external law,
# no environment) takes KernelSpec's default
_KERNEL_PARTS = {"internal": (_LAWS, "weight law"),
                 "external": (_LAWS, "weight law"),
                 "environment": (_ENVIRONMENTS, "environment")}


def _grid(spec: dict) -> GridMeasure1D:
    return GridMeasure1D(float(spec["lo"]), float(spec["hi"]),
                         np.asarray(spec["cells"], dtype=float)).normalize()


# The two JSON forms that are not their class's fields: a grid is written
# flat, as lo, hi and cells, and atoms as [x, w] points.
# class -> (key -> JSON type, builder)
_GRID = {"lo": "number", "hi": "number", "cells": "number list"}
_FORMS = {
    EnvGrid: (_GRID, lambda spec: EnvGrid(_grid(spec))),
    InitGrid: (_GRID, lambda spec: InitGrid(_grid(spec))),
    InitAtoms: ({"points": "[x, w] list"}, lambda spec: InitAtoms(
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
    """Validated, default-filled run configuration."""

    data: dict

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
        errs, "initial", data["initial"], _INITIALS, "initial law")

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

    cfg = RunConfig(_normalize(data))
    _check_domain(cfg, shape_ok, errs)
    if errs:
        raise ConfigError(errs)
    return cfg


def _normalize(obj):
    if isinstance(obj, dict):
        return {k: _normalize(obj[k]) for k in sorted(obj)}
    if isinstance(obj, list):
        return [_normalize(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return int(obj) if obj.is_integer() and abs(obj) < 2 ** 53 else obj
    return obj


def serialize(cfg: RunConfig) -> str:
    return json.dumps(cfg.data, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# config -> domain objects


def _cast_fields(cls, values: dict) -> dict:
    """The JSON fields of cls from `values`, each cast by its annotation."""
    out = {}
    for key, (ann, _) in _json_fields(cls).items():
        v = values[key]
        out[key] = v if v is None else _ANNOTATIONS[ann][1](v)
    return out


def _build_object(spec: dict, classes: dict):
    cls = classes[spec["type"]]
    if cls in _FORMS:
        return _FORMS[cls][1](spec)
    return cls(**_cast_fields(cls, spec))


def build_kernel(cfg: RunConfig) -> KernelSpec:
    k = cfg.data["kernel"]
    return KernelSpec(float(k["alpha"]), **{
        part: _build_object(k[part], classes)
        for part, (classes, _) in _KERNEL_PARTS.items()
        if k[part] is not None})


def build_initial(cfg: RunConfig):
    return _build_object(cfg.data["initial"], _INITIALS)


def build_section(cfg: RunConfig, section: str, **context):
    """The dataclass of a config section: its JSON fields, cast by
    annotation, and `context` for the fields the JSON does not set (and for
    a null lo and hi)."""
    cls = _SECTIONS[section]
    return cls(**{**_cast_fields(cls, cfg.data[section]), **context})


_DOMAIN_ERRORS = (KernelError, MeasureError, agent_sim.SimError,
                  meanfield.SolverError, moments.MomentError,
                  experiments.ExperimentError)


def _check_domain(cfg: RunConfig, shape_ok: dict, errs: list):
    """Build every object the subcommands run, through the builders they
    call, and record each constructor's error under its config path. A part
    whose shape is unsound, or whose constructor failed, is passed on as
    None: each constructor checks only its own fields."""

    def build(path, make, *args, **kwargs):
        if not shape_ok.get(path, True):
            return None
        try:
            return make(*args, **kwargs)
        except _DOMAIN_ERRORS as e:
            errs.append(f"{path}: {e}")
            return None

    def section(name, **context):
        return build(name, build_section, cfg, name, **context)

    k = cfg.data["kernel"]
    parts = {part: build(f"kernel.{part}", _build_object, k[part], classes)
             for part, (classes, _) in _KERNEL_PARTS.items()
             if k[part] is not None}
    kernel = build("kernel", lambda: KernelSpec(float(k["alpha"]), **parts))
    initial = build("initial", build_initial, cfg)
    section("simulate", kernel=kernel, initial=initial, seed=cfg.seed)
    # Without a configured lo/hi the solver spans the hull of the initial
    # law and the environment, which this section does not set; the unit
    # interval stands in for it so that the section's own fields are checked.
    # A configured window must cover that hull: the grid would cut the
    # initial law short, or not reach the environment.
    mf = cfg.data["meanfield"]
    window = mf["lo"] is not None
    lo, hi = (mf["lo"], mf["hi"]) if window else (0.0, 1.0)
    solver = section("meanfield", lo=lo, hi=hi)
    if window and solver is not None and kernel is not None \
            and initial is not None:
        a, b = experiments.solver_domain(kernel, initial)
        if lo > a or hi < b:
            errs.append(f"meanfield: lo and hi must cover [{a:g}, {b:g}], "
                        "the hull of the initial law and the environment")
    section("concentrate", kernel=kernel, initial=initial, base_seed=cfg.seed)
    # The weight laws must be constant when `moments` runs, not here: every
    # config has a moments section, and the other subcommands take any law.
    section("moments")


def _solver_domain(cfg: RunConfig) -> tuple[float, float]:
    mf = cfg.data["meanfield"]
    if mf["lo"] is not None:
        return float(mf["lo"]), float(mf["hi"])
    return experiments.solver_domain(build_kernel(cfg), build_initial(cfg))


def _artifact(path: Path, cfg: RunConfig):
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "w", newline="\n")
    fh.write(f"# config_hash={cfg.config_hash()} seed={cfg.seed}\n")
    return fh


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: RunConfig, out_dir: Path, threads: int) -> list[Path]:
    sim = build_section(cfg, "simulate", kernel=build_kernel(cfg),
                        initial=build_initial(cfg), seed=cfg.seed)
    path = out_dir / "trajectory.csv"
    with _artifact(path, cfg) as fh:
        write_measure_csv(fh, agent_sim.run(sim))
    return [path]


def _run_meanfield(cfg: RunConfig):
    lo, hi = _solver_domain(cfg)
    solver = build_section(cfg, "meanfield", lo=lo, hi=hi)
    g0 = experiments.initial_grid(build_initial(cfg), lo, hi, solver.m)
    return meanfield.integrate(g0, build_kernel(cfg), solver)


def cmd_meanfield(cfg: RunConfig, out_dir: Path, threads: int) -> list[Path]:
    snaps = _run_meanfield(cfg)
    paths = []
    for t, g in snaps:
        path = out_dir / f"meanfield_t{t:g}.csv"
        with _artifact(path, cfg) as fh:
            write_measure_csv(fh, [(t, g)])
        paths.append(path)
    return paths


def _moment_params(cfg: RunConfig, K: int) -> moments.MomentParams:
    kernel = build_kernel(cfg)
    parts = ("internal", "external") if kernel.alpha < 1.0 else ("internal",)
    bad = [f"kernel.{part}: moments needs a constant-weight law"
           for part in parts if not isinstance(getattr(kernel, part), Constant)]
    if bad:
        raise ConfigError(bad)
    lo, hi = _solver_domain(cfg)
    g0 = experiments.initial_grid(build_initial(cfg), lo, hi,
                                  cfg.data["meanfield"]["m"])
    init = [moment(g0, k) for k in range(1, K + 1)]
    env = [env_moment(kernel.environment, k) for k in range(1, K + 1)] \
        if kernel.alpha < 1.0 else [0.0] * K
    return moments.MomentParams(alpha=kernel.alpha,
                                omega=kernel.internal.omega,
                                upsilon=kernel.external.omega
                                if kernel.alpha < 1.0 else 0.0,
                                env_moments=tuple(env),
                                initial_moments=tuple(init), K=K)


def cmd_moments(cfg: RunConfig, out_dir: Path, threads: int) -> list[Path]:
    mcfg = build_section(cfg, "moments")
    params = _moment_params(cfg, mcfg.K)
    traj = moments.integrate_moments(params, mcfg.T, mcfg.dt)
    paths = []
    path = out_dir / "moments.csv"
    with _artifact(path, cfg) as fh:
        fh.write("t,k,value\n")
        last = traj.times.size - 1  # every stride-th row, and the last, at T
        stride = max(1, traj.times.size // 2000)
        for i in [*range(0, last, stride), last]:
            for k in range(1, params.K + 1):
                fh.write("%.17g,%d,%.17g\n"
                         % (traj.times[i], k, traj.values[k - 1, i]))
    paths.append(path)
    if params.alpha < 1.0:
        lpath = out_dir / "limits.csv"
        lim = moments.limit_moments(params)
        with _artifact(lpath, cfg) as fh:
            fh.write("k,value\n")
            for k, v in enumerate(lim, start=1):
                fh.write("%d,%.17g\n" % (k, v))
        paths.append(lpath)
    return paths


def cmd_concentrate(cfg: RunConfig, out_dir: Path, threads: int) -> list[Path]:
    ccfg = build_section(cfg, "concentrate", kernel=build_kernel(cfg),
                         initial=build_initial(cfg), base_seed=cfg.seed)
    table = experiments.run_concentration(ccfg, threads=threads)
    dpath = out_dir / "deviations.csv"
    with _artifact(dpath, cfg) as fh:
        fh.write("n,replica,D\n")
        for n, r, d in table.rows:
            fh.write("%d,%d,%.17g\n" % (n, r, d))
    eps_list = list(ccfg.eps_list)
    if not eps_list:
        mid_n = ccfg.n_list[len(ccfg.n_list) // 2]
        eps_list = [float(np.median(table.for_n(mid_n)))]
    rpath = out_dir / "rates.csv"
    with _artifact(rpath, cfg) as fh:
        fh.write("eps,n,tail_prob\n")
        summaries = []
        for eps in eps_list:
            try:
                points, slope, stderr = experiments.tail_rates(table, eps)
            except experiments.ExperimentError as e:
                summaries.append(f"# eps={eps:.17g} error={e}")
                continue
            for n, p in points:
                fh.write("%.17g,%d,%.17g\n" % (eps, n, p))
            summaries.append(f"# eps={eps:.17g} slope={slope:.17g} "
                             f"stderr={stderr:.17g}")
        for line in summaries:
            fh.write(line + "\n")
    return [dpath, rpath]


def cmd_compare(cfg: RunConfig, out_dir: Path, threads: int) -> list[Path]:
    mf_snaps = _run_meanfield(cfg)
    times = tuple(t for t, _ in mf_snaps)
    sim = build_section(cfg, "simulate", kernel=build_kernel(cfg),
                        initial=build_initial(cfg), seed=cfg.seed)
    sim = replace(sim, horizon=max(times, default=sim.horizon),
                  snapshot_times=times)
    sim_snaps = agent_sim.run(sim)
    path = out_dir / "compare.csv"
    with _artifact(path, cfg) as fh:
        fh.write("t,w1\n")
        for (t, emp), (_, ref) in zip(sim_snaps, mf_snaps):
            fh.write("%.17g,%.17g\n" % (t, wasserstein1_1d(emp, ref)))
    return [path]


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
                        help="parallel workers (concentrate only), capped at "
                             "the core count")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code else 0
    try:
        cfg = parse_config(Path(args.config).read_bytes())
        if args.seed is not None:  # checked as the config's own seed is
            errs = []
            if not _check_type(errs, "seed", args.seed, "integer >= 0"):
                raise ConfigError(errs)
            cfg = RunConfig(_normalize({**cfg.data, "seed": args.seed}))
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
