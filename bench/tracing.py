"""In-memory span tracer for the benchmark's traced run.

`install()` wraps the calls into each gossipfield layer's entry points,
patching the names the calling module looks up, so that a span records
each call: its layer, its name, its duration and the time covered by its
child spans (a layer's self time is the difference). Spans stay in memory;
`traced_cli.py` writes them out when the CLI run ends, and
`layer_metrics()` turns the spans of one or more runs into the per-layer
metrics.

Replica jobs of the concentration pool run in worker processes. Each job
records its spans apart and hands them back attached to its result row,
so the parent collects the workers' spans through the pool's own result
channel.

Counts come from return values (jumps, moment steps) or are computed from
the call's inputs (solver steps, the pickled size of a replica job).
"""

from __future__ import annotations

import functools
import os
import pickle
import time

import numpy as np

LAYERS = ("cli", "experiments", "meanfield", "agent_sim", "measures",
          "moments", "kernels")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.reference_calls = 0

    def record(self, layer: str, name: str, dur: float):
        """A span measured outside `wrap`, such as the CLI's import."""
        self.spans.append({"layer": layer, "name": name, "dur": dur,
                           "child": 0.0})

    def wrap(self, owner, attr: str, layer: str, name, after=None):
        """Replace owner.attr by a wrapper that records a span per call.

        `name` is a string or a callable giving it at call time; `after`,
        if given, is called as after(span, args, result) to add counts.
        functools.wraps keeps the module and qualified name, so a wrapped
        module-level function still pickles by reference.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = {"layer": layer,
                    "name": name() if callable(name) else name,
                    "dur": 0.0, "child": 0.0}
            self.stack.append(span)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span["dur"] = time.perf_counter() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1]["child"] += span["dur"]
                self.spans.append(span)
            if after is not None:
                after(span, args, result)
            return result

        setattr(owner, attr, wrapper)


class TracedRow(tuple):
    """A replica result (n, replica, D) carrying the spans its job
    recorded. It behaves as the plain tuple everywhere the program uses
    it, and pickles with its attributes."""


def solver_steps(cfg) -> int:
    """Computed: the step count meanfield.integrate takes for a
    SolverConfig, i.e. the nominal dt grid merged with the snapshot times
    (boundaries closer than 1e-9 merged)."""
    n_steps = int(np.ceil(cfg.horizon / cfg.dt - 1e-9))
    times = np.union1d(cfg.dt * np.arange(1, n_steps + 1),
                       [s for s in cfg.snapshot_times if s > 1e-9])
    if times.size:
        times = times[np.concatenate(([True], np.diff(times) > 1e-9))]
    return int(times.size)


def install(tracer: Tracer):
    """Wrap every layer entry point the CLI reaches."""
    from gossipfield import (agent_sim, cli, experiments, meanfield,
                             moments)

    wrap = tracer.wrap

    # cli: config parsing and the subcommand; the subcommand's self time
    # is building domain objects and writing the CSV artifacts
    wrap(cli, "parse_config", "cli", "parse")
    wrap(cli, "dispatch", "cli", "dispatch")

    # experiments: the concentration harness and its replica jobs
    def harvest(span, args, table):
        for row in table.rows:
            for s in getattr(row, "spans", ()):
                tracer.spans.append(s)
                if s.get("top") and not s["worker"]:
                    # a job run in this process: its time is not the
                    # harness's own
                    span["child"] += s["dur"]

    def start_concentration():
        tracer.reference_calls = 0
        return "run_concentration"

    wrap(experiments, "run_concentration", "experiments",
         start_concentration, after=harvest)
    wrap(experiments, "tail_rates", "experiments", "tail_rates")
    job = experiments._one_replica
    parent_pid = os.getpid()

    @functools.wraps(job)
    def traced_job(args):
        span = {"layer": "experiments", "name": "replica_job", "dur": 0.0,
                "child": 0.0, "top": True,
                "job_bytes": len(pickle.dumps(args))}
        saved = tracer.spans, tracer.stack
        tracer.spans, tracer.stack = [], [span]
        try:
            t0 = time.perf_counter()
            row = job(args)
            span["dur"] = time.perf_counter() - t0
            spans = tracer.spans + [span]
        finally:
            tracer.spans, tracer.stack = saved
        for s in spans:
            s["worker"] = os.getpid() != parent_pid
        out = TracedRow(row)
        out.spans = spans
        return out

    experiments._one_replica = traced_job

    # meanfield: the integrator (the concentration reference solves are
    # its first call per harness run, the refinement solves the rest),
    # the field evaluator's set-up and its F evaluations
    def add_steps(span, args, result):
        span["steps"] = solver_steps(args[2])

    def reference_name():
        tracer.reference_calls += 1
        return "reference" if tracer.reference_calls == 1 else "refinement"

    wrap(meanfield, "integrate", "meanfield", "integrate", after=add_steps)
    wrap(experiments, "integrate", "meanfield", reference_name,
         after=add_steps)
    wrap(meanfield._FieldEvaluator, "__init__", "meanfield", "setup")
    wrap(meanfield._FieldEvaluator, "apply_raw", "meanfield", "f_eval")

    # agent_sim: one replica run; the jump count is in the returned state
    def add_jumps(span, args, result):
        span["jumps"] = result[1].update_count

    wrap(agent_sim, "run", "agent_sim", "run")
    wrap(experiments, "run", "agent_sim", "run")
    wrap(agent_sim, "run_with_state", "agent_sim", "run_with_state",
         after=add_jumps)

    # measures: exact W1
    wrap(experiments, "wasserstein1_1d", "measures", "w1")
    wrap(cli, "wasserstein1_1d", "measures", "w1")

    # moments: the RK4 moment system and the stationary recursion
    def add_moment_steps(span, args, result):
        span["steps"] = int(result.times.size - 1)

    wrap(moments, "integrate_moments", "moments", "integrate",
         after=add_moment_steps)
    wrap(moments, "limit_moments", "moments", "limit")

    # kernels: environment set-up (supports, moments, atoms, samplers)
    for owner, attr in ((cli, "env_moment"), (cli, "env_support"),
                        (experiments, "env_support"),
                        (meanfield, "env_atoms"),
                        (agent_sim, "make_env_sampler")):
        wrap(owner, attr, "kernels", "env_setup")


def layer_metrics(spans: list[dict], rounds: int) -> dict:
    """Per-layer metrics per round from the spans of `rounds` rounds.

    Times and counts are totals per round; *_ms and *_us are means per
    call, mjumps_per_s is jumps per second inside agent_sim.run. Worker
    spans count in full, so layer times can add up to more than the wall
    time when the pool runs jobs side by side.
    """
    def of(layer, *names):
        return [s for s in spans if s["layer"] == layer
                and (not names or s["name"] in names)]

    def dur(layer, *names):
        return sum(s["dur"] for s in of(layer, *names))

    def per_call(total, calls, scale):
        return scale * total / calls if calls else 0.0

    solves = of("meanfield", "integrate", "reference", "refinement")
    f_evals = len(of("meanfield", "f_eval"))
    jobs = of("experiments", "replica_job")
    jumps = sum(s.get("jumps", 0) for s in of("agent_sim", "run_with_state"))
    w1_calls = len(of("measures", "w1"))
    moment_steps = sum(s["steps"] for s in of("moments", "integrate"))
    reference, refinement = dur("meanfield", "reference"), \
        dur("meanfield", "refinement")
    m = {
        "meanfield.f_evals": (f_evals / rounds, "count"),
        "meanfield.steps": (sum(s["steps"] for s in solves) / rounds,
                            "count"),
        "meanfield.f_eval_ms": (per_call(dur("meanfield", "f_eval"),
                                         f_evals, 1e3), "ms"),
        "meanfield.integrate_s": (sum(s["dur"] for s in solves) / rounds,
                                  "s"),
        "meanfield.setup_s": (dur("meanfield", "setup") / rounds, "s"),
        "experiments.reference_s": (reference / rounds, "s"),
        "experiments.refinement_s": (refinement / rounds, "s"),
        "experiments.replicas_s": (
            (dur("experiments", "run_concentration") - reference
             - refinement) / rounds, "s"),
        "experiments.job_bytes": (per_call(
            sum(s["job_bytes"] for s in jobs), len(jobs), 1.0), "bytes"),
        "agent_sim.jumps": (jumps / rounds, "count"),
        "agent_sim.run_s": (dur("agent_sim", "run") / rounds, "s"),
        "agent_sim.mjumps_per_s": (per_call(jumps, dur("agent_sim", "run"),
                                            1e-6), "Mjump/s"),
        "measures.w1_calls": (w1_calls / rounds, "count"),
        "measures.w1_us": (per_call(dur("measures", "w1"), w1_calls, 1e6),
                           "us"),
        "moments.rk4_steps": (moment_steps / rounds, "count"),
        # computed: integrate_moments time over its 4 RHS calls per step
        "moments.rhs_us": (per_call(dur("moments", "integrate"),
                                    4 * moment_steps, 1e6), "us"),
        "moments.integrate_s": (dur("moments", "integrate") / rounds, "s"),
        "moments.limit_s": (dur("moments", "limit") / rounds, "s"),
        "kernels.env_setup_s": (dur("kernels", "env_setup") / rounds, "s"),
        "cli.import_s": (dur("cli", "import") / rounds, "s"),
        "cli.parse_s": (dur("cli", "parse") / rounds, "s"),
        "cli.write_s": (sum(s["dur"] - s["child"]
                            for s in of("cli", "dispatch")) / rounds, "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(s["dur"] - s["child"]
                                    for s in of(layer)) / rounds, "s")
    return m
