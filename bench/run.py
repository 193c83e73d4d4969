"""gossipfield benchmark: two workloads run through the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; gossipfield is imported from ./src. A run
writes its configs and artifacts under bench/runs/ and removes them when
it ends. It repeats whole rounds of the workload's CLI invocations, at
least one, while another round as long as the last would end within S
seconds of the start. It checks every round's outputs and prints as its
last line a JSON object with `correct`, `attempted`, `failed` and
`metrics`.

--trace 0 launches `python3 -m gossipfield.cli` and reports the
end-to-end metrics: wall_s and cpu_s (user + system of the CLI and its
pool workers) of the fastest round, peak_rss_mb (largest process, median
over rounds) and setup_s (launch to exit of a process that imports
gossipfield.cli and parses the config, median of several). --trace 1
launches bench/traced_cli.py instead and reports the per-layer metrics of
tracing.layer_metrics().
See bench/README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

SETUP_PROBES = 5
WIDTH = 10.0
UNIFORM = {"type": "uniform", "a": 0.0, "b": WIDTH}
# the concentration pool's size: nproc on the 2-core reference machine
POOL = min(2, os.cpu_count() or 1)


def tail_eps(n_list):
    """eps values for the tail fits: 1.2 times the closed-form W1 scale at
    the geometric middle of each adjacent pair of n. With few replicas one
    eps alone leaves the fit unresolved on 1-10% of seeds (fewer than two
    n with a tail strictly inside (0, 1)); one per pair resolved at least
    one fit in every one of 4000 resampled runs."""
    return [1.2 * checks.w1_uniform_scale(WIDTH, math.sqrt(a * b))
            for a, b in zip(n_list, n_list[1:])]


def consensus_config(seed):
    n_list = [1000, 3000, 10000]
    return {"seed": seed,
            "kernel": {"alpha": 1.0, "internal": {
                "type": "constant", "omega": 0.5}},
            "initial": UNIFORM,
            "concentrate": {"tau": 2.5, "n_list": n_list, "replicas": 40,
                            "eps_list": tail_eps(n_list)}}


ENV_AGENTS = 50_000


def environment_config(seed):
    return {"seed": seed,
            "kernel": {"alpha": 0.5,
                       "internal": {"type": "constant", "omega": 0.5},
                       "external": {"type": "constant", "omega": 0.5},
                       "environment": {"type": "bump"}},
            "initial": UNIFORM,
            "moments": {"K": 8, "T": 100.0, "dt": 0.01},
            "simulate": {"n": ENV_AGENTS},
            "meanfield": {"m": 1000, "dt": 0.01, "scheme": "rk4",
                          "horizon": 10.0,
                          "snapshot_times": list(range(11))}}


def check_concentration(out, cfg):
    sec = cfg["concentrate"]
    return checks.check_concentration(out, sec["n_list"], sec["replicas"],
                                      WIDTH)


def check_environment(out, cfg):
    return checks.check_environment(out, ENV_AGENTS)


# name -> (config builder, [(subcommand, threads)], output check)
WORKLOADS = {
    "concentration-consensus": (consensus_config, [("concentrate", POOL)],
                                check_concentration),
    "environment": (environment_config, [("moments", 1), ("compare", 1)],
                    check_environment),
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    # one BLAS thread per process: with the library default (one per
    # core) the pool's two workers would run four threads on two cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(argv, env, log: Path):
    """Run argv to its end with stdout discarded and stderr in `log`.
    Returns (exit code, wall seconds, CPU seconds, peak RSS in MB); CPU
    and RSS include the descendants it waited for, such as pool workers.
    """
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
               (os.POSIX_SPAWN_OPEN, 2, str(log),
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions,
                         setpgroup=0)
    try:
        _, status, ru = os.wait4(pid, 0)
    except BaseException:
        os.killpg(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - t0
    return (os.waitstatus_to_exitcode(status), wall,
            ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def run(workload, seed, seconds, trace) -> dict:
    build, invocations, check = WORKLOADS[workload]
    cfg = build(seed)
    env = child_env()
    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS))
    try:
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=1))
        t_start = time.perf_counter()
        setup = []
        if not trace:
            probe = ("import sys; from gossipfield import cli; "
                     "cli.parse_config(open(sys.argv[1], 'rb').read())")
            for _ in range(SETUP_PROBES):
                code, wall, _, _ = launch(
                    [sys.executable, "-c", probe, str(cfg_path)], env,
                    work / "probe.log")
                if code != 0:
                    raise RuntimeError("set-up probe failed: "
                                       + (work / "probe.log").read_text())
                setup.append(wall)

        attempted = failed = 0
        errors, rounds, spans = [], [], []
        while True:
            round_start = time.perf_counter()
            out = work / f"out{len(rounds)}"
            wall = cpu = rss = 0.0
            ok = True
            for command, threads in invocations:
                argv = ["-m", "gossipfield.cli"]
                if trace:
                    spans_path = work / "spans.json"
                    argv = [str(HERE / "traced_cli.py"), str(spans_path)]
                argv = [sys.executable, *argv, command,
                        "--config", str(cfg_path), "--out", str(out),
                        "--threads", str(threads)]
                log = work / f"{command}.log"
                code, w, c, r = launch(argv, env, log)
                attempted += 1
                if code != 0:
                    failed += 1
                    ok = False
                    print(f"{command} exited {code}: {log.read_text()}",
                          file=sys.stderr)
                    continue
                wall, cpu, rss = wall + w, cpu + c, max(rss, r)
                if trace:
                    spans += json.loads(spans_path.read_text())
            if ok:
                errors += check(out, cfg)
                rounds.append((wall, cpu, rss))
            shutil.rmtree(out, ignore_errors=True)
            # start another round only if it should end inside the window
            now = time.perf_counter()
            if now - t_start + (now - round_start) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if trace:
        metrics = tracing.layer_metrics(spans, max(1, len(rounds)))
    else:
        # times of the fastest round: on a shared host a neighbour's load
        # slows rounds by up to 2x for tens of seconds, and the fastest
        # round is the one it slowed least
        fastest = min(rounds) if rounds else (0, 0, 0)
        rsss = [r[2] for r in rounds] or [0]
        metrics = {"wall_s": (fastest[0], "s"),
                   "setup_s": (statistics.median(setup), "s"),
                   "cpu_s": (fastest[1], "s"),
                   "peak_rss_mb": (statistics.median(rsss), "MB")}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    # per-round walls; in a traced run, compared with wall_s of an
    # untraced run, they give the tracing overhead
    print("round walls = " + ", ".join(f"{r[0]:.4g}" for r in rounds)
          + (" s (traced)" if trace else " s"))
    print(f"rounds = {len(rounds)}, attempted = {attempted}, "
          f"failed = {failed}")
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind through launch() so the running CLI is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "gossipfield" / "cli.py").is_file():
        print(f"error: no gossipfield source under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
