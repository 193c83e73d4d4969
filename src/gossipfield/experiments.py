"""Concentration harness: how far the finite-n empirical process strays
from the mean-field solution, as a function of n.

For each population size and replica we record
D = max over sample times of W1(empirical measure, mean-field reference),
then estimate tail probabilities P(D >= eps) and the slope of log P versus
n. The mean-field reference (RK4) is solved on the coarsest grid of a
short ladder whose discretization error, estimated by refining the grid
and, apart, the step, is small against the measured deviations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .agent_sim import SimConfig, run
from .kernels import (Atom, Atoms, Bump, Grid, KernelSpec, Law, Uniform,
                      env_atoms, env_support, sampling_grid)
from .meanfield import (MAX_STEPS, SolverConfig, check_within_centres,
                        integrate, split_onto_centres)
from .measures import (GridMeasure1D, MeasureError, checked_times,
                       quantile_slices, wasserstein1_1d, wasserstein1_rows)


class ExperimentError(ValueError):
    pass


@dataclass(frozen=True)
class ConcentrationConfig:
    kernel: KernelSpec
    initial: Law
    tau: float = 5.0
    sample_times: tuple[float, ...] = ()
    n_list: tuple[int, ...] = (100, 300, 1000, 3000)
    replicas: int = 100
    eps_list: tuple[float, ...] = ()
    base_seed: int = 0

    def __post_init__(self):
        times = checked_times(
            tuple(self.sample_times) or np.linspace(0.0, self.tau, 20),
            self.tau, ExperimentError, "sample times", "tau")
        if not self.n_list or min(self.n_list) < 2:
            raise ExperimentError("n_list needs population sizes >= 2")
        if len(set(self.n_list)) < len(self.n_list):
            raise ExperimentError("n_list repeats a population size")
        if any(not eps > 0 for eps in self.eps_list):
            raise ExperimentError("every eps in eps_list must be positive")
        if self.replicas < 20:
            raise ExperimentError("need >= 20 replicas for tail estimation")
        # the refinement's step, _REF_DT / 2, is the finest a run takes
        if self.tau / (_REF_DT / 2) > MAX_STEPS:
            raise ExperimentError(
                f"tau must be at most {MAX_STEPS * _REF_DT / 2:g}, "
                f"{MAX_STEPS:g} steps of the reference's finest step "
                f"{_REF_DT / 2:g}")
        object.__setattr__(self, "sample_times", times)
        object.__setattr__(self, "n_list",
                           tuple(sorted(int(n) for n in self.n_list)))


@dataclass(frozen=True)
class DeviationTable:
    """Rows (n, replica_index, D), ordered by (n, replica_index)."""

    rows: tuple

    def for_n(self, n: int) -> np.ndarray:
        return np.array([d for (nn, _, d) in self.rows if nn == n])


def opinion_hull(kernel: KernelSpec,
                 initial: Law) -> tuple[float, float]:
    """The hull of the initial law's support and, when alpha < 1, the
    environment's."""
    lo, hi = env_support(initial)
    if kernel.alpha < 1.0 and kernel.environment is not None:
        elo, ehi = env_support(kernel.environment)
        lo, hi = min(lo, elo), max(hi, ehi)
    return lo, hi


def point_masses(kernel: KernelSpec, initial: Law) -> dict[str, Law]:
    """The laws that the grid solver splits between cell centres as point
    masses, each under what it is: the environment when alpha < 1, and the
    start when it is an atom or atoms. Each must lie within the first and
    last cell centres."""
    laws = {}
    if kernel.alpha < 1.0:
        laws["the environment's"] = kernel.environment
    if isinstance(initial, (Atom, Atoms)):
        laws["the initial atoms'"] = initial
    return laws


def solver_domain(kernel: KernelSpec, initial: Law,
                  m: int) -> tuple[float, float]:
    """The grid solver's default window for m cells: the opinion hull.
    Where the solver splits any law as point masses (point_masses), it is
    widened by half a cell at each end, so that its first and last cell
    centres are the hull's ends, and every such point mass lies within
    them."""
    lo, hi = opinion_hull(kernel, initial)
    if point_masses(kernel, initial):
        pad = (hi - lo) / (2 * (m - 1))
        lo, hi = lo - pad, hi + pad
    return lo, hi


# The reference grids tried in turn, each at the step _REF_DT: the first
# whose discretization error passes the gate is the reference.
_REF_GRIDS = (500, 1000, 2000)
_REF_DT = 0.05


def _reference(cfg: ConcentrationConfig, m: int, dt: float = _REF_DT):
    lo, hi = solver_domain(cfg.kernel, cfg.initial, m)
    g0 = initial_grid(cfg.initial, lo, hi, m)
    solver = SolverConfig(lo, hi, m=m, dt=dt, horizon=cfg.tau,
                          snapshot_times=cfg.sample_times, scheme="rk4")
    return integrate(g0, cfg.kernel, solver)


def initial_grid(initial: Law, lo: float, hi: float,
                 m: int) -> GridMeasure1D:
    """Any law on the solver's m cells over [lo, hi]. A uniform law and a
    density (a grid law, or the bump) are read as what the simulator
    samples: each cell takes the mass of its overlap, with the uniform
    law's interval or the density's sampling_grid. Atoms are split
    linearly between the two cell centres around each, as the solver splits
    every point mass, which keeps their mean; they must lie within the
    first and last centres, as solver_domain's window has them.

    A window that misses a uniform law or a density entirely raises
    MeasureError. One that covers only part of it is not checked: the
    cells hold the part inside, renormalised, and the rest is dropped.
    solver_domain's window, and the CLI's configured one, cover the law."""
    if isinstance(initial, Uniform):
        return GridMeasure1D.uniform(lo, hi, m, support=(initial.a, initial.b))
    h = (hi - lo) / m
    if isinstance(initial, (Grid, Bump)):
        g = sampling_grid(initial)
        cdf = np.concatenate(([0.0], np.cumsum(g.cells)))
        cells = np.diff(np.interp(lo + np.arange(m + 1) * h, g.edges, cdf))
        if not cells.sum() > 0:
            raise MeasureError("support does not intersect grid")
    else:
        pos, mass = env_atoms(initial, m)
        check_within_centres(lo, hi, m, pos, "the initial atoms'")
        cells = split_onto_centres(lo, h, m, pos, mass)
    return GridMeasure1D(lo, hi, cells / cells.sum())


def _replica_seed(base_seed: int, n: int, replica: int) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(n, replica))
    state = ss.generate_state(2, dtype=np.uint64)
    return int(state[0]) << 64 | int(state[1])


# what every replica job of the current run shares: the config, the
# reference snapshots (the solver's grids, on one window) cut, as one
# block, into the quantile slices of each n, and the snapshot block. Set
# once per process by _init_replicas, so each job carries only
# (n, replicas) and allocates no array per snapshot.
_shared = {}


def _init_replicas(cfg: ConcentrationConfig, slices: dict) -> None:
    _shared.update(cfg=cfg, slices=slices, block=np.empty(0))


def _one_replica(args) -> list[tuple[int, int, float]]:
    """The rows (n, replica, D) of a batch of replicas of one n, run in
    lockstep. (The name is from when a job ran one replica; the bench
    tracer wraps the function by it.)"""
    n, replicas = args
    cfg = _shared["cfg"]
    seeds = [_replica_seed(cfg.base_seed, n, r) for r in replicas]
    sim = SimConfig(n=n, kernel=cfg.kernel, initial=cfg.initial,
                    horizon=cfg.tau, snapshot_times=cfg.sample_times,
                    allow_self=True)
    # the jobs come largest n first, so the first one sizes the block
    size = len(replicas) * len(cfg.sample_times) * n
    if _shared["block"].size < size:
        _shared["block"] = np.empty(size)
    block = run(sim, _shared["block"][:size].reshape(
        len(replicas), len(cfg.sample_times), n), seeds=seeds)
    slices = _shared["slices"][n]
    return [(n, r, float(wasserstein1_rows(rows, slices).max()))
            for r, rows in zip(replicas, block)]


def _discretization_errors(cfg: ConcentrationConfig, fine: tuple,
                           m: int) -> tuple[float, float]:
    """The error estimates of the reference at m cells, as W1 between
    densities, the reading D takes of the reference too: `fine` holds its
    snapshots. Space: halve m at the same step; time: step doubling at
    m/2."""
    coarse, fine_step = ([g for _, g in _reference(cfg, m // 2, dt)]
                         for dt in (_REF_DT, _REF_DT / 2))
    return (max(map(wasserstein1_1d, fine, coarse)),
            max(map(wasserstein1_1d, coarse, fine_step)))


# replicas per pool task, run in lockstep; fewer where their snapshot
# block would pass _BATCH_BYTES
_BATCH = 10
_BATCH_BYTES = 16 << 20


def _batches(cfg: ConcentrationConfig) -> list[tuple[int, range]]:
    """The pool's jobs: batches of replicas of one n, the largest n first,
    so that a pool ends on its shortest jobs."""
    jobs = []
    for n in reversed(cfg.n_list):
        per = _BATCH_BYTES // (8 * len(cfg.sample_times) * n)
        size = max(1, min(_BATCH, per))
        jobs += [(n, range(r, min(r + size, cfg.replicas)))
                 for r in range(0, cfg.replicas, size)]
    return jobs


def run_concentration(cfg: ConcentrationConfig,
                      threads: int = 1) -> DeviationTable:
    """Compute the deviation table. Deterministic given base_seed; replicas
    use allow_self=True to match the independent-sampling structure of the
    mean-field operator. `threads` workers, capped at the core count, run
    them against the reference on each grid of _REF_GRIDS in turn, with
    the same seeds, until its discretization error is below 0.1 times the
    smallest D: the table is that of the grid that passed."""
    # imported here, where the pool starts: with logging it costs every
    # other subcommand's launch 4-6 ms
    import concurrent.futures
    # imported before the pool forks, so that the workers inherit it:
    # `import numpy` leaves it out, and each worker's first job would
    # import it again (15-17 ms)
    import numpy.random  # noqa: F401

    if threads < 1:
        raise ExperimentError(f"threads must be at least 1, got {threads}")
    jobs = _batches(cfg)
    threads = min(threads, os.cpu_count() or 1)
    for m in _REF_GRIDS:
        reference = tuple(g for _, g in _reference(cfg, m))
        # cut once here, each n's slices shared with the forked workers
        slices = {n: quantile_slices(reference, n) for n in cfg.n_list}
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=threads, initializer=_init_replicas,
                initargs=(cfg, slices)) as ex:
            batches = ex.map(_one_replica, jobs)
            # meanwhile this process, which would only wait, refines
            space_err, time_err = _discretization_errors(cfg, reference, m)
            results = sorted(row for rows in batches for row in rows)
        disc_err = space_err + time_err
        d_min = min(d for (_, _, d) in results)
        if disc_err < 0.1 * d_min:
            return DeviationTable(tuple(results))
    raise ExperimentError(
        f"mean-field discretization error {disc_err:.3g} (space "
        f"{space_err:.3g}, time {time_err:.3g}) of the reference at m = {m}, "
        f"the finest tried, is not small against the smallest deviation "
        f"{d_min:.3g}")


def tail_rates(tbl: DeviationTable, eps: float):
    """Empirical tail probabilities P(D >= eps) per n and the least-squares
    slope of log P versus n, with its standard error, which is nan when
    only two n enter the fit.

    Only n values with tails strictly inside (0, 1) enter the fit.
    Returns (points, slope, stderr) with points = [(n, p), ...].
    """
    points = [(n, float(np.mean(tbl.for_n(n) >= eps)))
              for n in sorted({n for (n, _, _) in tbl.rows})]
    usable = [(n, p) for n, p in points if 0.0 < p < 1.0]
    if len(usable) < 2:
        raise ExperimentError(
            "eps outside resolvable range; adjust eps_list or R")
    x = np.array([n for n, _ in usable], dtype=float)
    y = np.log([p for _, p in usable])
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    dof = len(usable) - 2
    stderr = (float(np.sqrt(np.sum(resid ** 2) / dof / sxx)) if dof > 0
              else float("nan"))
    return points, slope, stderr
