"""Measure representations: weighted atom sets, 1-D histograms, moments,
exact 1-D Wasserstein-1, and cluster extraction.

All values are immutable after construction; every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MASS_TOL = 1e-10
WEIGHT_TOL = 1e-12


class MeasureError(ValueError):
    pass


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite weighted point set on the line.

    positions and weights have shape (n,); the weights are nonnegative.
    """

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pos = np.atleast_1d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 1:
            raise MeasureError("atom positions must be 1-D")
        w = np.asarray(self.weights, dtype=float)
        if pos.shape[0] != w.shape[0]:
            raise MeasureError("positions and weights length mismatch")
        if np.any(w < 0):
            raise MeasureError("negative atom weight")
        pos.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def normalized(self) -> bool:
        return abs(self.total_mass - 1.0) <= WEIGHT_TOL

    def normalize(self) -> "AtomicMeasure":
        total = self.total_mass
        if total <= 0:
            raise MeasureError("empty measure")
        return AtomicMeasure(self.positions, self.weights / total)

    @staticmethod
    def from_points(points) -> "AtomicMeasure":
        """Build from a list of (position, weight) pairs."""
        pos = np.asarray([p for p, _ in points], dtype=float)
        w = np.asarray([m for _, m in points], dtype=float)
        return AtomicMeasure(pos, w)

    @staticmethod
    def empirical(samples: np.ndarray) -> "AtomicMeasure":
        samples = np.asarray(samples, dtype=float)
        n = samples.shape[0]
        return AtomicMeasure(samples, np.full(n, 1.0 / n))


@dataclass(frozen=True)
class GridMeasure1D:
    """Histogram measure on a uniform 1-D grid: cell i holds mass cells[i]
    at center lo + (i + 1/2) h with h = (hi - lo) / m."""

    lo: float
    hi: float
    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=float)
        if not self.hi > self.lo:
            raise MeasureError("grid needs hi > lo")
        if cells.size < 2:
            raise MeasureError("grid needs at least 2 cells")
        if np.any(cells < 0):
            raise MeasureError("negative cell mass")
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    @property
    def m(self) -> int:
        return self.cells.size

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / self.m

    @property
    def edges(self) -> np.ndarray:
        return self.lo + np.arange(self.m + 1) * self.h

    @property
    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.m) + 0.5) * self.h

    @property
    def total_mass(self) -> float:
        return float(self.cells.sum())

    @property
    def normalized(self) -> bool:
        return abs(self.total_mass - 1.0) <= MASS_TOL

    def normalize(self) -> "GridMeasure1D":
        total = self.total_mass
        if total <= 0:
            raise MeasureError("empty measure: the cells hold no mass")
        return GridMeasure1D(self.lo, self.hi, self.cells / total)

    def sampler(self):
        """sampler(rng, size) -> `size` independent draws from the cells
        read as a piecewise-uniform density, by inverse CDF: one uniform
        per draw picks a cell, then one more per draw places the draw
        uniformly within its cell."""
        cdf = np.cumsum(self.cells)
        cdf /= cdf[-1]
        lo, h, last = self.lo, self.h, self.m - 1

        def sample(rng, size):
            i = np.searchsorted(cdf, rng.random(size), side="right")
            return lo + (np.minimum(i, last) + rng.random(size)) * h

        return sample

    def as_atoms(self) -> AtomicMeasure:
        """All cell mass placed at the cell center (first-moment exact for
        densities symmetric within each cell; O(h^2) error otherwise)."""
        return AtomicMeasure(self.centers, self.cells)

    @staticmethod
    def uniform(lo: float, hi: float, m: int,
                support: tuple[float, float] | None = None) -> "GridMeasure1D":
        """Uniform density over `support` (default: the whole grid),
        discretized by cell-overlap fractions."""
        if support is None:
            return GridMeasure1D(lo, hi, np.full(m, 1.0 / m))
        a, b = support
        h = (hi - lo) / m
        edges = lo + np.arange(m + 1) * h
        overlap = np.clip(np.minimum(edges[1:], b) - np.maximum(edges[:-1], a),
                          0.0, None)
        total = overlap.sum()
        if total <= 0:
            raise MeasureError("support does not intersect grid")
        return GridMeasure1D(lo, hi, overlap / total)


@dataclass(frozen=True)
class Cluster:
    """A contiguous mass concentration of a grid measure."""

    center: float
    weight: float
    extent: tuple[float, float]


def moment(m, k: int) -> float:
    """k-th moment: the integral of x^k."""
    if k < 1:
        raise MeasureError("moment order must be >= 1 (use total mass for k=0)")
    if isinstance(m, GridMeasure1D):
        m = m.as_atoms()
    if m.total_mass <= 0:
        raise MeasureError("empty measure")
    return float(np.dot(m.weights, m.positions ** k))


@dataclass(frozen=True)
class SortedCDF:
    """A normalized 1-D measure prepared for W1: its knots x ascending, and
    cdf[j] and slope[j], the CDF and its slope after the first j knots
    (cdf[0] = 0). slope is None for atoms, whose CDF is flat between jumps.
    Preparing once saves the sort and cumsum for many W1 calls."""

    x: np.ndarray
    cdf: np.ndarray
    slope: np.ndarray | None = None


def _atom_cdf(w: np.ndarray) -> np.ndarray:
    """The CDF after each of the atoms of weights w, in order, from 0."""
    return np.concatenate(([0.0], np.cumsum(w)))


def sorted_cdf(m) -> SortedCDF:
    """The prepared form of an atomic measure, or of a grid read as atoms
    at its cell centres (returned as is when already prepared)."""
    if isinstance(m, SortedCDF):
        return m
    if not m.normalized:
        raise MeasureError("W1 requires normalized measures")
    if isinstance(m, GridMeasure1D):
        m = m.as_atoms()
    x, w = m.positions, m.weights
    if np.all(w == w[:1]):
        # equal weights (every empirical measure): their order does not
        # matter, so a plain sort gives the stable sort's arrays
        x = np.sort(x)
    else:
        order = np.argsort(x, kind="stable")
        x, w = x[order], w[order]
    return SortedCDF(x, _atom_cdf(w))


def density_cdf(g: GridMeasure1D) -> SortedCDF:
    """The prepared form of a grid read as a piecewise-uniform density: its
    m + 1 edges are the knots, and its CDF rises by cells[k] across cell k."""
    if not g.normalized:
        raise MeasureError("W1 requires normalized measures")
    return SortedCDF(g.edges, np.concatenate(([0.0, 0.0], np.cumsum(g.cells))),
                     np.concatenate(([0.0], g.cells / g.h, [0.0])))


class MergeBuffers:
    """Scratch arrays for merging two knot sets of at most `size` knots in
    all, and for the step sum over the merge; each W1 takes views of their
    first entries. `knots` holds both knot sets side by side for the merge
    and is then free for the step sum. `wasserstein1_rows` reuses one over
    its rows, and a caller may keep one across calls: at 10^4 knots, fresh
    temporaries are fresh pages, and every call pays their faults."""

    def __init__(self, size: int = 0):
        self._allocate(size)

    def reserve(self, size: int) -> None:
        """Make room for `size` merged knots."""
        if size > self.size:
            self._allocate(size)

    def _allocate(self, size: int) -> None:
        self.size = size
        self.knots, self.merged, self.gaps, self.diff = (
            np.empty(size) for _ in range(4))
        self.count = np.empty(size, dtype=np.int64)
        self.ranks = np.arange(1, size + 1)


def _merge(ax: np.ndarray, bx: np.ndarray, buf: MergeBuffers):
    """Merge two ascending knot arrays by one stable sort, linear on two
    sorted runs. Returns the merged knots z, their gaps, and count[k], the
    number of ax's knots among the first k + 1 merged ones, which indexes
    a's CDF after the k-th merged knot; tied knots bound gaps of length 0.
    All three are views of buf."""
    n, size = ax.size, ax.size + bx.size
    z = buf.knots[:size]
    z[:n] = ax
    z[n:] = bx
    order = np.argsort(z, kind="stable")
    # mode="clip" (the indices are in range): "raise" would copy `out`
    z = np.take(z, order, out=buf.merged[:size], mode="clip")
    gaps = np.subtract(z[1:], z[:-1], out=buf.gaps[:size - 1])
    count = np.less(order[:-1], n, out=buf.count[:size - 1])
    return z, gaps, np.cumsum(count, out=count)


def _step_sum(a_cdf: np.ndarray, b_cdf: np.ndarray, gaps: np.ndarray,
              count: np.ndarray, buf: MergeBuffers) -> float:
    """The integral of |F_a - F_b| for two atom CDFs, constant on each gap
    of the merge: after the k-th merged knot F_a is a_cdf[count[k]] and F_b
    is b_cdf[k + 1 - count[k]]. Each CDF is read separately, so equal
    measures cancel exactly instead of leaving interleaved-cumsum rounding
    residue. In place, in buf's views and count's own array; not np.dot,
    whose BLAS call starts a thread on long vectors."""
    size = count.size
    diff = np.take(a_cdf, count, out=buf.diff[:size], mode="clip")
    other = np.subtract(buf.ranks[:size], count, out=count)
    diff -= np.take(b_cdf, other, out=buf.knots[:size], mode="clip")
    np.abs(diff, out=diff)
    diff *= gaps
    return float(diff.sum())


def wasserstein1_1d(mu, nu) -> float:
    """Exact 1-D order-1 Wasserstein distance: the integral of |F_mu - F_nu|.
    Either argument may be a measure, read by `sorted_cdf`, or prepared."""
    a, b = sorted_cdf(mu), sorted_cdf(nu)
    buf = MergeBuffers(a.x.size + b.x.size)
    z, gaps, count = _merge(a.x, b.x, buf)
    if a.slope is None and b.slope is None:
        return _step_sum(a.cdf, b.cdf, gaps, count, buf)
    # F_a - F_b at both ends of each gap, where a linear CDF is read from
    # the knot that starts the gap; integrate |.| exactly, split at its zero
    other = buf.ranks[:count.size] - count
    d0 = a.cdf[count] - b.cdf[other]
    d1 = d0.copy()
    for f, k, sign in ((a, count, 1.0), (b, other, -1.0)):
        if f.slope is not None:
            x, slope = f.x[k - 1], sign * f.slope[k]
            d0 += (z[:-1] - x) * slope
            d1 += (z[1:] - x) * slope
    denom = np.maximum(np.abs(d0) + np.abs(d1), 1e-300)
    seg = np.where(d0 * d1 >= 0, 0.5 * (np.abs(d0) + np.abs(d1)),
                   0.5 * (d0 * d0 + d1 * d1) / denom)
    return float((gaps * seg).sum())


def wasserstein1_rows(rows: np.ndarray, refs,
                      buffers: MergeBuffers | None = None) -> np.ndarray:
    """W1 between each row of `rows`, read as the empirical measure of its
    n values, and the matching entry of `refs`, an atomic measure, a grid
    read as atoms or their prepared form: entry i is
    wasserstein1_1d(AtomicMeasure.empirical(rows[i]), refs[i]) to the bit.
    Sorts each row in place, in one call, and builds the equal-weight CDF
    once; each row then takes one merge and one step sum in the arrays of
    `buffers` (fresh ones when None)."""
    refs = [sorted_cdf(r) for r in refs]
    if len(refs) != rows.shape[0]:
        raise MeasureError("need one reference per row")
    if any(r.slope is not None for r in refs):
        raise MeasureError("wasserstein1_rows compares rows with atoms")
    rows.sort(axis=1)
    n = rows.shape[1]
    cdf = _atom_cdf(np.full(n, 1.0 / n))
    buf = MergeBuffers() if buffers is None else buffers
    buf.reserve(n + max((r.x.size for r in refs), default=0))
    out = np.empty(len(refs))
    for i, (x, ref) in enumerate(zip(rows, refs)):
        _, gaps, count = _merge(x, ref.x, buf)
        out[i] = _step_sum(cdf, ref.cdf, gaps, count, buf)
    return out


def detect_clusters(g: GridMeasure1D, mass_threshold: float,
                    gap_cells: int) -> list[Cluster]:
    """Extract mass clusters from a histogram.

    A cell is occupied if its mass exceeds mass_threshold / m (scale-free in
    the grid resolution). Occupied runs separated by fewer than gap_cells
    unoccupied cells are merged; merged runs with total weight at most
    mass_threshold are dropped. Clusters are returned sorted by center.
    """
    if not g.normalized:
        raise MeasureError("detect_clusters needs a normalized grid")
    if not 0 < mass_threshold < 1:
        raise MeasureError("mass_threshold must be in (0,1)")
    if gap_cells < 1:
        raise MeasureError("gap_cells must be >= 1")
    occupied = np.flatnonzero(g.cells > mass_threshold / g.m)
    # a cluster ends where the next occupied cell is more than gap_cells on
    cut = np.flatnonzero(np.diff(occupied) > gap_cells)
    starts = np.append(occupied[:1], occupied[cut + 1])
    ends = np.append(occupied[cut], occupied[-1:])
    centers = g.centers
    clusters = []
    for i, j in zip(starts.tolist(), ends.tolist()):
        w = float(g.cells[i:j + 1].sum())
        if w <= mass_threshold:
            continue
        c = float(np.dot(g.cells[i:j + 1], centers[i:j + 1]) / w)
        extent = (g.lo + i * g.h, g.lo + (j + 1) * g.h)
        clusters.append(Cluster(center=c, weight=w, extent=extent))
    return clusters


def checked_times(times, horizon: float, error, what="snapshot times",
                  bound="horizon") -> tuple:
    """The sampling times of a run to `horizon` as floats; None stands for
    11 equispaced times in [0, horizon]. Raises `error` unless horizon >= 0
    and the times are sorted within [0, horizon]."""
    if not horizon >= 0:
        raise error(f"{bound} must be nonnegative")
    if times is None:
        times = np.linspace(0.0, horizon, 11)
    times = tuple(float(s) for s in times)
    if any(s < 0 or s > horizon for s in times):
        raise error(f"{what} must lie in [0, {bound}]")
    if list(times) != sorted(times):
        raise error(f"{what} must be sorted")
    return times
