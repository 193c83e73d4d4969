"""Measure representations: weighted atom sets, 1-D histograms, moments,
exact 1-D Wasserstein-1, and cluster extraction.

All values are immutable after construction; every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        """The n samples, each of mass 1/n. The weights are one float
        broadcast to n, read-only, not an array of n."""
        samples = np.asarray(samples, dtype=float)
        n = samples.shape[0]
        if n == 0:
            raise MeasureError("empty measure")
        return AtomicMeasure(samples, np.broadcast_to(1.0 / n, n))


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
        u per draw picks a cell, searchsorted(cdf, u, "right") capped at
        the last, then one more per draw places the draw uniformly within
        its cell.

        The cells come from a guide table of G buckets, G the power of two
        at or above 16 m and at most 2^20, so that u G is exact and bucket
        b holds the u in [b/G, (b + 1)/G). A bucket with no CDF value
        inside it gives every such u the same cell, the number of CDF
        values at or below b/G; the few u in the other buckets, at most m
        of G, are searched. The table is built from the CDF values'
        buckets alone, in O(m + G)."""
        cdf = np.cumsum(self.cells)
        cdf /= cdf[-1]
        lo, h, last = self.lo, self.h, self.m - 1
        buckets = 1 << min((16 * self.m - 1).bit_length(), 20)
        # bucket b counts the CDF values at or below b/G: it takes k for
        # ceil(cdf[k - 1] G) <= b < ceil(cdf[k] G). Then the buckets that
        # hold a CDF value inside are marked for a search
        scaled = cdf * buckets
        guide = np.repeat(np.arange(self.m + 1, dtype=np.int32), np.diff(
            np.ceil(scaled).astype(np.intp), prepend=0, append=buckets))
        guide[scaled[scaled != np.floor(scaled)].astype(np.intp)] = -1

        def sample(rng, size):
            u = rng.random(size)
            i = guide.take((u * buckets).astype(np.intp))
            search = np.flatnonzero(i < 0)
            i[search] = np.searchsorted(cdf, u[search], side="right")
            np.minimum(i, last, out=i)
            # lo + (i + offset) h, in the array the cell uniforms held
            x = rng.random(out=u)
            x += i
            x *= h
            x += lo
            return x

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
    """A normalized 1-D measure as W1 reads it: its knots x ascending, and
    cdf[j] and slope[j], the CDF and its slope after the first j knots
    (cdf[0] = 0). slope is None for atoms, whose CDF is flat between
    jumps."""

    x: np.ndarray
    cdf: np.ndarray
    slope: np.ndarray | None = None


def sorted_cdf(m) -> SortedCDF:
    """A measure as W1 reads it. An atomic measure is read as its atoms;
    when their weights are equal, as in every empirical measure, the CDF
    after the j-th smallest is its rank j/n, exact to rounding, where a
    running sum of the weights would drift by O(n eps). A grid is read as
    its piecewise-uniform density, the law the solver's cells stand for:
    its m + 1 edges are the knots, and its CDF rises by cells[k] across
    cell k."""
    if not m.normalized:
        raise MeasureError("W1 requires normalized measures")
    if isinstance(m, GridMeasure1D):
        return SortedCDF(m.edges,
                         np.concatenate(([0.0, 0.0], np.cumsum(m.cells))),
                         np.concatenate(([0.0], m.cells / m.h, [0.0])))
    x, w = m.positions, m.weights
    if np.all(w == w[:1]):
        return SortedCDF(np.sort(x), np.arange(x.size + 1.0) / x.size)
    order = np.argsort(x, kind="stable")
    return SortedCDF(x[order], np.concatenate(([0.0], np.cumsum(w[order]))))


def _cdf_at(f: SortedCDF, y: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The CDF of f at the points y, given k, the number of f's knots at
    or below each: read from the last of them, so that at a knot it is
    the knot's own value, to the bit."""
    out = f.cdf[k]
    if f.slope is not None:
        # the knot before each point; the slope is 0 below the first
        t = np.concatenate((f.x[:1], f.x))[k]
        np.subtract(y, t, out=t)
        t *= f.slope[k]
        out += t
    return out


def wasserstein1_1d(mu, nu) -> float:
    """Exact 1-D order-1 Wasserstein distance: the integral of |F_mu - F_nu|,
    each measure read by `sorted_cdf`.

    nu's knots are placed after mu's equal ones by a search of nu's knots
    among mu's and one insert, and each CDF is read at every merged knot:
    at its own knots from its CDF, at the other's by `_cdf_at`. Each CDF is
    read separately, so equal measures cancel exactly instead of leaving
    interleaved rounding residue. A density is linear on each gap and an
    atom form flat, so |F_mu - F_nu| is integrated exactly on each gap
    from its values at the two ends, split at its zero. The full-length
    arrays are freed as soon as they are used, or reused in place."""
    a, b = sorted_cdf(mu), sorted_cdf(nu)
    # pos[j]: a's knots at or below b's j-th; below[j]: those under it,
    # so b's j-th is at or below a's i-th exactly when below[j] <= i
    pos = np.searchsorted(a.x, b.x, side="right")
    below = np.searchsorted(a.x, b.x, side="left")
    k = np.repeat(np.arange(b.x.size + 1),
                  np.diff(below, prepend=0, append=a.x.size))
    fb = np.insert(_cdf_at(b, a.x, k), pos, b.cdf[1:])
    del k
    gaps = np.diff(np.insert(a.x, pos, b.x))
    fa = np.insert(a.cdf[1:], pos, _cdf_at(a, b.x, pos))
    # F_a - F_b at the end of each gap, where an atom form still has its
    # value from the gap's start, then at the start, in place
    ends_a = fa[1:] if a.slope is not None else fa[:-1]
    ends_b = fb[1:] if b.slope is not None else fb[:-1]
    del a, b
    d1 = np.subtract(ends_a, ends_b)
    d0 = np.subtract(fa[:-1], fb[:-1], out=fa[:-1])
    # the mean of |.| on a gap: of its ends, or where they differ in sign
    # (never on the flat gaps of two atom forms), by the two triangles
    cross = np.flatnonzero(np.multiply(d0, d1, out=fb[1:]) < 0)
    del fb, ends_b
    e0, e1 = d0[cross], d1[cross]
    total = np.abs(d0, out=d0)
    total += np.abs(d1, out=d1)
    seg = 0.5 * (e0 * e0 + e1 * e1) / total[cross]
    total *= 0.5
    total[cross] = seg
    gaps *= total
    return float(gaps.sum())


@dataclass(frozen=True)
class QuantileSlices:
    """k densities G_r on one window and cell count, each a grid's
    piecewise-uniform density, cut for W1 against empirical measures of n
    atoms into n slices of mass 1/n: slice i of row r runs from q[r, i] to
    q[r, i + 1], where q[r, j] = G_r^-1(j/n). Built by `quantile_slices`.

    The grids share their m + 1 edges `edge`. The (k, m) arrays hold, per
    row and cell, the CDF and Phi_r at the cell's left edge and its slope,
    where Phi_r(x) is the integral of G_r from the first edge to x.

    Derived: phi[r, j] = Phi_r(q[r, j]); width[r, i], slice i's width;
    and centroid[r, i], the mean of its mass, n times the integral of
    G_r^-1 over u in [i/n, b], b = (i + 1)/n. By parts, that is
    q[r, i] + n (b width[r, i] - (phi[r, i + 1] - phi[r, i])), whose
    rounding, like Phi's, scales with the window's width, not with its
    distance from 0."""

    n: int
    q: np.ndarray
    edge: np.ndarray
    edge_phi: np.ndarray
    cdf: np.ndarray
    slope: np.ndarray
    phi: np.ndarray = field(init=False)
    width: np.ndarray = field(init=False)
    centroid: np.ndarray = field(init=False)

    def __post_init__(self):
        phi = self.integral(np.arange(len(self))[:, None], self.q)
        width = np.diff(self.q, axis=1)
        b = np.arange(1, self.n + 1) / self.n
        centroid = self.q[:, :-1] + self.n * (b * width
                                              - np.diff(phi, axis=1))
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "centroid", centroid)

    def __len__(self) -> int:
        return self.q.shape[0]

    def integral(self, row, y: np.ndarray) -> np.ndarray:
        """Phi_row at points y within the edges; row is an index, or an
        index array that broadcasts against y. A point's cell comes from
        arithmetic on the uniform edges rather than a search."""
        scale = (self.edge.size - 1) / (self.edge[-1] - self.edge[0])
        k = ((y - self.edge[0]) * scale).astype(np.intp)
        np.clip(k, 0, self.edge.size - 2, out=k)
        t = y - self.edge[k]
        k = np.ravel_multi_index((row, k), self.slope.shape)
        return self.edge_phi.take(k) + t * (self.cdf.take(k)
                                            + 0.5 * t * self.slope.take(k))


def quantile_slices(grids, n: int) -> QuantileSlices:
    """The densities of `grids`, a grid or a sequence of grids on one
    window and cell count, cut for n in one pass."""
    if isinstance(grids, GridMeasure1D):
        grids = [grids]
    if not all(isinstance(g, GridMeasure1D) for g in grids):
        raise MeasureError("wasserstein1_rows compares rows with grid "
                           "densities, not atoms or sorted CDFs")
    if len({(g.lo, g.hi, g.m) for g in grids}) != 1:
        raise MeasureError("quantile_slices needs grids on one window and "
                           "cell count")
    if not all(g.normalized for g in grids):
        raise MeasureError("W1 requires normalized measures")
    x, h, m = grids[0].edges, grids[0].h, grids[0].m
    cells = np.array([g.cells for g in grids])
    r = np.arange(len(grids))[:, None]
    # each row's CDF and Phi at the edges, from 0 at the first
    cdf = np.cumsum(np.pad(cells, ((0, 0), (1, 0))), axis=1)
    slope = cells / h
    gaps = np.diff(x)
    area = gaps * (cdf[:, :-1] + 0.5 * slope * gaps)
    edge_phi = np.cumsum(np.pad(area, ((0, 0), (1, 0))), axis=1)
    # u[i] lies in row r's cell k from the first u at or above cdf[r, k]
    # on, below cdf[r, k + 1]: so cell k holds mass, slope[r, k] > 0
    u = np.arange(1, n) / n
    counts = np.diff([np.searchsorted(u, c) for c in cdf], append=n - 1)
    k = np.repeat(np.tile(np.arange(m + 1), len(grids)), counts.ravel())
    k = np.minimum(k.reshape(len(grids), n - 1), m - 1)
    q = np.empty((len(grids), n + 1))
    q[:, 0], q[:, -1] = x[0], x[-1]
    q[:, 1:-1] = np.minimum(x[k] + (u - cdf[r, k]) / slope[r, k], x[k + 1])
    return QuantileSlices(n, q, x, edge_phi[:, :-1], cdf[:, :-1], slope)


def wasserstein1_rows(rows: np.ndarray, refs) -> np.ndarray:
    """W1 between each row of `rows`, a (k, n) block read as k empirical
    measures of n values, and the matching density of `refs`: k grids on
    one window and cell count, or their `quantile_slices` for n. Entry r
    equals wasserstein1_1d(AtomicMeasure.empirical(rows[r]), refs[r]) up
    to rounding. Sorts each row in place, in one call, and takes no merge.

    W1 is the integral over u of |x(u) - G^-1(u)|, and on slice i,
    u in [a, b] = [i/n, (i + 1)/n], x(u) is the (i + 1)-th smallest value
    x_i. The slice contributes |x_i - c_i| / n + 2 min(A_i, B_i), with c_i
    its centroid, A_i the integral of G - a from q[i] to x_i and B_i that
    of b - G from x_i to q[i + 1]. min(A_i, B_i) is 0 unless
    q[i] < x_i < q[i + 1], and then |x_i - c_i| < width_i. So one pass
    over the block sums the first term, and only the candidates
    |x_i - c_i| < width_i take the areas, exact through Phi, with x_i
    clipped to its slice."""
    if np.ndim(rows) != 2:
        raise MeasureError("rows must be a 2-D block of shape (k, n), one "
                           f"row of n opinions per reference, not shape "
                           f"{np.shape(rows)}")
    k, n = rows.shape
    if n < 1:
        raise MeasureError("rows need at least one opinion each")
    if len(refs) != k:
        raise MeasureError("need one reference per row")
    if k == 0:
        return np.zeros(0)
    s = refs if isinstance(refs, QuantileSlices) else quantile_slices(refs, n)
    if s.n != n:
        raise MeasureError(f"reference cut for n = {s.n}, not {n}")
    rows.sort(axis=1)
    d = rows - s.centroid
    np.abs(d, out=d)
    out = d.sum(axis=1) / n
    cand = np.flatnonzero(d < s.width)
    r, i = np.divmod(cand, n)
    left, right = s.q[r, i], s.q[r, i + 1]
    y = np.clip(rows[r, i], left, right)
    phi = s.integral(r, y)
    below = phi - s.phi[r, i] - (i / n) * (y - left)
    above = ((i + 1) / n) * (right - y) - s.phi[r, i + 1] + phi
    out += np.bincount(r, 2.0 * np.minimum(below, above), minlength=k)
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
