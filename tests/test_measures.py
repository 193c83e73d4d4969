"""Tests for measure representations, moments, W1, and cluster detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipfield.kernels import env_bump_grid
from gossipfield.measures import (AtomicMeasure, Cluster, GridMeasure1D,
                                  MeasureError, detect_clusters, moment,
                                  quantile_slices, sorted_cdf,
                                  wasserstein1_1d, wasserstein1_rows)
from lp_oracle import wasserstein1_oracle


def atoms(positions, weights):
    return AtomicMeasure(np.asarray(positions, float),
                         np.asarray(weights, float))


# ---------------------------------------------------------------------------
# construction invariants


def test_atomic_negative_weight_rejected():
    with pytest.raises(MeasureError):
        atoms([0.0, 1.0], [0.5, -0.5])


def test_atomic_measure_rejects_nested_positions():
    with pytest.raises(MeasureError, match="1-D"):
        AtomicMeasure(np.zeros((1, 2)), np.array([1.0]))


def test_atomic_length_mismatch_rejected():
    with pytest.raises(MeasureError):
        atoms([0.0, 1.0, 2.0], [0.5, 0.5])


def test_empirical_of_no_samples_is_an_empty_measure():
    with pytest.raises(MeasureError, match="empty measure"):
        AtomicMeasure.empirical([])


def test_grid_requires_hi_gt_lo_and_two_cells():
    with pytest.raises(MeasureError):
        GridMeasure1D(1.0, 1.0, np.array([0.5, 0.5]))
    with pytest.raises(MeasureError):
        GridMeasure1D(0.0, 1.0, np.array([1.0]))
    with pytest.raises(MeasureError):
        GridMeasure1D(0.0, 1.0, np.array([1.5, -0.5]))


def test_grid_geometry():
    g = GridMeasure1D(0.0, 10.0, np.full(5, 0.2))
    assert g.m == 5
    assert g.h == pytest.approx(2.0)
    np.testing.assert_allclose(g.centers, [1, 3, 5, 7, 9])
    assert g.normalized


def test_uniform_grid_with_partial_support():
    g = GridMeasure1D.uniform(0.0, 4.0, 8, support=(1.0, 3.0))
    assert g.normalized
    # cells fully inside (1,3) carry equal mass, outside none
    assert g.cells[0] == 0.0 and g.cells[-1] == 0.0
    assert g.cells[3] == pytest.approx(0.25)


def test_normalize_empty_measure_errors():
    g = GridMeasure1D(0.0, 1.0, np.zeros(4))
    with pytest.raises(MeasureError, match="empty measure"):
        g.normalize()


@pytest.mark.parametrize("cells, size", [
    (np.linspace(1.0, 3.0, 1024) ** 2, 16384),
    # zero cells tie their CDF entries; side="right" skips them
    (np.array([0.0, 0.3, 0.0, 0.0, 0.5, 0.2, 0.0]), 5000),
    (np.array([0.0, 1.0]), 1),
    (np.array([0.5, 0.5]), 0),
])
def test_grid_sampler_matches_a_plain_inverse_cdf(cells, size):
    """The guide table draws the cells, and leaves the generator in the
    state, of one searchsorted on the uniforms as drawn."""
    g = GridMeasure1D(-1.0, 3.0, cells / cells.sum())
    rng = np.random.default_rng(11)
    draws = g.sampler()(rng, size)
    plain = np.random.default_rng(11)
    cdf = np.cumsum(g.cells)
    cdf /= cdf[-1]
    i = np.searchsorted(cdf, plain.random(size), side="right")
    want = g.lo + (np.minimum(i, g.m - 1) + plain.random(size)) * g.h
    np.testing.assert_array_equal(draws, want, strict=True)
    assert rng.random() == plain.random()
    cell = np.floor((draws - g.lo) / g.h).astype(int)
    assert np.all(g.cells[cell] > 0.0)


class _GivenUniforms:
    """A generator stand-in: its first random call hands out the given
    uniforms, and every later one zeros, which put each draw on its cell's
    left edge."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None, out=None):
        if out is None:
            u, self.u = self.u.copy(), None
            assert u.size == size
            return u
        out[:] = 0.0
        return out


@pytest.mark.parametrize("cells", [
    np.array([0.0, 0.3, 0.0, 0.0, 0.5, 0.2, 0.0]),
    np.array([0.0, 0.0, 1.0, 0.0, 0.0]),  # all mass in one cell
    np.where(np.arange(300) % 7 < 3, 0.0, np.linspace(1.0, 2.0, 300)),
    env_bump_grid(1024).cells,
    # 2^20 buckets, fewer than 16 m: most draws are searched
    np.random.default_rng(3).random(100_000) ** 4,
], ids=["empty-cells", "one-cell", "striped", "bump", "capped"])
def test_grid_sampler_guide_table_is_a_search_to_the_bit(cells):
    """The guide table picks the cell searchsorted(cdf, u, "right") picks,
    at every CDF value, at both its float neighbours, at every bucket edge
    b/G, and at random uniforms."""
    g = GridMeasure1D(-1.0, 3.0, cells / cells.sum())
    cdf = np.cumsum(g.cells)
    cdf /= cdf[-1]
    buckets = 1 << min((16 * g.m - 1).bit_length(), 20)
    u = np.concatenate((cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                        np.arange(buckets) / buckets,
                        np.random.default_rng(5).random(20000)))
    u = u[(u >= 0.0) & (u < 1.0)]
    draws = g.sampler()(_GivenUniforms(u), u.size)
    i = np.minimum(np.searchsorted(cdf, u, side="right"), g.m - 1)
    np.testing.assert_array_equal(draws, g.lo + i * g.h, strict=True)


# ---------------------------------------------------------------------------
# moments


def test_moment_single_atom():
    assert moment(AtomicMeasure([3.0], [1.0]), 2) == pytest.approx(9.0)


def test_moment_two_atoms():
    m = atoms([0.0, 2.0], [0.5, 0.5])
    assert moment(m, 2) == pytest.approx(2.0)


def test_moment_uniform_grid_mean():
    g = GridMeasure1D.uniform(0.0, 10.0, 1000)
    assert moment(g, 1) == pytest.approx(5.0, abs=1e-9)


def test_moment_k_zero_rejected():
    with pytest.raises(MeasureError):
        moment(AtomicMeasure([1.0], [1.0]), 0)


def test_moment_empty_measure_rejected():
    with pytest.raises(MeasureError, match="empty measure"):
        moment(atoms([0.0, 1.0], [0.0, 0.0]), 1)


@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(0.01, 1)),
                min_size=1, max_size=8),
       st.lists(st.tuples(st.floats(-5, 5), st.floats(0.01, 1)),
                min_size=1, max_size=8),
       st.integers(1, 4))
def test_moment_linear_in_the_measure(pts1, pts2, k):
    mu = AtomicMeasure.from_points(pts1).normalize()
    nu = AtomicMeasure.from_points(pts2).normalize()
    mix = AtomicMeasure(np.concatenate([mu.positions, nu.positions]),
                        np.concatenate([0.5 * mu.weights, 0.5 * nu.weights]))
    lhs = moment(mix, k)
    rhs = 0.5 * moment(mu, k) + 0.5 * moment(nu, k)
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


def test_variance_of_symmetric_pair():
    pair = atoms([0.0, 2.0], [0.5, 0.5])
    assert moment(pair, 2) - moment(pair, 1) ** 2 == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Wasserstein-1


def test_w1_two_deltas():
    assert wasserstein1_1d(AtomicMeasure([0.0], [1.0]),
                           AtomicMeasure([3.0], [1.0])) == pytest.approx(3.0)


def test_w1_translated_uniform_grids():
    m = 200
    a = GridMeasure1D.uniform(0.0, 2.0, m, support=(0.0, 1.0))
    b = GridMeasure1D.uniform(0.0, 2.0, m, support=(0.5, 1.5))
    assert wasserstein1_1d(a, b) == pytest.approx(0.5, abs=a.h)


def test_w1_requires_normalized():
    with pytest.raises(MeasureError):
        wasserstein1_1d(atoms([0.0], [0.5]), AtomicMeasure([1.0], [1.0]))


def test_oracle_two_deltas():
    assert wasserstein1_oracle(AtomicMeasure([0.0], [1.0]),
                               AtomicMeasure([3.0], [1.0])) == pytest.approx(3.0)


def test_oracle_split_to_merged():
    mu = atoms([0.0, 1.0], [0.5, 0.5])
    nu = AtomicMeasure([0.5], [1.0])
    assert wasserstein1_oracle(mu, nu) == pytest.approx(0.5)


def test_oracle_desk_scale_only():
    big = AtomicMeasure.empirical(np.linspace(0, 1, 13))
    with pytest.raises(MeasureError, match="desk-scale"):
        wasserstein1_oracle(big, big)


random_measure = st.lists(
    st.tuples(st.floats(-10, 10), st.floats(0.05, 1.0)),
    min_size=1, max_size=12).map(
        lambda pts: AtomicMeasure.from_points(pts).normalize())


@settings(max_examples=120, deadline=None)
@given(random_measure, random_measure)
def test_w1_matches_transport_lp(mu, nu):
    assert wasserstein1_1d(mu, nu) == pytest.approx(
        wasserstein1_oracle(mu, nu), abs=1e-10)


@settings(max_examples=80, deadline=None)
@given(random_measure, random_measure, random_measure)
def test_w1_metric_properties(mu, nu, rho):
    d12 = wasserstein1_1d(mu, nu)
    d21 = wasserstein1_1d(nu, mu)
    assert d12 >= 0.0
    assert abs(d12 - d21) <= 1e-12
    assert wasserstein1_1d(mu, mu) == 0.0
    d13 = wasserstein1_1d(mu, rho)
    d23 = wasserstein1_1d(nu, rho)
    assert d13 <= d12 + d23 + 1e-12


@settings(max_examples=80, deadline=None)
@given(random_measure, random_measure, st.floats(-20, 20))
def test_w1_translation_equivariance(mu, nu, c):
    base = wasserstein1_1d(mu, nu)
    shifted = wasserstein1_1d(AtomicMeasure(mu.positions + c, mu.weights),
                              AtomicMeasure(nu.positions + c, nu.weights))
    assert shifted == pytest.approx(base, abs=1e-12 * max(1.0, abs(c)))


def test_w1_grid_vs_its_own_atoms():
    # W1 reads a grid as its density, never as its cell-centre atoms: each
    # cell's mass travels h/4 on average to its centre
    g = GridMeasure1D.uniform(0.0, 1.0, 16)
    assert wasserstein1_1d(g, g.as_atoms()) == 1 / 64
    assert wasserstein1_1d(g, g) == 0.0
    assert wasserstein1_1d(g.as_atoms(), g.as_atoms()) == 0.0


def test_sorted_cdf_equal_weights_match_stable_sort():
    # a plain sort of equal-weight atoms gives the stable argsort's
    # positions, and their CDF is read from the ranks, j/n after the j-th
    x = np.array([2.0, -1.0, 2.0, 0.5, -1.0, 2.0])
    prepared = sorted_cdf(AtomicMeasure.empirical(x))
    order = np.argsort(x, kind="stable")
    assert np.array_equal(prepared.x, x[order])
    assert np.array_equal(prepared.cdf, np.arange(7) / 6)


def test_atom_w1_values_are_pinned():
    # W1 between two atom forms, the empirical one's CDF read from its
    # ranks: the one integrand, split at the zeros of F - G, on the flat
    # segments of two atom CDFs; both values lie within 2e-14 relative of
    # w1_long_double
    rng = np.random.default_rng(2024)
    ref = GridMeasure1D(0.0, 10.0, rng.uniform(0.1, 1.0, 2000)) \
        .normalize().as_atoms()
    for n, pinned in ((1000, "0x1.45a208b1167d6p-4"),
                      (10000, "0x1.d1e5add2d2a83p-5")):
        emp = AtomicMeasure.empirical(rng.uniform(0.0, 10.0, n))
        assert wasserstein1_1d(emp, ref).hex() == pinned


LONG_DOUBLE = np.finfo(np.longdouble).eps < 1e-18


def _long_double_cdf(m):
    """A measure's knots and its CDF after each, in long double, with a
    flag for a density; the CDF is scaled to end at 1."""
    ld = np.longdouble
    if isinstance(m, GridMeasure1D):
        cdf = np.concatenate(([ld(0)], np.cumsum(m.cells.astype(ld))))
        return m.edges.astype(ld), cdf / cdf[-1], True
    order = np.argsort(m.positions, kind="stable")
    cdf = np.concatenate(([ld(0)], np.cumsum(m.weights[order].astype(ld))))
    return m.positions[order].astype(ld), cdf / cdf[-1], False


def _long_double_at(form, z):
    """The CDF just after the points z: flat between an atom form's knots,
    linear between a density's, 0 below and 1 above either."""
    x, cdf, density = form
    k = np.searchsorted(x, z, side="right")
    if not density:
        return cdf[k]
    j = np.clip(k, 1, x.size - 1)
    lin = cdf[j - 1] + (z - x[j - 1]) * ((cdf[j] - cdf[j - 1])
                                         / (x[j] - x[j - 1]))
    return np.where(k == 0, 0, np.where(k == x.size, 1, lin))


def w1_long_double(mu, nu):
    """W1 in long double: both CDFs at the sorted union of the knots,
    |F - G| integrated exactly on each gap, split at its zero. The weights
    are summed in long double, and the knots merged by a plain sort."""
    a, b = _long_double_cdf(mu), _long_double_cdf(nu)
    z = np.sort(np.concatenate((a[0], b[0])))
    d0 = _long_double_at(a, z[:-1]) - _long_double_at(b, z[:-1])
    d1 = (_long_double_at(a, z[1:] if a[2] else z[:-1])
          - _long_double_at(b, z[1:] if b[2] else z[:-1]))
    total = np.abs(d0) + np.abs(d1)
    seg = total / 2
    cross = d0 * d1 < 0
    seg[cross] = (d0[cross] ** 2 + d1[cross] ** 2) / (2 * total[cross])
    return float((np.diff(z) * seg).sum())


@pytest.mark.skipif(not LONG_DOUBLE, reason="long double is not extended "
                    "precision here")
def test_empirical_w1_at_compare_scale_matches_long_double():
    # compare's W1 of n = 5e4 opinions against an m = 1000 density: a
    # running sum of 1/n puts the CDF O(n eps) off, and W1 1e-10 to 5e-10
    # relative off; the ranks keep it within 1e-11
    centers = np.arange(1000) + 0.5
    g = GridMeasure1D(0.0, 10.0, np.exp(-((centers - 350.0) / 120.0) ** 2)
                      + 0.3 * np.exp(-((centers - 700.0) / 60.0) ** 2)
                      ).normalize()
    for seed in range(3):
        emp = AtomicMeasure.empirical(
            g.sampler()(np.random.default_rng(seed), 50_000))
        want = pytest.approx(w1_long_double(emp, g), rel=1e-11, abs=0)
        assert wasserstein1_1d(emp, g) == want
        assert wasserstein1_1d(g, emp) == want


def density_w1_by_interp(a, b):
    """W1 of two histograms read as densities: both CDFs at the union of
    the edges by np.interp, |F_a - F_b| integrated exactly on each segment,
    split where its sign changes. The oracle for density forms."""
    ea = a.lo + np.arange(a.m + 1) * a.h
    eb = b.lo + np.arange(b.m + 1) * b.h
    edges = np.union1d(ea, eb)
    fa = np.interp(edges, ea, np.concatenate([[0.0], np.cumsum(a.cells)]))
    fb = np.interp(edges, eb, np.concatenate([[0.0], np.cumsum(b.cells)]))
    d0 = fa[:-1] - fb[:-1]
    d1 = fa[1:] - fb[1:]
    denom = np.maximum(np.abs(d0) + np.abs(d1), 1e-300)
    seg = np.where(d0 * d1 >= 0, 0.5 * (np.abs(d0) + np.abs(d1)),
                   0.5 * (d0 * d0 + d1 * d1) / denom)
    return float((np.diff(edges) * seg).sum())


def random_grid(rng, lo, hi, m):
    cells = rng.uniform(0.0, 1.0, m) * (rng.random(m) < rng.uniform(0.2, 1))
    cells[rng.integers(m)] += 1.0  # never empty
    return GridMeasure1D(lo, hi, cells).normalize()


def test_density_w1_matches_the_interp_oracle():
    rng = np.random.default_rng(17)
    for i in range(200):
        ma, mb = (int(m) for m in rng.integers(2, 2500, 2))
        a = random_grid(rng, rng.uniform(-1, 1), rng.uniform(9, 11), ma)
        if i % 4 == 0:  # nested grids on one window: every edge of b is tied
            b = random_grid(rng, a.lo, a.hi, max(2, ma // 2))
        else:
            b = random_grid(rng, rng.uniform(-1, 1), rng.uniform(9, 11), mb)
        assert abs(wasserstein1_1d(a, b)
                   - density_w1_by_interp(a, b)) <= 1e-15


def test_density_w1_exact_values():
    rng = np.random.default_rng(19)
    for g in (GridMeasure1D.uniform(0.0, 1.0, 16),
              random_grid(rng, -2.0, 3.0, 400)):
        # each cell's mass travels h/4 on average to its centre
        assert wasserstein1_1d(g, g.as_atoms()) == pytest.approx(
            g.h / 4, abs=1e-15)
        assert wasserstein1_1d(g, g) == 0.0
    for m, shift in ((100, 0.25), (64, 2.0)):
        u = GridMeasure1D.uniform(0.0, 1.0, m)
        v = GridMeasure1D(shift, 1.0 + shift, u.cells)
        assert wasserstein1_1d(u, v) == pytest.approx(shift, abs=1e-15)


@pytest.mark.parametrize("K", [1, 4, 16])
def test_empirical_against_density_matches_sub_atoms(K):
    # the density split into K atoms per cell, at the centres of K equal
    # sub-cells, lies h/(4K) from it; by the triangle inequality so does
    # every W1 against it
    rng = np.random.default_rng(23)
    g = random_grid(rng, 0.0, 10.0, 200)
    fine = AtomicMeasure(g.lo + (np.arange(g.m * K) + 0.5) * (g.h / K),
                         np.repeat(g.cells / K, K))
    for n in (3, 100, 3000):
        emp = AtomicMeasure.empirical(rng.uniform(-1.0, 11.0, n))
        exact = wasserstein1_1d(emp, g)
        assert exact == pytest.approx(wasserstein1_1d(emp, fine),
                                      abs=g.h / (4 * K))
        assert wasserstein1_1d(g, emp) == pytest.approx(
            exact, abs=1e-15)


def test_w1_rows_match_w1_row_by_row():
    # the closed form against the merge, one call per window, for the
    # references given as grids and as their slices for n; the reference
    # grids have empty cells, and sizes put n below and above m
    rng = np.random.default_rng(29)
    for n, m in ((3000, 400), (40, 400), (400, 400), (2, 2000), (900, 60)):
        for lo, hi in ((0.0, 10.0), (2.0, 8.0)):
            grids = [random_grid(rng, lo, hi, m) for _ in range(4)]
            rows = rng.uniform(-1.0, 11.0, (len(grids), n))
            rows[0, :n // 2] = rows[0, 0]  # duplicate opinions
            rows[1] = rng.choice(grids[1].edges, n)  # on the reference knots
            rows[2, ::2] = rng.choice(grids[2].edges, (n + 1) // 2)
            rows[3] = rng.choice(rng.uniform(2.0, 8.0, 3), n)  # three values
            for outside in (rng.uniform(20.0, 30.0, n),  # right of the hull
                            rng.uniform(-30.0, -20.0, n)):  # left of it
                grids.append(random_grid(rng, lo, hi, m))
                rows = np.vstack((rows, outside))
            want = [wasserstein1_1d(AtomicMeasure.empirical(x), g)
                    for x, g in zip(rows, grids)]
            for refs in (grids, quantile_slices(grids, n)):
                block = rows.copy()
                got = wasserstein1_rows(block, refs)
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
                assert np.array_equal(block, np.sort(rows, axis=1))


def test_w1_rows_exact_values():
    # n points at the midpoints of the n equal-mass slices of a uniform
    # density on [0, 1]: each slice moves its mass 1/(4n) on average
    for n in (2, 7, 1000):
        g = GridMeasure1D.uniform(0.0, 1.0, 64)
        rows = ((np.arange(n) + 0.5) / n)[None, :]
        assert wasserstein1_rows(rows, [g])[0] == pytest.approx(
            1 / (4 * n), rel=1e-12)


def test_w1_rows_rejects_atom_references():
    g = GridMeasure1D.uniform(0.0, 10.0, 30)
    rows = np.random.default_rng(31).uniform(0.0, 10.0, (3, 50))
    with pytest.raises(MeasureError, match="one reference per row"):
        wasserstein1_rows(rows, [g, g])
    # atoms, and any sorted CDF, are not grids
    for other in (g.as_atoms(), sorted_cdf(g.as_atoms()), sorted_cdf(g)):
        with pytest.raises(MeasureError, match="not atoms"):
            wasserstein1_rows(rows, [g, other, g])
    with pytest.raises(MeasureError, match="cut for n = 40"):
        wasserstein1_rows(rows, quantile_slices([g, g, g], 40))
    with pytest.raises(MeasureError, match="not atoms"):
        wasserstein1_rows(rows, [g, g, quantile_slices(g, 50)])


@pytest.mark.parametrize("other", [
    GridMeasure1D.uniform(0.0, 9.0, 30),  # another window
    GridMeasure1D.uniform(-1.0, 10.0, 30),
    GridMeasure1D.uniform(0.0, 10.0, 31),  # another cell count
])
def test_w1_rows_rejects_grids_on_two_windows(other):
    g = GridMeasure1D.uniform(0.0, 10.0, 30)
    rows = np.random.default_rng(37).uniform(0.0, 10.0, (3, 50))
    with pytest.raises(MeasureError, match="one window and cell count"):
        wasserstein1_rows(rows, [g, other, g])
    with pytest.raises(MeasureError, match="one window and cell count"):
        quantile_slices([other, g], 50)


# how a row of the property test below places its n opinions, given its
# reference cut for n: s.q[0] holds the n + 1 quantiles, s.centroid[0] the
# n slice centroids
ROW_PLACEMENTS = {
    # each opinion on a bound of its own slice, q[i] or q[i + 1], where the
    # candidate test d < width and the clip to the slice meet
    "slice bounds": lambda rng, g, s, n: s.q[0][
        np.arange(n) + rng.integers(0, 2, n)],
    "centroids": lambda rng, g, s, n: s.centroid[0],
    "grid edges": lambda rng, g, s, n: rng.choice(g.edges, n),
    "ties": lambda rng, g, s, n: rng.choice(
        rng.uniform(g.lo, g.hi, 3), n),
    "left of the hull": lambda rng, g, s, n: rng.uniform(
        g.lo - 20.0, g.lo - 10.0, n),
    "right of the hull": lambda rng, g, s, n: rng.uniform(
        g.hi + 10.0, g.hi + 20.0, n),
    "anywhere": lambda rng, g, s, n: rng.uniform(g.lo - 1.0, g.hi + 1.0, n),
}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300),
       st.lists(st.tuples(st.integers(2, 200), st.floats(-50.0, 50.0),
                          st.floats(0.5, 10.0),
                          st.lists(st.sampled_from(sorted(ROW_PLACEMENTS)),
                                   min_size=1, max_size=6)),
                min_size=1, max_size=3),
       st.integers(0, 2 ** 32 - 1))
def test_w1_rows_match_w1_row_by_row_on_any_block(n, windows, seed):
    # one call per window over its references, grids which have empty
    # cells, against the merge row by row
    rng = np.random.default_rng(seed)
    for m, lo, width, places in windows:
        grids = [random_grid(rng, lo, lo + width, m) for _ in places]
        rows = np.array([ROW_PLACEMENTS[place](rng, g, quantile_slices(g, n),
                                               n)
                         for g, place in zip(grids, places)])
        want = [wasserstein1_1d(AtomicMeasure.empirical(x), g)
                for x, g in zip(rows, grids)]
        np.testing.assert_allclose(wasserstein1_rows(rows, grids), want,
                                   rtol=1e-10, atol=0.0)


def test_w1_rows_rejects_rows_without_opinions():
    g = GridMeasure1D.uniform(0.0, 10.0, 30)
    with pytest.raises(MeasureError, match="at least one opinion"):
        wasserstein1_rows(np.empty((2, 0)), [g, g])


def test_w1_rows_rejects_a_1d_row():
    g = GridMeasure1D.uniform(0.0, 10.0, 30)
    with pytest.raises(MeasureError, match=r"2-D block of shape \(k, n\)"):
        wasserstein1_rows(np.linspace(0.0, 10.0, 50), [g])


def test_w1_rows_of_an_empty_block_is_empty():
    got = wasserstein1_rows(np.empty((0, 50)), [])
    assert got.shape == (0,)


def test_w1_with_ties_matches_transport_lp():
    rng = np.random.default_rng(5)
    for _ in range(50):
        mu = atoms(rng.integers(0, 5, 8), rng.uniform(0.1, 1.0, 8))
        nu = atoms(rng.integers(0, 5, 6), rng.uniform(0.1, 1.0, 6))
        mu, nu = mu.normalize(), nu.normalize()
        assert wasserstein1_1d(mu, nu) == pytest.approx(
            wasserstein1_oracle(mu, nu), abs=1e-10)


# ---------------------------------------------------------------------------
# cluster detection


def spike_grid(m, where, lo=0.0, hi=10.0):
    cells = np.zeros(m)
    for idx in np.atleast_1d(where):
        cells[idx] = 1.0
    return GridMeasure1D(lo, hi, cells / cells.sum())


def test_single_spike_cluster():
    g = spike_grid(1000, 500)  # center 5.005
    cl = detect_clusters(g, mass_threshold=0.05, gap_cells=5)
    assert len(cl) == 1
    assert cl[0].center == pytest.approx(5.0, abs=g.h)
    assert cl[0].weight == pytest.approx(1.0)


def test_nearby_spikes_merge():
    # spikes 0.1 apart with gap_cells spanning 0.5
    g = spike_grid(1000, [500, 510])
    cl = detect_clusters(g, mass_threshold=0.05, gap_cells=50)
    assert len(cl) == 1
    assert cl[0].center == pytest.approx(5.055, abs=2 * g.h)


def test_distant_spikes_stay_separate():
    g = spike_grid(1000, [200, 800])
    cl = detect_clusters(g, mass_threshold=0.05, gap_cells=5)
    assert len(cl) == 2
    assert cl[0].center < cl[1].center


def test_subthreshold_cluster_dropped():
    cells = np.zeros(100)
    cells[10] = 0.97
    cells[60] = 0.03
    g = GridMeasure1D(0.0, 10.0, cells)
    cl = detect_clusters(g, mass_threshold=0.05, gap_cells=3)
    assert len(cl) == 1
    assert cl[0].center == pytest.approx(1.05)


def test_cluster_parameter_validation():
    g = spike_grid(100, 50)
    with pytest.raises(MeasureError):
        detect_clusters(g, mass_threshold=0.0, gap_cells=5)
    with pytest.raises(MeasureError):
        detect_clusters(g, mass_threshold=0.05, gap_cells=0)
    with pytest.raises(MeasureError):
        detect_clusters(GridMeasure1D(0, 1, np.array([0.2, 0.2])),
                        mass_threshold=0.05, gap_cells=5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 199), min_size=1, max_size=10, unique=True),
       st.integers(1, 20))
def test_cluster_centers_respect_gap(spikes, gap_cells):
    g = spike_grid(200, spikes)
    cl = detect_clusters(g, mass_threshold=0.01, gap_cells=gap_cells)
    for a, b in zip(cl, cl[1:]):
        assert b.center - a.center >= gap_cells * g.h - 1e-12
    for c in cl:
        assert g.lo <= c.extent[0] < c.extent[1] <= g.hi
        assert c.weight > 0.01



def clusters_by_loops(g, mass_threshold, gap_cells):
    """The run scan and gap merge that detect_clusters does with one split,
    written as loops: the oracle it must match."""
    occupied = g.cells > mass_threshold / g.m
    runs = []  # [start, end], inclusive
    i = 0
    while i < g.m:
        if occupied[i]:
            j = i
            while j + 1 < g.m and occupied[j + 1]:
                j += 1
            runs.append([i, j])
            i = j + 1
        else:
            i += 1
    merged = []
    for run in runs:
        if merged and run[0] - merged[-1][1] - 1 < gap_cells:
            merged[-1][1] = run[1]
        else:
            merged.append(run)
    clusters = []
    for i, j in merged:
        w = float(g.cells[i:j + 1].sum())
        if w > mass_threshold:
            c = float(np.dot(g.cells[i:j + 1], g.centers[i:j + 1]) / w)
            clusters.append(Cluster(c, w, (g.lo + i * g.h,
                                           g.lo + (j + 1) * g.h)))
    return sorted(clusters, key=lambda cl: cl.center)


def test_clusters_match_the_loop_oracle():
    rng = np.random.default_rng(13)
    for _ in range(500):
        m = int(rng.integers(2, 300))
        cells = rng.random(m) * (rng.random(m) < rng.random())
        cells[rng.integers(m)] += 1e-3  # never empty
        g = GridMeasure1D(-1.0, float(rng.uniform(0.0, 9.0)), cells)
        g = g.normalize()
        threshold = float(rng.uniform(1e-3, 0.3))
        gap = int(rng.integers(1, 15))
        assert detect_clusters(g, threshold, gap) \
            == clusters_by_loops(g, threshold, gap)
