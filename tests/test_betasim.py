import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.spatial import ConvexHull

from pathspectra import Polytope, shadow_path
from pathspectra.betasim import (CLTResult, SimConfig, beta_density,
                                 cap_measure, cap_measure_asymptotic,
                                 chain_counts, clt_check, estimate_growth_exponent,
                                 first_diff_moment, floating_containment_rate,
                                 floating_radius, kolmogorov_distance,
                                 max_independent_caps, outside_measure,
                                 project_to_disk, projection_chi_square,
                                 radial_cdf, sample_sphere, simulate_Qn)
from pathspectra.betasim import (_disk_in_hull, _hull_chains, _rng, _throwaway_filter,
                                 _trial_counts)
from pathspectra.errors import InputError
from pathspectra.exactgeom import _monotone_chains


def test_density_values():
    assert beta_density(0, (0, 0)) == pytest.approx(1 / math.pi)
    assert beta_density(1, (0, 0)) == pytest.approx(2 / math.pi)
    assert beta_density(1, (2, 0)) == 0.0


@pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0, 10.0])
def test_density_integrates_to_one(beta):
    # independent oracle: radial quadrature of 2 pi r f(r)
    val, _ = integrate.quad(
        lambda r: 2 * math.pi * r * beta_density(beta, (r, 0)), 0, 1,
        epsabs=1e-12, epsrel=1e-10, points=[1.0])
    assert abs(val - 1.0) < 1e-6


def test_sphere_sample_statistics():
    rng = _rng(5, 0)
    pts = sample_sphere(5, 100000, rng)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1).max() < 1e-12
    assert np.linalg.norm(pts.mean(axis=0)) <= 0.02
    assert abs(pts[:, 0].var() - 1 / 5) < 0.1 / 5


def test_streams_are_distinct_across_seeds_trials_and_attempts():
    """No two (seed, trial, attempt) share a stream: the key is the pair
    (seed, trial), not their XOR, and an attempt jumps the stream ahead."""
    firsts = {tuple(_rng(seed, trial, attempt).integers(0, 2**63, size=2))
              for seed in range(64) for trial in range(64) for attempt in range(2)}
    assert len(firsts) == 64 * 64 * 2


def test_first_row_is_exchangeable():
    """The shells run from the rim inward, so without the final permutation
    the first row would lie near the rim; its projected radius must follow the
    radial law over many streams (chi-square on 20 equiprobable bins)."""
    d, bins, seeds = 5, 20, 2000
    beta = d / 2 - 2
    first = np.array([sample_sphere(d, 300, _rng(seed, 0))[0, :2] for seed in range(seeds)])
    levels = [radial_cdf(beta, r) for r in np.hypot(first[:, 0], first[:, 1])]
    counts = np.bincount(np.minimum((np.array(levels) * bins).astype(int), bins - 1),
                         minlength=bins)
    expected = seeds / bins
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert special.chdtrc(bins - 1, stat) > 0.01


def test_projection_stays_in_disk_and_matches_radial_law():
    rng = _rng(5, 1)
    xy = project_to_disk(sample_sphere(4, 100000, rng))
    radii = np.sort(np.hypot(xy[:, 0], xy[:, 1]))
    assert radii.max() <= 1.0 + 1e-12
    # d = 4 projects to the uniform disk: radial cdf r^2, KS below 0.01
    n = len(radii)
    cdf = radii ** 2
    ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert ks < 0.01


@pytest.mark.parametrize("d", [3, 4, 5, 6, 22])
def test_projected_law_chi_square(d):
    _stat, pvalue = projection_chi_square(d, 100000, seed=2)
    assert pvalue > 0.01


def test_radial_cdf_endpoints():
    assert radial_cdf(0.5, 0) == 0.0
    assert radial_cdf(0.5, 1) == 1.0
    assert 0 < radial_cdf(0.5, 0.5) < 1


def test_chain_counts_basic_shapes():
    assert chain_counts([(0, 0), (1, 0), (0, 1), (1, 1)]) == (4, 2, 2)
    assert chain_counts([(0, 0), (1, 1), (2, 0)]) == (3, 2, 1)
    assert chain_counts([(0, 0), (1, -1), (2, 0)]) == (3, 1, 2)
    # collinear interior points are not hull vertices
    assert chain_counts([(0, 0), (1, 1), (2, 2), (3, 0)]) == (3, 2, 1)
    with pytest.raises(InputError):
        chain_counts([(0, 0)])


def test_chain_counts_rejects_non_finite_points():
    with pytest.raises(InputError, match="finite"):
        chain_counts([[0, 0], [1, 0], [0, 1], [math.nan, math.nan]])
    base = _rng(4, 0).uniform(-1, 1, size=(40, 2))
    for bad in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.5), (math.inf, -math.inf)):
        for n in (3, 40):  # below and above the filter's 16-point cut-off
            xy = base[:n].copy()
            xy[n // 2] = bad
            with pytest.raises(InputError, match="finite"):
                chain_counts(xy)


def _octagon_filter(xy):
    """The plain octagon throwaway filter, the reference for
    `_throwaway_filter`: the polygon of the 8 directional extremes, sorted by
    angle about their mean, and one cross-product pass over all points per
    edge."""
    if len(xy) <= 16:
        return xy
    directions = np.array([(1, 0), (0, 1), (-1, 0), (0, -1),
                           (1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=float)
    extremes = xy[np.unique(np.argmax(xy @ directions.T, axis=0))]
    if len(extremes) < 3:
        return xy
    center = extremes.mean(axis=0)
    poly = extremes[np.argsort(np.arctan2(extremes[:, 1] - center[1],
                                          extremes[:, 0] - center[0]))]
    keep = np.zeros(len(xy), dtype=bool)
    for a, b in zip(poly, np.roll(poly, -1, axis=0)):
        edge = b - a
        keep |= edge[0] * (xy[:, 1] - a[1]) - edge[1] * (xy[:, 0] - a[0]) <= 0.0
    return xy[keep]


def _reference_counts(xy):
    """chain_counts with the octagon filter in place of today's."""
    xy = np.asarray(xy, dtype=float)
    lower, upper = _monotone_chains(sorted(set(map(tuple, _octagon_filter(xy).tolist()))))
    if len(lower) == 1:
        return 1, 0, 0
    return len(lower) + len(upper) - 2, len(upper) - 1, len(lower) - 1


def _qhull_counts(xy):
    """(f0, f1_up, f1_low) from Qhull's counterclockwise vertex cycle, split
    at its lexicographic minimum and maximum (the benchmark's recount)."""
    cycle = ConvexHull(xy).vertices
    keys = np.lexsort((xy[cycle, 1], xy[cycle, 0]))
    f0 = len(cycle)
    f1_low = (int(keys[-1]) - int(keys[0])) % f0
    return f0, f0 - f1_low, f1_low


@pytest.mark.parametrize("n", [17, 1000, 100000])
@pytest.mark.parametrize("d", [3, 4, 5, 8])
def test_filter_matches_octagon_filter_and_qhull(d, n):
    """Differential oracle for the throwaway filter on sphere samples, also
    moved off the origin: the counts equal those behind the octagon filter
    and Qhull's, and every Qhull vertex survives the filter."""
    for seed, trial in ((1, 0), (1, 1), (29, 0), (29, 3)):
        sample = project_to_disk(sample_sphere(d, n, _rng(seed, trial)))
        for shift in ((0, 0), (2.5, 0), (0, -1.5), (3, 4)):
            xy = sample + shift
            assert chain_counts(xy) == _reference_counts(xy) == _qhull_counts(xy)
            kept = {tuple(p) for p in _throwaway_filter(xy).tolist()}
            assert {tuple(p) for p in xy[ConvexHull(xy).vertices].tolist()} <= kept


@pytest.mark.parametrize("n", [3, 4, 17, 63, 64, 65, 129, 2000, 100000])
@pytest.mark.parametrize("d", [3, 4, 5, 8, 22])
def test_rim_counts_match_the_full_sample_and_qhull(d, n):
    """Differential oracle for the rim-first trial: its counts, read off a
    prefix of the shells, equal those of the full sample drawn from the same
    stream, by the monotone chain and by Qhull (the benchmark's recount)."""
    for seed, trial in ((1, 0), (1, 1), (29, 0), (29, 3)):
        counts = _trial_counts(SimConfig(d=d, n=n, trials=trial + 1, seed=seed), trial)
        xy = project_to_disk(sample_sphere(d, n, _rng(seed, trial)))
        assert counts == chain_counts(xy) + (0,) == _qhull_counts(xy) + (0,)


@pytest.mark.parametrize("d, n, c0", [(3, 3, 0.3), (3, 1000, 0.5), (5, 200, 1.25),
                                      (5, 20000, 0.5), (8, 2000, 0.5), (22, 100000, 0.3)])
def test_floating_flags_match_the_full_sample(d, n, c0):
    """Each containment flag, read off the rim-first hull, equals the test on
    the full sample's hull and the distances of Qhull's edge lines (c0 is
    small, so that the disk often reaches outside the hull)."""
    rep = floating_containment_rate(SimConfig(d=d, n=n, trials=12, seed=8), c0=c0)
    for trial, flag in enumerate(rep.contained):
        xy = project_to_disk(sample_sphere(d, n, _rng(8, trial)))
        assert flag == _disk_in_hull(_hull_chains(xy), rep.radius)
        assert flag == bool((-ConvexHull(xy).equations[:, 2] >= rep.radius).all())


_GRID = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@st.composite
def _degenerate_clouds(draw):
    """Integer clouds with repeats and collinear runs, at, near and far from
    the filter's 16-point cut-off, moved so that the origin sits inside the
    octagon, outside it, at one of its vertices or on one of its edges, or
    laid on a line."""
    n = draw(st.one_of(st.sampled_from([16, 17]), st.integers(2, 120)))
    pts = np.array(draw(st.lists(_GRID, min_size=n, max_size=n)), dtype=float)
    repeats = draw(st.integers(0, n // 2))
    pts[n - repeats:] = pts[:repeats]
    kind = draw(st.sampled_from(["inside", "outside", "vertex", "edge", "line"]))
    if kind == "line":
        step = np.array(draw(_GRID), dtype=float)
        pts = pts[:, :1] * step + np.array(draw(_GRID), dtype=float)
    elif kind == "outside":
        pts += np.array(draw(st.tuples(st.integers(-100, 100), st.integers(13, 100))))
    elif kind in ("vertex", "edge"):
        scores = pts @ np.array([(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0),
                                 (-1, -1), (0, -1), (1, -1)], dtype=float).T
        octagon = pts[np.argmax(scores, axis=0)]
        i = draw(st.integers(0, 7))
        a, b = octagon[i], octagon[(i + 1) % 8]
        pts -= a if kind == "vertex" else (a + b) / 2  # halves are exact
    return pts


@settings(max_examples=300, deadline=None)
@given(_degenerate_clouds())
def test_filter_keeps_counts_on_degenerate_clouds(xy):
    assert chain_counts(xy) == _reference_counts(xy)


@pytest.mark.parametrize("n", [8, 15, 30])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_exact_shadow_path_matches_upper_chain_count(d, n):
    """The exact engine and the Monte Carlo engine agree: on the exact dyadic
    points of a sphere sample, the shadow walk along (e1, e2) takes as many
    edges as the float upper chain of the points' first two coordinates."""
    e1, e2 = (1,) + (0,) * (d - 1), (0, 1) + (0,) * (d - 2)
    for trial in range(4):
        pts = sample_sphere(d, n, _rng(11, trial))
        P = Polytope([[Fraction(x) for x in p] for p in pts])
        assert shadow_path(P, e1, e2).length == chain_counts(pts[:, :2])[1]


def test_chain_identity_on_random_samples():
    for trial in range(20):
        rng = _rng(77, trial)
        xy = project_to_disk(sample_sphere(5, 500, rng))
        f0, up, low = chain_counts(xy)
        assert up + low == f0
        assert up >= 1 and low >= 1


def test_simulation_is_deterministic_and_shaped():
    cfg = SimConfig(d=4, n=50, trials=5, seed=123)
    rep = simulate_Qn(cfg)
    again = simulate_Qn(SimConfig(d=4, n=50, trials=5, seed=123))
    assert rep.f0 == again.f0 and rep.f1_up == again.f1_up and rep.f1_low == again.f1_low
    assert len(rep.f0) == 5
    assert all(u + l == f for f, u, l in zip(rep.f0, rep.f1_up, rep.f1_low))
    assert set(rep.summary) == {"f0", "f1_up", "f1_low"}


def test_three_points_make_a_triangle():
    rep = simulate_Qn(SimConfig(d=4, n=3, trials=4, seed=9))
    assert rep.f0 == [3, 3, 3, 3]


def test_config_validation():
    with pytest.raises(InputError):
        SimConfig(d=2, n=10, trials=1)
    with pytest.raises(InputError):
        sample_sphere(2, 10, _rng(0, 0))
    with pytest.raises(InputError):
        SimConfig(d=4, n=10, trials=0)
    assert SimConfig(d=5, n=10, trials=1).beta == 0.5


@pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0, 10.0])
def test_cap_asymptotics_ratio(beta):
    R = 1 - 1e-6
    ratio = cap_measure(beta, R) / cap_measure_asymptotic(beta, R)
    assert 0.95 <= ratio <= 1.05


def test_cap_measure_monotone_and_invertible():
    betas = (0.5, 1.0)
    for beta in betas:
        values = [cap_measure(beta, r / 10) for r in range(1, 10)]
        assert all(a > b for a, b in zip(values, values[1:]))
        for eps in (0.2, 0.05, 0.01, 1e-4):
            r = floating_radius(beta, eps)
            assert abs(cap_measure(beta, r) - eps) < 1e-10
        radii = [floating_radius(beta, eps) for eps in (0.2, 0.05, 0.01)]
        assert radii == sorted(radii)
    with pytest.raises(InputError):
        floating_radius(0.5, 0.7)
    with pytest.raises(InputError):
        cap_measure(0.5, 1.5)


# (d, R, true cap mass to 4 significant digits)
_CAP_MASSES = [(4, 0.1, 0.4364), (5, 0.5, 0.1562), (8, 0.9, 0.0004715)]


@pytest.mark.parametrize("d, R, mass", _CAP_MASSES)
def test_cap_measure_is_the_sampled_cap_mass(d, R, mass):
    beta = d / 2 - 2
    assert cap_measure(beta, R) == pytest.approx(mass, rel=1e-3)
    n = 400_000
    x = project_to_disk(sample_sphere(d, n, _rng(3, 0)))[:, 0]
    sampled = np.count_nonzero(x > R) / n
    assert abs(sampled - cap_measure(beta, R)) <= 4 * math.sqrt(mass * (1 - mass) / n)


@pytest.mark.parametrize("beta, R", [(0.0, 0.3), (0.5, 0.5), (2.0, 0.8)])
def test_cap_measure_matches_density_quadrature(beta, R):
    # independent oracle: the density integrated over the cap
    oracle, _ = integrate.dblquad(
        lambda y, x: beta_density(beta, (x, y)), R, 1,
        lambda x: -math.sqrt(1 - x * x), lambda x: math.sqrt(1 - x * x),
        epsabs=1e-12, epsrel=1e-10)
    assert cap_measure(beta, R) == pytest.approx(oracle, rel=1e-7)


@pytest.mark.parametrize("R", [1e-3, 0.1, 0.5, 0.9, 0.999])
def test_uniform_cap_is_the_disk_segment(R):
    segment = (math.acos(R) - R * math.sqrt(1 - R * R)) / math.pi
    assert cap_measure(0.0, R) == pytest.approx(segment, rel=1e-12)


@pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0, 10.0])
def test_cap_asymptotics_tight_at_the_rim(beta):
    R = 1 - 1e-6
    assert cap_measure(beta, R) / cap_measure_asymptotic(beta, R) == pytest.approx(1, abs=5e-6)
    assert cap_measure(beta, 1e-12) == pytest.approx(0.5, abs=1e-11)


@pytest.mark.parametrize("beta, eps", [(0.5, float("nan")), (0.5, 0.0), (0.5, -1e-3),
                                       (0.5, 0.5), (0.5, float("inf")), (-1.0, 0.1)])
def test_floating_radius_rejects_eps_outside_the_half_disk(beta, eps):
    with pytest.raises(InputError):
        floating_radius(beta, eps)


def test_outside_measure_matches_annulus_quadrature():
    beta, eps = 0.5, 0.01
    r = floating_radius(beta, eps)
    oracle, _ = integrate.quad(
        lambda s: 2 * math.pi * s * beta_density(beta, (s, 0)), r, 1,
        epsabs=1e-13, epsrel=1e-11, points=[1.0])
    assert outside_measure(beta, eps) == pytest.approx(oracle, abs=1e-9)


def test_independent_cap_count_slope():
    d = 5
    beta = d / 2 - 2
    eps_grid = [10.0 ** (-k) for k in range(3, 9)]
    logs = [(math.log(1 / e), math.log(max_independent_caps(beta, e))) for e in eps_grid]
    xs, ys = zip(*logs)
    slope = np.polyfit(xs, ys, 1)[0]
    assert abs(slope - 1 / (d - 1)) < 0.05


def test_floating_containment_behaviour():
    # small c0 keeps the disk radius noticeable, and 3 points rarely surround it
    tiny = floating_containment_rate(SimConfig(d=5, n=3, trials=40, seed=4), c0=0.3)
    assert tiny.radius > 0.3
    assert tiny.rate > 0.9
    grid_rates = []
    for n in (200, 2000, 20000):
        rep = floating_containment_rate(SimConfig(d=5, n=n, trials=60, seed=4), c0=1.25)
        grid_rates.append(rep.rate)
    assert grid_rates[-1] <= grid_rates[0] + 0.05
    assert grid_rates[-1] < 0.2


def test_first_diff_moment_cases():
    rep = first_diff_moment(SimConfig(d=5, n=400, trials=300, seed=6), p=2)
    assert rep.zero_rate > 0  # removing an interior point changes nothing
    assert rep.var_f0 <= rep.es_proxy  # jackknife bound, with huge slack
    assert rep.moment == rep.second_moment
    with pytest.raises(InputError):
        first_diff_moment(SimConfig(d=5, n=3, trials=10, seed=6), p=2)


def test_growth_exponent_needs_grid():
    with pytest.raises(InputError):
        estimate_growth_exponent(4, [256, 512], trials=10, seed=0)


def test_clt_check_small_run_is_flagged():
    res = clt_check(SimConfig(d=5, n=200, trials=64, seed=12))
    assert isinstance(res, CLTResult)
    assert not res.reliable
    assert 0 <= res.ks <= 1


def test_kolmogorov_distance_behaviour():
    rng = _rng(3, 0)
    gauss = rng.normal(size=4000)
    assert kolmogorov_distance(gauss) < 0.035
    uniform = rng.uniform(-1, 1, size=4000)
    assert kolmogorov_distance(uniform / uniform.std()) > 0.05
