import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.spatial import ConvexHull

from pathspectra import Polytope, shadow_path
from pathspectra.betasim import (CLTResult, SimConfig, chain_counts, clt_check,
                                 estimate_growth_exponent, first_diff_moment,
                                 floating_containment_rate, floating_radius,
                                 kolmogorov_distance, project_to_disk,
                                 sample_sphere, simulate_Qn)
from pathspectra.betasim import (_chain_lengths, _disk_in_hull, _f0_with_and_without_first_row,
                                 _held, _rim_chains, _rng, _sectors, _shells,
                                 _trial_counts)
from pathspectra.errors import InputError
from pathspectra.exactgeom import _monotone_chains


# ---------------------------------------------------------------------------
# The planar beta law and its caps: analytic oracles for the simulation
# ---------------------------------------------------------------------------

def _density_constant(beta: float) -> float:
    return math.gamma(beta + 2) / (math.pi * math.gamma(beta + 1))


def beta_density(beta: float, x) -> float:
    """Density C (1 - |x|^2)^beta on the unit disk, C = Gamma(beta+2) / (pi Gamma(beta+1))."""
    if beta <= -1:
        raise InputError("beta must exceed -1")
    r2 = float(x[0]) ** 2 + float(x[1]) ** 2
    if r2 > 1.0:
        return 0.0
    c = _density_constant(beta)
    if r2 == 1.0:
        return 0.0 if beta > 0 else (c if beta == 0 else math.inf)
    return c * (1.0 - r2) ** beta


def radial_cdf(beta: float, r: float) -> float:
    """P(|X| <= r) for the planar beta law: 1 - (1 - r^2)^(beta + 1)."""
    if r <= 0:
        return 0.0
    if r >= 1:
        return 1.0
    return 1.0 - (1.0 - r * r) ** (beta + 1.0)


def cap_measure(beta: float, R: float) -> float:
    """Mass of the cap {x : x . u > R} under the planar beta law.

    A coordinate's marginal density is proportional to (1 - x^2)^(beta + 1/2),
    so with u = x^2 the mass is half the complement of a regularized
    incomplete beta function: (1 - I_{R^2}(1/2, beta + 3/2)) / 2, computed
    without forming 1 - R^2, so that it stays exact near R = 0.
    """
    if beta <= -1:
        raise InputError("beta must exceed -1")
    if not 0 < R < 1:
        raise InputError("cap radius must be strictly between 0 and 1")
    return 0.5 * float(special.betaincc(0.5, beta + 1.5, R * R))


def cap_measure_asymptotic(beta: float, R: float) -> float:
    """Leading term of `cap_measure` as R -> 1:
    2^(beta + 5/2) C / (2 beta + 3) * B(1/2, beta + 1) / 2 * (1 - R)^(beta + 3/2)."""
    c = _density_constant(beta) * special.beta(0.5, beta + 1) / 2
    return 2.0 ** (beta + 2.5) * c / (2 * beta + 3) * (1 - R) ** (beta + 1.5)


def outside_measure(beta: float, eps: float) -> float:
    """Measure of the annulus outside the floating body: pi C / (beta+1) * (1 - R^2)^(beta+1)."""
    r = floating_radius(beta, eps)
    c = _density_constant(beta)
    return math.pi * c / (beta + 1) * (1 - r * r) ** (beta + 1)


def max_independent_caps(beta: float, eps: float) -> int:
    """floor(pi / arccos(R_eps)): how many disjoint eps-caps fit around the disk."""
    r = floating_radius(beta, eps)
    return int(math.pi / math.acos(r))


def projection_chi_square(d: int, n: int, seed: int):
    """Chi-square statistic and p-value of projected sphere samples against the
    radial law of the beta density, on 24 equiprobable radial bins."""
    if n < 1:
        raise InputError("need at least one point")
    beta, bins = d / 2 - 2, 24
    rng = _rng(seed, 0)
    xy = project_to_disk(sample_sphere(d, n, rng))
    radii = np.hypot(xy[:, 0], xy[:, 1])
    qs = np.arange(1, bins) / bins
    edges = np.sqrt(1.0 - (1.0 - qs) ** (1.0 / (beta + 1.0)))
    counts, _ = np.histogram(radii, bins=np.concatenate(([0.0], edges, [1.0])))
    expected = n / bins
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat, float(special.chdtrc(bins - 1, stat))


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
        for n in (3, 40):
            xy = base[:n].copy()
            xy[n // 2] = bad
            with pytest.raises(InputError, match="finite"):
                chain_counts(xy)


def _qhull_counts(xy):
    """(f0, f1_up, f1_low) from Qhull's counterclockwise vertex cycle, split
    at its lexicographic minimum and maximum (the benchmark's recount)."""
    cycle = ConvexHull(xy).vertices
    keys = np.lexsort((xy[cycle, 1], xy[cycle, 0]))
    f0 = len(cycle)
    f1_low = (int(keys[-1]) - int(keys[0])) % f0
    return f0, f0 - f1_low, f1_low


@pytest.mark.parametrize("n", [17, 1000])
@pytest.mark.parametrize("d", [3, 4, 5, 8])
def test_filter_matches_octagon_filter_and_qhull(d, n):
    """Differential oracle for `chain_counts` on sphere samples, also moved
    off the origin: its counts equal Qhull's.  (The name is kept from the
    throwaway filter this once tested.)"""
    for seed, trial in ((1, 0), (1, 1), (29, 0), (29, 3)):
        sample = project_to_disk(sample_sphere(d, n, _rng(seed, trial)))
        for shift in ((0, 0), (2.5, 0), (0, -1.5), (3, 4)):
            xy = sample + shift
            assert chain_counts(xy) == _qhull_counts(xy)


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
        chains = _monotone_chains(sorted(set(map(tuple, xy.tolist()))))
        assert flag == _disk_in_hull(chains, rep.radius)
        assert flag == bool((-ConvexHull(xy).equations[:, 2] >= rep.radius).all())


def _plain_rim_chains(shells):
    """The rim loop without `_held`: every point of each shell goes to the
    monotone chain with the hull so far."""
    chains = ([], [])
    for points, r_in in shells:
        hull = set(chains[0] + chains[1]).union(map(tuple, points[:, :2].tolist()))
        chains = _monotone_chains(sorted(hull))
        if _disk_in_hull(chains, r_in * (1 + 1e-9)):
            break
    return chains


@pytest.mark.parametrize("n", [3, 4, 5, 17, 64, 65, 129, 2000, 100000])
@pytest.mark.parametrize("d", [3, 4, 5, 8, 22])
def test_rim_chains_match_the_unfiltered_loop(d, n):
    """Differential oracle for the sector test: the chains, as lists, equal
    those of the rim loop that keeps every point of every shell."""
    for seed, trial in ((1, 0), (1, 1), (29, 0), (29, 3), (7, 5)):
        assert (_rim_chains(_shells(d, n, _rng(seed, trial)))
                == _plain_rim_chains(_shells(d, n, _rng(seed, trial))))


def _dyadic_chain_counts(xy):
    """(f0, f1_up, f1_low) of the hull of the float points `xy`, each
    coordinate taken at its exact dyadic value: integers over one common
    power of two, through the exact monotone chain."""
    ratios = [x.as_integer_ratio() for x in xy.ravel().tolist()]
    den = max(q for _, q in ratios)
    ints = [p * (den // q) for p, q in ratios]
    points = set(zip(ints[0::2], ints[1::2]))
    return _chain_lengths(*_monotone_chains(sorted(points)))


@pytest.mark.parametrize("d", [3, 4])
def test_rim_chains_match_an_exact_chain_at_a_million_points(d):
    """At n = 10^6 the float rim hull's (f0, f1_up, f1_low) equals that of
    the exact chain on every point of the shells `_rim_chains` reads."""
    for seed, trial in ((20251020, 0), (20251020, 1), (7, 3)):
        read = []

        def reading(shells):
            for shell in shells:
                read.append(shell[0][:, :2])
                yield shell
        chains = _rim_chains(reading(_shells(d, 10 ** 6, _rng(seed, trial))))
        assert _chain_lengths(*chains) == _dyadic_chain_counts(np.concatenate(read))


def _diamond():
    return np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])


# a hull (one of the five points is inside) whose vertex v_2 = (-0.794...,
# 0.591...), in angular order, has the same rounded angle as the point 1 and 4
# units in the last place off it, which lies outside the edge v_1 v_2 and left
# of the edge v_2 v_3 by 9.5e-17: a sector misread at a vertex's ray, found by
# a search over such offsets
_MISREAD_HULL = np.array([(-0.22666976231495137, 0.5944298148332128),
                          (-0.34558955569781674, 0.37283517010194417),
                          (-0.7940929859555396, 0.5913450350419314),
                          (-0.4760069220881577, 0.1717709686251795),
                          (0.38467970943015706, -0.6238247013728209)])
_MISREAD_POINT = (-0.7940929859555397, 0.5913450350419318)

_EDGE_OUT = 1e-12 / math.sqrt(2)


@pytest.mark.parametrize("hull, points, held", [
    # exactly on the edge (1, 0) (0, 1), and deep inside
    (_diamond(), [(0.5, 0.5), (0.125, -0.25)], [False, True]),
    # on the ray through the vertex (1, 0): inside, inside by less than the
    # margin, and outside
    (_diamond(), [(0.5, 0.0), (1 - 1e-14, 0.0), (1.5, 0.0)], [True, False, False]),
    # 1e-12 outside the edge (1, 0) (0, 1), a hull vertex afterwards
    (_diamond(), [(0.5 + _EDGE_OUT, 0.5 + _EDGE_OUT), (0.25, 0.25)], [False, True]),
    (_MISREAD_HULL, [_MISREAD_POINT, (-0.25, 0.25)], [False, True]),
])
def test_sector_test_on_crafted_shells(hull, points, held):
    """A point is dropped only when it is inside its sector's edge by more
    than the margin; on an edge, along a vertex's ray and across it by
    rounding, and just outside an edge, it is kept, and the chains equal
    those of the unfiltered loop."""
    points = np.array(points)
    shells = [(hull, 1.0), (points, 1.0)]
    sectors = _sectors(_monotone_chains(sorted(map(tuple, hull.tolist()))))
    assert sectors is not None
    assert _held(sectors, points).tolist() == held
    chains = _rim_chains(iter(shells))
    assert chains == _plain_rim_chains(iter(shells))
    dropped = {p for p, h in zip(map(tuple, points.tolist()), held) if h}
    assert not dropped & set(chains[0] + chains[1])


def test_sector_test_is_off_unless_the_origin_is_inside():
    """With the origin outside the hull so far, or on its boundary, no point
    is dropped, not even one inside the hull."""
    triangle = np.array([(0.25, 0.125), (0.875, 0.25), (0.5, 0.75)])
    assert _sectors(_monotone_chains(sorted(map(tuple, triangle.tolist())))) is None
    through = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, 0.0)])
    assert _sectors(_monotone_chains(sorted(map(tuple, through.tolist())))) is None
    points = np.array([(-0.5, 0.5), (0.0, 0.875), (0.0625, 0.75), (0.5, 0.375),
                       (-0.75, -0.5)])
    for hull in (triangle, through):
        shells = [(hull, 1.0), (points, 1.0)]
        chains = _rim_chains(iter(shells))
        assert chains == _plain_rim_chains(iter(shells))


_GRID = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@st.composite
def _degenerate_clouds(draw):
    """Integer clouds with repeats and collinear runs, about the origin, far
    from it, or laid on a line."""
    n = draw(st.integers(2, 120))
    pts = np.array(draw(st.lists(_GRID, min_size=n, max_size=n)), dtype=float)
    repeats = draw(st.integers(0, n // 2))
    pts[n - repeats:] = pts[:repeats]
    kind = draw(st.sampled_from(["near", "far", "line"]))
    if kind == "line":
        step = np.array(draw(_GRID), dtype=float)
        pts = pts[:, :1] * step + np.array(draw(_GRID), dtype=float)
    elif kind == "far":
        pts += np.array(draw(st.tuples(st.integers(-100, 100), st.integers(13, 100))))
    return pts


def _exact_counts(xy):
    """(f0, f1_up, f1_low) of an integer cloud, exactly and without a hull
    algorithm.  A distinct point is a vertex iff the vectors from it to the
    other distinct points lie in an open half-plane: some vector v among them
    has every other one strictly counterclockwise of it, or along it, within
    a half-turn.  f1_low and f1_up are 1 plus the vertices strictly below and
    above the line from the lexicographic minimum to the maximum."""
    pts = sorted({(int(x), int(y)) for x, y in xy.tolist()})
    if len(pts) == 1:
        return 1, 0, 0

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    def is_vertex(p):
        vecs = [(q[0] - p[0], q[1] - p[1]) for q in pts if q != p]
        return any(all(cross(v, w) > 0 or (cross(v, w) == 0 and v[0] * w[0] + v[1] * w[1] > 0)
                       for w in vecs) for v in vecs)

    vertices = [p for p in pts if is_vertex(p)]
    lo, hi = pts[0], pts[-1]
    sides = [cross((hi[0] - lo[0], hi[1] - lo[1]), (p[0] - lo[0], p[1] - lo[1]))
             for p in vertices]
    return (len(vertices), 1 + sum(side > 0 for side in sides),
            1 + sum(side < 0 for side in sides))


def test_exact_counts_on_known_shapes():
    square = np.array([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0), (2, 2)], dtype=float)
    assert _exact_counts(square) == (4, 2, 2)
    assert _exact_counts(np.array([(0, 0), (1, 1), (2, 2), (3, 0)], dtype=float)) == (3, 2, 1)
    assert _exact_counts(np.array([(0, 0), (1, 1), (2, 2)], dtype=float)) == (2, 1, 1)
    assert _exact_counts(np.array([(5, 5), (5, 5)], dtype=float)) == (1, 0, 0)


@settings(max_examples=300, deadline=None)
@given(_degenerate_clouds())
def test_filter_keeps_counts_on_degenerate_clouds(xy):
    """`chain_counts` against the exact oracle above.  (The name is kept from
    the throwaway filter this once tested.)"""
    assert chain_counts(xy) == _exact_counts(xy)


def _plain_monotone_chains(points):
    """Andrew's monotone chain with every stack entry indexed anew at each
    test: the oracle of `_monotone_chains`' loop, which evaluates the same
    float expression in the same order."""
    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                    (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    return half(points), half(points[::-1])


@pytest.mark.parametrize("d, n", [(3, 3000), (5, 2000), (22, 500)])
def test_monotone_chains_match_the_indexed_loop_on_floats(d, n):
    for trial in range(3):
        xy = project_to_disk(sample_sphere(d, n, _rng(3, trial)))
        for shift in ((0, 0), (2.5, -1)):
            points = sorted(set(map(tuple, (xy + shift).tolist())))
            assert _monotone_chains(points) == _plain_monotone_chains(points)


@settings(max_examples=200, deadline=None)
@given(_degenerate_clouds())
def test_monotone_chains_match_the_indexed_loop_on_degenerate_clouds(xy):
    """Float pairs with repeats and collinear runs, and the exact
    (x, y, index) triples that `upper_path` passes."""
    pairs = sorted(set(map(tuple, xy.tolist())))
    assert _monotone_chains(pairs) == _plain_monotone_chains(pairs)
    triples = sorted((Fraction(x), Fraction(y), k) for k, (x, y) in enumerate(xy.tolist()))
    assert _monotone_chains(triples) == _plain_monotone_chains(triples)


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
    assert sample_sphere(4, 0, _rng(0, 0)).shape == (0, 4)
    with pytest.raises(InputError):
        sample_sphere(4, -1, _rng(0, 0))
    with pytest.raises(InputError):
        projection_chi_square(4, 0, seed=0)
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


@pytest.mark.parametrize("R", [1e-9, 1e-3, 0.1, 0.5, 0.9, 0.999])
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


def _where_first_row_falls(d, n, seed, trial):
    """Whether `sample_sphere`'s first row comes from the first shell, from a
    later shell that the rim hull reads, or from past the last one it reads."""
    rng = _rng(seed, trial)
    shells = list(_shells(d, n, rng))
    first = int(rng.permutation(n)[0])
    read = []

    def reading():
        for shell in shells:
            read.append(len(shell[0]))
            yield shell

    _rim_chains(reading())
    if first < read[0]:
        return "first"
    return "later" if first < sum(read) else "past"


def test_first_diff_moment_matches_the_full_sample():
    """Differential oracle for the rim-first one-point difference: per trial,
    f0 with and without the first row equals `chain_counts` on the full
    `sample_sphere` points and on their [1:], and the report is read off
    those counts.  The grid removes the row from the first shell, from a
    later one and from past the last shell the rim reads, and D f0 != 0
    occurs."""
    where, nonzero = set(), 0
    for d, n in itertools.product((3, 5, 8), (8, 17, 64, 65, 400)):
        cfg = SimConfig(d=d, n=n, trials=40, seed=21)
        full, drop = [], []
        for trial in range(cfg.trials):
            xy = project_to_disk(sample_sphere(d, n, _rng(cfg.seed, trial)))
            counts = _f0_with_and_without_first_row(cfg, trial)
            assert counts == (chain_counts(xy)[0], chain_counts(xy[1:])[0])
            full.append(counts[0])
            drop.append(counts[1])
            where.add(_where_first_row_falls(d, n, cfg.seed, trial))
        diffs = np.subtract(full, drop)
        nonzero += np.count_nonzero(diffs)
        rep = first_diff_moment(cfg, p=1)
        assert rep.moment == np.abs(diffs).mean()
        assert rep.second_moment == (diffs ** 2).mean()
        assert rep.mean_f0 == np.mean(full)
        assert rep.zero_rate == np.mean(diffs == 0)
    assert where == {"first", "later", "past"}
    assert nonzero > 0


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
