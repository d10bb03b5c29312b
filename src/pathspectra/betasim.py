"""Monte Carlo machinery for planar shadows of random polytopes on spheres.

Projecting uniform points on the (d-1)-sphere to a 2-plane yields points on the
unit disk with density proportional to (1 - |x|^2)^beta, beta = d/2 - 2.  The
statistics of interest are the vertex and chain-edge counts of the convex hull
of n such points: the upper-chain edge count is distributed like the length of
the coherent path captured by the projection plane.

A sphere sample is drawn shell by shell from the rim inward (see `_shells`),
and every simulated hull is a rim hull (`_rim_chains`): it reads only the outer
shells, and stops at the first one whose inner disk the hull so far holds,
since every later point lies inside that disk.  `sample_sphere` draws every
shell from the same stream, then permutes the rows, so a trial's hull is that
of the full sample.  Each new shell first loses, by one vectorized sector
test, the points that the hull so far already holds; the monotone chain runs
on the rest and on the hull's vertices.

Reproducibility: every trial draws from a counter-based Philox stream keyed by
the pair (seed mod 2^64, trial index), and a retry jumps that stream ahead, so
no two seeds, trials or attempts share a stream and results are independent of
execution order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .exactgeom import _monotone_chains


@dataclass(frozen=True)
class SimConfig:
    d: int
    n: int
    trials: int
    seed: int = 0

    def __post_init__(self):
        if self.d < 3:
            raise InputError("projection model needs d >= 3")
        if self.trials < 1:
            raise InputError("need at least one trial")

    @property
    def beta(self) -> float:
        return self.d / 2 - 2


@dataclass
class SimReport:
    f0: list
    f1_up: list
    f1_low: list
    degenerate_retries: int
    summary: dict = field(init=False)

    def __post_init__(self):
        self.summary = {name: _summary(vals) for name, vals in
                        (("f0", self.f0), ("f1_up", self.f1_up), ("f1_low", self.f1_low))}


def _summary(values):
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    var = float(arr.var(ddof=1)) if len(arr) > 1 else 0.0
    return {"mean": mean, "variance": var,
            "stderr": math.sqrt(var / len(arr)) if len(arr) > 1 else 0.0}


def _rng(seed: int, trial: int, attempt: int = 0):
    """The stream of one trial: Philox keyed by (seed mod 2^64, trial); attempt k
    starts k jumps (2^128 draws each) into it."""
    bits = np.random.Philox(key=np.array([seed % 2**64, trial], dtype=np.uint64))
    return np.random.Generator(bits.jumped(attempt) if attempt else bits)


# The first shell holds about this many points, and each later shell about as
# many as all before it; fixed on cost grounds (few shells, few points beyond
# the hull's), never by a statistical criterion.
_FIRST_SHELL = 64


def _shells(d: int, n: int, rng):
    """n i.i.d. uniform points on the unit sphere in R^d, d >= 3, shell by
    shell from the rim of their projection to the first two axes inward.

    With a = d/2 - 1, U = (1 - r^2)^a is uniform on [0, 1] for the projected
    radius r.  Shell k holds the points with U in [t_k, t_{k+1}): t_0 = 0,
    t_1 = min(1, 64/n), and each later boundary doubles, capped at 1.  Its
    count is binomial among the points left, and the last shell takes them
    all.  Given its projection, the rest of a uniform point is uniform on the
    sphere of radius sqrt(1 - r^2) = U^(1/(2a)) in the other d - 2
    coordinates.  Yields (points, r_in) per shell, the projection in the first
    two columns, where r_in = sqrt(1 - t_{k+1}^(1/a)) bounds the projected
    radius of every later point.
    """
    a = d / 2 - 1
    left, lo, hi = n, 0.0, min(1.0, _FIRST_SHELL / n)
    while left:
        m = left if hi == 1.0 else int(rng.binomial(left, (hi - lo) / (1 - lo)))
        u = rng.uniform(lo, hi, m)
        r = np.sqrt(1 - u ** (1 / a))
        theta = 2 * np.pi * rng.random(m)
        rest = rng.standard_normal((m, d - 2))
        norms = np.sqrt(np.einsum("ij,ij->i", rest, rest))
        # a zero draw has probability 0; resample defensively
        while not norms.all():
            bad = norms == 0.0
            rest[bad] = rng.standard_normal((int(bad.sum()), d - 2))
            norms[bad] = np.sqrt(np.einsum("ij,ij->i", rest[bad], rest[bad]))
        pts = np.empty((m, d))
        pts[:, 0] = r * np.cos(theta)
        pts[:, 1] = r * np.sin(theta)
        np.multiply(rest, (u ** (0.5 / a) / norms)[:, None], out=pts[:, 2:])
        left -= m
        yield pts, math.sqrt(1 - hi ** (1 / a))
        lo, hi = hi, min(1.0, 2 * hi)


def sample_sphere(d: int, n: int, rng) -> np.ndarray:
    """n i.i.d. uniform points on the unit sphere in R^d, d >= 3: the shells of
    `_shells`, then one permutation of the rows drawn after them, so that every
    row, the first one included, is a uniform point."""
    if d < 3 or n < 0:
        raise InputError("sphere sampling needs d >= 3 and n >= 0")
    if n == 0:
        return np.empty((0, d))
    pts = np.concatenate([shell for shell, _ in _shells(d, n, rng)])
    return np.take(pts, rng.permutation(n), axis=0)


def project_to_disk(points: np.ndarray) -> np.ndarray:
    """Orthogonal projection to the first two coordinates (the plane is fixed to
    the first two axes by rotational symmetry)."""
    return np.asarray(points)[:, :2]


# ---------------------------------------------------------------------------
# Planar hulls
# ---------------------------------------------------------------------------

def chain_counts(xy) -> tuple:
    """(f0, f1_up, f1_low) of the convex hull of the points.

    The hull cycle is split at its lexicographic minimum and maximum, so the
    two chain edge counts always add up to the vertex count; collinear points
    interior to a hull edge are not counted as vertices.  Non-finite
    coordinates are an InputError.  `exactgeom._monotone_chains` runs on
    every distinct point, about a quarter of a second at 10^5 points on a
    shared 2-vCPU Xeon; simulations hull only the rim (`_rim_chains`).
    """
    xy = np.asarray(xy, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2 or len(xy) < 2:
        raise InputError("need at least two planar points")
    if not np.isfinite(xy).all():
        raise InputError("planar points must be finite")
    return _chain_lengths(*_monotone_chains(sorted(set(map(tuple, xy.tolist())))))


def _chain_lengths(lower, upper):
    """(f0, f1_up, f1_low) of the hull with these chains."""
    if len(lower) == 1:
        return 1, 0, 0
    return len(lower) + len(upper) - 2, len(upper) - 1, len(lower) - 1


def _rim_chains(shells):
    """Hull chains of the points of `shells`, (points, r_in) pairs as `_shells`
    yields them, from the fewest shells that make the hull.

    Once every hull edge lies at least the current shell's inner radius from
    the origin (times 1 + 1e-9, against rounding), every later point lies
    strictly inside the hull, which is then the hull of all the points.  Only
    the hull's vertices are carried on to the next shell.

    Of the next shell, only the points that the hull so far may not hold go to
    the chain.  When the origin lies left of every edge by the margin (the
    cross product of the edge's ends exceeds it), it is strictly inside, and
    the rays through the vertices v_0, ..., v_m-1, in increasing angle, cut
    the hull into the triangles (0, v_s, v_s+1), indices mod m.  One
    `np.searchsorted` of each point's angle gives its sector s, and one cross
    product drops the point when it lies left of the edge v_s v_s+1 by more
    than the margin: it lies in that triangle, so strictly inside every later
    hull, and is never one of its vertices.  A point whose angle rounds across
    a vertex's ray is tested against the neighbouring edge.  The part of that
    edge's left side which lies across the ray but outside the hull is a
    sliver at the vertex, within rounding of the edge's line, so the margin
    keeps its points.  Otherwise (the origin on or outside the hull, or within
    the margin of an edge) nothing is dropped.
    """
    chains, sectors = ([], []), None
    for points, r_in in shells:
        xy = points[:, :2] if sectors is None else points[~_held(sectors, points), :2]
        hull = set(chains[0] + chains[1]).union(map(tuple, xy.tolist()))
        chains = _monotone_chains(sorted(hull))
        if _disk_in_hull(chains, r_in * (1 + 1e-9)):
            break
        sectors = _sectors(chains)
    return chains


# The cross product by which `_rim_chains` needs a point inside an edge, and
# the origin inside every edge: far above the rounding of one (coordinates are
# at most 1 in size, so about 1e-15), and so above that of a sector misread.
_HELD_MARGIN = 1e-12


def _sectors(chains):
    """The hull's vertices in increasing angle about the origin, with their
    angles, or None unless the origin lies inside every edge by the margin."""
    lower, upper = chains
    cycle = lower[:-1] + upper[:-1]  # counterclockwise
    if len(cycle) < 3:
        return None
    ring = np.array(cycle + cycle[:1])
    x, y = ring[:, 0], ring[:, 1]
    if not (x[:-1] * y[1:] - y[:-1] * x[1:] > _HELD_MARGIN).all():
        return None
    cycle, angles = ring[:-1], np.arctan2(y[:-1], x[:-1])
    first = int(angles.argmin())
    return (np.concatenate((cycle[first:], cycle[:first])),
            np.concatenate((angles[first:], angles[:first])))


def _held(sectors, points):
    """Which points lie inside their sector's edge by more than the margin."""
    cycle, angles = sectors
    s = np.searchsorted(angles, np.arctan2(points[:, 1], points[:, 0]), side="right") - 1
    a, b = cycle[s], cycle[(s + 1) % len(cycle)]
    return ((b[:, 0] - a[:, 0]) * (points[:, 1] - a[:, 1])
            - (b[:, 1] - a[:, 1]) * (points[:, 0] - a[:, 0])) > _HELD_MARGIN


def _trial_counts(config: SimConfig, trial: int):
    """One simulation trial; collinear draws are retried on a fresh substream."""
    retries = 0
    for attempt in range(64):
        rng = _rng(config.seed, trial, attempt)
        f0, f1_up, f1_low = _chain_lengths(*_rim_chains(_shells(config.d, config.n, rng)))
        if f0 >= 3:
            return f0, f1_up, f1_low, retries
        retries += 1
    raise InputError("could not draw a non-degenerate sample in 64 attempts")


def simulate_Qn(config: SimConfig) -> SimReport:
    """Hull statistics of the projected sphere sample, one record per trial."""
    if config.n < 3:
        raise InputError("need n >= 3 points")
    f0s, ups, lows = [], [], []
    retries = 0
    for trial in range(config.trials):
        f0, up, low, r = _trial_counts(config, trial)
        f0s.append(f0)
        ups.append(up)
        lows.append(low)
        retries += r
    return SimReport(f0=f0s, f1_up=ups, f1_low=lows, degenerate_retries=retries)


# ---------------------------------------------------------------------------
# Growth of the expected vertex count
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthFit:
    slope: float
    stderr: float
    ci_low: float
    ci_high: float
    points: tuple  # (n, mean f0) pairs


def estimate_growth_exponent(d: int, n_grid, trials: int, seed: int) -> GrowthFit:
    """Least-squares slope of log E[f0] against log n, with a 95% interval."""
    grid = sorted(set(int(n) for n in n_grid))
    if len(grid) < 4:
        raise InputError("need at least four grid points")
    means = []
    for gi, n in enumerate(grid):
        rep = simulate_Qn(SimConfig(d=d, n=n, trials=trials, seed=seed ^ (gi << 32)))
        means.append(rep.summary["f0"]["mean"])
    xs = np.log(np.array(grid, dtype=float))
    ys = np.log(np.array(means))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    dof = len(grid) - 2
    sxx = float(((xs - xs.mean()) ** 2).sum())
    stderr = math.sqrt(float((resid ** 2).sum()) / dof / sxx)
    from scipy import special
    width = special.stdtrit(dof, 0.975) * stderr
    return GrowthFit(slope=float(slope), stderr=stderr,
                     ci_low=float(slope - width), ci_high=float(slope + width),
                     points=tuple(zip(grid, means)))


# ---------------------------------------------------------------------------
# Caps and the floating body
# ---------------------------------------------------------------------------

def floating_radius(beta: float, eps: float) -> float:
    """Radius R_eps whose cap {x : x . u > R_eps}, u a unit vector, has mass
    eps under the planar beta law, for 0 < eps < 1/2.

    A coordinate's marginal density is proportional to (1 - x^2)^(beta + 1/2),
    so the cap of radius R has mass I_{1 - R^2}(beta + 3/2, 1/2) / 2, with I
    the regularized incomplete beta function; R_eps inverts it.
    """
    if beta <= -1:
        raise InputError("beta must exceed -1")
    if not 0 < eps < 0.5:
        raise InputError(f"eps must lie strictly between 0 and 1/2, the half-disk "
                         f"measure; got {eps}")
    from scipy import special
    return math.sqrt(1 - float(special.betaincinv(beta + 1.5, 0.5, 2 * eps)))


@dataclass(frozen=True)
class ContainmentReport:
    rate: float
    eps: float
    radius: float
    contained: tuple


def floating_containment_rate(config: SimConfig, c0: float) -> ContainmentReport:
    """Fraction of trials in which the disk of radius R_eps, eps = c0 log n / n,
    is NOT contained in the hull (tested edge by edge against the origin)."""
    if config.n < 1:
        raise InputError(f"the floating body needs n >= 1; got {config.n}")
    eps = c0 * math.log(config.n) / config.n
    radius = floating_radius(config.beta, eps)
    flags = []
    for trial in range(config.trials):
        chains = _rim_chains(_shells(config.d, config.n, _rng(config.seed, trial)))
        flags.append(_disk_in_hull(chains, radius))
    return ContainmentReport(rate=flags.count(False) / config.trials, eps=eps,
                             radius=radius, contained=tuple(flags))


def _disk_in_hull(chains, radius: float) -> bool:
    """Whether the hull with these (lower, upper) chains holds the disk of this
    radius about the origin: every edge line lies at least `radius` from it."""
    lower, upper = chains
    cycle = lower[:-1] + upper[:-1]  # counterclockwise
    if len(cycle) < 3:
        return False
    for p, q in zip(cycle, cycle[1:] + cycle[:1]):
        length = math.hypot(q[0] - p[0], q[1] - p[1])
        signed = p[0] * q[1] - p[1] * q[0]  # > 0 iff origin is left of pq
        if signed / length < radius:
            return False
    return True


# ---------------------------------------------------------------------------
# First-order differences and the central limit check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffMomentReport:
    p: int
    moment: float
    second_moment: float
    es_proxy: float
    var_f0: float
    mean_f0: float
    zero_rate: float


def first_diff_moment(config: SimConfig, p: int) -> DiffMomentReport:
    """Moments of D f0 = f0(all n points) - f0(first point removed), plus the
    jackknife variance proxy (n+1) E[(D f0)^2].

    Both hulls are rim hulls of `sample_sphere`'s shells.  D f0 is nonzero
    only when the removed point is a hull vertex, so the trials must far
    exceed n / E f0 for the moments to say much; the variance of f0 needs at
    least two.
    """
    if config.n < 4:
        raise InputError("need n >= 4")
    if p < 1:
        raise InputError("p must be a positive integer")
    if config.trials < 2:
        raise InputError("the one-point difference needs at least two trials")
    counts = np.array([_f0_with_and_without_first_row(config, trial)
                       for trial in range(config.trials)], dtype=float)
    f0s = counts[:, 0]
    diffs = f0s - counts[:, 1]
    second = float((diffs ** 2).mean())
    return DiffMomentReport(
        p=p,
        moment=float((np.abs(diffs) ** p).mean()),
        second_moment=second,
        es_proxy=(config.n + 1) * second,
        var_f0=float(f0s.var(ddof=1)),
        mean_f0=float(f0s.mean()),
        zero_rate=float((diffs == 0).mean()),
    )


def _f0_with_and_without_first_row(config: SimConfig, trial: int):
    """f0 of the trial's `sample_sphere` points, and f0 without its first row,
    both from rim hulls of the same shells."""
    rng = _rng(config.seed, trial)
    shells = list(_shells(config.d, config.n, rng))
    k = int(rng.permutation(config.n)[0])  # the shell row `sample_sphere` puts first
    dropped = []  # each r_in still bounds every later point
    for points, r_in in shells:
        dropped.append((np.delete(points, k, axis=0) if 0 <= k < len(points) else points, r_in))
        k -= len(points)
    return (_chain_lengths(*_rim_chains(shells))[0], _chain_lengths(*_rim_chains(dropped))[0])


@dataclass(frozen=True)
class CLTResult:
    ks: float
    ks_smoothed: float
    mean: float
    std: float
    reliable: bool


def kolmogorov_distance(sample) -> float:
    """Exact empirical Kolmogorov distance to the standard normal."""
    z = np.sort(np.asarray(sample, dtype=float))
    n = len(z)
    from scipy import special
    cdf = special.ndtr(z)
    steps = np.arange(n, dtype=float)
    d_plus = np.max((steps + 1) / n - cdf)
    d_minus = np.max(cdf - steps / n)
    return float(max(d_plus, d_minus))


def clt_check(config: SimConfig) -> CLTResult:
    """Kolmogorov distance of the standardized upper-chain edge count to the
    standard normal; results with fewer than 1000 trials are flagged.

    The edge count is integer valued, so the raw distance cannot drop below
    roughly 0.2 / std no matter how normal the law becomes; `ks_smoothed`
    removes that lattice floor by a deterministic continuity correction
    (uniform jitter on [-1/2, 1/2] before standardizing).  A standard
    deviation needs at least two trials.
    """
    if config.trials < 2:
        raise InputError("the CLT check needs at least two trials")
    rep = simulate_Qn(config)
    ups = np.array(rep.f1_up, dtype=float)
    mean = float(ups.mean())
    std = float(ups.std(ddof=1))
    if std == 0.0:
        raise InputError("degenerate configuration: zero variance of the chain length")
    ks = kolmogorov_distance((ups - mean) / std)
    jitter = _rng(config.seed, 0x434C54).uniform(-0.5, 0.5, size=len(ups))
    smoothed = ups + jitter
    ks_smoothed = kolmogorov_distance((smoothed - smoothed.mean()) / smoothed.std(ddof=1))
    return CLTResult(ks=ks, ks_smoothed=ks_smoothed, mean=mean, std=std,
                     reliable=config.trials >= 1000)
