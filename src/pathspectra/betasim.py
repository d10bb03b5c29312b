"""Monte Carlo machinery for planar shadows of random polytopes on spheres.

Projecting uniform points on the (d-1)-sphere to a 2-plane yields points on the
unit disk with density proportional to (1 - |x|^2)^beta, beta = d/2 - 2.  The
statistics of interest are the vertex and chain-edge counts of the convex hull
of n such points: the upper-chain edge count is distributed like the length of
the coherent path captured by the projection plane.

Reproducibility: every trial draws from a counter-based Philox stream keyed by
seed XOR trial index, so results are independent of execution order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import integrate, special, stats

from .errors import InputError


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
    config: SimConfig
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
    key = (seed ^ trial) + attempt * 0x9E3779B97F4A7C15
    return np.random.Generator(np.random.Philox(key=key & (2**64 - 1)))


def sample_sphere(d: int, n: int, rng) -> np.ndarray:
    """n i.i.d. uniform points on the unit sphere in R^d (normalized Gaussians)."""
    if d < 2:
        raise InputError("sphere sampling needs d >= 2")
    pts = rng.normal(size=(n, d))
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    # a zero draw has probability 0; resample defensively
    bad = norms[:, 0] == 0.0
    while bad.any():
        pts[bad] = rng.normal(size=(int(bad.sum()), d))
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
        bad = norms[:, 0] == 0.0
    return pts / norms


def project_to_disk(points: np.ndarray) -> np.ndarray:
    """Orthogonal projection to the first two coordinates (the plane is fixed to
    the first two axes by rotational symmetry)."""
    return np.asarray(points)[:, :2]


def beta_density(beta: float, x) -> float:
    """Density C (1 - |x|^2)^beta on the unit disk, C = Gamma(beta+2) / (pi Gamma(beta+1))."""
    if beta <= -1:
        raise InputError("beta must exceed -1")
    r2 = float(x[0]) ** 2 + float(x[1]) ** 2
    if r2 > 1.0:
        return 0.0
    c = math.gamma(beta + 2) / (math.pi * math.gamma(beta + 1))
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


# ---------------------------------------------------------------------------
# Planar hulls
# ---------------------------------------------------------------------------

_AT_DIRECTIONS = np.array([(1, 0), (0, 1), (-1, 0), (0, -1),
                           (1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=float)


def _throwaway_filter(xy: np.ndarray) -> np.ndarray:
    """Drop points strictly inside the polygon of the 8 directional extremes;
    hull vertices always survive."""
    if len(xy) <= 16:
        return xy
    scores = xy @ _AT_DIRECTIONS.T
    extreme_idx = np.unique(np.argmax(scores, axis=0))
    extremes = xy[extreme_idx]
    if len(extremes) < 3:
        return xy
    center = extremes.mean(axis=0)
    order = np.argsort(np.arctan2(extremes[:, 1] - center[1], extremes[:, 0] - center[0]))
    poly = extremes[order]
    keep = np.zeros(len(xy), dtype=bool)
    for a, b in zip(poly, np.roll(poly, -1, axis=0)):
        edge = b - a
        cross = edge[0] * (xy[:, 1] - a[1]) - edge[1] * (xy[:, 0] - a[0])
        keep |= cross <= 0.0
    return xy[keep]


def _hull_chains(xy: np.ndarray):
    """Lower and upper hull chains (Andrew's monotone chain) of the points.

    Both run between the lexicographic minimum and maximum of the distinct
    points, the lower one from the minimum, the upper one from the maximum;
    points on a hull edge but not at its ends are left out.
    """
    pts = sorted(set(map(tuple, _throwaway_filter(xy))))

    def half(points):
        out = []
        for p in points:
            while len(out) >= 2 and (
                    (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0.0:
                out.pop()
            out.append(p)
        return out

    return half(pts), half(pts[::-1])


def chain_counts(xy) -> tuple:
    """(f0, f1_up, f1_low) of the convex hull of the points.

    The hull cycle is split at its lexicographic minimum and maximum, so the
    two chain edge counts always add up to the vertex count; collinear points
    interior to a hull edge are not counted as vertices.
    """
    xy = np.asarray(xy, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2 or len(xy) < 2:
        raise InputError("need at least two planar points")
    lower, upper = _hull_chains(xy)
    if len(lower) == 1:
        return 1, 0, 0
    f1_low = len(lower) - 1
    f1_up = len(upper) - 1
    return f1_low + f1_up, f1_up, f1_low


def _trial_counts(config: SimConfig, trial: int):
    """One simulation trial; collinear draws are retried on a fresh substream."""
    retries = 0
    for attempt in range(64):
        rng = _rng(config.seed, trial, attempt)
        pts = sample_sphere(config.d, config.n, rng)
        xy = project_to_disk(pts)
        f0, f1_up, f1_low = chain_counts(xy)
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
    return SimReport(config=config, f0=f0s, f1_up=ups, f1_low=lows,
                     degenerate_retries=retries)


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
    stderr = math.sqrt(float((resid ** 2).sum()) / dof / sxx) if dof > 0 else 0.0
    width = stats.t.ppf(0.975, dof) * stderr if dof > 0 else math.inf
    return GrowthFit(slope=float(slope), stderr=stderr,
                     ci_low=float(slope - width), ci_high=float(slope + width),
                     points=tuple(zip(grid, means)))


# ---------------------------------------------------------------------------
# Caps and the floating body
# ---------------------------------------------------------------------------

def _density_constant(beta: float) -> float:
    return math.gamma(beta + 2) / (math.pi * math.gamma(beta + 1))


def cap_measure(beta: float, R: float) -> float:
    """Measure of a cap of radius R: 2C * int_R^1 r (1-r^2)^beta arccos(r) dr,
    computed as int_0^arccos(R) theta cos(theta) sin(theta)^(2 beta + 1) dtheta
    which is smooth for beta >= -1/2."""
    if beta <= -1:
        raise InputError("beta must exceed -1")
    if not 0 < R < 1:
        raise InputError("cap radius must be strictly between 0 and 1")
    alpha = math.acos(R)
    c = _density_constant(beta)
    val, _err = integrate.quad(
        lambda t: t * math.cos(t) * math.sin(t) ** (2 * beta + 1),
        0.0, alpha, epsabs=1e-16, epsrel=1e-13, limit=200)
    return 2.0 * c * val


def cap_measure_asymptotic(beta: float, R: float) -> float:
    """Leading term 2^(beta + 5/2) C / (2 beta + 3) * (1 - R)^(beta + 3/2)."""
    c = _density_constant(beta)
    return 2.0 ** (beta + 2.5) * c / (2 * beta + 3) * (1 - R) ** (beta + 1.5)


def floating_radius(beta: float, eps: float) -> float:
    """Radius R_eps with cap_measure(beta, R_eps) = eps, by bisection to 1e-12."""
    if eps <= 0:
        raise InputError("eps must be positive")
    if eps >= 0.5:
        raise InputError("eps must be below 1/2, the half-disk measure")
    lo, hi = 0.0, 1.0  # cap_measure decreases from 1/2 to 0 on (0, 1)
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if cap_measure(beta, mid) > eps:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def outside_measure(beta: float, eps: float) -> float:
    """Measure of the annulus outside the floating body: pi C / (beta+1) * (1 - R^2)^(beta+1)."""
    r = floating_radius(beta, eps)
    c = _density_constant(beta)
    return math.pi * c / (beta + 1) * (1 - r * r) ** (beta + 1)


def max_independent_caps(beta: float, eps: float) -> int:
    """floor(pi / arccos(R_eps)): how many disjoint eps-caps fit around the disk."""
    r = floating_radius(beta, eps)
    return int(math.pi / math.acos(r))


@dataclass(frozen=True)
class ContainmentReport:
    rate: float
    eps: float
    radius: float
    trials: int
    contained: tuple


def floating_containment_rate(config: SimConfig, c0: float) -> ContainmentReport:
    """Fraction of trials in which the disk of radius R_eps, eps = c0 log n / n,
    is NOT contained in the hull (tested edge by edge against the origin)."""
    eps = c0 * math.log(config.n) / config.n
    radius = floating_radius(config.beta, eps)
    flags = []
    for trial in range(config.trials):
        rng = _rng(config.seed, trial)
        xy = project_to_disk(sample_sphere(config.d, config.n, rng))
        flags.append(_disk_in_hull(xy, radius))
    return ContainmentReport(rate=flags.count(False) / config.trials, eps=eps,
                             radius=radius, trials=config.trials,
                             contained=tuple(flags))


def _disk_in_hull(xy: np.ndarray, radius: float) -> bool:
    lower, upper = _hull_chains(xy)
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
    config: SimConfig


def first_diff_moment(config: SimConfig, p: int) -> DiffMomentReport:
    """Moments of D f0 = f0(all n points) - f0(first point removed), plus the
    jackknife variance proxy (n+1) E[(D f0)^2]."""
    if config.n < 4:
        raise InputError("need n >= 4")
    if p < 1:
        raise InputError("p must be a positive integer")
    diffs = []
    f0s = []
    for trial in range(config.trials):
        rng = _rng(config.seed, trial)
        xy = project_to_disk(sample_sphere(config.d, config.n, rng))
        f0_full, _, _ = chain_counts(xy)
        f0_drop, _, _ = chain_counts(xy[1:])
        diffs.append(f0_full - f0_drop)
        f0s.append(f0_full)
    diffs = np.array(diffs, dtype=float)
    f0s = np.array(f0s, dtype=float)
    second = float((diffs ** 2).mean())
    return DiffMomentReport(
        p=p,
        moment=float((np.abs(diffs) ** p).mean()),
        second_moment=second,
        es_proxy=(config.n + 1) * second,
        var_f0=float(f0s.var(ddof=1)) if len(f0s) > 1 else 0.0,
        mean_f0=float(f0s.mean()),
        zero_rate=float((diffs == 0).mean()),
        config=config,
    )


@dataclass(frozen=True)
class CLTResult:
    ks: float
    ks_smoothed: float
    mean: float
    std: float
    reliable: bool
    config: SimConfig


def kolmogorov_distance(sample) -> float:
    """Exact empirical Kolmogorov distance to the standard normal."""
    z = np.sort(np.asarray(sample, dtype=float))
    n = len(z)
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
    (uniform jitter on [-1/2, 1/2] before standardizing).
    """
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
                     reliable=config.trials >= 1000, config=config)


def projection_chi_square(d: int, n: int, seed: int, bins: int = 24):
    """Chi-square statistic and p-value of projected sphere samples against the
    radial law of the beta density, on equiprobable radial bins."""
    beta = d / 2 - 2
    rng = _rng(seed, 0)
    xy = project_to_disk(sample_sphere(d, n, rng))
    radii = np.hypot(xy[:, 0], xy[:, 1])
    qs = np.arange(1, bins) / bins
    edges = np.sqrt(1.0 - (1.0 - qs) ** (1.0 / (beta + 1.0)))
    counts, _ = np.histogram(radii, bins=np.concatenate(([0.0], edges, [1.0])))
    expected = n / bins
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat, float(stats.chi2.sf(stat, bins - 1))
