"""Coherence of monotone paths via the slope cone.

A path is coherent when some secondary direction omega makes it the upper chain
of the planar shadow spanned by (c, omega).  The capture condition is a
homogeneous cone in omega: at every step the taken arc must beat every other
improving neighbor on slope.  The path is coherent iff that cone is
full-dimensional, i.e. iff some omega satisfies every row strictly; by Gordan's
alternative this fails exactly when a nonzero nonnegative combination of the
rows vanishes.

A witness already in hand decides a path incoherent before any LP, when the
path's rows hold all of its support.  One store keeps them: seeded with
{r: 1/2, -r: 1/2} for every row r whose negation -r is a row too, and
growing, within one enumeration, by every witness an earlier path
certified.  Every other path with rows costs one HiGHS LP (the
max-least-slack LP), which proposes either certificate: its solution a
strictly interior omega, its duals the vanishing combination.  Both are
checked in exact arithmetic, and what they leave open is decided by the
exact simplex on the same LP (`exactgeom.lp_maximize`).  So every coherent
path's certificate comes from its own LP.  That LP is built from one table per enumeration, each
distinct row's HiGHS entries (`exactgeom._lp_rows`), made at the
enumeration's first LP, so a path's model is its rows' entries
concatenated.  A float coordinate is taken at its exact
binary value, so every verdict is exact.

A spectrum needs no certificate.  For a full-dimensional polytope in R^3
whose graph keeps every edge, `coherent_spectrum` enumerates no path: the
coherent paths are the arcs that the facets' events cut from the circle of
directions omega in c-perp (Billera and Sturmfels, *Fiber polytopes*), and
one exact angular sort of the facet normals gives each arc's length
(`_sweep_arcs`), with one DEBUG line per call: the paths, the events and
the events merged at a shared angle.  Every other input, a flat polygon in
R^3, a graph with level ties dropped or any other dimension, is enumerated:
the walk-first spectrum walks a fixed batch of omegas first, a path that
one of them reached is coherent, with no LP, once that omega is strictly
positive on every row of the path, and only the other paths take the
route above.

Certificates and the shadow walk run on integers: omega is projected off c
on numerators over one denominator, and each arc's step is a primitive
integer vector and its rise in c an integer.  The walk moves all of its
omegas at once, vertex by vertex up the orientation: at a vertex each arc's
step is scaled by lcm(runs) / run, so one integer matrix product puts every
walker's slopes on one scale, in int64 where a bound from the steps proves
that exact and on Python ints otherwise.
"""
from __future__ import annotations

import logging
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import chain
from math import gcd, lcm
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegeneracyError, InputError
from .exactgeom import (DirectedGraph, Polytope, dot, lp_maximize, orient, _bits,
                        _lp_rows, _monotone_chains, _over_common_denominator, _rational,
                        _strict_interior)
from .pathcount import LengthSpectrum, MonotonePath, enumerate_paths

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SlopeCone:
    """Homogeneous inequality rows in omega; each row must be >= 0 to hold."""

    rows: tuple


@dataclass(frozen=True)
class CoherenceCertificate:
    """A capturing omega together with its exact minimum row slack."""

    omega: tuple
    margin: object


class SampleDraw(NamedTuple):
    paths: frozenset
    degenerate: int


def _validate_path(G: DirectedGraph, path: MonotonePath):
    seq = tuple(path.vertex_indices)
    if not seq or seq[0] != G.source or seq[-1] != G.sink:
        raise InputError("path must run from the source to the sink")
    for u, v in zip(seq, seq[1:]):
        if v not in G.arcs[u]:
            raise InputError(f"{u} -> {v} is not an arc of the oriented graph")
    return seq


def _arc_table(P: Polytope, G: DirectedGraph, tails=None):
    """For each vertex u in `tails` (default: all), one (v, step, run) per arc
    u -> v, in arc order.

    The slope of omega along the arc is proportional to omega . step / run,
    with run > 0 and one factor for all arcs: step is the primitive integer
    vector along v - u and run is c . step with c scaled to integers.  The
    steps are taken on the polytope's integer vertices (`Polytope._ints`),
    since scaling keeps each step's primitive vector.
    """
    c, _ = _over_common_denominator(G.c)
    ints = P._ints
    table = {}
    for u in range(len(G.arcs)) if tails is None else tails:
        steps = [_primitive([a - b for a, b in zip(ints[v], ints[u])]) for v in G.arcs[u]]
        table[u] = [(v, step, dot(c, step)) for v, step in zip(G.arcs[u], steps)]
    return table


def _arc_rows(table):
    """{(u, v): rows} over the arcs of `table`: the rows demanding that the
    arc u -> v beats u's other improving neighbors.

    On integer steps and runs each row is a positive multiple of the row on
    the raw differences, so its primitive vector, the row over its gcd, is
    the same.
    """
    blocks = {}
    for u, arcs in table.items():
        for v, step, run in arcs:
            blocks[u, v] = tuple(_primitive([c_rival * a - run * b for a, b in zip(step, rival)])
                                 for w, rival, c_rival in arcs if w != v)
    return blocks


def _primitive(row):
    """The nonzero integer vector `row` over the gcd of its entries."""
    g = gcd(*row)
    return tuple(x // g for x in row)


def _path_rows(blocks, seq):
    """Slope rows of the path `seq` from the arc blocks of `_arc_rows`, step
    by step, each distinct row once."""
    return list(dict.fromkeys(chain.from_iterable(map(blocks.__getitem__, zip(seq, seq[1:])))))


def slope_cone(P: Polytope, c, path: MonotonePath, graph: DirectedGraph = None) -> SlopeCone:
    """Cone of capture vectors for the path: one row per (step, rival neighbor)."""
    G = graph if graph is not None else orient(P, c)
    seq = _validate_path(G, path)
    blocks = _arc_rows(_arc_table(P, G, tails=seq[:-1]))
    return SlopeCone(rows=tuple(_path_rows(blocks, seq)))


def is_coherent(P: Polytope, c, path: MonotonePath,
                graph: DirectedGraph = None) -> Optional[CoherenceCertificate]:
    """Certificate iff the slope cone is full-dimensional, decided exactly.

    A row next to its negation proves the path incoherent outright.
    Otherwise one HiGHS max-least-slack LP proposes either a strictly
    interior omega (coherent) or, from its duals, a nonzero nonnegative
    vanishing combination of the rows (incoherent, by Gordan's alternative);
    the proposal is certified in exact arithmetic, and the exact simplex on
    the same LP settles the rare leftovers.
    """
    G = graph if graph is not None else orient(P, c)
    rows = list(slope_cone(P, c, path, graph=G).rows)
    return _decide_rows(rows, *_lp_context(G.c, rows))[1]


def shadow_path(P: Polytope, c, omega, graph: DirectedGraph = None) -> MonotonePath:
    """Path picked by the steepest-shadow walk: from the source, repeatedly move
    to the improving neighbor maximizing <omega, v - u> / <c, v - u>.

    One walker of `_walk`, on Python ints, with the forks of the vertices it
    visits only; a slope tie means omega is not generic for this walk:
    DegeneracyError.  `graph`, when given, is `orient(P, c)`.
    """
    G = graph if graph is not None else orient(P, c)
    om = [_rational(x) for x in omega]
    if len(om) != P.dim:
        raise InputError("omega has wrong dimension")
    om, _ = _over_common_denominator(om)  # a positive multiple walks the same
    reached, ties = _walk(G, lambda u: _fork(_arc_table(P, G, tails=(u,))[u]),
                          np.array([om], dtype=object))
    if ties:
        raise DegeneracyError(
            f"slope tie at vertex {ties[0]}; omega does not capture a unique path")
    return next(iter(reached))


def _fork(arcs):
    """(heads, columns) for the arcs (v, step, run) of one vertex u in
    `_arc_table`.

    heads[j] is the head of the j-th arc and columns[j] its step times
    lcm(runs at u) / its run, so omega . columns[j] is omega's slope along
    the arc times one positive factor for all of u's arcs; columns is None
    when u has one arc, which leaves no choice.
    """
    heads = np.array([v for v, _, _ in arcs])
    if len(arcs) == 1:
        return heads, None
    scale = lcm(*(run for _, _, run in arcs))
    return heads, [[x * (scale // run) for x in step] for _, step, run in arcs]


def _slope_table(table):
    """({u: `_fork` of u}, norm) over the vertices u with arcs in the arc
    table `table`; norm is the largest 1-norm of a column."""
    forks = {u: _fork(arcs) for u, arcs in table.items() if arcs}
    norm = max((sum(map(abs, col)) for _, columns in forks.values() if columns
                for col in columns), default=0)
    return forks, norm


def _walk_dtype(norm):
    """The dtype `_walk` takes omegas of `_draw_omegas` in, for a slope table
    of norm `norm`: |omega . column| <= _OMEGA_MAX * norm, so int64 only
    where that fits it."""
    return np.int64 if _OMEGA_MAX * norm < 2 ** 63 else object


def _walk(G: DirectedGraph, fork, omegas):
    """(reached, ties): walk every row of the integer array `omegas` up `G`
    along its steepest slope, all at once; fork(u) is u's `_fork`.

    `reached` maps each distinct path of the walkers that reached the sink
    to the row of one of them, whose omega strictly captures it, and `ties`
    holds the vertex where each other walker met its largest slope twice.
    The vertices are visited in `G.order`, each one that holds walkers once:
    arcs go up the order, so every walker bound for it has arrived.  At a
    fork one matrix product, in `omegas`' dtype, gives every walker's slopes.
    """
    n = len(omegas)
    arrived = {G.source: [np.arange(n)]}
    depth = np.zeros(n, dtype=np.intp)
    trail = np.full((8, n), -1)  # trail[k, w]: walker w's k-th vertex after the source
    ties = []
    for u in G.order:
        if u == G.sink or u not in arrived:
            continue
        idx = np.concatenate(arrived.pop(u))
        heads, columns = fork(u)
        pick = np.zeros(len(idx), dtype=np.intp)
        if columns is not None:
            slopes = omegas[idx] @ np.array(columns, dtype=omegas.dtype).T
            # the first and the last column where a row attains its maximum
            pick = slopes.argmax(axis=1)
            tied = pick != len(columns) - 1 - slopes[:, ::-1].argmax(axis=1)
            if tied.any():
                ties += [u] * int(np.count_nonzero(tied))
                idx, pick = idx[~tied], pick[~tied]
        step = depth[idx] + 1
        if len(step) and step.max() >= len(trail):
            trail = np.vstack([trail, np.full_like(trail, -1)])
        trail[step, idx] = heads[pick]
        depth[idx] = step
        for j, v in enumerate(heads.tolist()):
            took = idx[pick == j]
            if len(took):
                arrived.setdefault(v, []).append(took)
    done = np.concatenate(arrived.get(G.sink, [np.arange(0)]))
    reached = dict(zip(map(tuple, trail[:, done].T.tolist()), done.tolist()))
    return ({MonotonePath((G.source, *(v for v in col if v >= 0))): w
             for col, w in reached.items()}, ties)


def coherent_paths(P: Polytope, c, graph: DirectedGraph = None):
    """Yield (path, certificate) for every coherent monotone path, in path order.

    Everything a path's LP needs but its rows, `_lp_context` over the
    graph's rows, is built once for the whole enumeration.  The verdict
    count per route is logged at DEBUG when the enumeration ends.
    """
    G = graph if graph is not None else orient(P, c)
    yield from _coherent(G, _arc_table(P, G), {}, "coherent_paths")


def _coherent(G: DirectedGraph, table, captures, caller):
    """Yield (path, certificate) for every coherent monotone path of `G`, in
    path order, from its arc table `table`.

    A path that `captures` ({path: integer omega}) holds is coherent, with
    None for its certificate, once its omega rechecks strictly on the path's
    rows ("shadow walk"); `_decide_rows` decides every other path.  The
    count per route is logged at DEBUG under `caller` when the enumeration
    ends.
    """
    blocks = _arc_rows(table)
    context = _lp_context(G.c, set(chain.from_iterable(blocks.values())))
    routes = Counter()
    try:
        for path in enumerate_paths(G):
            rows = _path_rows(blocks, path.vertex_indices)
            omega = captures.get(path)
            if omega is not None and rows and all(dot(row, omega) > 0 for row in rows):
                routes["shadow walk"] += 1
                yield path, None
                continue
            route, cert = _decide_rows(rows, *context)
            routes[route] += 1
            if cert is not None:
                yield path, cert
    finally:
        _log.debug("%s: %d paths; %s", caller, sum(routes.values()),
                   ", ".join(f"{route} {routes[route]}" for route in _ROUTES))


# how each path's verdict was reached: "shadow walk" is the walk-first
# capture of `coherent_spectrum`, the others are `_decide_rows`'s
_ROUTES = ("no rows", "shadow walk", "opposite rows", "shared witness",
           "HiGHS strict omega", "HiGHS witness", "exact simplex")
_HALF = Fraction(1, 2)


def _witness_store(rows):
    """Gordan witnesses in hand, as {least support row: [(route, {row: weight})]},
    seeded with {r: 1/2, -r: 1/2} for every opposite pair among `rows`."""
    rows = set(rows)
    store = {}
    for row in rows:
        neg = tuple(-x for x in row)
        if row < neg and neg in rows:
            store[row] = [("opposite rows", {row: _HALF, neg: _HALF})]
    return store


def _known_witness(rows, witnesses):
    """A witness in `witnesses` whose support lies within `rows`, as (route,
    {row: weight}), or None; it holds for `rows` as it is."""
    seen = set(rows)
    for row in rows:
        for known in witnesses.get(row, ()):
            if known[1].keys() <= seen:
                return known
    return None


def _lp_context(c, rows):
    """(witnesses, table, normal): all that `_decide_rows` needs besides a
    path's rows, over the slope rows `rows` of direction c.  `witnesses` is
    the witness store seeded from `rows`, `table()` their HiGHS entries
    (`_lp_rows`), built at its first call, so an enumeration that runs no
    LP builds none, and `normal` is (cn, cn . cn), cn the integer multiple
    of c that certificates are projected off."""
    cn, _ = _over_common_denominator(c)
    return _witness_store(rows), cache(lambda: _lp_rows(rows)), (cn, dot(cn, cn))


def _decide_rows(rows, witnesses, table, normal):
    """(route, certificate) for the cone of `rows`: a certificate iff it has
    an interior point, else None; `route` names what decided it (`_ROUTES`).

    A witness in hand (`_known_witness`) settles an incoherent path first;
    then one HiGHS LP, then the exact simplex.  `witnesses`, `table` and
    `normal` come from `_lp_context` over rows that include `rows`; the
    store keeps each HiGHS witness for later paths.
    """
    cn, cc = normal
    if not rows:
        return "no rows", CoherenceCertificate(omega=(Fraction(0),) * len(cn), margin=Fraction(1))
    known = _known_witness(rows, witnesses)
    if known is not None:
        return known[0], None
    # a Gordan witness lam >= 0, sum lam = 1, sum lam_r row_r = 0 proves the
    # cone has no interior
    omega, witness = _strict_interior(rows, table())
    if witness is not None:
        support = {row: x for row, x in zip(rows, witness) if x}
        witnesses.setdefault(min(support), []).append(("shared witness", support))
        return "HiGHS witness", None
    route = "HiGHS strict omega"
    if omega is None:
        route = "exact simplex"
        omega, slack = lp_maximize(rows)
        if slack <= 0:
            return route, None
        omega = _over_common_denominator(omega)
    # omega = num / den less its c component: with cn an integer multiple of
    # c, that is num (cn . cn) - (num . cn) cn over den (cn . cn)
    num, den = omega
    t = dot(num, cn)
    num = [x * cc - t * y for x, y in zip(num, cn)]
    den *= cc
    margin = Fraction(min(dot(row, num) for row in rows), den)
    if margin <= 0:
        raise AssertionError("normalized certificate lost its margin")
    return route, CoherenceCertificate(omega=tuple(Fraction(x, den) for x in num),
                                       margin=margin)


def coherent_spectrum(P: Polytope, c, graph: DirectedGraph = None) -> LengthSpectrum:
    """Exact coherent counts per length; pointwise at most the monotone counts.

    A full-dimensional P in R^3 whose graph keeps every edge (no
    `drop_level_ties` graph) takes the angular sweep, `_sweep_arcs`, which
    enumerates no path; every other input the walk-first enumeration,
    `_walk_first_spectrum`.
    """
    G = graph if graph is not None else orient(P, c)
    if P.dim == 3 and P._facets[0].bit_count() > 2 and sum(map(len, G.arcs)) == len(P.edges()):
        return LengthSpectrum(Counter(length for _event, length in _sweep_arcs(P, G)))
    return _walk_first_spectrum(P, G)


def _walk_first_spectrum(P: Polytope, G: DirectedGraph) -> LengthSpectrum:
    """The coherent spectrum of P along the graph `G`, by enumeration.

    A count needs no certificate, so the enumeration walks first: _PROBES
    omegas of `_draw_omegas` under seed 0 go up the graph through `_walk`,
    and a path one of them reached counts as coherent, with no LP, once that
    omega rechecks strictly on the path's rows.  Only the other paths go to
    `_decide_rows`, as in `coherent_paths`.
    """
    table = _arc_table(P, G)
    forks, norm = _slope_table(table)
    omegas = _draw_omegas(random.Random(0), _PROBES, P.dim)
    reached, _ties = _walk(G, forks.__getitem__, omegas.astype(_walk_dtype(norm), copy=False))
    captures = {path: omegas[w].tolist() for path, w in reached.items()}
    return LengthSpectrum(Counter(
        path.length for path, _cert in _coherent(G, table, captures, "coherent_spectrum")))


def _sweep_arcs(P: Polytope, G: DirectedGraph):
    """[(event, length)], one per coherent path of P along `G`, which keeps
    every edge of P, in angular order: the path is the shadow path on the
    arc from `event` counterclockwise to the next entry's event, and
    `length` is its length.

    The shadow path at omega in c-perp changes only where a facet F projects
    to a segment on the upper side, at omega along F's outward normal n
    projected off c.  With u = `_sweep_plane(c)`[0] and v = c x u, omega is
    read as (omega . u, omega . v), so F's event is (n . u, n . v), and W
    maps back to omega = W_0 |v|^2 u + W_1 |u|^2 v.  The events, sorted by
    exact angle, cut that circle into arcs, one per coherent path; events at
    one angle are one cut, and their changes add.  Crossing F's event
    counterclockwise swaps F's chain B for its chain A, two chains from its
    c-lowest vertex lo to its c-highest hi, A not the edge lo-hi, when
    event x (w . u, w . v) > 0 for w = (c . (hi - lo))(m - lo) -
    (c . (m - lo))(hi - lo), m the vertex after lo on A, and A for B
    otherwise.  The length on the arc from the last cut to the first is read
    off the exact upper chain of the integer shadow at the sum of those two
    events, which lies inside that arc: every gap is below pi, since the
    normals positively span R^3.  RuntimeError when the lengths do not
    close up after a full turn.
    """
    c, _ = _over_common_denominator(G.c)
    u, v = _sweep_plane(c)
    ints = P._ints
    level = [dot(x, c) for x in ints]
    near = [[] for _ in ints]
    for i, j in P.edges():
        near[i].append(j)
        near[j].append(i)
    inner = [sum(col) for col in zip(*ints)]  # len(ints) times the centroid
    events = []
    for tight in P._facets:
        face = list(_bits(tight))
        lo, hi = min(face, key=level.__getitem__), max(face, key=level.__getitem__)
        m = next(k for k in near[lo] if tight >> k & 1 and k != hi)
        size, back, k = 1, lo, m  # size: the edges of A
        while k != hi:
            back, k = k, next(j for j in near[k] if tight >> j & 1 and j != back)
            size += 1
        a, b, d = (ints[k] for k in face[:3])
        normal = _cross([x - y for x, y in zip(b, a)], [x - y for x, y in zip(d, a)])
        if dot(normal, [t - len(ints) * x for t, x in zip(inner, a)]) > 0:
            normal = [-x for x in normal]
        event = (dot(normal, u), dot(normal, v))
        rise, up = level[hi] - level[lo], level[m] - level[lo]
        w = [rise * (x - y) - up * (z - y) for x, y, z in zip(ints[m], ints[lo], ints[hi])]
        change = 2 * size - len(face)  # |A| - |B|
        events.append((event, change if event[0] * dot(w, v) > event[1] * dot(w, u) else -change))
    events.sort(key=lambda e: _ANGLE(e[0]))
    cuts = []  # [event, change, events at its angle]
    for event, change in events:
        if cuts and _by_angle(cuts[-1][0], event) == 0:
            cuts[-1][1] += change
            cuts[-1][2] += 1
        else:
            cuts.append([event, change, 1])
    (e, _, _), (f, _, _) = cuts[-1], cuts[0]
    s, t = (e[0] + f[0]) * dot(v, v), (e[1] + f[1]) * dot(u, u)
    omega = [s * x + t * y for x, y in zip(u, v)]
    _, upper = _monotone_chains(sorted((lv, dot(x, omega), k)
                                       for k, (x, lv) in enumerate(zip(ints, level))))
    length = start = len(upper) - 1
    arcs = []
    for event, change, _ in cuts:
        length += change
        arcs.append((event, length))
    _log.debug("angular sweep: %d paths, %d events, %d merged events", len(cuts), len(events),
               sum(k for _, _, k in cuts if k > 1))
    if length != start:
        raise RuntimeError(f"the angular sweep ends at length {length}, not at {start}")
    return arcs


def _sweep_plane(c):
    """u = c x e, e the first unit vector off the integer vector c, and
    v = c x u: two orthogonal integer vectors spanning c-perp."""
    u = next(w for w in (_cross(c, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))) if any(w))
    return u, _cross(c, u)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _by_angle(e, f):
    """Compare two nonzero integer vectors of the plane by their angle in
    [0, 2 pi): the half-plane first, then the cross product."""
    upper_e, upper_f = e[1] > 0 or (e[1] == 0 and e[0] > 0), f[1] > 0 or (f[1] == 0 and f[0] > 0)
    if upper_e != upper_f:
        return -1 if upper_e else 1
    return e[1] * f[0] - e[0] * f[1]


_ANGLE = cmp_to_key(_by_angle)


# omega's coordinates are drawn uniformly from [-_OMEGA_MAX, _OMEGA_MAX];
# `sample_coherent` walks at most _CHUNK of them at once, so its memory does
# not grow with the sample, and `coherent_spectrum` walks _PROBES of them
_OMEGA_MAX = 999983
_CHUNK = 4096
_PROBES = 512


def sample_coherent(P: Polytope, G: DirectedGraph, samples: int, seed: int) -> SampleDraw:
    """Shadow-walk the oriented graph `G` of P with `samples` pseudo-random
    capture vectors, _CHUNK of them at a time through `_walk`.

    Every returned path is coherent (its omega captures it); degenerate draws
    (slope ties) are skipped and counted.  Deterministic under the seed: the
    omegas are those of `_draw_omegas`.
    """
    if samples < 1:
        raise InputError("need at least one sample")
    forks, norm = _slope_table(_arc_table(P, G))
    dtype = _walk_dtype(norm)
    rng = random.Random(seed)
    found = set()
    degenerate = 0
    for start in range(0, samples, _CHUNK):
        omegas = _draw_omegas(rng, min(_CHUNK, samples - start), P.dim)
        reached, ties = _walk(G, forks.__getitem__, omegas.astype(dtype, copy=False))
        found.update(reached)
        degenerate += len(ties)
    return SampleDraw(paths=frozenset(found), degenerate=degenerate)


def _draw_omegas(rng: random.Random, count: int, dim: int):
    """A count x dim int64 array of the values that `dim` calls per row of
    rng.randint(-_OMEGA_MAX, _OMEGA_MAX) return, drawn in bulk.

    randint takes the top 21 bits of one 32-bit Mersenne Twister output per
    try and redraws values past its range, and rng.getrandbits(32 m) returns
    m such outputs, the first in the low bits.  Python guarantees the
    sequence of random() only, not randint's or getrandbits'; a test pins
    this draw to randint.
    """
    width = 2 * _OMEGA_MAX + 1
    shift = 32 - width.bit_length()
    parts = []
    need = count * dim
    while need:
        # `need` tries keep at most `need` values, so, as with randint, no
        # output past the last value kept is consumed
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        tries = np.frombuffer(words, dtype="<u4") >> shift
        kept = tries[tries < width]
        parts.append(kept)
        need -= len(kept)
    return (np.concatenate(parts).astype(np.int64) - _OMEGA_MAX).reshape(count, dim)
