"""Coherence of monotone paths via the slope cone.

A path is coherent when some secondary direction omega makes it the upper chain
of the planar shadow spanned by (c, omega).  The capture condition is a
homogeneous cone in omega: at every step the taken arc must beat every other
improving neighbor on slope.  The path is coherent iff that cone is
full-dimensional, i.e. iff some omega satisfies every row strictly; by Gordan's
alternative this fails exactly when a nonzero nonnegative combination of the
rows vanishes.  Both certificates are checked in exact arithmetic.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DegeneracyError, IndeterminateError, InputError
from .exactgeom import (DirectedGraph, Polytope, dot, lp_maximize, orient,
                        _primitive_int_vector, _steered_feasible, _strict_interior)
from .pathcount import LengthSpectrum, MonotonePath, enumerate_paths


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
    if len(seq) < 2 or seq[0] != G.source or seq[-1] != G.sink:
        raise InputError("path must run from the source to the sink")
    for u, v in zip(seq, seq[1:]):
        if v not in G.arcs[u]:
            raise InputError(f"{u} -> {v} is not an arc of the oriented graph")
    return seq


def _arc_rows(P: Polytope, G: DirectedGraph, u: int, v: int):
    """Rows demanding that the arc u -> v beats u's other improving neighbors."""
    be = P.backend
    c = G.c
    vu = P.vertices[u]
    step = [P.vertices[v][t] - vu[t] for t in range(P.dim)]
    c_step = dot(c, step)
    rows = []
    for w in G.arcs[u]:
        if w == v:
            continue
        rival = [P.vertices[w][t] - vu[t] for t in range(P.dim)]
        c_rival = dot(c, rival)
        row = tuple(c_rival * step[t] - c_step * rival[t] for t in range(P.dim))
        if be.name == "rational":
            row = _primitive_int_vector(row)
        rows.append(row)
    return tuple(rows)


def _path_rows(P: Polytope, G: DirectedGraph, seq, blocks):
    """Slope rows of the path `seq`, step by step, each distinct row once.

    `blocks` caches the rows of each arc across calls.
    """
    rows = []
    seen = set()
    for arc in zip(seq, seq[1:]):
        block = blocks.get(arc)
        if block is None:
            block = blocks[arc] = _arc_rows(P, G, *arc)
        for row in block:
            if row not in seen:
                seen.add(row)
                rows.append(row)
    return rows


def slope_cone(P: Polytope, c, path: MonotonePath, graph: DirectedGraph = None) -> SlopeCone:
    """Cone of capture vectors for the path: one row per (step, rival neighbor)."""
    G = graph if graph is not None else orient(P, c)
    seq = _validate_path(G, path)
    return SlopeCone(rows=tuple(_path_rows(P, G, seq, {})))


def _max_min_slack(rows, d, backend):
    """(omega, t) maximizing t subject to row . omega >= t for every row and
    omega in [-1, 1]^d, solved by the simplex of `backend`."""
    res = lp_maximize([0] * d + [1], [(tuple(row) + (-1,), ">=", 0) for row in rows],
                      [(-1, 1)] * d + [(None, None)], backend=backend)
    if res.status != "optimal":
        raise IndeterminateError(f"slack LP came back {res.status}")
    return res.solution[:d], res.objective


def _remove_c_component(omega, c):
    cc = dot(c, c)
    if cc == 0:
        return tuple(omega)
    t = dot(omega, c)
    if t == 0:
        return tuple(omega)
    return tuple(w - t * ck / cc for w, ck in zip(omega, c))


def is_coherent(P: Polytope, c, path: MonotonePath,
                graph: DirectedGraph = None) -> Optional[CoherenceCertificate]:
    """Certificate iff the slope cone is full-dimensional, decided exactly.

    Rational backend: either a strictly interior omega (coherent) or a nonzero
    nonnegative vanishing combination of the rows (incoherent, by Gordan's
    alternative) is produced, steered by float LPs and certified in exact
    arithmetic; the exact max-min-slack LP settles the rare leftovers.  Float
    backend: decided by the max-min-slack LP; a margin below tolerance raises
    IndeterminateError.
    """
    G = graph if graph is not None else orient(P, c)
    return _decide_rows(P, G, list(slope_cone(P, c, path, graph=G).rows))


def shadow_path(P: Polytope, c, omega) -> MonotonePath:
    """Path picked by the steepest-shadow walk: from the source, repeatedly move
    to the improving neighbor maximizing <omega, v - u> / <c, v - u>.

    A slope tie means omega is not generic for this walk: DegeneracyError.
    """
    G = orient(P, c)
    return _shadow_walk(P, G, omega)


def _shadow_walk(P: Polytope, G: DirectedGraph, omega) -> MonotonePath:
    be = P.backend
    om = [be.coerce(x) for x in omega] if be.name != "rational" else list(omega)
    if len(om) != P.dim:
        raise InputError("omega has wrong dimension")
    c = G.c
    u = G.source
    seq = [u]
    while u != G.sink:
        best_v = None
        best_slope = None
        tie = False
        vu = P.vertices[u]
        for v in G.arcs[u]:
            diff = [P.vertices[v][t] - vu[t] for t in range(P.dim)]
            rise = dot(om, diff)
            run = dot(c, diff)
            slope = Fraction(rise, run) if be.name == "rational" else rise / run
            if best_slope is None or slope > best_slope:
                best_slope, best_v, tie = slope, v, False
            elif be.eq(slope, best_slope):
                tie = True
        if tie:
            raise DegeneracyError(
                f"slope tie at vertex {u}; omega does not capture a unique path")
        u = best_v
        seq.append(u)
    return MonotonePath(tuple(seq))


def coherent_paths(P: Polytope, c, graph: DirectedGraph = None):
    """Yield (path, certificate) for every coherent monotone path, in path order."""
    G = graph if graph is not None else orient(P, c)
    blocks = {}
    for path in enumerate_paths(G):
        cert = _decide_rows(P, G, _path_rows(P, G, path.vertex_indices, blocks))
        if cert is not None:
            yield path, cert


def _decide_rows(P: Polytope, G: DirectedGraph, rows):
    d = P.dim
    be = P.backend
    if not rows:
        return CoherenceCertificate(omega=(be.coerce(0),) * d, margin=be.coerce(1))
    omega = None
    if be.name == "rational":
        omega = _strict_interior(rows)
        # Gordan witness: y >= 0, sum y = 1, sum y_r row_r = 0 proves degeneracy
        if omega is None and _steered_feasible([tuple(row) + (1,) for row in rows],
                                               (0,) * d + (1,)) is not None:
            return None
    if omega is None:
        omega, slack = _max_min_slack(rows, d, be)
        if not be.pos(slack):
            if be.name == "rational":
                return None
            raise IndeterminateError(
                f"float margin {slack} below tolerance; retry on the rational backend")
    omega = _remove_c_component(omega, G.c)
    margin = min(dot(row, omega) for row in rows)
    if margin <= 0:
        raise AssertionError("normalized certificate lost its margin")
    return CoherenceCertificate(omega=omega, margin=margin)


def coherent_spectrum(P: Polytope, c, graph: DirectedGraph = None) -> LengthSpectrum:
    """Exact coherent counts per length; pointwise at most the monotone counts."""
    counts = {}
    for path, _cert in coherent_paths(P, c, graph=graph):
        counts[path.length] = counts.get(path.length, 0) + 1
    return LengthSpectrum(counts)


def sample_coherent(P: Polytope, c, samples: int, seed: int) -> SampleDraw:
    """Shadow-walk with `samples` pseudo-random capture vectors.

    Every returned path is coherent (its omega captures it); degenerate draws
    (slope ties) are skipped and counted.  Deterministic under the seed.
    """
    if samples < 1:
        raise InputError("need at least one sample")
    G = orient(P, c)
    rng = random.Random(seed)
    found = set()
    degenerate = 0
    for _ in range(samples):
        omega = tuple(Fraction(rng.randint(-999983, 999983)) for _ in range(P.dim))
        try:
            found.add(_shadow_walk(P, G, omega))
        except DegeneracyError:
            degenerate += 1
    return SampleDraw(paths=frozenset(found), degenerate=degenerate)
