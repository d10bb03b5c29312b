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
from .exactgeom import (RATIONAL, DirectedGraph, Polytope, dot, lp_maximize,
                        orient, _highs, _primitive_int_vector, _steered_feasible)
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


def slope_cone(P: Polytope, c, path: MonotonePath, graph: DirectedGraph = None) -> SlopeCone:
    """Cone of capture vectors for the path: one row per (step, rival neighbor)."""
    G = graph if graph is not None else orient(P, c)
    seq = _validate_path(G, path)
    rows = []
    seen = set()
    for u, v in zip(seq, seq[1:]):
        for row in _arc_rows(P, G, u, v):
            if row not in seen:
                seen.add(row)
                rows.append(row)
    return SlopeCone(rows=tuple(rows))


def _strict_interior_exact(rows, d):
    """Exact omega with all row products positive, or None; rational rows only."""
    objective = [0] * d + [1]
    constraints = [(row + (-1,), ">=", 0) for row in rows]
    box = [(-1, 1)] * d + [(None, None)]
    res = lp_maximize(objective, constraints, box, backend=RATIONAL)
    if res.status != "optimal" or res.objective <= 0:
        return None
    return tuple(res.solution[:d])


def _strict_interior_steered(rows, d):
    """Float LP proposes omega; exact arithmetic confirms strict positivity.

    Returns None when no certified omega was found (which does not yet prove
    the cone is degenerate).
    """
    frows = [[float(x) for x in row] for row in rows]
    linprog, np = _highs()
    a_ub = [[-x for x in row] + [1.0] for row in frows]
    res = linprog(np.array([0.0] * d + [-1.0]), A_ub=np.array(a_ub),
                  b_ub=np.zeros(len(a_ub)),
                  bounds=[(-1, 1)] * d + [(0, 1)], method="highs")
    if res.status != 0 or res.x is None or res.x[d] <= 1e-9:
        return None
    omega_float = res.x[:d]
    for denominator in (10**4, 10**8, 10**12):
        omega = tuple(Fraction(x).limit_denominator(denominator)
                      for x in omega_float)
        if all(dot(row, omega) > 0 for row in rows):
            return omega
    return None


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
    cone = slope_cone(P, c, path, graph=G)
    return _decide_rows(P, G, list(cone.rows))


def _is_coherent_float(cone: SlopeCone, G, d, be):
    if not cone.rows:
        return CoherenceCertificate(omega=(0.0,) * d, margin=1.0)
    objective = [0.0] * d + [1.0]
    constraints = [(tuple(row) + (-1.0,), ">=", 0.0) for row in cone.rows]
    box = [(-1.0, 1.0)] * d + [(None, None)]
    res = lp_maximize(objective, constraints, box, backend=be)
    if res.status != "optimal":
        raise IndeterminateError(f"slack LP came back {res.status}")
    if res.objective <= be.tolerance:
        raise IndeterminateError(
            f"float margin {res.objective} below tolerance; retry on the rational backend")
    omega = _remove_c_component(res.solution[:d], G.c)
    margin = min(dot(row, omega) for row in cone.rows)
    return CoherenceCertificate(omega=omega, margin=margin)


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
    block_cache = {}
    for path in enumerate_paths(G):
        rows = []
        seen = set()
        seq = path.vertex_indices
        for u, v in zip(seq, seq[1:]):
            block = block_cache.get((u, v))
            if block is None:
                block = _arc_rows(P, G, u, v)
                block_cache[(u, v)] = block
            for row in block:
                if row not in seen:
                    seen.add(row)
                    rows.append(row)
        cert = _decide_rows(P, G, rows)
        if cert is not None:
            yield path, cert


def _decide_rows(P: Polytope, G: DirectedGraph, rows):
    d = P.dim
    be = P.backend
    if be.name != "rational":
        return _is_coherent_float(SlopeCone(rows=tuple(rows)), G, d, be)
    if not rows:
        return CoherenceCertificate(omega=(Fraction(0),) * d, margin=Fraction(1))
    omega = _strict_interior_steered(rows, d)
    if omega is None:
        # Gordan witness: y >= 0, sum y = 1, sum y_r row_r = 0 proves degeneracy
        columns = [tuple(row) + (1,) for row in rows]
        target = (0,) * d + (1,)
        if _steered_feasible(columns, target) is not None:
            return None
        omega = _strict_interior_exact(rows, d)
        if omega is None:
            return None
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
