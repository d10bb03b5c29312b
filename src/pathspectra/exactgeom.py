"""Exact geometry kernel: scalar backends, a small LP solver, polytopes and their
oriented edge graphs, and planar projection with upper-chain extraction.

Everything here is deterministic and immutable after construction.  The rational
backend decides every predicate exactly; the float backend treats |a - b| <= tol
as a tie.  Float arithmetic is also used internally to *steer* exact searches
(propose a basis, a support or a facet list), but verdicts on the rational
backend are always certified in exact arithmetic.

Vertices and edges on the rational backend come from one facet incidence per
polytope.  The points are projected, exactly, onto coordinates of their affine
hull; Qhull (`scipy.spatial.ConvexHull`) proposes a triangulated boundary; and
`_certify_facets` checks it in integer arithmetic: each simplex lies in a
supporting plane of the hull, the non-degenerate ones are oriented outward, and
every ridge is shared by exactly two simplices with opposite orientations.
Those simplices then form a cycle that covers the boundary with the same
positive degree everywhere, so the certified facets are all the facets.  A pair
spans an edge iff the facets containing both meet in those two points alone,
and a point is a vertex iff the facets containing it meet in that point alone.
When Qhull fails, a coordinate overflows a float, or any check fails, the
polytope falls back to one steered LP per point and per pair.  The float
backend always uses the LP tests.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Optional, Sequence

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import (DegeneracyError, GenericityError, IndeterminateError,
                     InputError)


# ---------------------------------------------------------------------------
# Scalar backends
# ---------------------------------------------------------------------------

def _parse_number(text: str) -> Fraction:
    """An integer, decimal or "p/q" string as an exact Fraction."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad number {text!r}: {exc}") from exc


class ExactRational:
    """All values are Fractions; comparisons are exact."""

    name = "rational"
    tolerance = Fraction(0)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return _parse_number(x)
        if isinstance(x, float):
            # floats carry an exact binary value; callers wanting 1/3 must say so
            return Fraction(x)
        raise InputError(f"cannot coerce {x!r} to a rational")

    def pos(self, x):
        return x > 0

    def neg(self, x):
        return x < 0

    def zero(self, x):
        return x == 0

    def eq(self, a, b):
        return a == b

    def __repr__(self):
        return "ExactRational()"


class Float:
    """Plain floats with a tolerance: |a - b| <= tolerance counts as equal."""

    name = "float"

    def __init__(self, tolerance: float = 1e-9):
        if tolerance < 0:
            raise InputError("tolerance must be nonnegative")
        self.tolerance = tolerance

    def coerce(self, x):
        return float(_parse_number(x) if isinstance(x, str) else x)

    def pos(self, x):
        return x > self.tolerance

    def neg(self, x):
        return x < -self.tolerance

    def zero(self, x):
        return abs(x) <= self.tolerance

    def eq(self, a, b):
        return abs(a - b) <= self.tolerance

    def __repr__(self):
        return f"Float(tolerance={self.tolerance})"


RATIONAL = ExactRational()
FLOAT = Float()


def dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# Linear programming (two-phase simplex, Bland's rule)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: object = None
    solution: Optional[tuple] = None


class _Simplex:
    """Dense tableau simplex.  Columns: decision part then slack/artificial.

    Bland's rule (least-index entering, least basis-index on ratio ties)
    guarantees termination, which the rational backend turns into a decision
    procedure.
    """

    def __init__(self, backend):
        self.be = backend
        self.rows = []       # each: list of coefficients + rhs last
        self.basis = []
        self.ncols = 0
        self.banned = set()  # artificial columns may never re-enter

    def add_row(self, coeffs, rhs):
        self.rows.append(list(coeffs) + [rhs])
        self.ncols = max(self.ncols, len(coeffs))

    def _pad(self):
        for r in self.rows:
            rhs = r.pop()
            while len(r) < self.ncols:
                r.append(self._zero)
            r.append(rhs)

    def solve(self, cost, zero):
        """Maximize cost over the current rows; return (status, objective_delta).

        `cost` has one entry per column (padded with zeros).  Exact backends
        terminate by Bland's rule; float backends additionally get an
        iteration cap so tolerance jitter cannot stall, reporting "stalled".
        """
        self._zero = zero
        self._pad()
        be = self.be
        rows, basis = self.rows, self.basis
        m = len(rows)
        exact = be.name == "rational"
        cap = None if exact else 60 * (m + self.ncols) + 2000
        # reduced cost row: c_j - c_B . B^-1 A_j
        cr = list(cost) + [zero] * (self.ncols - len(cost))
        obj = zero
        for i in range(m):
            cb = cr[basis[i]] if basis[i] < len(cr) else zero
            if not be.zero(cb):
                row = rows[i]
                for j in range(self.ncols):
                    cr[j] -= cb * row[j]
                obj += cb * row[self.ncols]
                cr[basis[i]] = zero
        pivots = 0
        while True:
            enter = -1
            for j in range(self.ncols):
                if j not in self.banned and be.pos(cr[j]):
                    enter = j
                    break
            if enter < 0:
                return "optimal", obj
            leave, best, bestvar = -1, None, None
            for i in range(m):
                a = rows[i][enter]
                if be.pos(a):
                    ratio = rows[i][self.ncols] / a
                    if best is None or ratio < best or (ratio == best and basis[i] < bestvar):
                        leave, best, bestvar = i, ratio, basis[i]
            if leave < 0:
                return "unbounded", obj
            pivots += 1
            if cap is not None and pivots > cap:
                return "stalled", obj
            obj += cr[enter] * best
            self._pivot(leave, enter, cr)

    def _pivot(self, i, j, cr):
        rows = self.rows
        width = self.ncols + 1
        piv = rows[i][j]
        if piv != 1:
            inv = piv
            rows[i] = [x / inv for x in rows[i]]
        prow = rows[i]
        for k in range(len(rows)):
            if k != i:
                f = rows[k][j]
                if f != 0:
                    rk = rows[k]
                    rows[k] = [rk[t] - f * prow[t] for t in range(width)]
        f = cr[j]
        if f != 0:
            for t in range(self.ncols):
                cr[t] -= f * prow[t]
        self.basis[i] = j

    def value_of(self, col):
        for i, b in enumerate(self.basis):
            if b == col:
                return self.rows[i][self.ncols]
        return self._zero


def _feasible_nonneg(columns, target, backend):
    """Some lam >= 0 with sum_k lam_k columns[k] = target, or None when infeasible.

    On the rational backend infeasibility is an exact certificate; a stalled
    float run raises IndeterminateError instead of guessing.
    """
    n = len(columns)
    res = lp_maximize([0] * n, [([col[i] for col in columns], "==", t)
                                for i, t in enumerate(target)],
                      [(0, None)] * n, backend=backend)
    return res.solution if res.status == "optimal" else None


_highs_handle = None


def _highs():
    """Cached (linprog, numpy) pair; every HiGHS call goes through it."""
    global _highs_handle
    if _highs_handle is None:
        from scipy.optimize import linprog
        _highs_handle = (linprog, np)
    return _highs_handle


def _solve_on_support(columns, support, target):
    """Exact particular solution of the subsystem restricted to `support`, or None."""
    m = len(target)
    s = len(support)
    aug = [[Fraction(columns[k][i]) for k in support] + [Fraction(target[i])]
           for i in range(m)]
    piv_cols = []
    r = 0
    for c in range(s):
        p = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        inv = aug[r][c]
        aug[r] = [x / inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][s] != 0:
            return None
    lam = [Fraction(0)] * s
    for row_i, c in enumerate(piv_cols):
        lam[c] = aug[row_i][s]
    return lam


def _steered_feasible(columns, target):
    """Exactly certified lam >= 0 with sum lam_k columns[k] = target, or None.

    HiGHS proposes a support, exact elimination certifies it; None means "no
    certificate found", not "infeasible".
    """
    if not columns:
        return [] if all(Fraction(t) == 0 for t in target) else None
    try:
        fcols = [[float(x) for x in col] for col in columns]
        ftarget = [float(x) for x in target]
    except OverflowError:
        return None
    linprog = _highs()[0]
    res = linprog(np.zeros(len(fcols)), A_eq=np.array(fcols).T,
                  b_eq=np.array(ftarget), bounds=(0, None), method="highs")
    if res.status != 0:
        return None
    support = [k for k, v in enumerate(res.x) if v > 1e-9]
    lam_s = _solve_on_support(columns, support, target)
    if lam_s is None or any(x < 0 for x in lam_s):
        return None
    lam = [Fraction(0)] * len(columns)
    for k, v in zip(support, lam_s):
        lam[k] = v
    for i in range(len(target)):
        if sum(lam[k] * Fraction(columns[k][i]) for k in support) != Fraction(target[i]):
            return None
    return lam


def _strict_interior(rows):
    """Exactly checked y with row . y > 0 for every row, or None.

    HiGHS maximizes the least slack t over y in [-1, 1]^d, t in [0, 1]; the
    proposed y, rounded to ever finer denominators, is checked row by row in
    exact arithmetic.  None means no certificate was found, not that none
    exists.
    """
    d = len(rows[0])
    try:
        a_ub = [[-float(x) for x in row] + [1.0] for row in rows]
    except OverflowError:
        return None
    linprog = _highs()[0]
    res = linprog(np.array([0.0] * d + [-1.0]), A_ub=np.array(a_ub),
                  b_ub=np.zeros(len(a_ub)),
                  bounds=[(-1, 1)] * d + [(0, 1)], method="highs")
    if res.status != 0 or res.x is None or res.x[d] <= 1e-9:
        return None
    for denominator in (10**4, 10**8, 10**12):
        y = tuple(Fraction(v).limit_denominator(denominator) for v in res.x[:d])
        if all(dot(row, y) > 0 for row in rows):
            return y
    return None


def _escapes_cone(gens, target, backend):
    """Whether target lies outside the cone spanned by gens.

    Rational backend: a steered combination proves "inside", a steered y with
    <y, g> < 0 < <y, target> for every generator g proves "outside", and the
    exact simplex settles the rest.
    """
    if backend.name != "rational":
        return _feasible_nonneg(gens, target, backend) is None
    if _steered_feasible(gens, target) is not None:
        return False
    if _strict_interior([[-x for x in g] for g in gens] + [target]) is not None:
        return True
    return _feasible_nonneg(gens, target, backend) is None


def lp_maximize(objective, constraints, box=None, backend=RATIONAL) -> LPResult:
    """Maximize objective . x subject to linear constraints and per-variable bounds.

    `constraints` is an iterable of (coeffs, rel, rhs) with rel in {"<=", ">=", "=="};
    `box` gives optional (lo, hi) bounds per variable (None for unbounded sides).
    """
    be = backend
    obj = [be.coerce(v) for v in objective]
    n = len(obj)
    zero = be.coerce(0)
    one = be.coerce(1)
    rows = []
    for coeffs, rel, rhs in constraints:
        if len(coeffs) != n:
            raise InputError(f"constraint has {len(coeffs)} coefficients, expected {n}")
        if rel not in ("<=", ">=", "=="):
            raise InputError(f"unknown relation {rel!r}")
        rows.append(([be.coerce(v) for v in coeffs], rel, be.coerce(rhs)))
    if box is None:
        box = [(None, None)] * n
    if len(box) != n:
        raise InputError("box length does not match objective")

    # substitute shifted / split nonnegative variables
    offsets = [zero] * n
    colmap = []  # (var index, sign)
    for j, (lo, hi) in enumerate(box):
        if lo is not None:
            offsets[j] = be.coerce(lo)
            colmap.append((j, one))
            if hi is not None:
                extra = [zero] * n
                extra[j] = one
                rows.append((extra, "<=", be.coerce(hi)))
        elif hi is not None:
            offsets[j] = be.coerce(hi)
            colmap.append((j, -one))
        else:
            colmap.append((j, one))
            colmap.append((j, -one))
    ny = len(colmap)

    def to_y(coeffs):
        return [coeffs[j] * s for j, s in colmap]

    sp = _Simplex(be)
    slack_total = sum(1 for _, rel, _ in rows if rel != "==")
    art_cols = []
    width = ny + slack_total + len(rows)  # upper bound; artificials allocated lazily
    sp.ncols = width
    scol = ny
    for coeffs, rel, rhs in rows:
        r = to_y(coeffs)
        b = rhs - dot(coeffs, offsets)
        if rel == ">=":
            r = [-x for x in r]
            b = -b
            rel = "<="
        if be.neg(b):
            r = [-x for x in r]
            b = -b
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        full = [zero] * width
        for j, v in enumerate(r):
            full[j] = v
        if rel == "<=":
            full[scol] = one
            sp.add_row(full, b)
            sp.basis.append(scol)
            scol += 1
        else:
            if rel == ">=":
                full[scol] = -one
                scol += 1
            # place the artificial in the next free column
            acol = width - len(rows) + len(art_cols)
            full[acol] = one
            sp.add_row(full, b)
            sp.basis.append(acol)
            art_cols.append(acol)
            sp.banned.add(acol)

    if art_cols:
        cost1 = [zero] * width
        for a in art_cols:
            cost1[a] = -one
        status, obj1 = sp.solve(cost1, zero)
        if status == "stalled":
            raise IndeterminateError("float simplex stalled; retry on the rational backend")
        if status != "optimal" or be.neg(obj1):
            return LPResult("infeasible")
    cost2 = [zero] * width
    for k, (j, s) in enumerate(colmap):
        cost2[k] = obj[j] * s
    status, value = sp.solve(cost2, zero)
    if status == "stalled":
        raise IndeterminateError("float simplex stalled; retry on the rational backend")
    if status == "unbounded":
        return LPResult("unbounded")
    x = list(offsets)
    for k, (j, s) in enumerate(colmap):
        x[j] = x[j] + s * sp.value_of(k)
    return LPResult("optimal", dot(obj, x), tuple(x))


# ---------------------------------------------------------------------------
# Polytopes
# ---------------------------------------------------------------------------

def _primitive_int_vector(vec: Sequence[Fraction]):
    """Clear denominators and divide by the gcd; returns a tuple of ints."""
    scale = lcm(*(x.denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _det(rows):
    """Determinant of a square integer matrix (fraction-free Bareiss elimination)."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            p = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if p is None:
                return 0
            m[k], m[p] = m[p], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def _affine_coordinates(points):
    """Integer coordinates of the points in r = dim aff(points) pivot coordinates.

    Exact row reduction of the differences v_k - v_0 picks r coordinates on
    which the affine hull projects injectively; the projection therefore maps
    faces to faces, and clearing denominators afterwards keeps that so.
    """
    scale = lcm(*(x.denominator for p in points for x in p))
    ints = [[x.numerator * (scale // x.denominator) for x in p] for p in points]
    rows = [[a - b for a, b in zip(p, ints[0])] for p in ints[1:]]
    pivots = []
    for c in range(len(ints[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        top = rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [a * top[c] - f * b for a, b in zip(rows[i], top)]
        pivots.append(c)
    return [tuple(p[c] for c in pivots) for p in ints]


def _ridges(simplex):
    """(sorted ridge, sign of the orientation the oriented simplex induces on it)."""
    inversions = sum(a > b for a, b in combinations(simplex, 2))
    ordered = sorted(simplex)
    for m in range(len(ordered)):
        yield tuple(ordered[:m] + ordered[m + 1:]), -1 if (inversions + m) % 2 else 1


def _propose_simplices(coords):
    """Qhull's boundary simplices of conv(coords), oriented coherently and outward.

    Qhull lists the vertices of each simplex in no particular order.
    Orientations spread across shared ridges so that neighbours induce
    opposite signs; each connected piece is then turned to agree with Qhull's
    outward normals.  Floats only steer here: `_certify_facets` checks
    whatever this returns.
    """
    pts = np.array(coords, dtype=float)
    # Qhull's precision is relative to the coordinate range; rescaling each
    # axis onto [0, 1] changes no face and, with positive scales, no orientation
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pts = (pts - lo) / (hi - lo)
    hull = ConvexHull(pts)
    tri = hull.simplices
    volumes = np.linalg.det(np.concatenate(
        [pts[tri[:, 1:]] - pts[tri[:, :1]], hull.equations[:, None, :-1]], axis=1))
    simplices = [tuple(int(k) for k in s) for s in tri]
    ridges = [list(_ridges(s)) for s in simplices]
    sides = {}
    for t, pairs in enumerate(ridges):
        for ridge, sign in pairs:
            sides.setdefault(ridge, []).append((t, sign))
    flip = [0] * len(simplices)
    for root in range(len(simplices)):
        if flip[root]:
            continue
        flip[root] = 1
        piece, stack = [root], [root]
        while stack:
            t = stack.pop()
            for ridge, sign in ridges[t]:
                for u, usign in sides[ridge]:
                    if not flip[u]:
                        flip[u] = -flip[t] * sign * usign
                        piece.append(u)
                        stack.append(u)
        if sum(flip[t] * volumes[t] for t in piece) < 0:
            for t in piece:
                flip[t] = -flip[t]
    return [s if f > 0 else (s[1], s[0]) + s[2:] for s, f in zip(simplices, flip)]


def _certify_facets(coords, simplices):
    """Tight sets (bitmasks over coords) of all facets of conv(coords), or None.

    `coords` are integer points spanning R^r; `simplices` are oriented
    (r-1)-simplices proposed as a triangulation of the boundary.  Certified in
    integer arithmetic:
    - each non-degenerate simplex q1..qr lies in a plane a.x = b with
      a.x <= b at every point and det[q2-q1, ..., qr-q1, a] > 0: the plane
      supports the hull, holds an (r-1)-simplex (so it is a facet), and the
      simplex is oriented outward.  A new plane takes the simplex's cofactor
      normal, whose determinant is |a|^2; later simplices in the same tight
      set reuse it;
    - every degenerate simplex lies inside some certified tight set;
    - every ridge lies in exactly two simplices, with opposite induced signs.
    The last check makes the simplices a cycle mapped into the boundary
    sphere.  Its degree is the same at every generic point, and there it
    counts the outward, non-degenerate simplices covering the point, so it is
    at least one: the simplices cover the boundary, and a facet missing from
    the list would contain a generic point that no certified facet holds.
    None means the proposal failed a check, not that the hull is special.
    """
    r = len(coords[0])
    normals, tights = [], []
    through = [0] * len(coords)  # bitmask of the certified facets at each point
    degenerate = []
    ridges = {}
    for s in simplices:
        if len(s) != r or len(set(s)) != r:
            return None
        for ridge, sign in _ridges(s):
            count, total = ridges.get(ridge, (0, 0))
            ridges[ridge] = (count + 1, total + sign)
        base = coords[s[0]]
        rows = [[a - b for a, b in zip(coords[k], base)] for k in s[1:]]
        mask = sum(1 << k for k in s)
        home = next((f for f in _bits(through[s[0]]) if tights[f] & mask == mask), None)
        if home is not None:
            if _det(rows + [normals[home]]) < 0:
                return None
            continue
        normal = [(-1) ** (r + j + 1) * _det([row[:j] + row[j + 1:] for row in rows])
                  for j in range(r)]
        if not any(normal):
            degenerate.append(mask)
            continue
        offset = dot(normal, base)
        tight = 0
        for k, q in enumerate(coords):
            value = dot(normal, q)
            if value > offset:
                return None
            if value == offset:
                tight |= 1 << k
        for k in _bits(tight):
            through[k] |= 1 << len(tights)
        normals.append(normal)
        tights.append(tight)
    if not tights or any(count != 2 or total for count, total in ridges.values()):
        return None
    if any(all(m & t != m for t in tights) for m in degenerate):
        return None
    return tights


def _facet_incidence(points):
    """Certified tight sets (bitmasks over `points`) of every facet of their hull.

    Qhull proposes the facets in affine-hull coordinates and `_certify_facets`
    decides them exactly.  None when Qhull fails, a coordinate does not fit a
    float, or the certificate does not hold: the caller then uses the LP tests.
    """
    coords = _affine_coordinates(points)
    r = len(coords[0])
    if r == 0:
        return None
    if r == 1:
        xs = [q[0] for q in coords]
        return [sum(1 << k for k, x in enumerate(xs) if x == end) for end in (min(xs), max(xs))]
    try:
        simplices = _propose_simplices(coords)
    except (QhullError, OverflowError, ValueError):
        return None
    return _certify_facets(coords, simplices)


def _vertex_flags(facets, n):
    """Point k is a vertex iff the tight sets containing it meet in {k} alone."""
    meet = [-1] * n
    for tight in facets:
        for k in _bits(tight):
            meet[k] &= tight
    return [meet[k] == 1 << k for k in range(n)]


def _facet_edges(facets, n):
    """Pairs (i, j), i < j, whose tight sets in common meet in {i, j} alone.

    That meet is the point set of the smallest face holding both points, so
    with every point a vertex the pair spans an edge exactly then.
    """
    at = [0] * n
    for f, tight in enumerate(facets):
        for k in _bits(tight):
            at[k] |= 1 << f
    found = []
    for i in range(n):
        for j in range(i + 1, n):
            meet = (1 << n) - 1
            for f in _bits(at[i] & at[j]):
                meet &= facets[f]
            if meet == (1 << i) | (1 << j):
                found.append((i, j))
    return found


class Polytope:
    """A polytope given by its vertex list.

    Construction checks that no two vertices coincide and that every listed
    point really is a vertex of the convex hull; offending points are rejected
    or stripped according to `on_nonvertex`.  On the rational backend both the
    vertex check and the edge graph read one certified facet incidence, with
    per-point and per-pair LPs as the fallback.
    """

    def __init__(self, points, label="", backend=RATIONAL, on_nonvertex="reject",
                 validate=True):
        if on_nonvertex not in ("reject", "strip"):
            raise InputError("on_nonvertex must be 'reject' or 'strip'")
        pts = [tuple(backend.coerce(x) for x in p) for p in points]
        if not pts:
            raise InputError("a polytope needs at least one point")
        d = len(pts[0])
        if d < 1 or any(len(p) != d for p in pts):
            raise InputError("all points must share one ambient dimension >= 1")
        self.backend = backend
        self.dim = d
        self.label = label
        self._facets = None  # certified facet tight sets over the vertices, if known
        if validate:
            pts = self._validated(pts, on_nonvertex)
        self.vertices = tuple(pts)
        self._edges = None

    def _validated(self, pts, on_nonvertex):
        be = self.backend
        kept = []
        for p in pts:
            dup = any(all(be.eq(a, b) for a, b in zip(p, q)) for q in kept)
            if dup:
                if on_nonvertex == "reject":
                    raise InputError(f"duplicate vertex {p}")
                continue
            kept.append(p)
        if len(kept) == 1:
            return kept
        facets = _facet_incidence(kept) if be.name == "rational" else None
        if facets is None:
            flags = (_is_vertex_lp(kept, i, be) for i in range(len(kept)))
        else:
            flags = _vertex_flags(facets, len(kept))
        vertices, index = [], []
        for k, (p, is_vertex) in enumerate(zip(kept, flags)):
            if is_vertex:
                vertices.append(p)
                index.append(k)
            elif on_nonvertex == "reject":
                raise InputError(f"point {p} is not a vertex of the hull")
        if facets is not None:
            self._facets = [sum(1 << new for new, old in enumerate(index) if tight >> old & 1)
                            for tight in facets]
        return vertices

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return f"Polytope({self.label or 'unlabeled'}, n={len(self.vertices)}, d={self.dim})"

    # -- JSON schema: {"dim": int, "label": str, "vertices": [[num|"p/q", ...]]}

    def to_json(self) -> str:
        verts = []
        for v in self.vertices:
            row = []
            for x in v:
                if isinstance(x, Fraction):
                    row.append(int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}")
                else:
                    row.append(x)
            verts.append(row)
        return json.dumps({"dim": self.dim, "label": self.label, "vertices": verts})

    @classmethod
    def from_json(cls, text: str, backend=RATIONAL, **kwargs) -> "Polytope":
        try:
            data = json.loads(text)
            dim = data["dim"]
            verts = data["vertices"]
            label = data.get("label", "")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise InputError(f"bad polytope JSON: {exc}") from exc
        if any(len(v) != dim for v in verts):
            raise InputError("vertex length disagrees with 'dim'")
        return cls(verts, label=label, backend=backend, **kwargs)

    # -- edge graph

    def edges(self):
        """Sorted list of index pairs (i, j), i < j, that span edges of the polytope.

        Read from the certified facet incidence on the rational backend; an
        LP per pair (`_is_edge_pair`) when there is none, or when an
        unvalidated vertex list holds a point that is not a vertex.
        """
        if self._edges is None:
            n = len(self.vertices)
            facets = self._facets
            if facets is None and self.backend.name == "rational" and n > 1:
                facets = _facet_incidence(self.vertices)
                if facets is not None and not all(_vertex_flags(facets, n)):
                    facets = None
            if facets is not None:
                self._edges = tuple(_facet_edges(facets, n))
            else:
                self._edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                                    if self._is_edge_pair(i, j))
        return list(self._edges)

    def _is_edge_pair(self, i, j):
        """LP edge test: v_j - v_i escapes the cone of the other directions at v_i."""
        u, v = self.vertices[i], self.vertices[j]
        gens = [tuple(w[t] - u[t] for t in range(self.dim))
                for k, w in enumerate(self.vertices) if k != i and k != j]
        target = tuple(v[t] - u[t] for t in range(self.dim))
        return _escapes_cone(gens, target, self.backend)

    def neighbors(self, i):
        adj = []
        for a, b in self.edges():
            if a == i:
                adj.append(b)
            elif b == i:
                adj.append(a)
        return adj


def is_edge(P: Polytope, i: int, j: int) -> bool:
    """Whether segment [v_i, v_j] is a 1-face of P, read from `P.edges()`."""
    n = len(P.vertices)
    if i == j:
        raise InputError("is_edge needs two distinct vertex indices")
    if not (0 <= i < n and 0 <= j < n):
        raise InputError("vertex index out of range")
    return (min(i, j), max(i, j)) in P.edges()


def _is_vertex_lp(points, i, backend):
    """LP vertex test: points[i] is no convex combination of the other points."""
    one = backend.coerce(1)
    cols = [tuple(q) + (one,) for k, q in enumerate(points) if k != i]
    return _escapes_cone(cols, tuple(points[i]) + (one,), backend)


def edge_graph(P: Polytope):
    return P.edges()


def supporting_margin(P: Polytope, i: int, j: int):
    """Optimal margin t of the supporting-hyperplane LP for the pair (i, j).

    Maximizes t with <c,v_i> = <c,v_j> >= <c,w> + t for all other vertices w and
    -1 <= c_k <= 1.  Positive exactly when [v_i, v_j] is an edge; used as the
    cross-check oracle for `is_edge`.
    """
    be = P.backend
    d = P.dim
    u, v = P.vertices[i], P.vertices[j]
    constraints = [(tuple(u[t] - v[t] for t in range(d)) + (be.coerce(0),), "==", 0)]
    for k, w in enumerate(P.vertices):
        if k in (i, j):
            continue
        constraints.append((tuple(u[t] - w[t] for t in range(d)) + (be.coerce(-1),), ">=", 0))
    box = [(-1, 1)] * d + [(None, None)]
    objective = [0] * d + [1]
    res = lp_maximize(objective, constraints, box, backend=be)
    if res.status != "optimal":
        raise InputError(f"margin LP unexpectedly {res.status}")
    return res.objective


# ---------------------------------------------------------------------------
# Orientation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectedGraph:
    """Graph of a polytope oriented by increasing inner product with `c`.

    `order` lists vertex indices by ascending c-value (ties between non-adjacent
    vertices broken by index); `arcs[u]` are the improving neighbors of u sorted
    by that order.  Acyclic by construction.
    """

    order: tuple
    arcs: tuple
    c: tuple
    source: int
    sink: int

    @property
    def n(self):
        return len(self.order)


def is_generic(P: Polytope, c) -> bool:
    """True when no edge of P is level for c (endpoints share the c-value)."""
    be = P.backend
    cv = [be.coerce(x) for x in c]
    if len(cv) != P.dim:
        raise InputError("direction has wrong dimension")
    if all(be.zero(x) for x in cv):
        raise InputError("direction must be nonzero")
    vals = [dot(v, cv) for v in P.vertices]
    return all(not be.eq(vals[i], vals[j]) for i, j in P.edges())


def orient(P: Polytope, c, drop_level_ties=False) -> DirectedGraph:
    """Directed graph of P along c, with unique source and sink.

    A level edge raises GenericityError naming the edge; with
    `drop_level_ties=True` level edges are omitted from the arc set instead,
    which is the usual convention for graded 0/1 families whose canonical
    direction ties only within levels.
    """
    be = P.backend
    cv = tuple(be.coerce(x) for x in c)
    if len(cv) != P.dim:
        raise InputError("direction has wrong dimension")
    if all(be.zero(x) for x in cv):
        raise InputError("direction must be nonzero")
    vals = [dot(v, cv) for v in P.vertices]
    n = len(P.vertices)
    succ = [[] for _ in range(n)]
    pred_count = [0] * n
    for i, j in P.edges():
        if be.eq(vals[i], vals[j]):
            if drop_level_ties:
                continue
            raise GenericityError(
                f"direction {c} is level on edge {(i, j)}", edge=(i, j))
        lo, hi = (i, j) if vals[i] < vals[j] else (j, i)
        succ[lo].append(hi)
        pred_count[hi] += 1
    order = sorted(range(n), key=lambda k: (vals[k], k))
    rank = {v: r for r, v in enumerate(order)}
    arcs = tuple(tuple(sorted(s, key=rank.__getitem__)) for s in succ)
    sources = [u for u in range(n) if pred_count[u] == 0]
    sinks = [u for u in range(n) if not arcs[u]]
    if len(sources) != 1 or len(sinks) != 1:
        raise GenericityError(
            f"orientation needs a unique source and sink, got {sources} / {sinks}")
    return DirectedGraph(order=tuple(order), arcs=arcs, c=cv,
                         source=sources[0], sink=sinks[0])


# ---------------------------------------------------------------------------
# Planar projection and upper chains
# ---------------------------------------------------------------------------

def project2d(P: Polytope, c, omega):
    """Project every vertex to (<v,c>, <v,omega>), in vertex order."""
    be = P.backend
    cv = [be.coerce(x) for x in c]
    ov = [be.coerce(x) for x in omega]
    if len(cv) != P.dim or len(ov) != P.dim:
        raise InputError("projection directions must match the ambient dimension")
    independent = False
    for a in range(P.dim):
        for b in range(a + 1, P.dim):
            if not be.zero(cv[a] * ov[b] - cv[b] * ov[a]):
                independent = True
                break
        if independent:
            break
    if not independent:
        raise InputError("omega must be linearly independent from c")
    return [(dot(v, cv), dot(v, ov)) for v in P.vertices]


def _infer_backend(points):
    for p in points:
        for x in p:
            if isinstance(x, float):
                return FLOAT
    return RATIONAL


def upper_path(points, backend=None):
    """Indices of hull vertices on the upper chain, by increasing first coordinate.

    Runs from the global minimizer of the first coordinate to the maximizer;
    collinear interior points are not hull vertices and are skipped.  A tie in
    the first coordinate among hull vertices is a DegeneracyError, as is a
    second point coinciding with a hull vertex.
    """
    if len(points) < 2:
        raise InputError("need at least two points")
    be = backend or _infer_backend(points)
    pts = [tuple(be.coerce(x) for x in p) for p in points]
    order = sorted(range(len(pts)), key=lambda k: (pts[k][0], pts[k][1], k))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(idxs, keep_side):
        out = []
        for k in idxs:
            while len(out) >= 2:
                turn = cross(pts[out[-2]], pts[out[-1]], pts[k])
                if be.pos(turn) if keep_side > 0 else be.neg(turn):
                    break
                out.pop()
            out.append(k)
        return out

    lower = chain(order, keep_side=+1)
    upper = chain(list(reversed(order)), keep_side=+1)
    hull = set(lower) | set(upper)
    for k in hull:
        for other in range(len(pts)):
            if other != k and be.eq(pts[other][0], pts[k][0]) and be.eq(pts[other][1], pts[k][1]):
                raise DegeneracyError(f"point {other} coincides with hull vertex {k}")
    xs = sorted(hull, key=lambda k: pts[k][0])
    for a, b in zip(xs, xs[1:]):
        if be.eq(pts[a][0], pts[b][0]):
            raise DegeneracyError(
                f"hull vertices {a} and {b} share the first coordinate")
    return list(reversed(upper))


def lower_path(points, backend=None):
    """Companion of `upper_path` for the lower chain (same contracts)."""
    return upper_path([(p[0], -p[1]) for p in points], backend=backend)
