"""Exact geometry kernel: exact rational scalars, one LP, polytopes and their
oriented edge graphs, and planar projection with upper-chain extraction.

Everything here is deterministic and immutable after construction.  Every
scalar is a `Fraction`: integers and "p/q" strings are read exactly, and a float
is taken at its exact binary value (a dyadic rational), so every predicate is
decided exactly.  Floating point is used to *steer* exact searches (propose a
basis or a support), and it decides a sign only where a proven bound on its
rounding error settles it (`_tight_sets`) or where it computes an integer
provably exactly (`_minors`); every other sign, and every verdict, is
certified in exact arithmetic.

Every polytope is validated when it is built, which computes the one facet
incidence from which its vertices and its edges are read.  The points are
scaled to integers over one common denominator, which the polytope keeps for
`orient`, and projected, exactly, onto integer coordinates of their affine
hull; an exact placing (beneath-beyond) triangulation in lexicographic order
proposes a triangulated boundary, each simplex with its outward plane
(`_propose_simplices`); and `_certify_facets` checks it in integer
arithmetic: each simplex lies on its plane, the plane supports the hull, the
non-degenerate simplices are oriented outward, and every ridge is shared by
exactly two simplices with opposite orientations.  Those simplices then form
a cycle that covers the boundary with the same positive degree everywhere,
so the certified facets are all the facets.  A pair spans an edge iff the
facets containing both meet in those two points alone, and a point is a
vertex iff the facets containing it meet in that point alone.  The proposal
is the program's own, so a failed check raises RuntimeError: it reports a
bug, not a property of the input.  A `DirectedGraph` checks at construction
that its source and sink are the only ones.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import logging
import os
import sys
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import combinations, compress
from math import gcd, inf, lcm, nan
from operator import mul
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .errors import DegeneracyError, GenericityError, InputError

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

def _rational(x) -> Fraction:
    """x as an exact Fraction: an int or a float at its exact value, a string
    as an integer, decimal or "p/q".  A bool is not a number here."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise InputError(f"cannot coerce {x!r} to a rational")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"bad number {x!r}: {exc}") from exc


def dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


# ---------------------------------------------------------------------------
# Exact linear programming (simplex from the slack basis, Bland's rule)
# ---------------------------------------------------------------------------

def lp_maximize(rows):
    """(omega, t) maximizing t subject to row . omega >= t for every row and
    omega in [-1, 1]^d, solved exactly by the simplex method.

    omega = p - q with p, q in [0, 1]^d, and t >= 0 loses nothing, since
    omega = 0, t = 0 is feasible.  Every constraint is then <= with a
    nonnegative right-hand side: t - row . p + row . q <= 0 for each row,
    then p_j <= 1 and q_j <= 1.  The columns are p, q, t and one slack per
    constraint, so the slack basis is feasible and one phase suffices.
    Bland's rule (least-index entering column, least basis index on ratio
    ties) guarantees termination, which exact arithmetic turns into a
    decision procedure; the box bounds every column, so the ratio test
    always finds a leaving row.
    """
    d, m = len(rows[0]), len(rows)
    zero, one = Fraction(0), Fraction(1)
    ncols = 4 * d + 1 + m  # p, q, t, then one slack per row and per box bound
    tableau = [[zero] * (ncols + 1) for _ in range(m + 2 * d)]
    for k, row in enumerate(rows):  # t - row . p + row . q <= 0
        tableau[k][:2 * d + 1] = [-Fraction(x) for x in row] + [Fraction(x) for x in row] + [one]
    for j in range(2 * d):  # p_j <= 1, then q_j <= 1
        tableau[m + j][j] = tableau[m + j][ncols] = one
    for i, line in enumerate(tableau):
        line[2 * d + 1 + i] = one
    basis = list(range(2 * d + 1, ncols))
    cr = [zero] * ncols  # reduced costs: the cost, t's column alone, at the slack basis
    cr[2 * d] = one
    while True:
        enter = next((j for j in range(ncols) if cr[j] > 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i, row in enumerate(tableau):
            if row[enter] > 0:
                ratio = row[ncols] / row[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        piv = tableau[leave][enter]
        if piv != 1:
            tableau[leave] = [x / piv for x in tableau[leave]]
        top = tableau[leave]
        for i, row in enumerate(tableau):
            f = row[enter]
            if i != leave and f != 0:
                tableau[i] = [a - f * b for a, b in zip(row, top)]
        f = cr[enter]
        cr = [a - f * b for a, b in zip(cr, top)]
        basis[leave] = enter
    values = {b: row[ncols] for b, row in zip(basis, tableau)}
    omega = tuple(values.get(j, zero) - values.get(d + j, zero) for j in range(d))
    return omega, values.get(2 * d, zero)


# ---------------------------------------------------------------------------
# HiGHS, its rounded proposals and exact witness solves
# ---------------------------------------------------------------------------

_highs_handle = None


def _highs():
    """Cached (solver, numpy) pair; every HiGHS call goes through it.

    The solver takes the one call `_strict_interior` makes,
    `solve(d, start, index, value)`: the cone LP in y in [-1, 1]^d and
    t in [0, 1] that maximizes t, with one row <= 0 per slope row handed
    over row-wise, row k's nonzeros at index[start[k]:start[k + 1]] and
    value[start[k]:start[k + 1]] (`_lp_rows`).  It returns `linprog`'s
    `status`, `x` and `ineqlin.marginals` for the same model
    (`_dense_cone_lp`).  The solver is `_direct_highs` over one
    `_core._Highs` reused for the whole process, on the compiled module
    that `_highs_core` loads.  The fallback, `_linprog_cone`, hands the
    dense model to `scipy.optimize.linprog`; it serves the scipy releases
    that `pyproject.toml` admits (>= 1.11) but that predate the private
    `scipy.optimize._highspy._core` module.  (A scipy that has the module
    cannot import `scipy.optimize` without it.)  The route taken is logged
    once at DEBUG.
    """
    global _highs_handle
    if _highs_handle is None:
        try:
            core = _highs_core()
        except ImportError:
            _log.debug("HiGHS route: scipy.optimize.linprog fallback")
            _highs_handle = (_linprog_cone, np)
        else:
            _log.debug("HiGHS route: direct scipy.optimize._highspy._core._Highs")
            _highs_handle = (_direct_highs(core), np)
    return _highs_handle


def _highs_core():
    """`scipy.optimize._highspy._core`, loaded from its file in scipy's
    `optimize/_highspy` directory without importing `scipy.optimize`.

    Importing it by name runs the `__init__` of `scipy.optimize`, most of a
    command's start-up time, and the compiled module needs none of it.  The
    module is registered under its own name before it runs, so a later
    `import scipy.optimize` (`_linprog_cone`, the tests) reuses it; an entry
    already there is reused, a `None` entry blocks the load as it blocks an
    import, and a failed load leaves no entry.  ImportError when the module
    cannot be found or loaded.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        core = sys.modules[name]
        if core is None:
            raise ImportError(f"import of {name} halted; None in sys.modules", name=name)
        return core
    import scipy
    where = [os.path.join(p, "optimize", "_highspy") for p in scipy.__path__]
    spec = importlib.machinery.PathFinder.find_spec(name, where)
    if spec is None:
        raise ImportError(f"no module named {name!r}", name=name)
    core = importlib.util.module_from_spec(spec)
    sys.modules[name] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[name]
        raise
    return core


def _dense_cone_lp(d, start, index, value):
    """The row-wise cone LP of `_highs` as `linprog` keyword arguments: the
    cost, the dense A_ub rows, b_ub and the bounds."""
    a_ub = []
    for lo, hi in zip(start, start[1:]):
        row = [0.0] * (d + 1)
        for j, x in zip(index[lo:hi], value[lo:hi]):
            row[j] = x
        a_ub.append(row)
    return dict(c=[0.0] * d + [-1.0], A_ub=a_ub, b_ub=[0.0] * len(a_ub),
                bounds=[(-1, 1)] * d + [(0, 1)], method="highs")


def _linprog_cone(d, start, index, value):
    """The cone LP of `_highs` solved by `scipy.optimize.linprog`."""
    from scipy.optimize import linprog
    return linprog(**_dense_cone_lp(d, start, index, value))


def _direct_highs(core):
    """The cone LP of `_highs`, solved on one reused `_Highs` as
    `linprog(method="highs")` solves its dense form.

    Its options are the ones `linprog` sets, passed once.  One model per
    dimension keeps the columns (cost and bounds), set once; each call puts
    its rows in, row-wise, and passes the whole model, so no HiGHS state
    carries from one call to the next.  Status 0 is an optimum, with `x`
    and the marginals as lists; every other outcome is status 4 with no
    `x`, except `linprog`'s demotion of an "optimal" point off the
    constraints by more than 10 * sqrt(1e-9), which is status 4 with `x`
    and the marginals.
    """
    highs = core._Highs()
    options = core.HighsOptions()
    options.presolve = "on"
    options.output_flag = False
    options.log_to_console = False
    options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    highs.passOptions(options)
    tol = float(np.sqrt(1e-9) * 10)
    models = {}  # d -> (a model with its columns set, their lower and upper bounds)

    def solve(d, start, index, value):
        if d not in models:
            lp = core.HighsLp()
            lp.num_col_ = lp.a_matrix_.num_col_ = d + 1
            lp.a_matrix_.format_ = core.MatrixFormat.kRowwise
            lower, upper = [-1.0] * d + [0.0], [1.0] * (d + 1)
            lp.col_cost_, lp.col_lower_, lp.col_upper_ = [0.0] * d + [-1.0], lower, upper
            models[d] = (lp, lower, upper)
        lp, lower, upper = models[d]
        m = len(start) - 1
        lp.num_row_ = lp.a_matrix_.num_row_ = m
        lp.a_matrix_.start_ = start
        lp.a_matrix_.index_ = index
        lp.a_matrix_.value_ = value
        lp.row_lower_ = [-core.kHighsInf] * m
        lp.row_upper_ = [0.0] * m
        solved = highs.passModel(lp) != core.HighsStatus.kError
        if solved:
            highs.run()
            solved = highs.getModelStatus() == core.HighsModelStatus.kOptimal
        if not solved:
            return SimpleNamespace(status=4, x=None)
        solution = highs.getSolution()
        x = solution.col_value
        feasible = (all(lo - tol <= v <= hi + tol for lo, hi, v in zip(lower, upper, x))
                    and all(r <= tol for r in solution.row_value))
        return SimpleNamespace(status=0 if feasible else 4, x=x,
                               ineqlin=SimpleNamespace(marginals=solution.row_dual))

    return solve


def _over_common_denominator(y):
    """(numerators, den): y = numerators / den with den > 0 the lcm of y's
    denominators, so signs and minima of row . y can be taken on integers."""
    den = lcm(*(x.denominator for x in y))
    return [x.numerator * (den // x.denominator) for x in y], den


def _row_reduce(rows, ncols):
    """Gauss-Jordan elimination of the integer `rows`, in place, over their
    first `ncols` columns; returns the pivot columns, the k-th held by row k.

    Every combined row is divided by its gcd.  Scaling a row by a nonzero
    integer keeps its zero pattern, so the pivots, and the ratios read off the
    reduced rows, are those of the rational elimination.
    """
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        top = rows[r]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f != 0:
                row = [top[c] * a - f * b for a, b in zip(row, top)]
                k = gcd(*row)
                rows[i] = [x // k for x in row] if k > 1 else row
        pivots.append(c)
    return pivots


def _solve_on_support(columns, support, target):
    """Exact particular solution of the subsystem restricted to `support`
    (free variables zero), or None; each equation is scaled to integer
    coefficients for `_row_reduce`."""
    aug = [_over_common_denominator([columns[k][i] for k in support] + [t])[0]
           for i, t in enumerate(target)]
    pivots = _row_reduce(aug, len(support))
    if any(row[-1] for row in aug[len(pivots):]):
        return None
    lam = [Fraction(0)] * len(support)
    for row, c in zip(aug, pivots):
        lam[c] = Fraction(row[-1], row[c])
    return lam


def _certify_support(columns, support, target):
    """Exactly checked lam >= 0 with sum lam_k columns[k] = target and lam zero
    off `support`, or None."""
    lam_s = _solve_on_support(columns, support, target)
    if lam_s is None or any(x < 0 for x in lam_s):
        return None
    num, den = _over_common_denominator(lam_s)
    for i, t in enumerate(target):
        if sum(n * columns[k][i] for k, n in zip(support, num)) != den * t:
            return None
    lam = [Fraction(0)] * len(columns)
    for k, v in zip(support, lam_s):
        lam[k] = v
    return lam


def _limit_denominator(v, max_den):
    """(p, q) with p / q = `Fraction(v).limit_denominator(max_den)` for the
    float v, computed on the integers of `v.as_integer_ratio()`: the last
    continued-fraction convergent with q <= max_den, or the semiconvergent
    past it when that lies strictly closer to v."""
    n, d = v.as_integer_ratio()
    if d <= max_den:
        return n, d
    den = d
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_den - q0) // q1
    # v lies between p1 / q1, at distance d / (q1 den), and the semiconvergent,
    # 1 / (q1 (q0 + k q1)) from p1 / q1; ties go to p1 / q1
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _float_row(row):
    """`row` as floats for HiGHS.  A row whose largest |entry| is at least 2^50
    is first divided exactly by 2^k, k the bit length of that entry, so the
    entry lies in [1/2, 1) and no float overflows; smaller rows are only
    converted.  Scaling a row by a positive factor keeps every sign, and the
    support of every certificate, that is read off the LP."""
    big = int(max(map(abs, row), default=0))
    if big < 2**50:
        return [float(x) for x in row]
    scale = 1 << big.bit_length()
    return [float(x / scale) for x in row]


def _lp_rows(rows):
    """{row: (index, value)} for each distinct row of `rows`: the nonzeros, in
    column order, of the row as HiGHS gets it, `_float_row` negated with 1.0
    for t appended (row . y >= t as -row . y + t <= 0).  Zeros of either
    sign are left out, as a sparse matrix leaves them out."""
    table = {}
    for row in rows:
        if row not in table:
            neg = [-x for x in _float_row(row)] + [1.0]
            table[row] = (list(compress(range(len(neg)), neg)), list(compress(neg, neg)))
    return table


def _strict_interior(rows, table):
    """One HiGHS LP and an exact certificate for the cone {y : row . y > 0}.

    HiGHS maximizes the least slack t of row . y >= t over y in [-1, 1]^d,
    t in [0, 1], each row's entries read from `table` (`_lp_rows` over rows
    that include `rows`) and handed over row-wise; the exact checks use the
    unscaled rows.  Returns (y, lam), at most one of them set:
    - t > 0: y = (numerators, den) is the proposal rounded, on integers
      (`_limit_denominator`), to denominators at most 10^4, then 10^8, then
      10^12, until every row . y > 0 holds in exact arithmetic;
    - t = 0: by LP duality the multipliers lam_r = -marginal_r of the rows
      satisfy lam >= 0, sum lam >= 1 and sum lam_r row_r = 0, Gordan's
      alternative to a strict y.  Their support is solved exactly for
      lam >= 0 with sum lam_r (row_r, 1) = (0, ..., 0, 1).
    (None, None) means no certificate was found, not that none exists.
    """
    d = len(rows[0])
    start, index, value = [0], [], []
    for row in rows:
        i, v = table[row]
        index += i
        value += v
        start.append(len(index))
    res = _highs()[0](d, start, index, value)
    if res.status != 0:
        return None, None
    if res.x[d] > 1e-9:
        x = res.x[:d]
        for max_den in (10**4, 10**8, 10**12):
            y = [_limit_denominator(v, max_den) for v in x]
            den = lcm(*(q for _, q in y))
            num = [p * (den // q) for p, q in y]
            if all(dot(row, num) > 0 for row in rows):
                return (num, den), None
        return None, None
    support = [r for r, m in enumerate(res.ineqlin.marginals) if -m > 1e-9]
    return None, _certify_support([tuple(row) + (1,) for row in rows], support,
                                  (0,) * d + (1,))


# ---------------------------------------------------------------------------
# Polytopes
# ---------------------------------------------------------------------------

def _plain(v) -> str:
    """A vector for messages, each coordinate by `str`: (1/3, 0), not reprs."""
    return "(" + ", ".join(str(x) for x in v) + ")"


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


def _integer_points(points):
    """The rational points times the lcm of their denominators, as integer
    tuples: one positive scale for all, so every face, order and primitive
    difference is kept."""
    d = len(points[0])
    flat, _ = _over_common_denominator([x for p in points for x in p])
    return [tuple(flat[k:k + d]) for k in range(0, len(flat), d)]


def _affine_coordinates(ints):
    """The integer points `ints` in r = dim aff(ints) pivot coordinates.

    Exact row reduction of the differences v_k - v_0 picks r coordinates on
    which the affine hull projects injectively; the projection therefore maps
    faces to faces.
    """
    pivots = _row_reduce([[a - b for a, b in zip(p, ints[0])] for p in ints[1:]], len(ints[0]))
    return [tuple(p[c] for c in pivots) for p in ints]


def _ridges(simplex):
    """(sorted ridge, sign of the orientation the oriented simplex induces on it)."""
    inversions = sum(a > b for a, b in combinations(simplex, 2))
    ordered = sorted(simplex)
    for m in range(len(ordered)):
        yield tuple(ordered[:m] + ordered[m + 1:]), -1 if (inversions + m) % 2 else 1


def _cofactor(rows, j):
    """Cofactor j of an appended last row under the edge rows q2 - q1, ...,
    qr - q1 of an oriented simplex in R^r: one (r-1)-minor, signed."""
    return (-1) ** (len(rows) + j) * _det([row[:j] + row[j + 1:] for row in rows])


def _cofactor_normal(rows):
    """The normal a of the oriented simplex with edge rows q2 - q1, ..., qr - q1
    in R^r: the cofactors of an appended last row, so det[rows, a] = |a|^2."""
    return [_cofactor(rows, j) for j in range(len(rows) + 1)]


def _propose_simplices(coords):
    """The boundary of the placing triangulation of conv(coords), integer
    points spanning R^r, r >= 2, as (s, a, b): an oriented (r-1)-simplex s
    facing outward and its plane a . x = b, gcd-reduced, with a . x <= b on
    the hull.

    Points are placed in lexicographic order.  The first r + 1 affinely
    independent ones form the start simplex; those skipped on the way are
    placed last, against every plane.  Every other point p is the
    lexicographic maximum so far, so it lies outside the hull, and it sees a
    facet through q, the point placed before it: else p - q, lexicographically
    positive, would be a nonnegative combination of vectors x - q over the
    hull, one of them positive too, yet q is the hull's lexicographic maximum.
    The search for the simplices p sees starts there and crosses shared
    ridges.  A horizon ridge, between a visible F and a hidden G, gives F with
    its vertex off the ridge replaced by p in the same slot: the ridge keeps
    its induced sign, so the new simplex faces outward.  With h = a . x - b
    <= 0 on the hull, its plane h_F(p) h_G - h_G(p) h_F vanishes on the ridge
    and at p, and is <= 0 on the old hull since h_F(p) > 0 >= h_G(p).
    `_certify_facets` checks the result, planes and all.
    """
    r = len(coords[0])
    order = iter(sorted(range(len(coords)), key=coords.__getitem__))
    start, rows, skipped = [next(order)], [], []
    while len(start) <= r:
        k = next(order)
        row = [x - y for x, y in zip(coords[k], coords[start[0]])]
        if len(_row_reduce(rows + [row], r)) == len(start):
            start.append(k)
            rows.append(row)
        else:
            skipped.append(k)
    rest = list(order)
    planes = {}  # oriented simplex -> (a, b, its ridge in each slot), a . x <= b on the hull
    sides = {}  # ridge, as a sorted tuple -> the simplices through it

    def put(s, a, b):
        g = gcd(*a, b)
        ordered = tuple(sorted(s))
        ridges = [ordered[:i] + ordered[i + 1:] for i in map(ordered.index, s)]
        planes[s] = ([x // g for x in a], b // g, ridges)
        for ridge in ridges:
            sides.setdefault(ridge, []).append(s)

    total = [sum(axis) for axis in zip(*(coords[k] for k in start))]  # (r + 1) x centroid
    for j in range(r + 1):
        s = tuple(start[:j] + start[j + 1:])
        base = coords[s[0]]
        a = _cofactor_normal([[x - y for x, y in zip(coords[k], base)] for k in s[1:]])
        b = dot(a, base)
        if dot(a, total) > (r + 1) * b:
            s, a, b = (s[1], s[0]) + s[2:], [-x for x in a], -b
        put(s, a, b)
    latest = [s for s in planes if start[-1] in s]
    for i, k in enumerate(rest + skipped):
        p, heights = coords[k], {}

        def height(s):
            h = heights.get(s)
            if h is None:
                a, b, _ = planes[s]
                h = heights[s] = dot(a, p) - b
            return h

        stack = [s for s in (latest if i < len(rest) else list(planes)) if height(s) > 0]
        visible, new = set(stack), []
        while stack:
            f = stack.pop()
            (af, bf, ridges), hf = planes[f], height(f)
            for m, ridge in enumerate(ridges):
                g, other = sides[ridge]
                g = other if g == f else g
                if g in visible:
                    continue
                (ag, bg, _), hg = planes[g], height(g)
                if hg > 0:
                    visible.add(g)
                    stack.append(g)
                else:
                    new.append((f[:m] + (k,) + f[m + 1:],
                                [hf * y - hg * x for x, y in zip(af, ag)], hf * bg - hg * bf))
        for f in visible:
            for ridge in planes.pop(f)[2]:
                sides[ridge].remove(f)
        for s, a, b in new:
            put(s, a, b)
        latest = [s for s, _, _ in new]
    return [(s, a, b) for s, (a, b, _) in planes.items()]


def _certify_facets(coords, planes):
    """Tight sets (bitmasks over coords) of all facets of conv(coords), or None.

    `coords` are integer points spanning R^r; `planes` are (s, a, b): an
    oriented (r-1)-simplex s proposed in a triangulation of the boundary,
    and its plane a . x = b.  Certified in integer arithmetic:
    - every vertex of s lies on its plane, and a is not zero;
    - with j the first index of a nonzero a_j, the cofactor n_j of the
      appended last row under the edge rows of s (one (r-1)-minor) is
      zero exactly when s is degenerate: else the cofactor normal n spans
      the plane's normal line, n = lam a with lam != 0.  A non-degenerate s
      is oriented outward, det[edge rows, a] = lam |a|^2 > 0, iff
      a_j n_j > 0;
    - the distinct planes of the non-degenerate simplices, each divided by
      the gcd of (a, b), have a . x <= b at every point: each supports the
      hull and holds an (r-1)-simplex, so it is a facet, and each facet has
      one such reduced outward plane;
    - every degenerate simplex lies inside some certified tight set;
    - every ridge lies in exactly two simplices, with opposite induced signs.
    The last check makes the simplices a cycle mapped into the boundary
    sphere.  Its degree is the same at every generic point, and there it
    counts the outward, non-degenerate simplices covering the point, so it is
    at least one: the simplices cover the boundary, and a facet missing from
    the list would contain a generic point that no certified facet holds.
    The facets come in the order of their first simplex.  None means the
    proposal failed a check, not that the hull is special; on the placing's
    own proposal `_facet_incidence` raises on it.

    Every point meets every facet in `_tight_sets`, which reads each sign of
    h = a . x - b off one float product of the planes (a, -b) against the
    points (x, 1) where a proven bound on its rounding error decides it.
    With u = 2^-53 and gamma_k = k u / (1 - k u), an inner product of m
    terms, summed in any order, with or without fused multiply-adds, is off
    by at most gamma_m times the sum of its terms' magnitudes (Higham,
    *Accuracy and Stability of Numerical Algorithms*, (3.5)).  Here
    m = r + 1, and rounding each integer a_j, x_j and b to a double adds at
    most two factors (1 + u) to each term, so the float value is off by at
    most gamma_{r+3} T, with T = sum_j |a_j x_j| + |b| <= ||a||_1 M + |b|
    and M the largest |coordinate| of any point.  Evaluated in doubles from
    the rounded entries, ||a||_1 M + |b| and its product with 2 (r + 3) u
    come out at least (1 - u)^(r+4) times their exact values, and
    gamma_{r+3} < 2 (r + 3) u (1 - u)^(r+4) for any r below 2^40.  So the
    bound 2 (r + 3) u (||a||_1 M + |b|), computed in doubles, is at least
    the error, and a float value past it has the sign of h.  No entry
    underflows, since every one is an integer, and an integer past the
    largest double reads as infinite: every sign it touches comes out
    infinite or nan, which no bound decides.  Exact integer dots decide
    every sign the bound leaves open, the tight points among them.

    The minors n_j come off one float evaluation too (`_minors`) where it
    is provably exact; exact integer arithmetic gives the rest.  With
    m = r - 1, it expands each m x m minor along its rows: the minor of rows
    1..k on a set S of k columns is the signed sum, over c in S, of row k's
    entry in column c times the minor of rows 1..k-1 on S less c, and the
    permanent of the entries' magnitudes follows the same recursion with
    every sign +.  When every |coordinate| is below 2^52, every entry
    x_k - x_1 is an integer below 2^53, exact as a double.  Say a computed
    permanent on rows 1..k is below 2^53.  Each term with a nonzero entry,
    of magnitude at least 1, rounds to at least the sub-permanent it
    multiplies, and a sum of nonnegative doubles to at least each summand,
    so that sub-permanent is below 2^53 too and, by induction, exact with
    its sub-minor.  Then every such product and every partial sum, of the
    permanent and of the minor alike, is an integer of magnitude at most the
    permanent's (any past 2^53 would round to at least 2^53), so exact.  A
    term with a zero entry is exactly 0 when its sub-minor is finite, and an
    infinite or nan sub-minor leaves the whole minor infinite or nan.  So a
    finite float minor whose permanent comes out below 2^52 is the exact
    minor.
    """
    r = len(coords[0])
    degenerate, ridges, columns = [], {}, []
    for s, a, b in planes:
        if len(s) != r or len(set(s)) != r or any(dot(a, coords[k]) != b for k in s):
            return None
        for ridge, sign in _ridges(s):
            count, total = ridges.get(ridge, (0, 0))
            ridges[ridge] = (count + 1, total + sign)
        j = next((j for j, x in enumerate(a) if x), None)
        if j is None:
            return None
        columns.append(j)
    if not planes or any(count != 2 or total for count, total in ridges.values()):
        return None
    points = _floats([q + (1,) for q in coords])
    minors = _minors(coords, points, [s for s, _, _ in planes], columns)
    facets = {}  # reduced plane -> None, in the order of first appearance
    for (s, a, b), j, minor in zip(planes, columns, minors):
        if minor == 0:
            degenerate.append(sum(1 << k for k in s))
        elif (minor > 0) != (a[j] > 0):
            return None
        else:
            g = gcd(*a, b)
            facets[tuple(x // g for x in a), b // g] = None
    if not facets:
        return None
    tights = _tight_sets(coords, points, list(facets))
    if tights is None or any(all(m & t != m for t in tights) for m in degenerate):
        return None
    return tights


# `_minors` trusts a float minor only where every |coordinate| and the
# minor's float permanent are below this bound
_EXACT = 2.0 ** 52

# `_tight_sets`' products take at most this many multiply-adds each (one
# facet at least), and `_minors`' expansions this many products: OpenBLAS
# runs a product up to 2^18 multiply-adds on one thread, and on a shared
# 2-vCPU host a 2^20 one ran 16 times slower on two
_BLOCK = 1 << 18


@np.errstate(over="ignore", invalid="ignore")  # an infinity or a nan is left undecided
def _tight_sets(coords, points, planes):
    """Tight sets (bitmasks over coords) of the planes (a, b), or None if a
    point has a . x > b for one of them: each sign from the float product
    where its bound decides it, else from the exact dot (`_certify_facets`
    derives the bound).  `points` are the rows (x, 1) as floats.  The product
    runs over blocks of facets of at most _BLOCK multiply-adds, so its memory
    does not grow with the facet count."""
    r = len(coords[0])
    normals = _floats([(*a, -b) for a, b in planes])
    scale = np.abs(normals[:, :r]).sum(axis=1) * np.abs(points[:, :r]).max()
    bound = 2 * (r + 3) * 2.0 ** -53 * (scale + np.abs(normals[:, r]))
    tights = []
    step = max(1, _BLOCK // (len(coords) * (r + 1)))
    for lo in range(0, len(planes), step):
        values = normals[lo:lo + step] @ points.T
        margin = bound[lo:lo + step, None]
        if (values > margin).any():
            return None
        block = [0] * len(values)
        for f, k in zip(*(i.tolist() for i in np.nonzero(~(np.abs(values) > margin)))):
            a, b = planes[lo + f]
            h = dot(a, coords[k]) - b
            if h > 0:
                return None
            if h == 0:
                block[f] |= 1 << k
        tights += block
    return tights


@np.errstate(over="ignore", invalid="ignore")  # an infinity or a nan takes the exact route
def _minors(coords, points, simplices, columns):
    """`_cofactor` of the edge rows of each simplex at its column j in
    `columns`: the float expansion where it is provably exact
    (`_certify_facets` proves the rule), else the exact integer.  `points`
    are the rows (x, 1) as floats.  An m x m minor's expansion takes fewer
    than m 2^(m-1) products; it runs over blocks of simplices of at most
    _BLOCK of them, and when one simplex alone takes more, every minor is
    exact."""
    r = len(coords[0])
    m = r - 1
    step = _BLOCK // (m << m - 1)
    values = [nan] * len(simplices)
    if step and np.abs(points[:, :r]).max() < _EXACT:
        others = np.array([[c for c in range(r) if c != j] for j in range(r)])  # but column j
        flip = (-1.0) ** (m + np.arange(r))
        values = []
        for lo in range(0, len(simplices), step):
            s, j = np.array(simplices[lo:lo + step]), np.array(columns[lo:lo + step])
            edges = points[s[:, 1:]] - points[s[:, :1]]  # (B, m, r + 1)
            square = edges[np.arange(len(s))[:, None, None], np.arange(m)[:, None],
                           others[j][:, None, :]]  # (B, m, m)
            minor = square[:, 0]
            permanent = np.abs(minor)
            for k, (sub, cols, signs) in enumerate(_laplace(m), 1):
                entries = square[:, k][:, cols]  # (B, C(m, k + 1), k + 1)
                minor = (entries * signs * minor[:, sub]).sum(axis=2)
                permanent = (np.abs(entries) * permanent[:, sub]).sum(axis=2)
            minor = minor[:, 0] * flip[j]
            exact = (permanent[:, 0] < _EXACT) & np.isfinite(minor)
            values += np.where(exact, minor, nan).tolist()
    return [_cofactor([[x - y for x, y in zip(coords[k], coords[s[0]])] for k in s[1:]], j)
            if value != value else value  # nan: not provably exact
            for value, s, j in zip(values, simplices, columns)]


@cache
def _laplace(m):
    """The Laplace expansion of an m x m determinant along its rows, one
    level per row k = 1..m-1, counted from 0: for each (k+1)-subset S of
    the columns, in `combinations` order, the index of each S less one
    column among the k-subsets, those columns, and the signs (-1)^(k+t) of
    their positions t in S."""
    levels, index = [], {(c,): c for c in range(m)}
    for k in range(1, m):
        subsets = list(combinations(range(m), k + 1))
        levels.append((np.array([[index[S[:t] + S[t + 1:]] for t in range(k + 1)] for S in subsets]),
                       np.array(subsets), (-1.0) ** (k + np.arange(k + 1))))
        index = {S: i for i, S in enumerate(subsets)}
    return levels


def _floats(rows):
    """The integer `rows` as a float array, an entry past the largest double
    as an infinity of its sign."""
    return np.array([[_float(x) for x in row] for row in rows])


def _float(x):
    try:
        return float(x)
    except OverflowError:
        return inf if x > 0 else -inf


def _facet_incidence(ints):
    """Certified tight sets (bitmasks over the distinct integer points
    `ints`) of every facet of their hull.

    A lone point is one tight set, and a segment's facets are its two ends.
    Otherwise `_propose_simplices` triangulates the boundary in affine-hull
    coordinates and `_certify_facets` decides the proposal; RuntimeError
    when the certificate does not hold.
    """
    coords = _affine_coordinates(ints)
    r = len(coords[0])
    if r == 0:
        return [1]
    if r == 1:
        xs = [q[0] for q in coords]
        return [sum(1 << k for k, x in enumerate(xs) if x == end) for end in (min(xs), max(xs))]
    facets = _certify_facets(coords, _propose_simplices(coords))
    if facets is None:
        raise RuntimeError(f"the facet certificate failed on the placing of {len(ints)} "
                           f"points in dimension {r}")
    return facets


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
    with every point a vertex the pair spans an edge exactly then.  Only
    pairs that share a facet are tried: the empty meet is all n points, so
    a pair sharing none is an edge only for n = 2, a segment's two ends.
    """
    if n == 2:
        return [(0, 1)]
    at = [0] * n
    for f, tight in enumerate(facets):
        for k in _bits(tight):
            at[k] |= 1 << f
    found = []
    for i in range(n):
        near = 0
        for f in _bits(at[i]):
            near |= facets[f]
        for j in _bits(near >> (i + 1)):
            j += i + 1
            meet = -1
            for f in _bits(at[i] & at[j]):
                meet &= facets[f]
            if meet == (1 << i) | (1 << j):
                found.append((i, j))
    return found


class Polytope:
    """A polytope given by its vertex list.

    Every construction checks that no two vertices coincide and that every
    listed point really is a vertex of the convex hull; offending points are
    rejected or stripped according to `on_nonvertex`.  That check computes
    the one certified facet incidence the edge graph then reads.
    """

    def __init__(self, points, label="", on_nonvertex="reject"):
        if on_nonvertex not in ("reject", "strip"):
            raise InputError("on_nonvertex must be 'reject' or 'strip'")
        pts = [tuple(_rational(x) for x in p) for p in points]
        if not pts:
            raise InputError("a polytope needs at least one point")
        d = len(pts[0])
        if d < 1 or any(len(p) != d for p in pts):
            raise InputError("all points must share one ambient dimension >= 1")
        self.dim = d
        self.label = label
        self.vertices = tuple(self._validated(pts, on_nonvertex))
        self._edges = None

    def _validated(self, pts, on_nonvertex):
        kept = {}  # insertion-ordered, so indices follow first occurrences
        for p in pts:
            if p in kept and on_nonvertex == "reject":
                raise InputError(f"duplicate vertex {_plain(p)}")
            kept[p] = None
        kept = list(kept)
        ints = _integer_points(kept)
        facets = _facet_incidence(ints)
        vertices, index = [], []
        for k, (p, is_vertex) in enumerate(zip(kept, _vertex_flags(facets, len(kept)))):
            if is_vertex:
                vertices.append(p)
                index.append(k)
            elif on_nonvertex == "reject":
                raise InputError(f"point {_plain(p)} is not a vertex of the hull")
        if len(index) < len(kept):
            facets = [sum(1 << new for new, old in enumerate(index) if tight >> old & 1)
                      for tight in facets]
        self._facets = facets  # certified facet tight sets over the vertices
        self._ints = tuple(ints[k] for k in index)  # the vertices times one positive integer
        return vertices

    def __repr__(self):
        return f"Polytope({self.label or 'unlabeled'}, n={len(self.vertices)}, d={self.dim})"

    # -- JSON schema: {"dim": int, "label": str, "vertices": [[num|"p/q", ...]]}

    def to_json(self) -> str:
        verts = [[int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
                  for x in v] for v in self.vertices]
        return json.dumps({"dim": self.dim, "label": self.label, "vertices": verts})

    @classmethod
    def from_json(cls, text: str) -> "Polytope":
        try:
            data = json.loads(text)
            dim = data["dim"]
            verts = data["vertices"]
            label = data.get("label", "")
            if not isinstance(dim, int) or isinstance(dim, bool):
                raise InputError(f"'dim' must be an integer, not {dim!r}")
            if any(len(v) != dim for v in verts):
                raise InputError("vertex length disagrees with 'dim'")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise InputError(f"bad polytope JSON: {exc}") from exc
        return cls(verts, label=label)

    # -- edge graph

    def edges(self):
        """Sorted list of index pairs (i, j), i < j, that span edges of the
        polytope, read from the certified facet incidence."""
        if self._edges is None:
            self._edges = tuple(_facet_edges(self._facets, len(self.vertices)))
        return list(self._edges)

    def neighbors(self, i):
        adj = []
        for a, b in self.edges():
            if a == i:
                adj.append(b)
            elif b == i:
                adj.append(a)
        return adj


# ---------------------------------------------------------------------------
# Orientation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectedGraph:
    """Graph of a polytope oriented by increasing inner product with `c`.

    `order` lists vertex indices by ascending c-value (ties between non-adjacent
    vertices broken by index); `arcs[u]` are the improving neighbors of u sorted
    by that order.  Acyclic by construction.  `source` must be the only vertex
    without incoming arcs and `sink` the only one without outgoing arcs.
    """

    order: tuple
    arcs: tuple
    c: tuple
    source: int
    sink: int

    def __post_init__(self):
        indegree = [0] * len(self.order)
        for heads in self.arcs:
            for v in heads:
                indegree[v] += 1
        sources = [u for u, k in enumerate(indegree) if k == 0]
        sinks = [u for u, heads in enumerate(self.arcs) if not heads]
        if sources != [self.source] or sinks != [self.sink]:
            raise GenericityError(
                f"orientation needs a unique source and sink, got {sources} / {sinks}")

    @property
    def n(self):
        return len(self.order)


def orient(P: Polytope, c, drop_level_ties=False) -> DirectedGraph:
    """Directed graph of P along c, with unique source and sink.

    A level edge raises GenericityError naming the edge; with
    `drop_level_ties=True` level edges are omitted from the arc set instead,
    which is the usual convention for graded 0/1 families whose canonical
    direction ties only within levels.
    """
    cv = tuple(_rational(x) for x in c)
    if len(cv) != P.dim:
        raise InputError("direction has wrong dimension")
    if not any(cv):
        raise InputError("direction must be nonzero")
    # the levels on integers: c and the vertices, each scaled by one positive number
    cn, _ = _over_common_denominator(cv)
    vals = [dot(v, cn) for v in P._ints]
    n = len(P.vertices)
    succ = [[] for _ in range(n)]
    for i, j in P.edges():
        if vals[i] == vals[j]:
            if drop_level_ties:
                continue
            raise GenericityError(
                f"direction {_plain(c)} is level on edge {(i, j)}", edge=(i, j))
        lo, hi = (i, j) if vals[i] < vals[j] else (j, i)
        succ[lo].append(hi)
    order = sorted(range(n), key=lambda k: (vals[k], k))
    rank = {v: r for r, v in enumerate(order)}
    arcs = tuple(tuple(sorted(s, key=rank.__getitem__)) for s in succ)
    # every arc climbs in c, so order[0] has no incoming arc and order[-1] no
    # outgoing one: a unique source or sink can only be these two
    return DirectedGraph(order=tuple(order), arcs=arcs, c=cv,
                         source=order[0], sink=order[-1])


# ---------------------------------------------------------------------------
# Planar projection and upper chains
# ---------------------------------------------------------------------------

def project2d(P: Polytope, c, omega):
    """Project every vertex to (<v,c>, <v,omega>), in vertex order."""
    cv = [_rational(x) for x in c]
    ov = [_rational(x) for x in omega]
    if len(cv) != P.dim or len(ov) != P.dim:
        raise InputError("projection directions must match the ambient dimension")
    if all(cv[a] * ov[b] == cv[b] * ov[a] for a, b in combinations(range(P.dim), 2)):
        raise InputError("omega must be linearly independent from c")
    return [(dot(v, cv), dot(v, ov)) for v in P.vertices]


def _monotone_chains(points):
    """(lower, upper) hull chains of `points`, which are sorted
    lexicographically (Andrew's monotone chain).

    Only entries 0 and 1 of a point are read, so floats and Fractions both
    work and later entries ride along.  The lower chain runs from the first
    point to the last, the upper one back; a point on a hull edge but not at
    its ends is left out.
    """
    def half(seq):
        out = []
        for p in seq:
            x, y = p[0], p[1]
            while len(out) >= 2:
                q, o = out[-1], out[-2]
                ox, oy = o[0], o[1]
                if (q[0] - ox) * (y - oy) - (q[1] - oy) * (x - ox) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    return half(points), half(points[::-1])


def upper_path(points):
    """Indices of hull vertices on the upper chain, by increasing first coordinate.

    Runs from the global minimizer of the first coordinate to the maximizer;
    collinear interior points are not hull vertices and are skipped.  A tie in
    the first coordinate among hull vertices is a DegeneracyError, as is a
    second point coinciding with a hull vertex.  Each float coordinate is
    taken at its exact binary value.
    """
    if len(points) < 2:
        raise InputError("need at least two points")
    pts = [tuple(_rational(x) for x in p) for p in points]
    lower, upper = _monotone_chains(sorted((p[0], p[1], k) for k, p in enumerate(pts)))
    upper = [q[2] for q in reversed(upper)]
    hull = {q[2] for q in lower} | set(upper)
    for k in hull:
        for other in range(len(pts)):
            if other != k and pts[other] == pts[k]:
                raise DegeneracyError(f"point {other} coincides with hull vertex {k}")
    xs = sorted(hull, key=lambda k: pts[k][0])
    for a, b in zip(xs, xs[1:]):
        if pts[a][0] == pts[b][0]:
            raise DegeneracyError(
                f"hull vertices {a} and {b} share the first coordinate")
    return upper
