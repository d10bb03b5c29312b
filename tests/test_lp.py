import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathspectra import coherence, exactgeom
from pathspectra.exactgeom import dot, lp_maximize

from conftest import record_highs


def test_single_binding_constraint():
    # omega >= t binds at the end of the box
    assert lp_maximize([(1,)]) == ((1,), 1)


def test_exact_rational_solution():
    # both rows grow with omega_0; they balance at omega_1 = 3/8
    rows = [(Fraction(1, 2), 1), (1, Fraction(-1, 3))]
    assert lp_maximize(rows) == ((1, Fraction(3, 8)), Fraction(7, 8))


def test_duality_spot_check():
    """No omega in the box found by randomized search may beat the reported
    least slack."""
    rng = random.Random(4)
    for _ in range(10):
        d = rng.randint(2, 3)
        rows = [[rng.randint(-3, 5) for _ in range(d)] for _ in range(rng.randint(2, 4))]
        _, t = lp_maximize(rows)
        for _ in range(200):
            omega = [Fraction(rng.randint(-10, 10), 10) for _ in range(d)]
            assert min(sum(r * w for r, w in zip(row, omega)) for row in rows) <= t


_ENTRY = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def _rows(draw):
    """Rows in d = 1..4; with some draws a row that is minus a nonnegative
    combination of the others, so that no strict interior exists."""
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[_ENTRY] * d), min_size=1, max_size=6))
    if draw(st.booleans()):
        lam = draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
        rows.append(tuple(-sum(l * row[i] for l, row in zip(lam, rows)) for i in range(d)))
    return rows


@settings(max_examples=150, deadline=None)
@given(_rows())
def test_optimal_solution_is_feasible_exactly(rows):
    omega, t = lp_maximize(rows)
    assert all(isinstance(x, Fraction) and -1 <= x <= 1 for x in omega)
    assert isinstance(t, Fraction) and t >= 0
    assert all(sum(r * w for r, w in zip(row, omega)) >= t for row in rows)


def _two_phase_simplex(rows, basis, cost, banned):
    """Maximize cost . x over a dense tableau, pivoting `rows` (coefficients,
    then the rhs) and `basis` in place with Bland's rule; columns in `banned`
    never enter.  The LP must be bounded."""
    ncols = len(cost)
    cr = list(cost)  # reduced costs c_j - c_B . B^-1 A_j
    for row, b in zip(rows, basis):
        cb = cr[b]
        if cb != 0:
            cr = [a - cb * x for a, x in zip(cr, row)]
            cr[b] = Fraction(0)
    while True:
        enter = next((j for j in range(ncols) if j not in banned and cr[j] > 0), None)
        if enter is None:
            return
        leave, best = None, None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[ncols] / row[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        piv = rows[leave][enter]
        if piv != 1:
            rows[leave] = [x / piv for x in rows[leave]]
        top = rows[leave]
        for i, row in enumerate(rows):
            f = row[enter]
            if i != leave and f != 0:
                rows[i] = [a - f * b for a, b in zip(row, top)]
        f = cr[enter]
        cr = [a - f * b for a, b in zip(cr, top)]
        basis[leave] = enter


def _two_phase_lp_maximize(rows):
    """The exact LP of `lp_maximize` as the two-phase simplex solved it, kept
    as its oracle.  Columns y = omega + 1 >= 0, then t = t+ - t-, one slack
    per row (the rows, then the box rows y_j <= 2), then one artificial per
    row with a positive sum; phase 1 drives the artificials to zero, phase 2
    maximizes t."""
    d, m = len(rows[0]), len(rows)
    zero, one = Fraction(0), Fraction(1)
    first_artificial = 2 * d + 2 + m
    width = first_artificial + sum(1 for row in rows if sum(row) > 0)
    tableau, basis, artificials = [], [], []
    for k, row in enumerate(rows):
        coeffs = [Fraction(x) for x in row] + [-one, one]
        b = sum(coeffs[:d])
        line = [zero] * (width + 1)
        if b > 0:
            line[d + 2 + k] = -one
            artificials.append(first_artificial + len(artificials))
            basis.append(artificials[-1])
        else:
            coeffs, b = [-x for x in coeffs], -b
            basis.append(d + 2 + k)
        line[:d + 2] = coeffs
        line[basis[-1]] = one
        line[width] = b
        tableau.append(line)
    for j in range(d):
        line = [zero] * (width + 1)
        line[j] = line[d + 2 + m + j] = one
        line[width] = Fraction(2)
        basis.append(d + 2 + m + j)
        tableau.append(line)
    if artificials:
        _two_phase_simplex(tableau, basis,
                           [zero] * first_artificial + [-one] * len(artificials), artificials)
    cost = [zero] * width
    cost[d], cost[d + 1] = one, -one
    _two_phase_simplex(tableau, basis, cost, artificials)
    values = {b: row[width] for b, row in zip(basis, tableau)}
    omega = tuple(values.get(j, zero) - 1 for j in range(d))
    return omega, values.get(d, zero) - values.get(d + 1, zero)


@st.composite
def _integer_rows(draw):
    """Integer rows, entries -50..50, in d = 1..6."""
    d = draw(st.integers(1, 6))
    return draw(st.lists(st.tuples(*[st.integers(-50, 50)] * d), min_size=1, max_size=10))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_rows(), _integer_rows()))
def test_one_phase_optimum_matches_the_two_phase_simplex(rows):
    """The optimum t is the two-phase simplex's.  omega is checked for
    feasibility only: where the optimum is not unique the two pivot
    sequences may end at different optimal vertices."""
    omega, t = lp_maximize(rows)
    assert t == _two_phase_lp_maximize(rows)[1]
    assert all(type(x) is Fraction and -1 <= x <= 1 for x in omega)
    assert all(dot(row, omega) >= t for row in rows)


def _strict_interior_and_highs(rows):
    """`_strict_interior(rows)` and the result of its one HiGHS solve."""
    with pytest.MonkeyPatch.context() as mp:
        calls = record_highs(mp)
        certificate = exactgeom._strict_interior(rows, exactgeom._lp_rows(rows))
    ((_args, _kwargs, res),) = calls
    return certificate, res


def _strict_interior_with_highs_optimum(rows):
    """`_strict_interior(rows)` and the least slack t of its HiGHS LP."""
    certificate, res = _strict_interior_and_highs(rows)
    assert res.status == 0
    return certificate, res.x[len(rows[0])]


@settings(max_examples=150, deadline=None)
@given(_rows())
def test_optimum_matches_highs_and_its_certificates(rows):
    """The exact optimum is HiGHS's (which caps t at 1), and it is positive
    exactly when `_strict_interior` certifies a strict y, zero exactly when
    it certifies a Gordan witness."""
    _, t = lp_maximize(rows)
    (y, lam), highs_t = _strict_interior_with_highs_optimum(rows)
    assert float(min(t, 1)) == pytest.approx(highs_t, abs=1e-7)
    assert (t > 0) == (y is not None)
    assert (t == 0) == (lam is not None)


def _fraction_solve_on_support(columns, support, target):
    """Gauss-Jordan elimination on `Fraction`s, kept as the oracle of the
    integer elimination in `exactgeom._solve_on_support`."""
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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_elimination_matches_fraction_elimination(data):
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 7))
    columns = data.draw(st.lists(st.lists(_ENTRY, min_size=m, max_size=m),
                                 min_size=n, max_size=n))
    if data.draw(st.booleans()):
        # a dependent column and a consistent target exercise free variables
        a, b = data.draw(_ENTRY), data.draw(_ENTRY)
        columns.append([a * x + b * y for x, y in zip(columns[0], columns[-1])])
        lam = data.draw(st.lists(_ENTRY, min_size=len(columns), max_size=len(columns)))
        target = [sum(l * col[i] for l, col in zip(lam, columns)) for i in range(m)]
    else:
        target = data.draw(st.lists(_ENTRY, min_size=m, max_size=m))
    support = data.draw(st.lists(st.integers(0, len(columns) - 1), unique=True))
    assert (exactgeom._solve_on_support(columns, support, target)
            == _fraction_solve_on_support(columns, support, target))


_TIERS = (10**4, 10**8, 10**12)


@pytest.mark.parametrize("s, tier, y, route", [
    pytest.param(10**4, 10**8, ([20001, 20000, -20001], 20001), "HiGHS strict omega", id="1e4"),
    pytest.param(10**9, 10**12, ([985999918418, 985999917925, -985999918418], 985999918418),
                 "HiGHS strict omega", id="1e9"),
    pytest.param(10**12, None, None, "exact simplex", id="1e12"),
])
def test_thin_cones_escalate_the_denominator(s, tier, y, route):
    """Every fixture's proposals certify at denominator 10^4.  The rows
    (s, -s), (-s, s + 1) leave a cone of width about 1/s around (1, 1), so the
    proposal needs a finer denominator: 10^8, 10^12, or more than the ladder
    has, and then the exact simplex decides.  Each HiGHS solve is optimal with
    t > 0, the first certifying denominator is read with the `Fraction`
    rounding, and y and the route are pinned as that rounding gives them."""
    rows = [(s, -s, 0), (-s, s + 1, 0), (1, 1, 0)]
    certificate, res = _strict_interior_and_highs(rows)
    assert res.status == 0 and res.x[3] > 1e-9
    certifying = [
        max_den for max_den in _TIERS
        if all(dot(row, exactgeom._over_common_denominator(
            [Fraction(v).limit_denominator(max_den) for v in res.x[:3]])[0]) > 0
               for row in rows)]
    assert certifying[:1] == ([] if tier is None else [tier])
    assert certificate == (y, None)
    got_route, coherent = coherence._decide_rows(rows, *coherence._lp_context((0, 0, 1), rows))
    assert got_route == route and coherent is not None


def _farey_right_neighbour(p, q, max_den):
    """c / e > p / q with c q - p e = 1 and the largest e <= max_den: the
    fraction next to p / q among those with denominator at most max_den."""
    e = -pow(p, -1, q) % q if q > 1 else 0
    e += (max_den - e) // q * q
    return (1 + p * e) // q, e


@st.composite
def _roundings(draw):
    """(v, max_den) with v a float in [-1, 1]: any such float, the special
    values, a dyadic whose denominator is at most max_den, or a float nearest
    to the midpoint of two neighbouring fractions of denominator at most
    max_den, where the rounding switches sides, or a step off it.

    For max_den a power of ten no float is an exact tie: the midpoint of
    neighbours p1/q1 and p2/q2 has denominator q1 q2 or 2 q1 q2, a power of
    two only when one q is 1 and the other, max_den, is a power of two.  So
    exact ties are drawn at max_den = 2^j, as m +- 1 / 2^(j+1) for m in
    {-1, 0, 1}: halfway between m and m +- 1 / 2^j."""
    kind = draw(st.sampled_from(["any", "special", "dyadic", "midpoint", "tie"]))
    if kind == "tie":
        j = draw(st.integers(1, 52))
        m = draw(st.sampled_from([-1, 0, 1]))
        half = draw(st.sampled_from([-1, 1])) * 2.0 ** -(j + 1)
        return (m + half if abs(m + half) <= 1 else m - half), 2**j
    max_den = draw(st.sampled_from(_TIERS))
    if kind == "any":
        return draw(st.floats(-1, 1)), max_den
    if kind == "special":
        return draw(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324,
                                     2.2250738585072014e-308, 1e-300, 0.5])), max_den
    if kind == "dyadic":
        j = draw(st.integers(0, max_den.bit_length() - 1))
        return draw(st.integers(-2**j, 2**j)) / 2**j, max_den
    q = draw(st.integers(1, max_den))
    p = draw(st.integers(-q, q - 1).filter(lambda p: math.gcd(p, q) == 1))
    c, e = _farey_right_neighbour(p, q, max_den)
    v = float(Fraction(p * e + c * q, 2 * q * e))
    v = draw(st.sampled_from([v, math.nextafter(v, -2.0), math.nextafter(v, 2.0)]))
    return max(-1.0, min(1.0, v)), max_den


@settings(max_examples=600, deadline=None)
@given(_roundings())
@example((0.125, 4))  # halfway between the convergent 0 and the semiconvergent 1/4
@example((0.875, 4))  # halfway between 3/4 and the convergent 1
def test_integer_rounding_matches_limit_denominator(case):
    """`_limit_denominator` on integers against the `Fraction` route it
    replaced, kept here as the oracle."""
    v, max_den = case
    want = Fraction(v).limit_denominator(max_den)
    assert exactgeom._limit_denominator(v, max_den) == (want.numerator, want.denominator)


def _fraction_wrapped_certify_support(columns, support, target):
    """`exactgeom._certify_support` as it was before integer columns went in
    unwrapped: every entry becomes a `Fraction` before the elimination.
    Kept as the oracle of the integer route."""
    aug = [exactgeom._over_common_denominator([Fraction(columns[k][i]) for k in support]
                                              + [Fraction(t)])[0]
           for i, t in enumerate(target)]
    pivots = exactgeom._row_reduce(aug, len(support))
    if any(row[-1] for row in aug[len(pivots):]):
        return None
    lam_s = [Fraction(0)] * len(support)
    for row, c in zip(aug, pivots):
        lam_s[c] = Fraction(row[-1], row[c])
    if any(x < 0 for x in lam_s):
        return None
    num, den = exactgeom._over_common_denominator(lam_s)
    for i, t in enumerate(target):
        if sum(n * columns[k][i] for k, n in zip(support, num)) != den * t:
            return None
    lam = [Fraction(0)] * len(columns)
    for k, v in zip(support, lam_s):
        lam[k] = v
    return lam


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_columns_certify_as_fraction_wrapped_columns(data):
    """Gordan witness solves as `_strict_interior` sets them up, columns
    (row, 1) and target (0, ..., 0, 1), on integer rows (as coherence
    passes them) and on `Fraction` rows (as the vertex and edge tests do):
    the same lam as the `Fraction`-wrapping route, and lam is `Fraction`s."""
    entry = data.draw(st.sampled_from([st.integers(-9, 9), _ENTRY]))
    d = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.tuples(*[entry] * d), min_size=1, max_size=6))
    if data.draw(st.booleans()):
        # minus a nonnegative integer combination: a vanishing combination exists
        lam = data.draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
        rows.append(tuple(-sum(l * row[i] for l, row in zip(lam, rows)) for i in range(d)))
    columns = [tuple(row) + (1,) for row in rows]
    target = (0,) * d + (1,)
    support = sorted(data.draw(st.lists(st.integers(0, len(rows) - 1), unique=True,
                                        min_size=1)))
    got = exactgeom._certify_support(columns, support, target)
    assert got == _fraction_wrapped_certify_support(columns, support, target)
    if got is not None:
        assert all(type(x) is Fraction for x in got)
