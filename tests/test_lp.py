import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathspectra import exactgeom
from pathspectra.exactgeom import lp_maximize


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


def _strict_interior_with_highs_optimum(rows):
    """`_strict_interior(rows)` and the least slack t of its HiGHS LP."""
    solve, np_ = exactgeom._highs()
    results = []

    def recorded(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactgeom, "_highs_handle", (recorded, np_))
        certificate = exactgeom._strict_interior(rows)
    (res,) = results
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
