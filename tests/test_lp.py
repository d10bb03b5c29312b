import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathspectra import InputError, exactgeom, lp_maximize


def test_single_binding_constraint():
    res = lp_maximize([1], [([1], "<=", 3), ([1], ">=", 0)])
    assert res.status == "optimal"
    assert res.objective == 3
    assert res.solution == (3,)


def test_symmetric_simplex_face():
    res = lp_maximize([1, 1], [([1, 1], "<=", 1), ([1, 0], ">=", 0), ([0, 1], ">=", 0)])
    assert res.status == "optimal"
    assert res.objective == 1


def test_contradictory_bounds_infeasible():
    assert lp_maximize([1], [([1], "<=", 1), ([1], ">=", 2)]).status == "infeasible"


def test_unbounded():
    assert lp_maximize([1], [([1], ">=", 0)]).status == "unbounded"


def test_dimension_mismatch():
    with pytest.raises(InputError):
        lp_maximize([1, 2], [([1], "<=", 3)])


def test_equality_and_box():
    res = lp_maximize([0, 1], [([1, 1], "==", 2)], box=[(0, 1), (None, None)])
    assert res.status == "optimal"
    assert res.objective == 2
    assert res.solution == (0, 2)


def test_exact_rational_solution():
    res = lp_maximize(
        [Fraction(1), Fraction(1)],
        [([Fraction(2), Fraction(3)], "<=", Fraction(1)),
         ([1, 0], ">=", 0), ([0, 1], ">=", 0)])
    assert res.status == "optimal"
    assert res.objective == Fraction(1, 2)


def test_duality_spot_check():
    """No feasible point found by randomized search may beat the reported optimum."""
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(2, 3)
        m = rng.randint(2, 4)
        rows = [[rng.randint(-3, 5) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randint(2, 9) for _ in range(m)]
        obj = [rng.randint(-2, 4) for _ in range(n)]
        constraints = [(row, "<=", b) for row, b in zip(rows, rhs)]
        box = [(0, 6)] * n
        res = lp_maximize(obj, constraints, box)
        assert res.status == "optimal"  # box keeps it bounded, origin may be infeasible
        if res.status != "optimal":
            continue
        for _ in range(200):
            x = [Fraction(rng.randint(0, 60), 10) for _ in range(n)]
            if all(sum(r * v for r, v in zip(row, x)) <= b for row, b in zip(rows, rhs)):
                val = sum(c * v for c, v in zip(obj, x))
                assert val <= res.objective


def test_optimal_solution_is_feasible_exactly():
    rng = random.Random(11)
    for _ in range(10):
        n = 3
        rows = [[rng.randint(-4, 6) for _ in range(n)] for _ in range(4)]
        rhs = [rng.randint(1, 12) for _ in range(4)]
        constraints = [(row, "<=", b) for row, b in zip(rows, rhs)]
        res = lp_maximize([1, 1, 1], constraints, box=[(0, 10)] * n)
        assert res.status == "optimal"
        for row, b in zip(rows, rhs):
            assert sum(r * v for r, v in zip(row, res.solution)) <= b
        assert all(0 <= v <= 10 for v in res.solution)


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


_ENTRY = st.fractions(min_value=-4, max_value=4, max_denominator=4)


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
