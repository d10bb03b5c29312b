"""The direct HiGHS binding behind `exactgeom._highs()` against its oracle,
`scipy.optimize.linprog(method="highs")`."""
import logging
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.optimize import linprog

from pathspectra import Polytope, coherence, coherent_spectrum, exactgeom, zoo

from conftest import record_highs
from test_exactgeom import _point_sets

_DIRECT = "HiGHS route: direct scipy.optimize._highspy._core._Highs"
_FALLBACK = "HiGHS route: scipy.optimize.linprog fallback"


def _assert_same(res, ref):
    assert res.status == ref.status
    if ref.x is None:
        assert res.x is None
        return
    assert res.x.tobytes() == ref.x.tobytes()
    assert res.ineqlin.marginals.tobytes() == ref.ineqlin.marginals.tobytes()


def _assert_matches_linprog(direct, calls):
    """Each recorded solve equals linprog's, and so does a second solve of the
    same LPs in reverse order on the one reused solver."""
    assert direct is not linprog
    assert calls
    for args, kwargs, res in calls:
        _assert_same(res, linprog(*args, **kwargs))
    for args, kwargs, res in reversed(calls):
        _assert_same(direct(*args, **kwargs), res)


def _assert_cone_lp(args, kwargs):
    """The one call the direct solver is sized to: the cone LP of
    `_strict_interior`, as plain lists."""
    (c,) = args
    a_ub, b_ub, bounds = kwargs["A_ub"], kwargs["b_ub"], kwargs["bounds"]
    assert all(type(x) is list for x in (c, a_ub, b_ub, bounds, *a_ub))
    d, m = len(a_ub[0]) - 1, len(a_ub)
    assert c == [0.0] * d + [-1.0]
    assert b_ub == [0.0] * m
    assert bounds == [(-1, 1)] * d + [(0, 1)]
    assert kwargs["method"] == "highs"


@pytest.mark.parametrize("P, c", [
    pytest.param(zoo.cross_polytope(4), (1, 2, 3, 4), id="cross4"),
    pytest.param(zoo.cross_polytope(5), (1, 2, 3, 4, 5), id="cross5"),
    pytest.param(zoo.second_hypersimplex(5), (1, 2, 4, 8, 16), id="hyp2-5"),
    pytest.param(zoo.cyclic(4, range(1, 9)), (1, 0, 0, 0), id="cyclic4-8"),
    pytest.param(zoo.lopsided_cube(3), (1, 1, 1), id="lopsided3"),
    pytest.param(zoo.product_of_simplices((3, 4)), (1, 2, 3, 4, 5), id="prod3x4"),
])
def test_coherence_lps_match_linprog(P, c, monkeypatch):
    direct = exactgeom._highs()[0]
    calls = record_highs(monkeypatch)
    coherent_spectrum(P, c)
    _assert_matches_linprog(direct, calls)


@settings(max_examples=40, deadline=None)
@given(_point_sets())
def test_cone_escape_lps_match_linprog(points):
    """The strict-interior LPs of the vertex and edge tests."""
    kept = list(dict.fromkeys(tuple(Fraction(x) for x in p) for p in points))
    P = Polytope(kept, on_nonvertex="strip")
    direct = exactgeom._highs()[0]
    with pytest.MonkeyPatch.context() as mp:
        calls = record_highs(mp)
        for i in range(len(kept)):
            exactgeom._is_vertex_lp(kept, i)
        for i, j in combinations(range(len(P.vertices)), 2):
            P._is_edge_pair(i, j)
    for args, kwargs, _res in calls:
        _assert_cone_lp(args, kwargs)
    if len(kept) > 1:
        _assert_matches_linprog(direct, calls)


def test_direct_route_is_in_use(monkeypatch, caplog):
    monkeypatch.setattr(exactgeom, "_highs_handle", None)
    with caplog.at_level(logging.DEBUG, logger="pathspectra.exactgeom"):
        solve, _ = exactgeom._highs()
        assert exactgeom._highs()[0] is solve
    assert solve is not linprog
    assert [r.getMessage() for r in caplog.records] == [_DIRECT]


def test_without_core_the_route_is_linprog(monkeypatch, caplog):
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    monkeypatch.setattr(exactgeom, "_highs_handle", None)
    with caplog.at_level(logging.DEBUG, logger="pathspectra.exactgeom"):
        assert exactgeom._highs()[0] is linprog
    assert [r.getMessage() for r in caplog.records] == [_FALLBACK]


def test_infeasible_and_equality_lps_match_linprog():
    """LPs in the one accepted shape (lists, finite bounds) beyond the cone
    LP: an equality LP gives linprog's bits, and an infeasible one gives no
    solution on either route."""
    direct, _ = exactgeom._highs()
    # x0 + x1 = 1 as two inequalities, x0 - x1 <= 0.5, maximize x0
    c = [-1.0, 0.0]
    lp = dict(A_ub=[[1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]], b_ub=[0.5, 1.0, -1.0],
              bounds=[(0, 1), (-10, 10)], method="highs")
    res = direct(c, **lp)
    assert res.status == 0
    _assert_same(res, linprog(c, **lp))
    # x0 <= -1 with x0 in [0, 1]
    lp = dict(A_ub=[[1.0]], b_ub=[-1.0], bounds=[(0, 1)], method="highs")
    for res in (direct([0.0], **lp), linprog([0.0], **lp)):
        assert res.status != 0 and res.x is None


def _cone_rows(P, c):
    """The rows of every coherence LP of P under c, one list per LP."""
    rows = []
    real = coherence._strict_interior

    def logged(r):
        rows.append(r)
        return real(r)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coherence, "_strict_interior", logged)
        coherent_spectrum(P, c)
    return rows


@pytest.mark.parametrize("P, c", [
    pytest.param(zoo.cross_polytope(5), (1, 2, 3, 4, 5), id="cross5"),
    pytest.param(zoo.p10_spherical(), (1, 2, 3), id="p10-sphere"),
])
def test_cone_lp_rows_are_the_scaled_float_rows(P, c, monkeypatch):
    """The A_ub handed to HiGHS is, bit for bit, the rows as `_float_row`
    gives them, negated, with a 1 for t."""
    calls = record_highs(monkeypatch)
    cones = _cone_rows(P, c)
    assert len(cones) == len(calls)
    big = False
    for rows, (args, kwargs, _res) in zip(cones, calls):
        _assert_cone_lp(args, kwargs)
        want = np.array([[-x for x in exactgeom._float_row(row)] + [1.0] for row in rows])
        got = np.asarray(kwargs["A_ub"])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        big |= max(abs(x) for row in rows for x in row) >= 2**50
    assert big == (P.label == "p10-sphere")


def test_cone_lps_of_two_dimensions_alternate_on_the_one_solver(monkeypatch):
    """Cone LPs in d = 3 and d = 5, interleaved on the one reused solver,
    each equal linprog's: no bounds or cost array carries over from the
    other dimension."""
    small = _cone_rows(zoo.p10(), (1, 2, 3))
    large = _cone_rows(zoo.cross_polytope(5), (1, 2, 3, 4, 5))
    assert {len(r[0]) for r in small} == {3} and {len(r[0]) for r in large} == {5}
    direct = exactgeom._highs()[0]
    calls = record_highs(monkeypatch)
    for a, b in zip(small, large):
        exactgeom._strict_interior(a)
        exactgeom._strict_interior(b)
    assert [len(args[0]) for args, _kwargs, _res in calls[:4]] == [4, 6, 4, 6]
    _assert_matches_linprog(direct, calls)
