"""The direct HiGHS binding behind `exactgeom._highs()` against its oracle,
`scipy.optimize.linprog(method="highs")`."""
import json
import logging
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from pathspectra import (LengthSpectrum, Polytope, cli, coherence, coherent_paths,
                         exactgeom, orient, zoo)

from conftest import record_highs
from test_exactgeom import _is_edge_pair, _is_vertex_lp, _point_sets

_DIRECT = "HiGHS route: direct scipy.optimize._highspy._core._Highs"
_FALLBACK = "HiGHS route: scipy.optimize.linprog fallback"


def _bytes(v):
    return np.asarray(v, dtype=float).tobytes()


def _assert_same(res, ref):
    assert res.status == ref.status
    if ref.x is None:
        assert res.x is None
        return
    assert _bytes(res.x) == _bytes(ref.x)
    assert _bytes(res.ineqlin.marginals) == _bytes(ref.ineqlin.marginals)


def _assert_matches_linprog(direct, calls):
    """Each recorded solve equals linprog's on the same dense model, and so
    does a second solve of the same LPs in reverse order on the one reused
    solver."""
    assert direct is not exactgeom._linprog_cone
    assert calls
    for _args, model, res in calls:
        _assert_same(res, linprog(**model))
    for args, _model, res in reversed(calls):
        _assert_same(direct(*args), res)


def _assert_cone_lp(args, model):
    """The one call the solver is sized to: the cone LP of
    `_strict_interior`, handed over row-wise as lists, each row's nonzeros
    in column order and t's 1.0 last; and the dense model rebuilt from it."""
    d, start, index, value = args
    assert type(d) is int and all(type(x) is list for x in (start, index, value))
    assert start[0] == 0 and len(index) == len(value) == start[-1]
    for lo, hi in zip(start, start[1:]):
        assert index[lo:hi] == sorted(set(index[lo:hi])) and index[hi - 1] == d
        assert value[hi - 1] == 1.0 and 0.0 not in value[lo:hi]
    c, a_ub, b_ub, bounds = (model[k] for k in ("c", "A_ub", "b_ub", "bounds"))
    assert all(type(x) is list for x in (c, a_ub, b_ub, bounds, *a_ub))
    m = len(a_ub)
    assert m == len(start) - 1 and all(len(row) == d + 1 for row in a_ub)
    assert c == [0.0] * d + [-1.0]
    assert b_ub == [0.0] * m
    assert bounds == [(-1, 1)] * d + [(0, 1)]
    assert model["method"] == "highs"


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
    list(coherent_paths(P, orient(P, c)))
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
            _is_vertex_lp(kept, i)
        for i, j in combinations(range(len(P.vertices)), 2):
            _is_edge_pair(P, i, j)
    for args, model, _res in calls:
        _assert_cone_lp(args, model)
    if len(kept) > 1:
        _assert_matches_linprog(direct, calls)


def test_direct_route_is_in_use(monkeypatch, caplog):
    monkeypatch.setattr(exactgeom, "_highs_handle", None)
    with caplog.at_level(logging.DEBUG, logger="pathspectra.exactgeom"):
        solve, _ = exactgeom._highs()
        assert exactgeom._highs()[0] is solve
    assert solve is not exactgeom._linprog_cone
    assert [r.getMessage() for r in caplog.records] == [_DIRECT]


def test_without_core_the_route_is_linprog(monkeypatch, caplog):
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    monkeypatch.setattr(exactgeom, "_highs_handle", None)
    with caplog.at_level(logging.DEBUG, logger="pathspectra.exactgeom"):
        assert exactgeom._highs()[0] is exactgeom._linprog_cone
    assert [r.getMessage() for r in caplog.records] == [_FALLBACK]


@pytest.mark.parametrize("core_source", [None, "raise ImportError('built without HiGHS')\n"],
                         ids=["no-core", "core-fails"])
def test_without_core_on_disk_the_route_is_linprog(core_source, tmp_path, monkeypatch, caplog):
    """A scipy whose `optimize/_highspy` holds no `_core`, or one that fails
    to load: the route is linprog, and no half-loaded module is left."""
    import scipy
    highspy = tmp_path / "optimize" / "_highspy"
    highspy.mkdir(parents=True)
    if core_source is not None:
        (highspy / "_core.py").write_text(core_source)
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core", raising=False)
    monkeypatch.setattr(exactgeom, "_highs_handle", None)
    with caplog.at_level(logging.DEBUG, logger="pathspectra.exactgeom"):
        assert exactgeom._highs()[0] is exactgeom._linprog_cone
    assert [r.getMessage() for r in caplog.records] == [_FALLBACK]
    assert "scipy.optimize._highspy._core" not in sys.modules


# Runs CLI commands (argv lists, JSON in sys.argv[1]) in a fresh interpreter,
# recording every HiGHS call, and prints a JSON report: each command's exit
# code and stdout, the HiGHS route logged, whether `scipy.optimize` was
# loaded, whether a later import finds the same `_core`, and whether
# `linprog` gives every recorded LP the same bits.
_COLD_PROBE = """
import contextlib, io, json, logging, sys
import numpy as np
from pathspectra import cli, exactgeom

routes = []
handler = logging.Handler()
handler.emit = lambda record: routes.append(record.getMessage())
logging.getLogger("pathspectra.exactgeom").addHandler(handler)
logging.getLogger("pathspectra.exactgeom").setLevel(logging.DEBUG)
solve, np_ = exactgeom._highs()
calls = []

def recorded(*args):
    res = solve(*args)
    calls.append((args, res))
    return res
exactgeom._highs_handle = (recorded, np_)
outputs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        outputs.append([cli.main(argv)])
    outputs[-1].append(out.getvalue())
optimize_loaded = "scipy.optimize" in sys.modules
core = sys.modules["scipy.optimize._highspy._core"]
import scipy.optimize._highspy._core as again
from scipy.optimize import linprog

def bits(v):
    return np.asarray(v, dtype=float).tobytes()

def same(res, ref):
    if res.status != ref.status or (res.x is None) != (ref.x is None):
        return False
    return res.x is None or (bits(res.x) == bits(ref.x)
                             and bits(res.ineqlin.marginals) == bits(ref.ineqlin.marginals))
print(json.dumps({"outputs": outputs,
                  "routes": [m for m in routes if m.startswith("HiGHS route")],
                  "optimize_loaded": optimize_loaded, "same_core": again is core, "lps": len(calls),
                  "same_bits": all(same(res, linprog(**exactgeom._dense_cone_lp(*args)))
                                   for args, res in calls)}))
"""


def test_a_cold_process_loads_core_from_its_file(tmp_path, capsys):
    """In a fresh interpreter `_highs()` loads `_core` without
    `scipy.optimize`; the commands print and write what they do in this
    process (which has imported `scipy.optimize`), a later import finds the
    same module, and `linprog` solves every recorded LP to the same bits."""
    poly, certs = tmp_path / "cross5.json", tmp_path / "certs.json"
    poly.write_text(zoo.cross_polytope(5).to_json())
    argvs = [["coherent", str(poly), "--direction", "1,2,3,4,5", "--sample", "300",
              "--seed", "7", "--format", "json", "--certificates", str(certs)],
             ["verify", "cube3", "--format", "json"]]
    src = str(Path(exactgeom.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", _COLD_PROBE, json.dumps(argvs)],
                          env={**os.environ, "PYTHONPATH": src},
                          stdout=subprocess.PIPE, text=True, check=True)
    cold = json.loads(proc.stdout)
    cold_certs = certs.read_bytes()
    warm = []
    for argv in argvs:
        warm.append([cli.main(argv), capsys.readouterr().out])
    assert cold["outputs"] == warm
    assert [code for code, _out in warm] == [0, 0]
    assert certs.read_bytes() == cold_certs
    assert cold["routes"] == [_DIRECT]
    assert cold["optimize_loaded"] is False
    assert cold["same_core"] is True
    assert cold["lps"] > 0 and cold["same_bits"] is True


def _cone_rows(P, c):
    """The rows of every coherence LP of P under c, one list per LP."""
    rows = []
    real = coherence._strict_interior

    def logged(r, table):
        rows.append(r)
        return real(r, table)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coherence, "_strict_interior", logged)
        list(coherent_paths(P, orient(P, c)))
    return rows


@pytest.mark.parametrize("P, c", [
    pytest.param(zoo.cross_polytope(5), (1, 2, 3, 4, 5), id="cross5"),
    pytest.param(zoo.p10_spherical(), (1, 2, 3), id="p10-sphere"),
])
def test_cone_lp_rows_are_the_scaled_float_rows(P, c, monkeypatch):
    """The A_ub HiGHS sees is, bit for bit, the rows as `_float_row` gives
    them, negated, with a 1 for t; its zeros are +0.0, as no zero of either
    sign is handed over."""
    calls = record_highs(monkeypatch)
    cones = _cone_rows(P, c)
    assert len(cones) == len(calls)
    big = False
    for rows, (args, model, _res) in zip(cones, calls):
        _assert_cone_lp(args, model)
        want = np.array([[0.0 if x == 0 else -x for x in exactgeom._float_row(row)] + [1.0]
                         for row in rows])
        got = np.asarray(model["A_ub"])
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
        exactgeom._strict_interior(a, exactgeom._lp_rows(a))
        exactgeom._strict_interior(b, exactgeom._lp_rows(b))
    assert [len(model["c"]) for _args, model, _res in calls[:4]] == [4, 6, 4, 6]
    _assert_matches_linprog(direct, calls)


def _nonzeros(row):
    """(index, value) of the nonzeros of the row HiGHS gets, in column order:
    `_float_row` negated, with 1.0 for t."""
    dense = [-x for x in exactgeom._float_row(row)] + [1.0]
    index = [j for j, x in enumerate(dense) if x != 0]
    return index, [dense[j] for j in index]


def _assert_entries(table, rows):
    assert table.keys() == set(rows)
    for row, (index, value) in table.items():
        want_index, want_value = _nonzeros(row)
        assert index == want_index
        assert [x.hex() for x in value] == [x.hex() for x in want_value]


_TABLE_ENTRY = st.one_of(st.just(0), st.integers(-9, 9), st.fractions(-4, 4, max_denominator=9),
                         st.integers(2**50 - 2, 2**70), st.integers(-2**70, -2**50 + 2))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda d: st.lists(st.tuples(*[_TABLE_ENTRY] * d), min_size=1, max_size=6)))
def test_row_table_holds_the_nonzeros_of_the_negated_float_rows(rows):
    """`_lp_rows` keeps, for each distinct row, exactly the nonzeros in
    column order of the row HiGHS gets, on both branches of `_float_row`
    (entries below 2^50 and rows scaled by a power of two); the -0.0 that
    negating a zero entry gives is left out like 0.0."""
    table = exactgeom._lp_rows(rows + rows[:1])
    _assert_entries(table, rows)
    assert all(0.0 not in value for _index, value in table.values())


@pytest.mark.parametrize("P, c", [
    pytest.param(zoo.cross_polytope(5), (1, 2, 3, 4, 5), id="cross5"),
    pytest.param(zoo.p10_spherical(), (1, 2, 3), id="p10-sphere"),
])
def test_enumeration_builds_one_row_table_over_the_graph_rows(P, c, monkeypatch):
    """`coherent_paths` builds one table, over every distinct row of the
    graph's arcs, and each path's LP reads its rows from it."""
    tables = []
    real = coherence._lp_rows

    def logged(rows):
        tables.append((set(rows), real(rows)))
        return tables[-1][1]
    monkeypatch.setattr(coherence, "_lp_rows", logged)
    cones = _cone_rows(P, c)
    ((rows, table),) = tables
    _assert_entries(table, rows)
    assert set().union(*cones) <= rows


@pytest.mark.parametrize("name", ["cube3", "cross4"])
def test_spectrum_builds_no_row_table_when_no_path_needs_an_lp(name, monkeypatch):
    """On these fixtures the walk captures every coherent path and the
    seeded witness store decides every other one, so the walk-first
    spectrum runs no LP and builds no row table."""
    F = zoo.fixture(name)
    G = orient(F.polytope, F.direction)
    monkeypatch.setattr(coherence, "_lp_rows", lambda rows: pytest.fail("row table built"))
    calls = record_highs(monkeypatch)
    assert coherence._walk_first_spectrum(F.polytope, G) == F.expected_coherent
    assert calls == []


def _record_every_lp(mp):
    """The HiGHS calls of building every recorded fixture and of
    `coherent_paths` on those with a coherent spectrum (a superset of the
    LPs `verify_fixture` pays), of the coherent paths of the four inputs the
    benchmark certifies, and of the LP vertex and edge oracle on a few
    fixtures."""
    calls = record_highs(mp)
    for name in zoo.fixture_names(include_slow=True):
        F = zoo.fixture(name)
        if F.expected_coherent is not None:
            G = orient(F.polytope, F.direction)
            lengths = Counter(p.length for p, _ in coherent_paths(F.polytope, G))
            assert LengthSpectrum(lengths) == F.expected_coherent
    for P, c in [(zoo.cross_polytope(5), (1, 2, 3, 4, 5)),
                 (zoo.second_hypersimplex(5), (1, 2, 4, 8, 16)),
                 (zoo.cyclic(4, range(1, 9)), (1, 0, 0, 0)),
                 (zoo.product_of_simplices((3, 4)), (1, 2, 3, 4, 5))]:
        list(coherent_paths(P, orient(P, c)))
    for name in ("cube3", "lopsided3", "p10-sphere"):
        P = zoo.fixture(name).polytope
        for i in range(len(P.vertices)):
            _is_vertex_lp(list(P.vertices), i)
        for i, j in combinations(range(len(P.vertices)), 2):
            _is_edge_pair(P, i, j)
    return calls


def test_every_recorded_lp_matches_linprog(monkeypatch):
    """Every LP of the recorded fixtures and the benchmark's inputs, handed
    over row-wise, gives the status, x and dual bytes `linprog` gives on the
    same dense model."""
    assert exactgeom._highs()[0] is not exactgeom._linprog_cone
    calls = _record_every_lp(monkeypatch)
    assert len(calls) > 2000
    for args, model, res in calls:
        _assert_cone_lp(args, model)
        _assert_same(res, linprog(**model))
