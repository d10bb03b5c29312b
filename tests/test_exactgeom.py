import json
from fractions import Fraction
from functools import partial
from itertools import combinations, compress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from pathspectra import (DegeneracyError, GenericityError, InputError, Polytope,
                         coherent_spectrum, count_paths_by_length, orient, project2d,
                         upper_path)
from pathspectra import coherence, exactgeom, zoo
from pathspectra.betasim import _rng, sample_sphere

from conftest import record_highs

# edge graphs of the fixtures, recorded with the per-pair LP test (p10-sphere's
# on its float coordinates, with ties up to 1e-9)
RECORDED_EDGES = json.loads(
    (Path(__file__).parent / "data" / "fixture_edges.json").read_text())


# The vertex and edge oracle: one LP question per point and per pair, as
# `Polytope` once asked them when a facet certificate failed.  Each goes
# through `exactgeom`'s own LP chain, looked up on the module at call time, so
# a test that patches `exactgeom.lp_maximize` or the HiGHS handle sees it.

def _has_interior(rows):
    """Whether some y has row . y > 0 for every row, decided exactly.

    No rows: yes.  Otherwise `_strict_interior`'s exactly checked strict y
    says yes and its Gordan witness says no; when it certifies neither,
    `lp_maximize` solves the same LP exactly, uncapped in t, and its optimum
    t > 0 says yes.
    """
    if not rows:
        return True
    y, lam = exactgeom._strict_interior(rows, exactgeom._lp_rows(rows))
    if y is not None or lam is not None:
        return y is not None
    return exactgeom.lp_maximize(rows)[1] > 0


def _is_vertex_lp(points, i):
    """LP vertex test: some c has c . points[i] > c . q for every other point
    q.  A Gordan witness on the rows points[i] - q writes points[i] as a
    convex combination of the others."""
    p = points[i]
    return _has_interior([tuple(a - b for a, b in zip(p, q))
                          for k, q in enumerate(points) if k != i])


def _is_edge_pair(P, i, j):
    """LP edge test: some c orthogonal to e = v_j - v_i has c . v_i > c . w
    for every other vertex w of P.  Its rows are the r = v_i - w projected
    orthogonally to e and scaled by e . e: (e . e) r - (r . e) e."""
    u, v = P.vertices[i], P.vertices[j]
    e = [b - a for a, b in zip(u, v)]
    ee = exactgeom.dot(e, e)
    rows = []
    for k, w in enumerate(P.vertices):
        if k != i and k != j:
            r = [a - b for a, b in zip(u, w)]
            re = exactgeom.dot(r, e)
            rows.append(tuple(ee * x - re * y for x, y in zip(r, e)))
    return _has_interior(rows)


def test_nonvertex_point_rejected_or_stripped():
    square_plus_center = [(0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 2), Fraction(1, 2))]
    with pytest.raises(InputError):
        Polytope(square_plus_center)
    P = Polytope(square_plus_center, on_nonvertex="strip")
    assert len(P.vertices) == 4


def test_duplicate_vertex():
    with pytest.raises(InputError):
        Polytope([(0, 0), (1, 0), (0, 0)])
    P = Polytope([(0, 0), (1, 0), (0, 0)], on_nonvertex="strip")
    assert len(P.vertices) == 2


def test_duplicates_keep_first_occurrences_and_name_the_first_repeat():
    points = [(1, 0), (0, 1), ("0", "0"), (0.0, 1), (1, 0)]
    with pytest.raises(InputError, match=r"^duplicate vertex \(0, 1\)$"):
        Polytope(points)
    P = Polytope(points, on_nonvertex="strip")
    assert P.vertices == ((1, 0), (0, 1), (0, 0))


def test_json_round_trip_exact():
    for P in (zoo.lopsided_cube(3), zoo.p10_spherical()):
        Q = Polytope.from_json(P.to_json())
        assert Q.vertices == P.vertices
        assert Q.label == P.label
        assert Q.dim == 3


def test_json_rejects_garbage():
    with pytest.raises(InputError):
        Polytope.from_json("{not json")
    with pytest.raises(InputError):
        Polytope.from_json('{"dim": 3, "vertices": [[1, 2]]}')
    for vertices in ("[1, 2]", "5"):
        with pytest.raises(InputError):
            Polytope.from_json(f'{{"dim": 1, "vertices": {vertices}}}')
    with pytest.raises(InputError, match="True"):
        Polytope.from_json('{"dim": 2, "vertices": [[0, 0], [1, 0], [0, true]]}')
    for dim in ("true", "1.0", '"1"', "null"):
        with pytest.raises(InputError, match="'dim'"):
            Polytope.from_json(f'{{"dim": {dim}, "vertices": [[0], [1]]}}')


def test_cross_polytope_antipodal_pair_is_not_an_edge():
    P = zoo.cross_polytope(3)
    plus_e1 = P.vertices.index((1, 0, 0))
    minus_e1 = P.vertices.index((-1, 0, 0))
    assert (min(plus_e1, minus_e1), max(plus_e1, minus_e1)) not in P.edges()
    assert len(P.edges()) == 12


def test_cube_edges_are_hamming_one():
    P = zoo.cube(3)
    edges = P.edges()
    for i, j in combinations(range(8), 2):
        hamming = sum(a != b for a, b in zip(P.vertices[i], P.vertices[j]))
        assert ((i, j) in edges) == (hamming == 1)
    assert len(edges) == 12
    # sorted pairs (i, j) with i < j, none twice
    assert edges == sorted(set(edges)) and all(i < j for i, j in edges)


def test_simplex_graph_is_complete():
    for d in (2, 3, 4, 5):
        P = zoo.simplex(d)
        assert len(P.edges()) == (d + 1) * d // 2


@pytest.mark.parametrize("builder", [lambda: zoo.cube(3), lambda: zoo.cross_polytope(3),
                                     lambda: zoo.simplex(3), lambda: zoo.lopsided_cube(3)])
def test_edge_test_agrees_with_supporting_hyperplane_margin(builder):
    """The facet-read edge graph against the LP edge test, whose rows ask
    for a c with c . v_i = c . v_j > c . w for every other vertex w."""
    P = builder()
    edges = P.edges()
    for i, j in combinations(range(len(P.vertices)), 2):
        assert ((i, j) in edges) == _is_edge_pair(P, i, j)


_COORD = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _point_sets(draw):
    """Rational points in d = 2..5, some sets on a hyperplane, some with
    midpoints or the barycenter of other points added."""
    d = draw(st.integers(2, 5))
    flat = draw(st.booleans())
    k = d - 1 if flat else d
    n = draw(st.integers(k + 1, k + 5))
    points = draw(st.lists(st.tuples(*[_COORD] * k), min_size=n, max_size=n))
    if flat:
        w = draw(st.tuples(*[st.integers(-2, 2)] * k))
        points = [p + (sum(a * x for a, x in zip(w, p)) + 1,) for p in points]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(pairs, max_size=3)):
        points.append(tuple((a + b) / 2 for a, b in zip(points[i], points[j])))
    if draw(st.booleans()):
        points.append(tuple(sum(c) / len(points) for c in zip(*points)))
    return points


@settings(max_examples=40, deadline=None)
@given(_point_sets())
def test_facet_incidence_matches_lp_oracle(points):
    _assert_facet_incidence_matches_lp_oracle(points)


def _fraction_keyed_intake(points, on_nonvertex):
    """(vertices, _ints, _facets) of `Polytope(points, on_nonvertex=...)` by
    the intake it once had, kept as its oracle: repeats found by keying a
    dict on Fraction tuples, then the integer frame of the distinct points."""
    kept = {}
    for p in (tuple(exactgeom._rational(x) for x in p) for p in points):
        if p in kept and on_nonvertex == "reject":
            raise InputError(f"duplicate vertex {exactgeom._plain(p)}")
        kept[p] = None
    kept = list(kept)
    ints = exactgeom._integer_points(kept)
    facets = exactgeom._facet_incidence(ints)
    flags = exactgeom._vertex_flags(facets, len(kept))
    if on_nonvertex == "reject" and not all(flags):
        raise InputError(f"point {exactgeom._plain(kept[flags.index(False)])} "
                         f"is not a vertex of the hull")
    index = list(compress(range(len(kept)), flags))
    facets = [sum(1 << new for new, old in enumerate(index) if tight >> old & 1)
              for tight in facets]
    return tuple(kept[k] for k in index), tuple(ints[k] for k in index), facets


def _spellings(x):
    """The ways to write the rational x that `Polytope` reads: a Fraction, a
    "p/q" string, and an int or a float where they hold x exactly."""
    out = [x, f"{x.numerator}/{x.denominator}"]
    if x.denominator == 1:
        out.append(int(x))
    if Fraction(float(x)) == x:
        out.append(float(x))
    return out


@st.composite
def _respelled_point_sets(draw):
    """`_point_sets` with up to three points repeated at drawn places, every
    coordinate spelled in one of its `_spellings`, so repeats and their
    originals are mostly spelled differently."""
    points = draw(_point_sets())
    for _ in range(draw(st.integers(0, 3))):
        repeat = points[draw(st.integers(0, len(points) - 1))]
        points.insert(draw(st.integers(0, len(points))), repeat)
    return [[draw(st.sampled_from(_spellings(Fraction(x)))) for x in p] for p in points]


def _outcome(build):
    try:
        return build()
    except InputError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(_respelled_point_sets(), st.sampled_from(["reject", "strip"]))
@example([[0, 0], [1, 0], [0, 1], [1.0, "0/1"]], "reject")
@example([[0, 0], [2, 0], [0, 2], ["1/2", 0.5], [Fraction(2), 0.0]], "reject")
@example([[0, 0], [2, 0], [0, 2], ["1/2", 0.5], [Fraction(2), 0.0]], "strip")
def test_intake_matches_the_fraction_keyed_oracle(points, on_nonvertex):
    """Repeats found on the integer frame: the same vertices, integer
    vertices, facets and error texts as keying on Fraction tuples."""
    def built():
        P = Polytope(points, on_nonvertex=on_nonvertex)
        return P.vertices, P._ints, P._facets
    assert _outcome(built) == _outcome(lambda: _fraction_keyed_intake(points, on_nonvertex))


def _assert_facet_incidence_matches_lp_oracle(points):
    kept = list(dict.fromkeys(tuple(Fraction(x) for x in p) for p in points))
    P = Polytope(points, on_nonvertex="strip")
    lp_vertices = [p for i, p in enumerate(kept) if _is_vertex_lp(kept, i)]
    assert list(P.vertices) == lp_vertices
    n = len(P.vertices)
    lp_edges = [(i, j) for i, j in combinations(range(n), 2) if _is_edge_pair(P, i, j)]
    assert P.edges() == lp_edges
    assert Polytope(P.vertices).edges() == lp_edges


def _all_pairs_facet_edges(facets, n):
    """The facet edge rule tried on all n^2 pairs, as `_facet_edges` once
    ran it, kept as the oracle of its shared-facet pairs."""
    at = [0] * n
    for f, tight in enumerate(facets):
        for k in exactgeom._bits(tight):
            at[k] |= 1 << f
    found = []
    for i in range(n):
        for j in range(i + 1, n):
            meet = (1 << n) - 1
            for f in exactgeom._bits(at[i] & at[j]):
                meet &= facets[f]
            if meet == (1 << i) | (1 << j):
                found.append((i, j))
    return found


def _assert_facets_and_edges(P, kept):
    """P's facets are `_facet_incidence(kept)` renumbered over its vertices,
    as `Polytope` renumbered them on every construction, and its facet edges
    are the all-pairs oracle's, over the vertices and over `kept`."""
    facets = exactgeom._facet_incidence(exactgeom._integer_points(kept))
    assert exactgeom._facet_edges(facets, len(kept)) == _all_pairs_facet_edges(facets, len(kept))
    index = [kept.index(v) for v in P.vertices]
    assert P._facets == [sum(1 << new for new, old in enumerate(index) if tight >> old & 1)
                         for tight in facets]
    n = len(P.vertices)
    assert exactgeom._facet_edges(P._facets, n) == _all_pairs_facet_edges(P._facets, n)


@pytest.mark.parametrize("name", zoo.fixture_names(include_slow=True))
def test_fixture_facets_and_edges_match_the_all_pairs_oracle(name):
    P = zoo.fixture(name).polytope
    _assert_facets_and_edges(P, list(P.vertices))


@pytest.mark.parametrize("points", [
    [(0,), (1,)], [(0,), (1,), (2,)], [(0, 0), (2, 1)], [(0, 0), (1, 1), (2, 2), (3, 3)],
    [(0, 0, 0), (1, 2, 3)]], ids=["segment", "segment+mid", "segment2", "collinear4", "segment3"])
def test_segments_keep_their_one_edge(points):
    """A segment's two ends share no facet, yet they span its one edge."""
    P = Polytope(points, on_nonvertex="strip")
    kept = [tuple(Fraction(x) for x in p) for p in points]
    _assert_facets_and_edges(P, kept)
    assert P.edges() == [(0, 1)]


@settings(max_examples=60, deadline=None)
@given(_point_sets())
def test_facets_and_edges_match_the_all_pairs_oracle_on_point_sets(points):
    kept = list(dict.fromkeys(tuple(Fraction(x) for x in p) for p in points))
    _assert_facets_and_edges(Polytope(points, on_nonvertex="strip"), kept)


def _forbid_lps(mp):
    """Make every exact-simplex call of `exactgeom` fail the test; returns
    the log of HiGHS calls, which a build with no LP leaves empty."""
    mp.setattr(exactgeom, "lp_maximize", lambda rows: pytest.fail("exact LP used"))
    return record_highs(mp)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_a_lone_point_is_one_vertex_without_lp(d, monkeypatch):
    """A point, alone or repeated and stripped, is its own one facet: one
    vertex, no edge, and one path of length 0, all without an LP."""
    p = tuple(range(1, d + 1))
    highs = _forbid_lps(monkeypatch)
    monkeypatch.setattr(coherence, "lp_maximize", lambda rows: pytest.fail("exact LP used"))
    for P in (Polytope([p]), Polytope([p, p], on_nonvertex="strip")):
        assert P.vertices == (p,) and P._facets == [1]
        assert P.edges() == []
        c = (1,) * d
        assert count_paths_by_length(orient(P, c)).counts == {0: 1}
        assert coherent_spectrum(P, orient(P, c)).counts == {0: 1}
    assert highs == []


@pytest.mark.parametrize("name", sorted(RECORDED_EDGES))
def test_fixture_edge_graph_certifies_without_lp(name, monkeypatch):
    built, incidences = [], []
    real_init, real_incidence = Polytope.__init__, exactgeom._facet_incidence

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    def incidence(points):
        incidences.append(points)
        return real_incidence(points)
    highs = _forbid_lps(monkeypatch)
    monkeypatch.setattr(Polytope, "__init__", init)
    monkeypatch.setattr(exactgeom, "_facet_incidence", incidence)
    P = zoo.fixture(name).polytope
    # construction certifies one facet incidence per polytope built ...
    assert len(incidences) == len(built)
    assert [list(e) for e in P.edges()] == RECORDED_EDGES[name]
    # ... and the edge graph reads it instead of computing another
    assert len(incidences) == len(built)
    assert highs == []


@pytest.mark.parametrize("name", ["cube3", "ass5"])
def test_coordinates_beyond_doubles_keep_the_facet_route(name, monkeypatch):
    """Coordinates past the largest double are integers like any other to
    the exact proposal, so the edge graph is still certified without any LP."""
    vertices = [tuple(x * 10 ** 400 for x in v) for v in zoo.fixture(name).polytope.vertices]
    highs = _forbid_lps(monkeypatch)
    P = Polytope(vertices)
    assert [list(e) for e in P.edges()] == RECORDED_EDGES[name]
    assert highs == []
    coords = exactgeom._affine_coordinates(exactgeom._integer_points(vertices))
    assert _assert_certificate_matches_the_oracle(
        coords, exactgeom._propose_simplices(coords)) is not None


_TINY = Fraction(1, 10**30)
_FLAT_SIMPLICES = pytest.mark.parametrize("points, c", [
    ([(0, 0), (1, 1), (Fraction(1, 2), Fraction(1, 2) + _TINY)], (1, 2)),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3) + _TINY)],
     (1, 2, 3)),
], ids=["triangle", "tetrahedron"])


def _assert_simplex_graph(P, points, c):
    n = len(points)
    assert P.vertices == tuple(tuple(Fraction(x) for x in p) for p in points)
    assert P.edges() == list(combinations(range(n), 2))
    assert count_paths_by_length(orient(P, c)).total == 2 ** (n - 2)


@_FLAT_SIMPLICES
def test_flat_initial_simplex_keeps_the_facet_route(points, c, monkeypatch):
    """A simplex with one apex 10^-30 off the opposite face, flat in floats,
    is certified from its exact facets without any LP."""
    highs = _forbid_lps(monkeypatch)
    _assert_simplex_graph(Polytope(points), points, c)
    assert highs == []


@_FLAT_SIMPLICES
def test_flat_initial_simplex_takes_the_lp_route(points, c, monkeypatch):
    """With its proposal short of one simplex, the same flat simplex fails
    its certificate and its build raises RuntimeError; the LP oracle still
    decides every vertex and edge of it, one HiGHS LP per question."""
    questions = _route_questions(points)
    real_proposal = exactgeom._propose_simplices
    monkeypatch.setattr(exactgeom, "_propose_simplices", lambda coords: real_proposal(coords)[1:])
    ints = exactgeom._integer_points(points)
    coords = exactgeom._affine_coordinates(ints)
    assert exactgeom._certify_facets(coords, exactgeom._propose_simplices(coords)) is None
    with pytest.raises(RuntimeError, match="facet certificate"):
        exactgeom._facet_incidence(ints)
    with pytest.raises(RuntimeError, match="facet certificate"):
        Polytope(points)
    n = len(points)
    answers = _asked(questions, monkeypatch)
    assert len(answers) == n + n * (n - 1) // 2
    assert all((verdict, expected, highs) == (True, True, 1)
               for verdict, expected, _, highs, _ in answers)


def _qhull_simplices(coords):
    """Qhull's boundary simplices of conv(coords), oriented coherently and
    outward, kept as the floating-point oracle of the exact proposal.

    Qhull lists the vertices of each simplex in no particular order.
    Orientations spread across shared ridges so that neighbours induce
    opposite signs; each connected piece is then turned to agree with
    Qhull's outward normals.
    """
    # Qhull's precision is relative to the coordinate range; rescaling each
    # axis onto [0, 1] changes no face and, with positive scales, no
    # orientation.  Integer true division rounds once and cannot overflow.
    lo = [min(axis) for axis in zip(*coords)]
    span = [max(axis) - m for axis, m in zip(zip(*coords), lo)]
    pts = np.array([[(x - m) / w for x, m, w in zip(p, lo, span)] for p in coords])
    hull = ConvexHull(pts)
    tri = hull.simplices
    volumes = np.linalg.det(np.concatenate(
        [pts[tri[:, 1:]] - pts[tri[:, :1]], hull.equations[:, None, :-1]], axis=1))
    simplices = [tuple(int(k) for k in s) for s in tri]
    ridges = [list(exactgeom._ridges(s)) for s in simplices]
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


def _cofactor_normal(rows):
    """The normal a of the oriented simplex with edge rows q2 - q1, ..., qr - q1
    in R^r: the cofactors of an appended last row, so det[rows, a] = |a|^2."""
    return [exactgeom._cofactor(rows, j) for j in range(len(rows) + 1)]


def _all_points_certificate(coords, simplices):
    """Tight sets (bitmasks over coords) of all facets of conv(coords), or
    None: the certificate `_certify_facets` once was, kept as the oracle of
    its planes and its float filter.

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
    """
    r = len(coords[0])
    normals, tights = [], []
    through = [0] * len(coords)  # bitmask of the certified facets at each point
    degenerate = []
    ridges = {}
    for s in simplices:
        if len(s) != r or len(set(s)) != r:
            return None
        for ridge, sign in exactgeom._ridges(s):
            count, total = ridges.get(ridge, (0, 0))
            ridges[ridge] = (count + 1, total + sign)
        base = coords[s[0]]
        rows = [[a - b for a, b in zip(coords[k], base)] for k in s[1:]]
        mask = sum(1 << k for k in s)
        home = next((f for f in exactgeom._bits(through[s[0]]) if tights[f] & mask == mask), None)
        if home is not None:
            if exactgeom._det(rows + [normals[home]]) < 0:
                return None
            continue
        normal = _cofactor_normal(rows)
        if not any(normal):
            degenerate.append(mask)
            continue
        offset = exactgeom.dot(normal, base)
        tight = 0
        for k, q in enumerate(coords):
            value = exactgeom.dot(normal, q)
            if value > offset:
                return None
            if value == offset:
                tight |= 1 << k
        for k in exactgeom._bits(tight):
            through[k] |= 1 << len(tights)
        normals.append(normal)
        tights.append(tight)
    if not tights or any(count != 2 or total for count, total in ridges.values()):
        return None
    if any(all(m & t != m for t in tights) for m in degenerate):
        return None
    return tights


def _with_planes(coords, simplices):
    """(s, a, b) for each simplex s of a proposal that brings no planes
    (Qhull's, or a tampered one): a is its cofactor normal and b = a . q1.
    A degenerate simplex, whose cofactor normal is zero, borrows the plane
    of the first non-degenerate simplex through all of its vertices, and
    keeps its zero plane when there is none."""
    out = []
    for s in simplices:
        base = coords[s[0]]
        a = _cofactor_normal([[x - y for x, y in zip(coords[k], base)] for k in s[1:]])
        out.append((s, a, exactgeom.dot(a, base)))
    return [(s, a, b) if any(a) else
            next(((s, a2, b2) for _, a2, b2 in out
                  if any(a2) and all(exactgeom.dot(a2, coords[k]) == b2 for k in s)), (s, a, b))
            for s, a, b in out]


def _assert_certificate_matches_the_oracle(coords, proposal):
    """`_certify_facets` on the proposal (s, a, b) gives the all-points
    oracle's verdict and tight sets, in the same order; returns them."""
    tights = exactgeom._certify_facets(coords, proposal)
    assert tights == _all_points_certificate(coords, [s for s, _, _ in proposal])
    return tights


def _assert_placing_matches_qhull(points, qhull_may_fail=False):
    """The exact proposal certifies, and its facets are the ones Qhull's
    proposal certifies, on `points` as given and on their hull's vertices;
    on both proposals the certificate agrees with the all-points oracle.

    On degenerate point sets Qhull's float triangulation can fail the
    certificate; with `qhull_may_fail` the exact proposal must still
    certify there, but its facets are compared with nothing.
    """
    kept = list(dict.fromkeys(tuple(Fraction(x) for x in p) for p in points))
    vertices = list(Polytope(kept, on_nonvertex="strip").vertices)
    for pts in (kept, vertices):
        coords = exactgeom._affine_coordinates(exactgeom._integer_points(pts))
        if len(coords[0]) < 2:
            continue
        placed = _assert_certificate_matches_the_oracle(
            coords, exactgeom._propose_simplices(coords))
        assert placed is not None
        qhull = _assert_certificate_matches_the_oracle(
            coords, _with_planes(coords, _qhull_simplices(coords)))
        if qhull is not None or not qhull_may_fail:
            assert sorted(placed) == sorted(qhull)


@pytest.mark.parametrize("name", zoo.fixture_names(include_slow=True))
def test_placing_matches_qhull_on_fixtures(name):
    _assert_placing_matches_qhull(zoo.fixture(name).polytope.vertices)


@settings(max_examples=60, deadline=None)
@given(_point_sets())
def test_placing_matches_qhull_on_point_sets(points):
    _assert_placing_matches_qhull(points, qhull_may_fail=True)


@st.composite
def _flat_first_point_sets(draw):
    """Point sets in d = 2..5 whose lexicographically first points, 3 to 6 of
    them with first coordinate -4, lie on a line or a plane, so the search
    for the start simplex skips some of them."""
    d = draw(st.integers(2, 5))
    base = (-4,) + draw(st.tuples(*[_COORD] * (d - 1)))
    direction = st.tuples(st.just(0), *[st.integers(-2, 2)] * (d - 1))
    span = draw(st.lists(direction, min_size=1, max_size=min(2, d - 1)))
    steps = st.tuples(*[st.integers(-2, 2)] * len(span))
    flat = [tuple(x + sum(t * u[i] for t, u in zip(ts, span)) for i, x in enumerate(base))
            for ts in draw(st.lists(steps, min_size=3, max_size=6))]
    rest = draw(st.lists(st.tuples(*[_COORD] * d), min_size=d, max_size=d + 4))
    return flat + rest


@settings(max_examples=60, deadline=None)
@given(_flat_first_point_sets())
# a set on which Qhull's triangulation fails the certificate (scipy 1.17.1)
@example([(-4, -1, -1, -1, Fraction(-13, 3)), (-4, 0, 0, 0, Fraction(-7, 3)),
          (-4, 0, -2, 0, Fraction(-7, 3)), (-4, 1, 0, 1, Fraction(-1, 3)), (0, 0, 0, 0, 0),
          (0, -1, 0, 0, 2), (0, -1, 0, Fraction(-5, 2), 0), (-1, 0, 0, 2, 0), (0, 0, 0, 1, 0),
          (0, Fraction(-5, 2), 0, 0, 0)])
def test_placing_matches_qhull_with_flat_first_points(points):
    _assert_placing_matches_qhull(points, qhull_may_fail=True)
    _assert_facet_incidence_matches_lp_oracle(points)


@pytest.mark.parametrize("d, n", [(3, 300), (4, 30), (5, 14)])
def test_placing_matches_qhull_on_sphere_polytopes(d, n):
    for seed in range(3):
        _assert_placing_matches_qhull(sample_sphere(d, n, np.random.default_rng(seed)).tolist())


def _cofactor_start(coords, order):
    """`_start_simplex` as the placing once found its start, kept as its
    oracle: a candidate joins when `_row_reduce` of the accepted differences
    with its own, from scratch, finds one more pivot, and each facet takes
    its cofactor normal, turned outward against the centroid by swapping its
    first two points."""
    r = len(coords[0])
    start, rows, skipped = [next(order)], [], []
    while len(start) <= r:
        k = next(order)
        row = [x - y for x, y in zip(coords[k], coords[start[0]])]
        if len(exactgeom._row_reduce(rows + [row], r)) == len(start):
            start.append(k)
            rows.append(row)
        else:
            skipped.append(k)
    total = [sum(axis) for axis in zip(*(coords[k] for k in start))]  # (r + 1) x centroid
    facets = []
    for j in range(r + 1):
        s = tuple(start[:j] + start[j + 1:])
        base = coords[s[0]]
        a = _cofactor_normal([[x - y for x, y in zip(coords[k], base)] for k in s[1:]])
        b = exactgeom.dot(a, base)
        if exactgeom.dot(a, total) > (r + 1) * b:
            s, a, b = (s[1], s[0]) + s[2:], [-x for x in a], -b
        facets.append((s, a, b))
    return start, skipped, facets


def _assert_start_matches_the_cofactor_route(points):
    """The placing of `points` (as given, repeats dropped) proposes the same
    oriented simplices, planes and order with `_start_simplex` as with its
    cofactor oracle."""
    kept = list(dict.fromkeys(tuple(Fraction(x) for x in p) for p in points))
    coords = exactgeom._affine_coordinates(exactgeom._integer_points(kept))
    if len(coords[0]) < 2:
        return
    proposal = exactgeom._propose_simplices(coords)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactgeom, "_start_simplex", _cofactor_start)
        assert proposal == exactgeom._propose_simplices(coords)


@pytest.mark.parametrize("name", zoo.fixture_names(include_slow=True))
def test_start_simplex_matches_the_cofactor_route_on_fixtures(name):
    _assert_start_matches_the_cofactor_route(zoo.fixture(name).polytope.vertices)


@_FLAT_SIMPLICES
def test_start_simplex_matches_the_cofactor_route_on_flat_simplices(points, c):
    _assert_start_matches_the_cofactor_route(points)


@settings(max_examples=60, deadline=None)
@given(_flat_first_point_sets())
def test_start_simplex_matches_the_cofactor_route_with_flat_first_points(points):
    _assert_start_matches_the_cofactor_route(points)


@settings(max_examples=60, deadline=None)
@given(_point_sets())
def test_start_simplex_matches_the_cofactor_route_on_point_sets(points):
    _assert_start_matches_the_cofactor_route(points)


@pytest.mark.parametrize("d, n", [(3, 1000), (4, 200), (5, 100)])
def test_start_simplex_matches_the_cofactor_route_on_sphere_polytopes(d, n):
    _assert_start_matches_the_cofactor_route(sample_sphere(d, n, _rng(11, 0)).tolist())


def test_adjugate_matches_the_cofactors():
    """`_adjugate` gives det and the transposed cofactor matrix exactly, on
    matrices whose elimination must swap rows."""
    for rows in ([[0, 1], [1, 0]], [[2, 0, 1], [0, 0, 3], [1, 5, 0]],
                 [[0, 0, 1, 2], [0, 3, 0, 1], [4, 0, 0, 0], [1, 1, 1, 10 ** 30]]):
        n = len(rows)
        adj = [[(-1) ** (i + j) * exactgeom._det([row[:i] + row[i + 1:]
                                                  for k, row in enumerate(rows) if k != j])
                for j in range(n)] for i in range(n)]
        assert exactgeom._adjugate(rows) == (exactgeom._det(rows), adj)


# square base a, b, c, d, apex e, base centre m and interior point o
_PYRAMID = [(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0), (1, 1, 2), (1, 1, 0), (1, 1, 1)]
# the four triangles abc, abd, acd, bcd cover the base twice; oriented as the
# boundary of the flat tetrahedron abcd, every ridge cancels
_SQUARE_TWICE = [(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)]
# the outward boundary of the tetrahedron abce, whose face ace cuts the pyramid
_INNER_TETRAHEDRON = [(1, 2, 4), (2, 0, 4), (0, 1, 4), (1, 0, 2)]
# a zero-area triangle m-o-e through the interior, twice with opposite signs
_INTERIOR_SLIVER = [(5, 6, 4), (6, 5, 4)]


def _flip(s):
    return (s[1], s[0]) + s[2:]


@pytest.mark.parametrize("tamper", [
    lambda honest: honest[1:],
    lambda honest: [_flip(honest[0])] + honest[1:],
    lambda honest: _SQUARE_TWICE,
    lambda honest: _INNER_TETRAHEDRON,
    lambda honest: honest + _INTERIOR_SLIVER,
    lambda honest: honest + honest,
], ids=["dropped", "reoriented", "square-twice", "inner-tetrahedron", "interior-sliver",
        "boundary-twice"])
def test_tampered_proposal_is_rejected_and_falls_back(tamper, monkeypatch):
    """A tampered proposal fails the certificate, and a build handed it
    raises RuntimeError: a failed check is a bug, not a property of the
    pyramid.  The LP oracle still reads the pyramid's vertices and edges."""
    honest = [s for s, _, _ in exactgeom._propose_simplices(_PYRAMID)]
    tampered = _with_planes(_PYRAMID, tamper(honest))
    assert exactgeom._certify_facets(_PYRAMID, _with_planes(_PYRAMID, honest)) is not None
    assert exactgeom._certify_facets(_PYRAMID, tampered) is None
    assert _all_points_certificate(_PYRAMID, tamper(honest)) is None
    P = Polytope(_PYRAMID, on_nonvertex="strip")
    monkeypatch.setattr(exactgeom, "_propose_simplices", lambda coords: tampered)
    with pytest.raises(RuntimeError, match="facet certificate"):
        Polytope(_PYRAMID, on_nonvertex="strip")
    assert [p for i, p in enumerate(_PYRAMID) if _is_vertex_lp(_PYRAMID, i)] == list(P.vertices)
    assert len(P.vertices) == 5
    assert [(i, j) for i, j in combinations(range(5), 2) if _is_edge_pair(P, i, j)] == P.edges()


def test_square_covered_twice_fails_only_the_orientation_check():
    total = {}
    for s in _SQUARE_TWICE:
        for ridge, sign in exactgeom._ridges(s):
            total[ridge] = total.get(ridge, ()) + (sign,)
    assert all(len(signs) == 2 and sum(signs) == 0 for signs in total.values())
    for simplices in (_SQUARE_TWICE, [_flip(s) for s in _SQUARE_TWICE]):
        assert exactgeom._certify_facets(_PYRAMID, _with_planes(_PYRAMID, simplices)) is None
        assert _all_points_certificate(_PYRAMID, simplices) is None


def _cube_proposal():
    """The integer unit cube's points and placing proposal (s, a, b), which
    certifies and splits each square in two."""
    coords = exactgeom._integer_points(zoo.cube(3).vertices)
    honest = exactgeom._propose_simplices(coords)
    planes = [(tuple(a), b) for _, a, b in honest]
    assert len(planes) == 12 and all(planes.count(p) == 2 for p in planes)
    assert exactgeom._certify_facets(coords, honest) is not None
    return coords, honest


@pytest.mark.parametrize("misplace", [
    # the plane of a neighbouring facet, at right angles to its own: the
    # simplex is degenerate against it, and its own facet is still
    # certified by the square's other half
    lambda honest, a, b: next((a2, b2) for _, a2, b2 in honest
                              if not any(x and y for x, y in zip(a, a2))),
    # its own plane moved one unit outward, which no point touches
    lambda honest, a, b: (a, b + 1),
], ids=["neighbour-plane", "shifted-plane"])
def test_a_simplex_off_its_plane_is_rejected(misplace):
    coords, honest = _cube_proposal()
    s, a, b = honest[0]
    tampered = [(s, *misplace(honest, a, b))] + honest[1:]
    assert any(exactgeom.dot(tampered[0][1], coords[k]) != tampered[0][2] for k in s)
    assert exactgeom._certify_facets(coords, tampered) is None


def test_a_surface_facing_inward_is_rejected():
    """Every simplex flipped, each keeping its outward plane, still pairs
    its ridges with opposite signs and has every point below its plane;
    only the orientation against the plane refuses it.  So does the base
    covered twice with opposite orientations, every triangle given the
    base's outward plane z >= 0."""
    coords, honest = _cube_proposal()
    flipped = [(_flip(s), a, b) for s, a, b in honest]
    assert exactgeom._certify_facets(coords, flipped) is None
    assert _all_points_certificate(coords, [s for s, _, _ in flipped]) is None
    base = [(s, (0, 0, -1), 0) for s in _SQUARE_TWICE]
    assert exactgeom._certify_facets(_PYRAMID, base) is None


_N = 2 ** 60
# a tetrahedron whose top facet x + y + z = 3N - 1786 holds three vertices
# 2^40 apart around (N, N, N - 1786), and the apex below it
_TOP = 3 * _N - 1786
_TETRAHEDRON = [(_N + 2 ** 40, _N - 2 ** 40, _N - 1786), (_N, _N + 2 ** 40, _N - 2 ** 40 - 1786),
                (_N - 2 ** 40, _N, _N + 2 ** 40 - 1786), (_N - 2 ** 40, _N - 2 ** 40, _N - 2 ** 40)]


@pytest.mark.parametrize("rise", [0, 1], ids=["on-the-facet", "one-unit-above"])
def test_signs_within_the_float_bound_are_decided_exactly(rise):
    """A point near the top facet's centre, on it or one unit above it: as
    doubles, its coordinates round by 2^8 and 2^7 steps, and its float
    value is -512 either way, in every order of summation, inside the
    float bound (about 9200).  Only the exact recheck decides it: tight, or
    outside the hull."""
    q = (_N + 340, _N + 1912, _N - 4038 + rise)
    assert sum(q) - _TOP == rise
    point = np.array([*q, 1.0]) @ np.array([1.0, 1.0, 1.0, -float(_TOP)])
    assert point == -512
    coords = _TETRAHEDRON + [q]
    proposal = exactgeom._propose_simplices(_TETRAHEDRON)
    assert ((1, 1, 1), _TOP) in [(tuple(a), b) for _, a, b in proposal]
    tights = _assert_certificate_matches_the_oracle(coords, proposal)
    if rise:
        assert tights is None
    else:
        assert 0b10111 in tights


# every recorded fixture and the four `coherent-spectra` benchmark inputs
_BUILDS = pytest.mark.parametrize("build", [
    *[pytest.param(partial(lambda name: zoo.fixture(name).polytope, name), id=name)
      for name in zoo.fixture_names(include_slow=True)],
    pytest.param(lambda: zoo.cross_polytope(5), id="cross5"),
    pytest.param(lambda: zoo.second_hypersimplex(5), id="hypersimplex2-5"),
    pytest.param(lambda: zoo.cyclic(4, range(1, 9)), id="cyclic4-8"),
    pytest.param(lambda: zoo.product_of_simplices((3, 4)), id="prod3x4"),
])
# p10-sphere's integer coordinates reach 2^55, past `_minors`' exactness bound
_EXACT_ONLY = {"p10-sphere"}


def _first_columns(proposal):
    return [next(j for j, x in enumerate(a) if x) for _, a, _ in proposal]


def _checked_minors(coords, simplices, columns):
    """How many of the simplices' `_minors` took the exact route, each minor
    checked against `_cofactor`, its oracle."""
    real = exactgeom._cofactor
    exact = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactgeom, "_cofactor", lambda rows, j: exact.append(j) or real(rows, j))
        minors = exactgeom._minors(coords, exactgeom._floats([q + (1,) for q in coords]),
                                   simplices, columns)
    assert minors == [real([[x - y for x, y in zip(coords[k], coords[s[0]])] for k in s[1:]], j)
                      for s, j in zip(simplices, columns)]
    return len(exact)


@_BUILDS
def test_float_minors_match_the_cofactors(build):
    coords = exactgeom._affine_coordinates(exactgeom._integer_points(build().vertices))
    proposal = exactgeom._propose_simplices(coords)
    _checked_minors(coords, [s for s, _, _ in proposal], _first_columns(proposal))


@_BUILDS
def test_building_computes_no_proposed_minor_exactly(build, request, monkeypatch):
    """A change that sent every minor to the exact route would pass every
    verdict; here `_det` may run inside `_certify_facets` only for the
    simplices of a polytope whose coordinates pass the exactness bound."""
    real_certify, real_det = exactgeom._certify_facets, exactgeom._det
    proposed, dets, certifying = [], [], []

    def certify(coords, planes):
        proposed.append(len(planes))
        certifying.append(True)
        try:
            return real_certify(coords, planes)
        finally:
            certifying.pop()
    monkeypatch.setattr(exactgeom, "_certify_facets", certify)
    monkeypatch.setattr(exactgeom, "_det", lambda rows: (dets.append(1) if certifying else None)
                        or real_det(rows))
    build()
    assert proposed
    assert len(dets) == (sum(proposed) if request.node.callspec.id in _EXACT_ONLY else 0)


@st.composite
def _integer_point_sets(draw):
    """Integer points in d = 2..5, each set's coordinates below a bound on
    either side of 2^26 (whose 2 x 2 permanents pass 2^52), 2^52 or 2^53."""
    d = draw(st.integers(2, 5))
    bound = draw(st.sampled_from([4, 2 ** 20, 2 ** 26, 2 ** 27, 2 ** 52, 2 ** 53 + 2]))
    coord = st.integers(-bound + 1, bound - 1)
    return draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=d + 6, unique=True))


@settings(max_examples=60, deadline=None)
@given(_integer_point_sets())
def test_float_minors_match_the_cofactors_on_integer_point_sets(points):
    coords = exactgeom._affine_coordinates(points)
    if len(coords[0]) < 2:
        return
    proposal = exactgeom._propose_simplices(coords)
    _checked_minors(coords, [s for s, _, _ in proposal], _first_columns(proposal))
    assert _assert_certificate_matches_the_oracle(coords, proposal) is not None


def _square(rows):
    """A triangle in R^3 at the origin whose edge rows are `rows`, 2 x 2
    entries with a zero third column: its minor at column 2 is det(rows)."""
    return [(0, 0, 0)] + [(*row, 0) for row in rows]


@pytest.mark.parametrize("coords, exact", [
    # permanent 2^52 - 2^26 + 1, just below the bound: the float route
    (_square([(2 ** 26 - 1, 2 ** 13), (2 ** 13, 2 ** 26 - 1)]), 0),
    # permanent 2^52 + 1, just above it: exact, though doubles would hold it
    (_square([(2 ** 26, 1), (1, 2 ** 26)]), 1),
    # permanent about 2^55, and det -1, which doubles round to 0
    (_square([(2 ** 27 + 1, 2 ** 27), (2 ** 27, 2 ** 27 - 1)]), 1),
    # a coordinate at 2^52, with a small minor
    ([(2 ** 52, 0, 0), (2 ** 52 + 1, 0, 0), (2 ** 52, 1, 0)], 1),
    # coordinates past 2^53, whose edge rows doubles round to (0, 0) and (0, 1)
    ([(2 ** 53, 0, 0), (2 ** 53 + 1, 0, 0), (2 ** 53, 1, 0)], 1),
], ids=["permanent-below-2^52", "permanent-above-2^52", "permanent-past-2^53",
        "coordinate-at-2^52", "coordinates-past-2^53"])
def test_minors_are_trusted_only_below_the_exactness_bound(coords, exact):
    assert _checked_minors(coords, [(0, 1, 2)], [2]) == exact


@pytest.mark.parametrize("scale", [3 ** 40, 10 ** 400], ids=["3^40", "10^400"])
def test_coordinates_past_the_exactness_bound_certify_through_exact_minors(scale, monkeypatch):
    """lopsided4 scaled past 2^52 (inexact as doubles, or infinite) certifies
    its facets with every minor exact, and the all-points oracle's tight
    sets, in order."""
    vertices = [tuple(x * scale for x in v) for v in zoo.fixture("lopsided4").polytope.vertices]
    coords = exactgeom._affine_coordinates(exactgeom._integer_points(vertices))
    proposal = exactgeom._propose_simplices(coords)
    real = exactgeom._cofactor
    exact = []
    with monkeypatch.context() as patch:
        patch.setattr(exactgeom, "_cofactor", lambda rows, j: exact.append(j) or real(rows, j))
        tights = exactgeom._certify_facets(coords, proposal)
    assert len(exact) == len(proposal)
    assert tights is not None
    assert tights == _all_points_certificate(coords, [s for s, _, _ in proposal])


def test_backend_agreement_on_integer_fixtures():
    """Rounding to doubles is exact on integer coordinates and on p10-sphere's,
    so the rounded polytope keeps the edge graph, and the per-pair LP test
    agrees with it."""
    for exact in (zoo.cube(3), zoo.cross_polytope(3), zoo.p10(), zoo.p10_spherical()):
        rounded = Polytope([tuple(map(float, v)) for v in exact.vertices])
        n = len(rounded.vertices)
        assert rounded.edges() == exact.edges()
        assert rounded.edges() == [(i, j) for i, j in combinations(range(n), 2)
                                       if _is_edge_pair(rounded, i, j)]


def test_orient_rejects_level_edges_on_cube():
    P = zoo.cube(3)
    orient(P, (1, 1, 1))  # every edge flips exactly one coordinate
    with pytest.raises(GenericityError):
        orient(P, (1, 1, 0))  # edges along the third axis are level
    with pytest.raises(InputError):
        orient(P, (0, 0, 0))


def _fraction_orient(P, c, drop_level_ties=False):
    """`orient` as it once read its levels, c . v on the `Fraction`
    vertices: the oracle of its integer levels."""
    cv = tuple(Fraction(x) for x in c)
    vals = [exactgeom.dot(v, cv) for v in P.vertices]
    succ = [[] for _ in P.vertices]
    for i, j in P.edges():
        if vals[i] == vals[j]:
            if drop_level_ties:
                continue
            raise GenericityError(
                f"direction {exactgeom._plain(c)} is level on edge {(i, j)}", edge=(i, j))
        lo, hi = (i, j) if vals[i] < vals[j] else (j, i)
        succ[lo].append(hi)
    order = sorted(range(len(vals)), key=lambda k: (vals[k], k))
    rank = {v: r for r, v in enumerate(order)}
    arcs = tuple(tuple(sorted(s, key=rank.__getitem__)) for s in succ)
    return exactgeom.DirectedGraph(order=tuple(order), arcs=arcs, c=cv,
                                   source=order[0], sink=order[-1])


def _assert_orient_matches_fraction_levels(P, c):
    """`orient` on P's integer vertices gives the `Fraction` levels' graph,
    or the same GenericityError text and edge, with level edges kept or
    dropped; P's integer vertices are its vertices times one positive
    number."""
    ratios = {Fraction(i) / x for v, w in zip(P.vertices, P._ints) for x, i in zip(v, w) if x}
    assert len(ratios) <= 1 and all(x > 0 for x in ratios)
    assert all((i == 0) == (x == 0) for v, w in zip(P.vertices, P._ints) for x, i in zip(v, w))
    for drop in (False, True):
        try:
            want = _fraction_orient(P, c, drop)
        except GenericityError as exc:
            with pytest.raises(GenericityError) as err:
                orient(P, c, drop_level_ties=drop)
            assert (str(err.value), err.value.edge) == (str(exc), exc.edge)
        else:
            assert orient(P, c, drop_level_ties=drop) == want


@pytest.mark.parametrize("name", zoo.fixture_names(include_slow=True))
def test_integer_levels_match_fraction_levels_on_fixtures(name):
    F = zoo.fixture(name)
    d = F.polytope.dim
    for c in (F.direction, (1,) * d, (1,) + (0,) * (d - 1), tuple(Fraction(k, 3) for k in range(1, d + 1))):
        _assert_orient_matches_fraction_levels(F.polytope, c)


@settings(max_examples=60, deadline=None)
@given(_point_sets(), st.data())
def test_integer_levels_match_fraction_levels_on_point_sets(points, data):
    """Directions with small entries tie many levels, across edges and not."""
    P = Polytope(points, on_nonvertex="strip")
    entry = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=4))
    c = data.draw(st.tuples(*[entry] * P.dim).filter(any))
    _assert_orient_matches_fraction_levels(P, c)


def test_orient_rejects_level_edges_on_simplex():
    P = zoo.simplex(4)
    orient(P, (1, 2, 3, 4))
    with pytest.raises(GenericityError):
        orient(P, (1, 1, 2, 3))


def test_orient_square():
    P = Polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    G = orient(P, (1, 2))
    assert P.vertices[G.source] == (0, 0)
    assert P.vertices[G.sink] == (1, 1)
    assert sum(len(a) for a in G.arcs) == 4


def test_orient_rejects_level_edge():
    P = zoo.cube(3)
    with pytest.raises(GenericityError) as err:
        orient(P, (1, 1, 0))
    assert err.value.edge is not None


def test_orient_support_equals_edge_graph_and_is_acyclic():
    for P, c in ((zoo.p10(), (1, 0, 0)), (zoo.lopsided_cube(3), (1, 1, 1)),
                 (zoo.cross_polytope(4), (1, 2, 3, 4))):
        G = orient(P, c)
        support = {tuple(sorted((u, v))) for u in range(G.n) for v in G.arcs[u]}
        assert support == set(P.edges())
        rank = {v: i for i, v in enumerate(G.order)}
        for u in range(G.n):
            for v in G.arcs[u]:
                assert rank[u] < rank[v]


def test_orient_lopsided_3_reverses_one_top_arc():
    cube = zoo.cube(3)
    lop = zoo.lopsided_cube(3)
    # match vertices by their subset pattern: cube vertex (x1,x2,x3) <-> lop index
    def arcs_by_pattern(P, G, patterns):
        out = set()
        for u in range(G.n):
            for v in G.arcs[u]:
                out.add((patterns[u], patterns[v]))
        return out

    cube_patterns = {i: v for i, v in enumerate(cube.vertices)}
    lop_patterns = {0: (0, 0, 0), 1: (1, 0, 0), 2: (0, 1, 0), 3: (0, 0, 1),
                    4: (1, 1, 0), 5: (1, 0, 1), 6: (0, 1, 1), 7: (1, 1, 1)}
    cube_arcs = arcs_by_pattern(cube, orient(cube, (1, 1, 1)), cube_patterns)
    lop_arcs = arcs_by_pattern(lop, orient(lop, (1, 1, 1)), lop_patterns)
    assert cube_arcs - lop_arcs == {((1, 1, 0), (1, 1, 1))}
    assert lop_arcs - cube_arcs == {((1, 1, 1), (1, 1, 0))}


def test_orient_p10_endpoints():
    P = zoo.p10()
    G = orient(P, (1, 0, 0))
    assert P.vertices[G.source] == (0, 0, 0)
    assert P.vertices[G.sink] == (9, 0, 0)


def test_project2d_requires_independent_directions():
    P = zoo.cube(3)
    with pytest.raises(InputError):
        project2d(P, (1, 1, 1), (2, 2, 2))


def test_project2d_identity_on_square():
    P = Polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
    pts = project2d(P, (1, 0), (0, 1))
    assert pts == [tuple(v) for v in P.vertices]


def test_project2d_cross_polytope_hull_is_at_most_hexagonal():
    P = zoo.cross_polytope(3)
    pts = project2d(P, (1, 2, 3), (1, 0, 0))
    up = upper_path(pts)
    low = upper_path([(x, -y) for x, y in pts])  # the lower chain
    hull = set(up) | set(low)
    assert len(hull) <= 6
    assert up[0] == low[0] and up[-1] == low[-1]


def test_upper_path_cases():
    assert upper_path([(0, 0), (1, 1), (2, 0)]) == [0, 1, 2]
    assert upper_path([(0, 0), (1, -1), (2, 0)]) == [0, 2]
    # floats at their exact value: a rise of 1e-12 is a strict turn, not a tie
    assert upper_path([(0.0, 0.0), (1.0, 1e-12), (2.0, 0.0)]) == [0, 1, 2]
    with pytest.raises(InputError):
        upper_path([(0, 0)])


def test_upper_path_rejects_first_coordinate_ties():
    with pytest.raises(DegeneracyError):
        upper_path([(0, 0), (0, 1), (1, 0), (1, 1)])
    with pytest.raises(DegeneracyError):
        upper_path([(0, 0), (1, 2), (1, 2), (2, 0)])  # coincident hull points


def test_upper_and_lower_chains_cover_hull():
    pts = [(0, 0), (1, 3), (2, -1), (4, 1), (3, 2), (Fraction(3, 2), Fraction(1, 2))]
    up = upper_path(pts)
    low = upper_path([(x, -y) for x, y in pts])  # the lower chain
    assert up[0] == low[0] and up[-1] == low[-1]
    assert set(up) & set(low) == {up[0], up[-1]}
    assert 5 not in set(up) | set(low)  # interior point is on no chain


def test_collinear_points_are_not_chain_vertices():
    pts = [(0, 0), (1, 1), (2, 2), (3, 0)]
    assert upper_path(pts) == [0, 2, 3]


def test_exact_simplex_alone_decides_vertices_and_edges(highs_fails):
    P = zoo.lopsided_cube(3)
    n = len(P.vertices)
    assert all(_is_vertex_lp(P.vertices, i) for i in range(n))
    lp_edges = [(i, j) for i, j in combinations(range(n), 2) if _is_edge_pair(P, i, j)]
    assert highs_fails
    assert lp_edges == P.edges()


# fixtures whose vertex and edge questions the LP route answers below
_ROUTE_FIXTURES = ("cube3", "cross4", "p10", "p10-sphere", "lopsided4", "hyp2-5", "complex-x4")


def _route_questions(points):
    """(question, the facet incidence's answer, whether it has LP rows) for
    each point of `points` being a vertex and each pair of the vertices
    spanning an edge.  A lone point, and the one pair of a two-vertex
    polytope, have no rows: the answer is yes without an LP."""
    P = Polytope(points, on_nonvertex="strip")
    kept = list(dict.fromkeys(tuple(Fraction(x) for x in p) for p in points))
    edges = set(P.edges())
    n = len(P.vertices)
    return ([(partial(_is_vertex_lp, kept, i), p in P.vertices, len(kept) > 1)
             for i, p in enumerate(kept)]
            + [(partial(_is_edge_pair, P, i, j), (i, j) in edges, n > 2)
               for i, j in combinations(range(n), 2)])


def _asked(questions, mp):
    """(verdict, expected, has rows, HiGHS calls, exact-simplex calls) of
    each question."""
    lp_maximize = exactgeom.lp_maximize
    exact_calls = [0]

    def exact(*args, **kwargs):
        exact_calls[0] += 1
        return lp_maximize(*args, **kwargs)
    highs_calls = record_highs(mp)
    mp.setattr(exactgeom, "lp_maximize", exact)
    answers = []
    for ask, expected, has_rows in questions:
        before = len(highs_calls), exact_calls[0]
        verdict = ask()
        answers.append((verdict, expected, has_rows,
                        len(highs_calls) - before[0], exact_calls[0] - before[1]))
    return answers


@pytest.mark.parametrize("name", _ROUTE_FIXTURES)
def test_lp_route_asks_one_highs_lp_per_question(name, monkeypatch):
    questions = _route_questions(zoo.fixture(name).polytope.vertices)
    for verdict, expected, has_rows, highs, simplex in _asked(questions, monkeypatch):
        assert (verdict, has_rows, highs, simplex) == (expected, True, 1, 0)


@settings(max_examples=40, deadline=None)
@given(_point_sets())
def test_lp_route_asks_one_highs_lp_per_question_on_point_sets(points):
    questions = _route_questions(points)
    with pytest.MonkeyPatch.context() as mp:
        answers = _asked(questions, mp)
    for verdict, expected, has_rows, highs, _ in answers:
        assert (verdict, highs) == (expected, int(has_rows))


def _assert_decided_without_duals(questions, mp):
    """Without row duals no Gordan witness is read: each "yes" with rows
    still comes from HiGHS's strict y, and each "no" from one exact-simplex
    call; a question without rows asks no LP."""
    for verdict, expected, has_rows, highs, simplex in _asked(questions, mp):
        assert (verdict, highs, simplex) == (
            expected, int(has_rows), 0 if expected else 1)


@pytest.mark.parametrize("name", _ROUTE_FIXTURES)
def test_lp_route_without_duals_decides_through_the_exact_simplex(name, request, monkeypatch):
    questions = _route_questions(zoo.fixture(name).polytope.vertices)
    request.getfixturevalue("highs_without_duals")
    _assert_decided_without_duals(questions, monkeypatch)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_point_sets())
def test_lp_route_without_duals_on_point_sets(highs_without_duals, points):
    questions = _route_questions(points)
    with pytest.MonkeyPatch.context() as mp:
        _assert_decided_without_duals(questions, mp)
