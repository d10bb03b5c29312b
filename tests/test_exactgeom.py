import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathspectra import (FLOAT, RATIONAL, DegeneracyError, GenericityError,
                         InputError, Polytope, edge_graph, is_edge, is_generic,
                         lower_path, orient, project2d, supporting_margin,
                         upper_path)
from pathspectra import exactgeom, zoo

# edge graphs of the rational fixtures, recorded with the per-pair LP test
RECORDED_EDGES = json.loads(
    (Path(__file__).parent / "data" / "fixture_edges.json").read_text())


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


def test_json_round_trip_exact():
    P = zoo.lopsided_cube(3)
    Q = Polytope.from_json(P.to_json())
    assert Q.vertices == P.vertices
    assert Q.label == P.label
    assert Q.dim == 3


def test_json_rejects_garbage():
    with pytest.raises(InputError):
        Polytope.from_json("{not json")
    with pytest.raises(InputError):
        Polytope.from_json('{"dim": 3, "vertices": [[1, 2]]}')


def test_cross_polytope_antipodal_pair_is_not_an_edge():
    P = zoo.cross_polytope(3)
    plus_e1 = P.vertices.index((1, 0, 0))
    minus_e1 = P.vertices.index((-1, 0, 0))
    assert not is_edge(P, plus_e1, minus_e1)
    assert len(edge_graph(P)) == 12


def test_cube_edges_are_hamming_one():
    P = zoo.cube(3)
    for i, j in combinations(range(8), 2):
        hamming = sum(a != b for a, b in zip(P.vertices[i], P.vertices[j]))
        assert is_edge(P, i, j) == (hamming == 1)
    assert len(edge_graph(P)) == 12


def test_simplex_graph_is_complete():
    for d in (2, 3, 4, 5):
        P = zoo.simplex(d)
        assert len(edge_graph(P)) == (d + 1) * d // 2


def test_is_edge_errors():
    P = zoo.cube(2)
    with pytest.raises(InputError):
        is_edge(P, 1, 1)
    with pytest.raises(InputError):
        is_edge(P, 0, 9)


def test_edge_test_symmetry():
    P = zoo.p10()
    for i, j in combinations(range(len(P.vertices)), 2):
        assert is_edge(P, i, j) == is_edge(P, j, i)


@pytest.mark.parametrize("builder", [lambda: zoo.cube(3), lambda: zoo.cross_polytope(3),
                                     lambda: zoo.simplex(3), lambda: zoo.lopsided_cube(3)])
def test_edge_test_agrees_with_supporting_hyperplane_margin(builder):
    P = builder()
    for i, j in combinations(range(len(P.vertices)), 2):
        margin = supporting_margin(P, i, j)
        assert is_edge(P, i, j) == (margin > 0)


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
    kept = list(dict.fromkeys(tuple(Fraction(x) for x in p) for p in points))
    assert len(kept) == 1 or exactgeom._facet_incidence(kept) is not None
    P = Polytope(points, on_nonvertex="strip")
    lp_vertices = [p for i, p in enumerate(kept)
                   if len(kept) == 1 or exactgeom._is_vertex_lp(kept, i, RATIONAL)]
    assert list(P.vertices) == lp_vertices
    n = len(P.vertices)
    lp_edges = [(i, j) for i, j in combinations(range(n), 2) if P._is_edge_pair(i, j)]
    assert P.edges() == lp_edges
    assert Polytope(P.vertices, validate=False).edges() == lp_edges


@pytest.mark.parametrize("name", sorted(RECORDED_EDGES))
def test_fixture_edge_graph_certifies_without_lp(name, monkeypatch):
    def no_lp(*args):
        raise AssertionError("LP fallback used")
    monkeypatch.setattr(exactgeom, "_escapes_cone", no_lp)
    P = zoo.fixture(name).polytope
    assert [list(e) for e in P.edges()] == RECORDED_EDGES[name]


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
], ids=["dropped", "reoriented", "square-twice", "inner-tetrahedron", "interior-sliver"])
def test_tampered_proposal_is_rejected_and_falls_back(tamper, monkeypatch):
    honest = exactgeom._propose_simplices(_PYRAMID)
    assert exactgeom._certify_facets(_PYRAMID, honest) is not None
    assert exactgeom._certify_facets(_PYRAMID, tamper(honest)) is None
    expected = Polytope(_PYRAMID, on_nonvertex="strip").edges()
    # the stripped vertex list that edges() certifies gets an empty proposal
    monkeypatch.setattr(exactgeom, "_propose_simplices",
                        lambda coords: tamper(honest) if len(coords) == len(_PYRAMID) else [])
    P = Polytope(_PYRAMID, on_nonvertex="strip")
    assert P._facets is None
    assert len(P.vertices) == 5
    assert P.edges() == expected


def test_square_covered_twice_fails_only_the_orientation_check():
    total = {}
    for s in _SQUARE_TWICE:
        for ridge, sign in exactgeom._ridges(s):
            total[ridge] = total.get(ridge, ()) + (sign,)
    assert all(len(signs) == 2 and sum(signs) == 0 for signs in total.values())
    assert exactgeom._certify_facets(_PYRAMID, _SQUARE_TWICE) is None
    assert exactgeom._certify_facets(_PYRAMID, [_flip(s) for s in _SQUARE_TWICE]) is None


def test_backend_agreement_on_integer_fixtures():
    for builder in (zoo.cube, zoo.cross_polytope):
        exact = builder(3)
        approx = Polytope([tuple(map(float, v)) for v in exact.vertices],
                          backend=FLOAT, validate=False)
        assert edge_graph(exact) == edge_graph(approx)
    exact = zoo.p10()
    approx = Polytope([tuple(map(float, v)) for v in exact.vertices],
                      backend=FLOAT, validate=False)
    assert edge_graph(exact) == edge_graph(approx)


def test_is_generic_on_cube():
    P = zoo.cube(3)
    assert is_generic(P, (1, 1, 1))       # every edge flips exactly one coordinate
    assert not is_generic(P, (1, 1, 0))   # edges along the third axis are level
    with pytest.raises(InputError):
        is_generic(P, (0, 0, 0))


def test_is_generic_on_simplex():
    P = zoo.simplex(4)
    assert is_generic(P, (1, 2, 3, 4))
    assert not is_generic(P, (1, 1, 2, 3))


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
        assert support == set(edge_graph(P))
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
    low = lower_path(pts)
    hull = set(up) | set(low)
    assert len(hull) <= 6
    assert up[0] == low[0] and up[-1] == low[-1]


def test_upper_path_cases():
    assert upper_path([(0, 0), (1, 1), (2, 0)]) == [0, 1, 2]
    assert upper_path([(0, 0), (1, -1), (2, 0)]) == [0, 2]
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
    low = lower_path(pts)
    assert up[0] == low[0] and up[-1] == low[-1]
    assert set(up) & set(low) == {up[0], up[-1]}
    assert 5 not in set(up) | set(low)  # interior point is on no chain


def test_collinear_points_are_not_chain_vertices():
    pts = [(0, 0), (1, 1), (2, 2), (3, 0)]
    assert upper_path(pts) == [0, 2, 3]


def test_exact_simplex_alone_decides_vertices_and_edges(highs_fails):
    P = zoo.lopsided_cube(3)
    n = len(P.vertices)
    assert all(exactgeom._is_vertex_lp(P.vertices, i, RATIONAL) for i in range(n))
    lp_edges = [(i, j) for i, j in combinations(range(n), 2) if P._is_edge_pair(i, j)]
    assert highs_fails
    assert lp_edges == P.edges()
