import math
from fractions import Fraction

import pytest

from pathspectra import (GenericityError, InputError, count_paths_by_length,
                         coherent_spectrum, orient)
from pathspectra import zoo


def dp(P, c, **kw):
    return count_paths_by_length(orient(P, c, **kw))


def c_lex(n: int):
    """Lexicographic orientation vector (2^1, ..., 2^n) for 0/1 polytopes."""
    return tuple(2 ** i for i in range(1, n + 1))


def canonical_direction(P):
    """Default direction of a zoo polytope, recovered from its label."""
    kind = P.label.split("-")[0]
    d = P.dim
    if kind in ("cube", "shyp") or P.label.startswith(("lopsided", "modified", "truncated")):
        return (1,) * d
    if kind == "hyp2":
        return tuple(2 ** i for i in range(d))
    if kind == "cyclic" or P.label.startswith("p10"):
        return (1,) + (0,) * (d - 1)
    if kind in ("complex", "zeroone"):
        return c_lex(d)
    return tuple(range(1, d + 1))  # simplices, cross-polytopes, associahedra, products


def test_constructor_vertex_counts():
    assert len(zoo.simplex(4).vertices) == 5
    assert len(zoo.cube(4).vertices) == 16
    assert len(zoo.cross_polytope(5).vertices) == 10
    assert len(zoo.cyclic(4, range(1, 8)).vertices) == 7
    assert len(zoo.second_hypersimplex(5).vertices) == 10
    assert len(zoo.loday_associahedron(5).vertices) == 42  # Catalan number
    assert len(zoo.product_of_simplices((3, 2)).vertices) == 6
    assert len(zoo.s_hypersimplex(4, [2, 4]).vertices) == 8


def test_constructor_parameter_errors():
    with pytest.raises(InputError):
        zoo.cyclic(4, [1, 2, 2, 3, 4])
    with pytest.raises(InputError):
        zoo.cyclic(4, [1, 2, 3])
    with pytest.raises(InputError):
        zoo.s_hypersimplex(4, [1, 2])  # must contain d
    with pytest.raises(InputError):
        zoo.lopsided_cube(2)
    with pytest.raises(InputError):
        zoo.product_of_simplices((1, 3))


def test_lopsided_cube_coordinates():
    P = zoo.lopsided_cube(3)
    assert (4, 1, 0) in P.vertices
    assert (3, Fraction(1, 3), 1) in P.vertices


def test_complex_fixture_has_25_vertices():
    P = zoo.zero_one_from_complex(5, [(1, 4), (1, 2, 3, 5), (2, 3, 4, 5)])
    assert len(P.vertices) == 25


def test_loday_associahedron_5_total():
    P = zoo.loday_associahedron(5)
    assert dp(P, (1, 2, 3, 4, 5)).total == 98


def test_closed_form_simplex_and_cube():
    assert zoo.simplex_spectrum(4).counts == {1: 1, 2: 3, 3: 3, 4: 1}
    assert zoo.cube_spectrum(5).counts == {5: 120}


def test_cross_polytope_monotone_closed_form():
    assert zoo.crosspoly_monotone(4).counts == {2: 6, 3: 12, 4: 14, 5: 8, 6: 2}
    for d in range(2, 7):
        assert zoo.crosspoly_monotone(d).total == (2 ** (2 * d - 1) - 2) // 3


def test_cross_polytope_coherent_closed_form():
    assert zoo.crosspoly_coherent(3).counts == {2: 4, 3: 4}
    for d in range(2, 7):
        assert zoo.crosspoly_coherent(d).total == 3 ** (d - 1) - 1


def test_second_hypersimplex_recursion_seed_and_totals():
    assert zoo.second_hypersimplex_coherent(4).counts == {3: 4, 4: 4}
    assert zoo.second_hypersimplex_coherent(5).counts == {3: 4, 4: 16, 5: 12, 6: 1}
    for n in range(4, 9):
        assert zoo.second_hypersimplex_coherent(n).total == (25 * 4 ** (n - 4) - 1) // 3


def test_second_hypersimplex_brute_force_matches_recursion_shifted():
    # the recursion tracks path vertex counts, one above the edge count
    for n in (4, 5):
        P = zoo.second_hypersimplex(n)
        c = canonical_direction(P)
        brute = coherent_spectrum(P, orient(P, c))
        rec = zoo.second_hypersimplex_coherent(n)
        assert {l - 1: v for l, v in rec.counts.items()} == brute.counts


def test_s_hypersimplex_total():
    assert zoo.s_hypersimplex_total(4, [2, 4]).counts == {2: 6}
    assert zoo.s_hypersimplex_total(5, [1, 4, 5]).counts == {3: 20}
    assert zoo.s_hypersimplex_total(3, [1, 2, 3]).counts == {3: 6}
    with pytest.raises(InputError):
        zoo.s_hypersimplex_total(4, [1, 2])


def test_s_hypersimplex_needs_level_tie_handling_when_gapped():
    P = zoo.s_hypersimplex(3, [1, 3])
    with pytest.raises(GenericityError):
        orient(P, (1, 1, 1))
    spec = dp(P, (1, 1, 1), drop_level_ties=True)
    assert spec == zoo.s_hypersimplex_total(3, [1, 3])


def test_cyclic_coherent_formula_matches_brute_force():
    n = 6
    P = zoo.cyclic(4, range(1, n + 1))
    c = canonical_direction(P)
    assert coherent_spectrum(P, orient(P, c)) == zoo.cyclic_coherent(n, 4)
    with pytest.raises(InputError):
        zoo.cyclic_coherent(6, 3)


def test_product_simplices_formula_examples():
    assert zoo.product_simplices_spectrum(3, 2).counts == {2: 2, 3: 3}
    P = zoo.product_of_simplices((4, 3))
    assert dp(P, canonical_direction(P)) == zoo.product_simplices_spectrum(4, 3)


def test_truncate_vertex_must_cut_exactly_one():
    P = zoo.cube(3)
    with pytest.raises(InputError):
        zoo.truncate_vertex(P, (1, 1, 1), Fraction(7, 2), "cube-3-trunc")  # cuts nothing
    with pytest.raises(InputError):
        zoo.truncate_vertex(P, (1, 1, 1), Fraction(3, 2), "cube-3-trunc")  # cuts four vertices
    Q = zoo.truncate_vertex(P, (1, 1, 1), Fraction(5, 2), "cube-3-trunc")  # cuts only the top
    assert len(Q.vertices) == 10


def test_truncated_lopsided_4_table():
    P = zoo.truncated_lopsided_4()
    assert len(P.vertices) == 19  # 16 cube vertices, one replaced by a cut triangle-facet
    assert dp(P, (1, 1, 1, 1)).counts == {4: 6, 5: 22, 6: 6, 7: 8, 8: 4}


def test_lopsided_parity_gap():
    for d in range(3, 7):
        spec = dp(zoo.lopsided_cube(d), (1,) * d)
        assert spec.counts == {d - 1: math.factorial(d - 1),
                               d + 1: math.factorial(d + 1) // 6}


def test_p10_edge_count_consistent_with_simplicial_f_vector():
    P = zoo.p10()
    assert len(P.edges()) == 24  # 3n - 6 for a simplicial 3-polytope
    assert dp(P, (1, 0, 0)).total == 53


def test_fixture_registry_verifies():
    for name in zoo.fixture_names(include_slow=False):
        report = zoo.verify_fixture(zoo.fixture(name))
        assert report.passed, (name, report.diffs)


def test_modified_lopsided_3_is_non_unimodal_without_zeros():
    from pathspectra.pathcount import is_unimodal
    P = zoo.modified_lopsided_3()
    assert len(P.vertices) == 10
    spec = dp(P, (1, 1, 1))
    assert spec.counts == {2: 2, 3: 2, 4: 1, 5: 4}
    assert not is_unimodal(spec)
    assert all(v > 0 for v in spec.values())


def test_verify_reports_mismatch_without_masking():
    F = zoo.fixture("lopsided3")
    from pathspectra.pathcount import LengthSpectrum
    F.expected_monotone = LengthSpectrum({2: 99})
    report = zoo.verify_fixture(F)
    assert not report.passed
    assert "expected" in report.diffs[0]


def test_fixtures_yield_each_named_fixture():
    names = ["p10-sphere", "cube3", "lopsided3"]
    for F, name in zip(zoo.fixtures(names), names):
        G = zoo.fixture(name)
        assert (F.name, F.polytope.vertices, F.direction, F.expected_monotone,
                F.expected_coherent, F.source) == (
            G.name, G.polytope.vertices, G.direction, G.expected_monotone,
            G.expected_coherent, G.source)
    assert ([F.name for F in zoo.fixtures(include_slow=False)]
            == zoo.fixture_names(include_slow=False))


def test_p10_spherical_builds_no_p10(monkeypatch):
    """p10-sphere reads the p10 vertex table, not a built p10 polytope; its
    coordinates are the recorded ones (the p10-sphere goldens pin them)."""
    expected = zoo.p10_spherical().vertices
    monkeypatch.setattr(zoo, "p10", None)
    assert zoo.p10_spherical().vertices == expected
    monkeypatch.undo()
    assert zoo.p10().vertices == tuple(tuple(Fraction(x) for x in v) for v in zoo._P10)


def test_unknown_fixture_name():
    with pytest.raises(InputError):
        zoo.fixture("does-not-exist")


def test_canonical_directions_are_generic_for_fast_fixtures():
    for name in zoo.fixture_names(include_slow=False):
        F = zoo.fixture(name)
        orient(F.polytope, F.direction)
