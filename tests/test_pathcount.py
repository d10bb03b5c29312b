import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathspectra import (GenericityError, InputError, LengthSpectrum,
                         count_paths_by_length, enumerate_paths, is_log_concave,
                         is_symmetric, is_ultra_log_concave, is_unimodal, modes,
                         orient, prism_spectrum)
from pathspectra import zoo


def spectrum_of(P, c, **kw):
    return count_paths_by_length(orient(P, c, **kw))


def test_simplex_4_spectrum():
    assert spectrum_of(zoo.simplex(4), (1, 2, 3, 4)).counts == {1: 1, 2: 3, 3: 3, 4: 1}


def test_cube_3_spectrum():
    assert spectrum_of(zoo.cube(3), (1, 1, 1)).counts == {3: 6}


def test_p10_spectrum():
    spec = spectrum_of(zoo.p10(), (1, 0, 0))
    assert spec.counts == {2: 3, 3: 8, 4: 12, 5: 11, 6: 12, 7: 6, 8: 1}
    assert spec.total == 53
    assert not is_unimodal(spec)


def test_length_spectrum_invariants():
    s = LengthSpectrum({2: 2, 4: 4})
    assert s.min_len == 2 and s.max_len == 4
    assert s[3] == 0 and s.values() == [2, 0, 4]
    assert s.total == 6
    with pytest.raises(InputError):
        LengthSpectrum({})
    with pytest.raises(InputError):
        LengthSpectrum({2: -1})
    assert LengthSpectrum.from_json_dict(s.to_json_dict()) == s


def test_enumeration_matches_counting():
    cases = [
        (zoo.cube(3), (1, 1, 1), {}),
        (zoo.cross_polytope(3), (1, 2, 3), {}),
        (zoo.p10(), (1, 0, 0), {}),
        (zoo.lopsided_cube(3), (1, 1, 1), {}),
        (zoo.s_hypersimplex(4, [2, 4]), (1, 1, 1, 1), {"drop_level_ties": True}),
    ]
    for P, c, kw in cases:
        G = orient(P, c, **kw)
        hist = Counter(p.length for p in enumerate_paths(G))
        assert dict(hist) == count_paths_by_length(G).counts


def test_enumeration_is_lexicographic_and_exact():
    sq = zoo.cube(2)
    G = orient(sq, (1, 2))
    paths = [p.vertex_indices for p in enumerate_paths(G)]
    assert len(paths) == 2
    rank = {v: i for i, v in enumerate(G.order)}
    keyed = [[rank[v] for v in p] for p in paths]
    assert keyed == sorted(keyed)


def test_lopsided_3_has_six_paths():
    G = orient(zoo.lopsided_cube(3), (1, 1, 1))
    lengths = Counter(p.length for p in enumerate_paths(G))
    assert dict(lengths) == {2: 2, 4: 4}


def test_count_requires_unique_source_and_sink():
    from pathspectra.exactgeom import DirectedGraph
    with pytest.raises(GenericityError):
        DirectedGraph(order=(0, 1, 2, 3), arcs=((1,), (), (3,), ()),
                      c=(1,), source=0, sink=1)


def test_prism_spectrum_identity_and_table():
    s = LengthSpectrum({2: 2, 4: 4})
    assert prism_spectrum(s, 0) == s
    assert prism_spectrum(s, 1).counts == {3: 6, 5: 20}
    with pytest.raises(InputError):
        prism_spectrum(s, -1)


def test_prism_spectrum_matches_dynamic_program_on_triangular_prism():
    triangle = zoo.simplex(2)
    base = spectrum_of(triangle, (1, 2))
    assert base.counts == {1: 1, 2: 1}
    lifted = prism_spectrum(base, 1)
    prism = zoo.product_of_simplices((3, 2))
    assert spectrum_of(prism, zoo.canonical_direction(prism)) == lifted
    assert lifted.counts == {2: 2, 3: 3}


def test_prism_spectrum_iterates_to_higher_cubes():
    spec = spectrum_of(zoo.cube(3), (1, 1, 1))
    for k in (1, 2):
        assert prism_spectrum(spec, k) == zoo.cube_spectrum(3 + k)


def test_complete_graph_law_on_neighborly_fixtures():
    for P, c in ((zoo.simplex(5), (1, 2, 3, 4, 5)),
                 (zoo.cyclic(4, range(1, 8)), (1, 0, 0, 0))):
        spec = spectrum_of(P, c)
        n = len(P.vertices)
        assert spec.counts == {l: math.comb(n - 2, l - 1) for l in range(1, n)}


def test_cube_like_fixtures_keep_one_parity():
    for d in (3, 4, 5):
        spec = spectrum_of(zoo.lopsided_cube(d), (1,) * d)
        assert len({l % 2 for l in spec.counts}) == 1


def test_balinski_lower_bound():
    for P, c in ((zoo.p10(), (1, 0, 0)), (zoo.cross_polytope(4), (1, 2, 3, 4)),
                 (zoo.cube(4), (1, 1, 1, 1))):
        assert spectrum_of(P, c).total >= P.dim


# --- sequence analytics on the recorded rows ---

def test_cross_polytope_3_row_is_unimodal_with_tied_modes():
    row = LengthSpectrum({2: 4, 3: 4, 4: 2})
    assert is_unimodal(row)
    assert modes(row) == [2, 3]


def test_non_unimodal_rows():
    assert not is_unimodal([2, 36, 96, 76, 84, 36])
    assert not is_unimodal([1, 20, 112, 232, 382, 348, 456, 390, 420, 334, 286])


def test_binomial_row_is_ultra_log_concave_and_symmetric():
    row = [math.comb(8, k) for k in range(9)]
    assert is_ultra_log_concave(row)
    assert is_log_concave(row)
    assert is_unimodal(row)
    assert is_symmetric(row)


def test_rows_that_fail_log_concavity():
    assert is_unimodal([8, 40, 67, 62, 22, 8])
    assert not is_log_concave([8, 40, 67, 62, 22, 8])
    assert not is_log_concave([1, 4, 4, 5, 2])
    assert is_unimodal([1, 4, 4, 5, 2])


def test_internal_zeros_break_unimodality_but_support_view_may_not():
    gap = LengthSpectrum({2: 2, 4: 4})
    assert not is_unimodal(gap)
    assert is_unimodal(gap, positive_support_only=True)
    assert not is_log_concave(gap)


def test_modes_on_plain_sequences_are_indices():
    assert modes([0, 4, 4, 2]) == [1, 2]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=9))
def test_implication_chain_on_positive_sequences(seq):
    if is_ultra_log_concave(seq):
        assert is_log_concave(seq)
    if is_log_concave(seq):
        assert is_unimodal(seq)
