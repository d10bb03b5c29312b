import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathspectra import (GenericityError, InputError, LengthSpectrum,
                         count_paths_by_length, enumerate_paths, is_log_concave,
                         is_symmetric, is_ultra_log_concave, is_unimodal, modes,
                         orient, prism_spectrum)
from pathspectra import zoo
from pathspectra.exactgeom import DirectedGraph
from test_zoo import canonical_direction


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


def _enumerate_recursively(G):
    """The recursive depth-first enumeration, kept as the oracle of the
    iterative one: the same paths in the same order."""
    path = [G.source]

    def walk(u):
        if u == G.sink:
            yield tuple(path)
            return
        for v in G.arcs[u]:
            path.append(v)
            yield from walk(v)
            path.pop()

    yield from walk(G.source)


@pytest.mark.parametrize("name", zoo.fixture_names())
def test_enumeration_matches_the_recursive_oracle_on_fixtures(name):
    F = zoo.fixture(name)
    G = orient(F.polytope, F.direction)
    assert ([p.vertex_indices for p in enumerate_paths(G)]
            == list(_enumerate_recursively(G)))


@st.composite
def _layered_graphs(draw):
    """Acyclic graphs on 1..8 vertices in index order: the arcs u -> u + 1
    keep the source and the sink unique, the other forward arcs are drawn."""
    n = draw(st.integers(1, 8))
    arcs = tuple(tuple(v for v in range(u + 1, n) if v == u + 1 or draw(st.booleans()))
                 for u in range(n))
    return DirectedGraph(order=tuple(range(n)), arcs=arcs, c=(1,), source=0, sink=n - 1)


@settings(max_examples=200, deadline=None)
@given(_layered_graphs())
def test_enumeration_matches_the_recursive_oracle_on_drawn_graphs(G):
    assert ([p.vertex_indices for p in enumerate_paths(G)]
            == list(_enumerate_recursively(G)))


def test_lopsided_3_has_six_paths():
    G = orient(zoo.lopsided_cube(3), (1, 1, 1))
    lengths = Counter(p.length for p in enumerate_paths(G))
    assert dict(lengths) == {2: 2, 4: 4}


def test_count_requires_unique_source_and_sink():
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
    assert spectrum_of(prism, canonical_direction(prism)) == lifted
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


def _lc_by_definition(a):
    """Whether the nonnegative sequence a is log-concave: b_(k-1) b_(k+1) <=
    b_k^2 for every inner k, in Fractions, and no zero strictly between two
    nonzero entries."""
    b = [Fraction(x) for x in a]
    nonzero = [k for k, x in enumerate(b) if x != 0]
    internal_zero = any(b[k] == 0 for k in range(nonzero[0], nonzero[-1])) if nonzero else False
    return not internal_zero and all(b[k - 1] * b[k + 1] <= b[k] * b[k]
                                     for k in range(1, len(b) - 1))


def _ulc_by_definition(a):
    """Whether a_k / C(n, k), n = len(a) - 1, is log-concave, in Fractions."""
    n = len(a) - 1
    return _lc_by_definition([Fraction(x, math.comb(n, k)) for k, x in enumerate(a)])


def test_ultra_log_concavity_reads_the_same_both_ways():
    assert not is_ultra_log_concave([1, 3, 4, 1])
    assert not is_ultra_log_concave([1, 4, 3, 1])
    # coherent rows that passed while the binomial weights were shifted by one
    for row in ([6, 12, 8], [2, 9, 16, 10], [1, 4, 7, 4]):
        assert not is_ultra_log_concave(row)
    assert is_ultra_log_concave(LengthSpectrum({2: 1, 3: 3, 4: 3, 5: 1}))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=9))
def test_ultra_log_concavity_matches_the_definition(seq):
    assert is_ultra_log_concave(seq) == _ulc_by_definition(seq)
    assert is_ultra_log_concave(seq[::-1]) == is_ultra_log_concave(seq)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.integers(min_value=0, max_value=40)),
                min_size=1, max_size=9))
def test_log_concavity_matches_the_definition_and_implies_unimodality(seq):
    """Zeros drawn often, internal ones included: log-concavity is the
    definition's, and ultra-log-concave implies log-concave implies
    unimodal."""
    assert is_log_concave(seq) == _lc_by_definition(seq)
    if is_ultra_log_concave(seq):
        assert is_log_concave(seq)
    if is_log_concave(seq):
        assert is_unimodal(seq)


def test_internal_zeros_are_neither_log_concave_nor_ultra_log_concave():
    for seq in ([1, 0, 0, 1], [1, 0, 1], [1] + [0] * 1198 + [1], [2, 0, 4],
                LengthSpectrum({1: 1, 1199: 1})):
        assert not is_unimodal(seq)
        assert not is_log_concave(seq)
        assert not is_ultra_log_concave(seq)
    # zeros at either end are not internal
    for seq in ([0, 1, 2, 1, 0], [0, 0, 3], [0], [0, 0]):
        assert is_log_concave(seq)
        assert is_unimodal(seq)


def test_rows_that_fail_log_concavity():
    assert is_unimodal([8, 40, 67, 62, 22, 8])
    assert not is_log_concave([8, 40, 67, 62, 22, 8])
    assert not is_log_concave([1, 4, 4, 5, 2])
    assert is_unimodal([1, 4, 4, 5, 2])


def test_internal_zeros_break_unimodality_but_support_view_may_not():
    gap = LengthSpectrum({2: 2, 4: 4})
    assert not is_unimodal(gap)
    assert is_unimodal([v for v in gap.values() if v])  # the positive support
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
