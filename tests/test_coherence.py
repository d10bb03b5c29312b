import json
import logging
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pathspectra import (DegeneracyError, GenericityError, InputError, LengthSpectrum,
                         MonotonePath, Polytope, coherent_paths, coherent_spectrum, count_paths_by_length,
                         enumerate_paths, is_coherent, orient, sample_coherent,
                         shadow_path, slope_cone)
from pathspectra import coherence, exactgeom, zoo
from pathspectra.exactgeom import dot
from pathspectra.betasim import sample_sphere
from conftest import failed, record_highs
from test_betasim import _rng
from test_exactgeom import _point_sets


def _primitive_int_vector(vec):
    """The rational vector with denominators cleared and divided by the gcd,
    as a tuple of ints."""
    ints, _ = exactgeom._over_common_denominator(vec)
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def test_both_polygon_paths_are_coherent():
    pentagon = Polytope([(0, 0), (2, -1), (4, 0), (3, 2), (1, 2)])
    c = (1, Fraction(1, 7))
    G = orient(pentagon, c)
    for path in enumerate_paths(G):
        cert = is_coherent(pentagon, c, path, graph=G)
        assert cert is not None
        assert cert.margin > 0
    assert coherent_spectrum(pentagon, c).total == 2


def test_every_cube_path_is_coherent_with_full_cone():
    P = zoo.cube(3)
    c = (1, 1, 1)
    G = orient(P, c)
    paths = list(enumerate_paths(G))
    assert len(paths) == 6
    for path in paths:
        cone = slope_cone(P, c, path, graph=G)
        assert cone.rows  # competing neighbors exist at intermediate steps
        assert is_coherent(P, c, path, graph=G) is not None
    assert coherent_spectrum(P, c, graph=G).counts == {3: 6}


def test_simplex_paths_all_coherent():
    P = zoo.simplex(4)
    c = (1, 2, 3, 4)
    assert coherent_spectrum(P, c) == count_paths_by_length(orient(P, c))


def test_cross_polytope_coherent_spectrum():
    spec = coherent_spectrum(zoo.cross_polytope(3), (1, 2, 3))
    assert spec.counts == {2: 4, 3: 4}
    assert spec.total == 3 ** 2 - 1


def test_incoherent_paths_exist_on_cross_polytope():
    P = zoo.cross_polytope(3)
    c = (1, 2, 3)
    G = orient(P, c)
    incoherent = [p for p in enumerate_paths(G) if is_coherent(P, c, p, graph=G) is None]
    assert len(incoherent) == 2
    assert all(p.length == 4 for p in incoherent)


def test_slope_cone_rows_are_orthogonal_to_c():
    P = zoo.cross_polytope(3)
    c = (1, 2, 3)
    G = orient(P, c)
    for path in enumerate_paths(G):
        for row in slope_cone(P, c, path, graph=G).rows:
            assert dot(row, c) == 0


def test_slope_cone_validates_paths():
    P = zoo.cube(3)
    c = (1, 1, 1)
    with pytest.raises(InputError):
        slope_cone(P, c, MonotonePath((0, 7)))
    with pytest.raises(InputError):
        slope_cone(P, c, MonotonePath((0,)))


def test_single_vertex_path_has_no_rows_and_is_coherent():
    P, c = Polytope([(0, 1)]), (0, 1)
    (path,) = enumerate_paths(orient(P, c))
    assert path == MonotonePath((0,))
    assert slope_cone(P, c, path).rows == ()
    assert is_coherent(P, c, path) == next(coherent_paths(P, c))[1]


def test_certificate_round_trip():
    cases = [(zoo.cross_polytope(3), (1, 2, 3)),
             (zoo.cube(3), (1, 1, 1)),
             (zoo.lopsided_cube(3), (1, 1, 1)),
             (zoo.loday_associahedron(4), (1, 2, 3, 4))]
    for P, c in cases:
        G = orient(P, c)
        for path, cert in coherent_paths(P, c, graph=G):
            assert cert.margin > 0
            assert dot(cert.omega, c) == 0  # certificate reported without its c-component
            assert shadow_path(P, c, cert.omega, graph=G) == path


def test_opposite_capture_vectors_give_internally_disjoint_paths():
    P = zoo.cross_polytope(3)
    c = (1, 2, 3)
    omega = (Fraction(5), Fraction(-3), Fraction(1))
    a = shadow_path(P, c, omega)
    b = shadow_path(P, c, tuple(-x for x in omega))
    assert a.vertex_indices[0] == b.vertex_indices[0]
    assert a.vertex_indices[-1] == b.vertex_indices[-1]
    assert set(a.vertex_indices[1:-1]) & set(b.vertex_indices[1:-1]) == set()


def test_shadow_walk_matches_projected_upper_chain():
    from pathspectra import project2d, upper_path
    P = zoo.cross_polytope(3)
    c = (1, 2, 3)
    omega = (Fraction(5), Fraction(-3), Fraction(1))
    walked = shadow_path(P, c, omega)
    chain = upper_path(project2d(P, c, omega))
    assert list(walked.vertex_indices) == chain


def test_shadow_path_slope_tie_is_degenerate():
    from pathspectra import DegeneracyError
    P = zoo.cube(3)
    with pytest.raises(DegeneracyError):
        shadow_path(P, (1, 1, 1), (0, 0, 0))


def test_sampling_lopsided_cube_recovers_all_six_paths():
    P = zoo.lopsided_cube(3)
    draw = sample_coherent(P, orient(P, (1, 1, 1)), 400, seed=7)
    assert len(draw.paths) == 6


def test_sampling_is_deterministic_and_contained():
    P = zoo.cube(3)
    c = (1, 1, 1)
    G = orient(P, c)
    one = sample_coherent(P, G, 1, seed=3)
    assert len(one.paths) == 1
    again = sample_coherent(P, G, 200, seed=3)
    twice = sample_coherent(P, G, 200, seed=3)
    assert again.paths == twice.paths
    exact = {p for p, _ in coherent_paths(P, c)}
    assert again.paths <= exact
    with pytest.raises(InputError):
        sample_coherent(P, G, 0, seed=1)


def test_coherent_totals_dominated_pointwise():
    for P, c in ((zoo.cross_polytope(4), (1, 2, 3, 4)),
                 (zoo.lopsided_cube(4), (1, 1, 1, 1))):
        G = orient(P, c)
        mono = count_paths_by_length(G)
        coh = coherent_spectrum(P, c, graph=G)
        assert all(coh[l] <= mono[l] for l in range(mono.min_len, mono.max_len + 1))
        assert coh.total >= 2


def test_translation_and_scaling_invariance():
    base = zoo.cross_polytope(3)
    c = (1, 2, 3)
    reference = coherent_spectrum(base, c)
    shifted = Polytope([tuple(x + s for x, s in zip(v, (7, -2, 5)))
                        for v in base.vertices])
    scaled = Polytope([tuple(3 * x for x in v) for v in base.vertices])
    assert coherent_spectrum(shifted, c) == reference
    assert coherent_spectrum(scaled, c) == reference
    assert count_paths_by_length(orient(shifted, c)) == count_paths_by_length(orient(base, c))


def test_certificate_scale_invariance():
    P = zoo.cross_polytope(3)
    c = (1, 2, 3)
    G = orient(P, c)
    for path, cert in coherent_paths(P, c, graph=G):
        doubled = tuple(2 * x for x in cert.omega)
        assert shadow_path(P, c, doubled, graph=G) == path


def test_double_rounded_degenerate_cones_decide_incoherent():
    exact = zoo.cross_polytope(3)
    P = Polytope([tuple(map(float, v)) for v in exact.vertices])
    c = (1, 2, 3)
    G = orient(P, c)
    long_paths = [p for p in enumerate_paths(G) if p.length == 4]
    assert long_paths
    assert all(is_coherent(P, c, p, graph=G) is None for p in long_paths)


def test_double_rounded_clear_cones_certify_exactly():
    exact = zoo.cube(3)
    P = Polytope([tuple(map(float, v)) for v in exact.vertices])
    c = (1, 1, 1)
    G = orient(P, c)
    for p in enumerate_paths(G):
        cert = is_coherent(P, c, p, graph=G)
        assert cert is not None
        assert isinstance(cert.margin, Fraction) and cert.margin > 0


@pytest.mark.parametrize("P, c", [
    (zoo.cross_polytope(4), (1, 2, 3, 4)),
    (zoo.lopsided_cube(3), (1, 1, 1)),
    (zoo.cyclic(4, range(1, 9)), (1, 0, 0, 0)),
], ids=["cross4", "lopsided3", "cyclic4-8"])
def test_exact_simplex_alone_decides_like_the_steered_chain(P, c, request):
    steered = coherent_spectrum(P, c)
    calls = request.getfixturevalue("highs_fails")
    pairs = list(coherent_paths(P, c))
    assert calls
    counts = {}
    for path, cert in pairs:
        counts[path.length] = counts.get(path.length, 0) + 1
        products = [dot(row, cert.omega) for row in slope_cone(P, c, path).rows]
        assert all(isinstance(x, Fraction) for x in cert.omega)
        assert all(x > 0 for x in products)
        assert cert.margin == min(products)
    assert counts == steered.counts


def _monotone_path_polytope_vertices(P, c, G):
    """The coherent paths as the vertices of the monotone path polytope, an
    oracle that shares no code with `coherence`.  Each monotone path maps to
    phi = sum over its arcs u -> v of (c . v - c . u)(u + v) / 2, and a path
    is coherent iff its phi is a vertex of the hull of every phi (Billera
    and Sturmfels, Fiber polytopes).  Returns the vertex paths' index
    tuples, sorted, after checking that each vertex comes from one path."""
    V = P.vertices
    phis = {}
    for path in enumerate_paths(G):
        phi = [Fraction(0)] * P.dim
        for u, v in zip(path.vertex_indices, path.vertex_indices[1:]):
            rise = dot(c, V[v]) - dot(c, V[u])
            phi = [x + rise * (a + b) / 2 for x, a, b in zip(phi, V[u], V[v])]
        phis.setdefault(tuple(phi), []).append(path.vertex_indices)
    hull = Polytope(list(phis), on_nonvertex="strip")
    assert all(len(phis[phi]) == 1 for phi in hull.vertices)
    return sorted(phis[phi][0] for phi in hull.vertices)


def _coherent_indices(P, c, G):
    return sorted(p.vertex_indices for p, _ in coherent_paths(P, c, graph=G))


def _assert_coherent_paths_match_the_oracle(P, c, G):
    """`coherent_paths` names the monotone path polytope's vertex paths, and
    the walk-first `coherent_spectrum` counts them by length."""
    vertices = _monotone_path_polytope_vertices(P, c, G)
    assert vertices == _coherent_indices(P, c, G)
    lengths = Counter(len(seq) - 1 for seq in vertices)
    assert coherent_spectrum(P, c, graph=G) == LengthSpectrum(lengths)


@pytest.mark.parametrize("name", zoo.fixture_names(include_slow=False))
def test_coherent_paths_are_the_monotone_path_polytope_vertices(name):
    F = zoo.fixture(name)
    G = orient(F.polytope, F.direction)
    _assert_coherent_paths_match_the_oracle(F.polytope, F.direction, G)


@settings(max_examples=40, deadline=None)
@given(_point_sets(), st.data())
def test_coherent_paths_are_the_monotone_path_polytope_vertices_on_point_sets(points, data):
    P = Polytope(points, on_nonvertex="strip")
    c = data.draw(st.tuples(*[_COORD] * P.dim))
    try:
        G = orient(P, c)
    except (GenericityError, InputError):
        assume(False)
    _assert_coherent_paths_match_the_oracle(P, c, G)


def _every_row_a_witness(res):
    """A HiGHS answer that claims t = 0 and weight 1 on every row."""
    res.x[-1] = 0.0
    res.ineqlin.marginals = [-1.0] * len(res.ineqlin.marginals)
    return res


@pytest.mark.parametrize("substitute", [failed, _every_row_a_witness],
                         ids=["highs_fails", "highs_lies"])
@pytest.mark.parametrize("P, c", [
    (zoo.cross_polytope(4), (1, 2, 3, 4)),
    (zoo.lopsided_cube(3), (1, 1, 1)),
    (zoo.cyclic(4, range(1, 9)), (1, 0, 0, 0)),
], ids=["cross4", "lopsided3", "cyclic4-8"])
def test_exact_checks_alone_find_the_monotone_path_polytope_vertices(P, c, substitute):
    """The oracle is built while HiGHS works.  Then HiGHS fails on every
    call, or calls every cone flat with every row in the witness, so each
    verdict of `coherent_paths` rests on the exact re-check of a witness and
    on the exact simplex."""
    G = orient(P, c)
    vertices = _monotone_path_polytope_vertices(P, c, G)
    with pytest.MonkeyPatch.context() as mp:
        calls = record_highs(mp, substitute)
        assert _coherent_indices(P, c, G) == vertices
    assert calls


_SAMPLED = {
    "cross4": (lambda: zoo.cross_polytope(4), (1, 2, 3, 4)),
    "cross5": (lambda: zoo.cross_polytope(5), (1, 2, 3, 4, 5)),
    "hyp2-5": (lambda: zoo.second_hypersimplex(5), (1, 2, 4, 8, 16)),
    "lopsided3": (lambda: zoo.lopsided_cube(3), (1, 1, 1)),
    "cyclic4-8": (lambda: zoo.cyclic(4, range(1, 9)), (1, 0, 0, 0)),
    "prod3x4": (lambda: zoo.product_of_simplices((3, 4)), (1, 2, 3, 4, 5)),
}


@pytest.mark.parametrize("seed", [7, 8388608])
@pytest.mark.parametrize("name", sorted(_SAMPLED))
def test_sample_coherent_matches_recorded_draws(name, seed):
    """300 draws per input, recorded with the walk on `Fraction` slopes
    (cross5 and hyp2-5 with the scalar integer walk, `_scalar_walk`)."""
    recorded = json.loads((Path(__file__).parent / "data" / "sampled_paths.json").read_text())
    build, c = _SAMPLED[name]
    P = build()
    draw = sample_coherent(P, orient(P, c), 300, seed)
    assert sorted(list(p.vertex_indices) for p in draw.paths) == recorded[f"{name}@{seed}"]["paths"]
    assert draw.degenerate == recorded[f"{name}@{seed}"]["degenerate"]


def _fraction_walk(P, G, omega):
    """The shadow walk on `Fraction(rise, run)` slopes, kept as the oracle of
    the integer walk."""
    c = G.c
    u = G.source
    seq = [u]
    while u != G.sink:
        best_v = None
        best_slope = None
        tie = False
        vu = P.vertices[u]
        for v in G.arcs[u]:
            diff = [P.vertices[v][t] - vu[t] for t in range(P.dim)]
            rise = dot(omega, diff)
            run = dot(c, diff)
            slope = Fraction(rise, run)
            if best_slope is None or slope > best_slope:
                best_slope, best_v, tie = slope, v, False
            elif slope == best_slope:
                tie = True
        if tie:
            raise DegeneracyError(
                f"slope tie at vertex {u}; omega does not capture a unique path")
        u = best_v
        seq.append(u)
    return MonotonePath(tuple(seq))


def _scalar_walk(G, table, omega):
    """The walk of one integer omega on `_arc_table`, arc by arc, slopes
    compared by cross-multiplying rise and run: the oracle of the batched
    walk `coherence._walk`."""
    u = G.source
    seq = [u]
    while u != G.sink:
        best_v = best_rise = best_run = None
        tie = False
        for v, step, run in table[u]:
            rise = dot(omega, step)
            if best_v is not None:
                # sign of slope(v) - slope(best_v); every run is positive
                gap = rise * best_run - best_rise * run
            if best_v is None or gap > 0:
                best_v, best_rise, best_run, tie = v, rise, run, False
            elif gap == 0:
                tie = True
        if tie:
            raise DegeneracyError(
                f"slope tie at vertex {u}; omega does not capture a unique path")
        u = best_v
        seq.append(u)
    return MonotonePath(tuple(seq))


def _fraction_arc_table(P, G):
    """`coherence._arc_table` with each step read off the `Fraction`
    difference v - u: the oracles' own table."""
    c, _ = exactgeom._over_common_denominator(G.c)
    table = {}
    for u, heads in enumerate(G.arcs):
        steps = [_primitive_int_vector([a - b for a, b in zip(P.vertices[v], P.vertices[u])])
                 for v in heads]
        table[u] = [(v, step, dot(c, step)) for v, step in zip(heads, steps)]
    return table


def _scalar_sample(P, G, samples, seed):
    """`sample_coherent` one walk and one `randint` at a time: its oracle."""
    table = _fraction_arc_table(P, G)
    rng = random.Random(seed)
    found = set()
    degenerate = 0
    for _ in range(samples):
        omega = [rng.randint(-999983, 999983) for _ in range(P.dim)]
        try:
            found.add(_scalar_walk(G, table, omega))
        except DegeneracyError:
            degenerate += 1
    return coherence.SampleDraw(paths=frozenset(found), degenerate=degenerate)


def _walk_outcome(walk, *args):
    try:
        return walk(*args)
    except DegeneracyError as exc:
        return str(exc)


def _batched_outcome(G, forks, omega, dtype):
    """`_walk` on the one integer walker omega in `dtype`, as `_walk_outcome`
    reports it."""
    reached, ties = coherence._walk(G, forks.__getitem__, np.array([omega], dtype=dtype))
    if ties:
        return f"slope tie at vertex {ties[0]}; omega does not capture a unique path"
    assert list(reached.values()) == [0]
    return next(iter(reached))


_COORD = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_walk_matches_fraction_walk(data):
    d = data.draw(st.integers(2, 4))
    points = data.draw(st.lists(st.tuples(*[_COORD] * d), min_size=d + 1,
                                max_size=d + 5, unique=True))
    c = data.draw(st.tuples(*[_COORD] * d))
    omega = data.draw(st.tuples(*[_COORD] * d))
    P = Polytope(points, on_nonvertex="strip")
    try:
        G = orient(P, c)
    except (GenericityError, InputError):
        assume(False)
    forks = [u for u in range(len(P.vertices)) if len(G.arcs[u]) > 1]
    if forks and data.draw(st.booleans()):
        # put omega on the wall where two arcs of one vertex (the source when
        # it forks) have equal slopes, so that the walk may meet a tie there
        u = data.draw(st.sampled_from(forks[:1] + forks if G.source in forks else forks))
        v, w = data.draw(st.permutations(G.arcs[u]))[:2]
        dv, dw = ([a - b for a, b in zip(P.vertices[x], P.vertices[u])] for x in (v, w))
        row = [dot(c, dw) * a - dot(c, dv) * b for a, b in zip(dv, dw)]
        k = dot(omega, row) / dot(row, row)
        omega = tuple(x - k * r for x, r in zip(omega, row))
        assert dot(omega, row) == 0
    want = _walk_outcome(_fraction_walk, P, G, omega)
    assert _walk_outcome(shadow_path, P, c, omega) == want
    # the sampler's route: an integer omega (a positive multiple), walked by
    # the scalar oracle and by the batched walk on both of its dtypes
    scale = 7 * lcm(*(x.denominator for x in omega))
    ints = [int(x * scale) for x in omega]
    table = coherence._arc_table(P, G)
    assert table == _fraction_arc_table(P, G)
    assert _walk_outcome(_scalar_walk, G, table, ints) == want
    # (int64 where it is exact: omegas on a tie wall can be too long for it)
    forks, norm = coherence._slope_table(coherence._arc_table(P, G))
    for dtype in {object, np.int64 if max(map(abs, ints)) * norm < 2 ** 63 else object}:
        assert _batched_outcome(G, forks, ints, dtype) == want


def _sphere_dyadic(d, n):
    """`sample_sphere(d, n, _rng(11, 0))` at its exact dyadic values, along
    e1; its integer steps run far above 2^63."""
    pts = sample_sphere(d, n, _rng(11, 0))
    return Polytope([[Fraction(x) for x in p] for p in pts]), (1,) + (0,) * (d - 1)


# the 16 fixtures, the bench inputs that are not fixtures (hyp2-5 is one,
# along the same direction) and three dyadic sphere samples
_ORACLE_INPUTS = (
    [pytest.param(("fixture", name), id=name) for name in zoo.fixture_names(include_slow=True)]
    + [pytest.param(("bench", name), id=name) for name in ("cross5", "cyclic4-8", "prod3x4")]
    + [pytest.param(("sphere", dn), id="sphere%d-%d" % dn) for dn in ((3, 30), (4, 20), (5, 14))])


@pytest.fixture(scope="module")
def oracle_input():
    """(kind, name) of `_ORACLE_INPUTS` -> (P, G), each built once per module."""
    built = {}

    def get(key):
        if key not in built:
            kind, name = key
            if kind == "fixture":
                F = zoo.fixture(name)
                P, c = F.polytope, F.direction
            elif kind == "bench":
                build, c = _SAMPLED[name]
                P = build()
            else:
                P, c = _sphere_dyadic(*name)
            built[key] = P, orient(P, c)
        return built[key]
    return get


@pytest.mark.parametrize("seed", [7, 8388608, 1048576])
@pytest.mark.parametrize("key", _ORACLE_INPUTS)
def test_sample_coherent_matches_the_scalar_sampler(key, seed, oracle_input):
    P, G = oracle_input(key)
    forks, norm = coherence._slope_table(coherence._arc_table(P, G))
    # the dyadic inputs (p10-sphere and the sphere samples) take the object route
    dyadic = key == ("fixture", "p10-sphere") or key[0] == "sphere"
    assert (norm * coherence._OMEGA_MAX >= 2 ** 63) == dyadic
    samples = 2000 if key[0] == "sphere" else 300
    assert sample_coherent(P, G, samples, seed) == _scalar_sample(P, G, samples, seed)


def test_sampling_a_point_and_a_segment():
    for P, c, path in ((Polytope([(0, 1)]), (0, 1), (0,)),
                       (Polytope([(0, 0), (2, 1)]), (1, 0), (0, 1)),
                       (Polytope([(0, 0), (2, 1)]), (-1, 0), (1, 0))):
        G = orient(P, c)
        for samples in (1, 5):
            assert sample_coherent(P, G, samples, seed=3) == (frozenset({MonotonePath(path)}), 0)
        assert shadow_path(P, c, (0, 0)) == MonotonePath(path)


def test_one_sample_walks_one_omega():
    P = zoo.cross_polytope(4)
    G = orient(P, (1, 2, 3, 4))
    for seed in range(20):
        rng = random.Random(seed)
        omega = [rng.randint(-999983, 999983) for _ in range(4)]
        draw = sample_coherent(P, G, 1, seed)
        assert draw == (frozenset({shadow_path(P, (1, 2, 3, 4), omega)}), 0)


def test_zero_omega_ties_at_a_forking_source(monkeypatch):
    P, c = zoo.cross_polytope(3), (1, 2, 3)
    G = orient(P, c)
    assert len(G.arcs[G.source]) > 1
    with pytest.raises(DegeneracyError, match=f"slope tie at vertex {G.source};"):
        shadow_path(P, c, (0, 0, 0))
    monkeypatch.setattr(coherence, "_draw_omegas",
                        lambda rng, count, dim: np.zeros((count, dim), dtype=np.int64))
    assert sample_coherent(P, G, 50, seed=1) == (frozenset(), 50)


def test_a_sample_one_past_the_chunk_walks_in_two_chunks(monkeypatch):
    P, c = zoo.lopsided_cube(3), (1, 1, 1)
    G = orient(P, c)
    samples = coherence._CHUNK + 1
    sizes = []
    walk = coherence._walk
    monkeypatch.setattr(coherence, "_walk",
                        lambda G, fork, omegas: sizes.append(len(omegas)) or walk(G, fork, omegas))
    assert sample_coherent(P, G, samples, seed=5) == _scalar_sample(P, G, samples, seed=5)
    assert sizes == [coherence._CHUNK, 1]


class _CountingRandom(random.Random):
    """random.Random counting the getrandbits calls that randint makes."""

    tries = 0

    def getrandbits(self, k):
        self.tries += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("dim", [1, 3, 5])
def test_bulk_draw_is_randint(dim):
    """`_draw_omegas` gives randint's values and leaves the generator where
    randint leaves it, redraws included."""
    redraws = 0
    for seed in range(150):
        for count in (1, 2, 12, 60 // dim):
            bulk, one = random.Random(seed), _CountingRandom(seed)
            want = [[one.randint(-999983, 999983) for _ in range(dim)] for _ in range(count)]
            got = coherence._draw_omegas(bulk, count, dim)
            assert got.dtype == np.int64 and got.tolist() == want
            assert bulk.getstate() == one.getstate()
            redraws += one.tries - count * dim
    assert redraws > 50


# the walk-first coherent spectrum

def _primitive_arc_rows(table):
    """`coherence._arc_rows` with each row put through
    `_primitive_int_vector`, as it was built before: its oracle."""
    blocks = {}
    for u, arcs in table.items():
        for v, step, run in arcs:
            blocks[u, v] = tuple(
                _primitive_int_vector([c_rival * a - run * b for a, b in zip(step, rival)])
                for w, rival, c_rival in arcs if w != v)
    return blocks


@pytest.mark.parametrize("key", _ORACLE_INPUTS)
def test_arc_rows_are_the_primitive_int_vectors(key, oracle_input):
    P, G = oracle_input(key)
    blocks = coherence._arc_rows(coherence._arc_table(P, G))
    assert blocks == _primitive_arc_rows(_fraction_arc_table(P, G))
    assert all(type(x) is int for rows in blocks.values() for row in rows for x in row)


def _tied_omegas(G, multiples):
    """The omegas k c, c scaled to integers, for k in `multiples`: every
    slope of the walk ties on them."""
    cn, _ = exactgeom._over_common_denominator(G.c)
    return np.array([[k * x for x in cn] for k in multiples], dtype=np.int64)


def _draw_tied(monkeypatch, G, tied):
    """Make `_draw_omegas` return omegas at 0 or along c only."""
    multiples = [0] * coherence._PROBES if tied == "zero" else range(1, coherence._PROBES + 1)
    omegas = _tied_omegas(G, multiples)
    monkeypatch.setattr(coherence, "_draw_omegas", lambda rng, count, dim: omegas[:count])


@pytest.mark.parametrize("key", _ORACLE_INPUTS)
def test_walkers_reach_only_paths_their_omegas_capture(key, oracle_input):
    """Each path `_walk` reaches maps to a walker whose scalar walk is that
    path and whose omega is strictly positive on every row of it; the
    walkers that meet a tie, here those at 0 and along c, reach nothing."""
    P, G = oracle_input(key)
    table = coherence._arc_table(P, G)
    forks, norm = coherence._slope_table(table)
    drawn = coherence._draw_omegas(random.Random(0), coherence._PROBES, P.dim)
    omegas = np.vstack([drawn, _tied_omegas(G, (0, 1, -2))])
    # within the range the dtype rule is read for
    assert abs(omegas).max() <= coherence._OMEGA_MAX
    reached, ties = coherence._walk(G, forks.__getitem__,
                                    omegas.astype(coherence._walk_dtype(norm)))
    blocks = coherence._arc_rows(table)
    walked, tied = set(), 0
    for omega in omegas.tolist():
        try:
            walked.add(_scalar_walk(G, table, omega))
        except DegeneracyError:
            tied += 1
    assert reached.keys() == walked and len(ties) == tied
    for path, w in reached.items():
        assert w < len(drawn)
        omega = omegas[w].tolist()
        assert _scalar_walk(G, table, omega) == path
        rows = coherence._path_rows(blocks, path.vertex_indices)
        assert all(dot(row, omega) > 0 for row in rows)


def _logged_routes(caplog, caller):
    """(paths, {route: count}) from the one DEBUG route line of `caller`;
    the counts sum to the paths."""
    (message,) = [r.getMessage() for r in caplog.records
                  if r.name == "pathspectra.coherence" and r.getMessage().startswith(caller)]
    head, tail = message.split("; ")
    routes = {}
    for part in tail.split(", "):
        route, count = part.rsplit(" ", 1)
        routes[route] = int(count)
    assert tuple(routes) == coherence._ROUTES
    paths = int(head.split()[1])
    assert sum(routes.values()) == paths
    return paths, routes


def _spectra_and_routes(P, c, G, caplog):
    """The walk-first spectrum and the one counted over `coherent_paths`,
    each with its logged (paths, routes)."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="pathspectra.coherence"):
        walked = coherent_spectrum(P, c, graph=G)
        counted = LengthSpectrum(Counter(p.length for p, _ in coherent_paths(P, c, graph=G)))
    return ((walked, _logged_routes(caplog, "coherent_spectrum")),
            (counted, _logged_routes(caplog, "coherent_paths")))


@pytest.mark.parametrize("P, c, spectrum", [
    pytest.param(Polytope([(0, 1)]), (0, 1), {0: 1}, id="point"),
    pytest.param(zoo.simplex(1), (1,), {1: 1}, id="simplex1-up"),
    pytest.param(zoo.simplex(1), (-1,), {1: 1}, id="simplex1-down"),
    pytest.param(Polytope([(0, 0), (2, 1)]), (1, 0), {1: 1}, id="segment"),
    pytest.param(Polytope([(0, 0), (2, 1)]), (-1, 3), {1: 1}, id="segment-down"),
])
def test_paths_without_rows_keep_their_route(P, c, spectrum, caplog):
    """A point, a 1-simplex and a segment: their one path has no rows, and
    both enumerations count it on the "no rows" route."""
    G = orient(P, c)
    walked, counted = _spectra_and_routes(P, c, G, caplog)
    assert walked[0] == counted[0] == LengthSpectrum(spectrum)
    assert walked[1] == counted[1] == (1, {**dict.fromkeys(coherence._ROUTES, 0), "no rows": 1})


@pytest.mark.parametrize("tied", ["zero", "along c"])
def test_tied_draws_leave_every_path_to_decide_rows(tied, caplog, monkeypatch):
    """With every drawn omega at 0 or along c, no walker reaches the sink,
    and the spectrum and every route count are those of `coherent_paths`."""
    P, c = zoo.cross_polytope(4), (1, 2, 3, 4)
    G = orient(P, c)
    _draw_tied(monkeypatch, G, tied)
    walks = _log_calls(monkeypatch, coherence, "_walk")
    walked, counted = _spectra_and_routes(P, c, G, caplog)
    ((_args, (reached, ties)),) = walks
    assert reached == {} and len(ties) == coherence._PROBES
    assert walked == counted
    assert walked[1][1]["shadow walk"] == 0


@pytest.mark.parametrize("tied", ["zero", "along c"])
def test_captures_are_rechecked_on_the_path_rows(tied, caplog, monkeypatch):
    """A walk that claims every path for an omega at 0 or along c captures
    none of them: each path goes to `_decide_rows`."""
    P, c = zoo.cross_polytope(4), (1, 2, 3, 4)
    G = orient(P, c)
    _draw_tied(monkeypatch, G, tied)
    monkeypatch.setattr(coherence, "_walk",
                        lambda G, fork, omegas: (dict.fromkeys(enumerate_paths(G), 0), []))
    walked, counted = _spectra_and_routes(P, c, G, caplog)
    assert walked == counted
    assert walked[1][1]["shadow walk"] == 0


@pytest.mark.parametrize("dn", [(3, 30), (4, 20), (5, 14)], ids=["3-30", "4-20", "5-14"])
def test_walk_first_spectrum_on_sphere_polytopes(dn, caplog):
    """Dyadic sphere polytopes, whose steps run past int64, so the walk
    takes Python ints: the spectrum matches both oracles, and the walk
    decides some paths."""
    P, c = _sphere_dyadic(*dn)
    G = orient(P, c)
    _forks, norm = coherence._slope_table(coherence._arc_table(P, G))
    assert coherence._walk_dtype(norm) is object
    with caplog.at_level(logging.DEBUG, logger="pathspectra.coherence"):
        _assert_coherent_paths_match_the_oracle(P, c, G)
    assert _logged_routes(caplog, "coherent_spectrum")[1]["shadow walk"] > 0


@pytest.mark.parametrize("d, S", [(4, (2, 4)), (4, (1, 3, 4)), (5, (2, 5)), (5, (1, 3, 5)),
                                  (6, (2, 6)), (6, (2, 4, 6)), (7, (3, 7)), (7, (1, 4, 7))])
def test_walk_first_spectrum_on_s_hypersimplices(d, S):
    """Graphs with their level ties dropped (`orient(..., drop_level_ties=True)`)."""
    P, c = zoo.s_hypersimplex(d, S), (1,) * d
    _assert_coherent_paths_match_the_oracle(P, c, orient(P, c, drop_level_ties=True))


def test_walk_first_spectrum_on_ass6(ass6_pack):
    """ass6 is too large for the monotone path polytope oracle; the pack's
    spectrum is counted over `coherent_paths`."""
    P, c, G = ass6_pack["P"], ass6_pack["c"], ass6_pack["G"]
    assert coherent_spectrum(P, c, graph=G) == ass6_pack["coherent"]


_DUAL_CASES = [
    pytest.param(zoo.cross_polytope(4), (1, 2, 3, 4), id="cross4"),
    pytest.param(zoo.cross_polytope(5), (1, 2, 3, 4, 5), id="cross5"),
    pytest.param(zoo.second_hypersimplex(5), (1, 2, 4, 8, 16), id="hyp2-5"),
    pytest.param(zoo.cyclic(4, range(1, 9)), (1, 0, 0, 0), id="cyclic4-8"),
    pytest.param(zoo.lopsided_cube(3), (1, 1, 1), id="lopsided3"),
]


def _log_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that logs each call's result."""
    real = getattr(owner, name)
    log = []

    def logged(*args, **kwargs):
        log.append((args, real(*args, **kwargs)))
        return log[-1][1]
    monkeypatch.setattr(owner, name, logged)
    return log


def _assert_gordan(rows, lam):
    """lam ({row: weight}) is a Gordan witness on `rows`, in `Fraction`s:
    lam >= 0, sum lam = 1 and sum lam_r row_r = 0."""
    assert set(lam) <= set(rows)
    assert all(isinstance(x, Fraction) and x >= 0 for x in lam.values())
    assert sum(lam.values()) == 1
    d = len(rows[0])
    assert [sum(x * row[i] for row, x in lam.items()) for i in range(d)] == [0] * d


@pytest.mark.parametrize("P, c", _DUAL_CASES)
def test_one_highs_lp_per_path(P, c, monkeypatch):
    """One HiGHS LP per path that has rows and no witness in hand."""
    G = orient(P, c)
    with_rows = sum(1 for p in enumerate_paths(G) if slope_cone(P, c, p, graph=G).rows)
    calls = record_highs(monkeypatch)
    known = _log_calls(monkeypatch, coherence, "_known_witness")
    exact = _log_calls(monkeypatch, coherence, "lp_maximize")
    list(coherent_paths(P, c, graph=G))
    decided = sum(1 for _args, found in known if found is not None)
    assert len(known) == with_rows
    assert len(calls) == with_rows - decided
    assert exact == []


@pytest.mark.parametrize("P, c", _DUAL_CASES)
def test_dual_witnesses_recheck_in_fractions(P, c, monkeypatch):
    """Every incoherent path carries a witness that rechecks in `Fraction`s:
    one in hand, or one read off its HiGHS duals."""
    G = orient(P, c)
    known = _log_calls(monkeypatch, coherence, "_known_witness")
    proposals = _log_calls(monkeypatch, coherence, "_strict_interior")
    coherent = {p for p, _ in coherent_paths(P, c, graph=G)}
    witnesses = [(rows, dict(zip(rows, lam))) for (rows, _table), (_y, lam) in proposals
                 if lam is not None]
    witnesses += [(args[0], found[1]) for args, found in known if found is not None]
    incoherent = sum(1 for p in enumerate_paths(G) if p not in coherent)
    assert len(witnesses) == incoherent
    for rows, lam in witnesses:
        _assert_gordan(rows, lam)


@pytest.mark.parametrize("P, c, exact_runs", [
    (zoo.cross_polytope(4), (1, 2, 3, 4), False),
    (zoo.cyclic(4, range(1, 9)), (1, 0, 0, 0), True),
], ids=["cross4", "cyclic4-8"])
def test_without_duals_the_exact_simplex_decides_the_same(P, c, exact_runs, request,
                                                          monkeypatch):
    """With no HiGHS witness, every incoherent path without opposite rows
    goes to the exact simplex: on cross4 every one has them, on cyclic4-8
    none does."""
    G = orient(P, c)
    expected = list(coherent_paths(P, c, graph=G))
    request.getfixturevalue("highs_without_duals")
    known = _log_calls(monkeypatch, coherence, "_known_witness")
    exact = _log_calls(monkeypatch, coherence, "lp_maximize")
    assert list(coherent_paths(P, c, graph=G)) == expected
    decided = [found[0] for _args, found in known if found is not None]
    assert set(decided) <= {"opposite rows"}
    incoherent = sum(1 for _ in enumerate_paths(G)) - len(expected)
    assert len(exact) == incoherent - len(decided)
    assert bool(exact) == exact_runs


@pytest.mark.parametrize("P, c", [
    (zoo.product_of_simplices((3, 4)), (1, 2, 3, 4, 5)),
    (zoo.lopsided_cube(5), (1, 1, 1, 1, 1)),
], ids=["prod3x4", "lopsided5"])
def test_coherent_only_inputs_ask_one_highs_lp_per_path(P, c, monkeypatch):
    G = orient(P, c)
    paths = sum(1 for _ in enumerate_paths(G))
    calls = record_highs(monkeypatch)
    assert len(list(coherent_paths(P, c, graph=G))) == paths
    assert len(calls) == paths


def _per_path_route(P, c, G):
    """(path, certificate) of every monotone path, each decided alone by
    `is_coherent`, with a witness store seeded from its own rows only."""
    return [(p, is_coherent(P, c, p, graph=G)) for p in enumerate_paths(G)]


def _assert_matches_per_path_route(P, c, monkeypatch):
    G = orient(P, c)
    reference = _per_path_route(P, c, G)
    known = _log_calls(monkeypatch, coherence, "_known_witness")
    pairs = list(coherent_paths(P, c, graph=G))
    assert pairs == [(p, cert) for p, cert in reference if cert is not None]
    found = {p for p, _ in pairs}
    assert ({p for p in enumerate_paths(G) if p not in found}
            == {p for p, cert in reference if cert is None})
    for (rows, _store), witness in known:
        if witness is not None:
            _assert_gordan(rows, witness[1])
    # with no witness in hand, every path with rows asks HiGHS
    monkeypatch.setattr(coherence, "_known_witness", lambda rows, witnesses=None: None)
    assert _per_path_route(P, c, G) == reference
    return [witness[0] for _args, witness in known if witness is not None]


@pytest.mark.parametrize("P, c", _DUAL_CASES)
def test_shared_witnesses_match_the_per_path_route(P, c, monkeypatch):
    _assert_matches_per_path_route(P, c, monkeypatch)


@pytest.mark.parametrize("name", ["ass5", "p10-sphere"])
def test_shared_witnesses_match_the_per_path_route_on_fixtures(name, monkeypatch):
    F = zoo.fixture(name)
    routes = _assert_matches_per_path_route(F.polytope, F.direction, monkeypatch)
    assert "shared witness" in routes


@settings(max_examples=40, deadline=None)
@given(_point_sets(), st.data())
def test_shared_witnesses_match_the_per_path_route_on_point_sets(points, data):
    P = Polytope(points, on_nonvertex="strip")
    c = data.draw(st.tuples(*[_COORD] * P.dim))
    try:
        orient(P, c)
    except (GenericityError, InputError):
        assume(False)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_matches_per_path_route(P, c, monkeypatch)


class _Negations(dict):
    """row -> -row, each negation built on first lookup."""

    def __missing__(self, row):
        neg = self[row] = tuple(-x for x in row)
        return neg


class _Witnesses:
    """The two-rule store `coherence` once kept: Gordan witnesses certified
    so far in one enumeration, each a {row: weight} dict over its support
    filed under one support row in `by_row`; `negated` maps each row to its
    negation."""

    def __init__(self):
        self.by_row = {}
        self.negated = _Negations()

    def add(self, rows, lam):
        support = {row: x for row, x in zip(rows, lam) if x}
        self.by_row.setdefault(min(support), []).append(support)


def _two_rule_known_witness(rows, witnesses):
    """The oracle of `coherence._known_witness`: opposite rows r and -r take
    weight 1/2 each; otherwise a stored witness whose support lies within
    `rows` holds as it is."""
    seen = set(rows)
    for row in rows:
        neg = witnesses.negated[row]
        if neg in seen:
            return "opposite rows", {row: Fraction(1, 2), neg: Fraction(1, 2)}
    for row in rows:
        for support in witnesses.by_row.get(row, ()):
            if support.keys() <= seen:
                return "shared witness", support
    return None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_witness_store_decides_as_the_two_rule_store(data):
    """The one store, seeded with the opposite pairs of every row, decides a
    path exactly when the two rules decide it, over a sequence of paths
    whose undecided ones hand both stores the same HiGHS witnesses; the
    rows plant opposite pairs and vanishing triples a, b, -(a + b)."""
    d = data.draw(st.integers(2, 4))
    vector = st.tuples(*[st.integers(-3, 3)] * d).filter(any).map(
        _primitive_int_vector)
    pool = data.draw(st.lists(vector, min_size=2, max_size=8, unique=True))
    pool += [tuple(-x for x in row)
             for row in data.draw(st.lists(st.sampled_from(pool), max_size=3))]
    planted = []  # a + b + g c = 0 with c primitive: weights 1, 1, g over 2 + g
    pairs = st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=3)
    for a, b in data.draw(pairs):
        total = [-(x + y) for x, y in zip(a, b)]
        if a == b or not any(total):
            continue
        c = _primitive_int_vector(total)
        g = Fraction(gcd(*total))
        planted.append({a: 1 / (2 + g), b: 1 / (2 + g), c: g / (2 + g)})
        pool.append(c)
    pool = list(dict.fromkeys(pool))
    (store, table, normal), old = coherence._lp_context((1,) * d, pool), _Witnesses()

    def highs(rows):
        """The first planted witness the rows hold, as HiGHS duals, or none."""
        held = [w for w in planted if w.keys() <= set(rows)]
        return None, ([held[0].get(row, 0) for row in rows] if held else None)

    for rows in data.draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, unique=True),
                                   min_size=1, max_size=12)):
        want = _two_rule_known_witness(rows, old)
        found = coherence._known_witness(rows, store)
        assert (found is None) == (want is None)
        for witness in (want, found):
            if witness is not None:
                _assert_gordan(rows, witness[1])
        proposal = highs(rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coherence, "_strict_interior", lambda rows, table: proposal)
            mp.setattr(coherence, "lp_maximize", lambda rows: (None, Fraction(0)))
            route, cert = coherence._decide_rows(rows, store, table, normal)
        assert cert is None
        if want is not None:
            assert route in ("opposite rows", "shared witness")
        elif proposal[1] is not None:
            assert route == "HiGHS witness"
            old.add(rows, proposal[1])
        else:
            assert route == "exact simplex"


def test_route_counts_are_logged_once_per_enumeration(caplog):
    P, c = zoo.cross_polytope(4), (1, 2, 3, 4)
    with caplog.at_level(logging.DEBUG, logger="pathspectra.coherence"):
        list(coherent_paths(P, c))
        coherent_spectrum(P, c)
    assert [r.getMessage() for r in caplog.records if r.name == "pathspectra.coherence"] == [
        "coherent_paths: 42 paths; no rows 0, shadow walk 0, opposite rows 16, "
        "shared witness 0, HiGHS strict omega 26, HiGHS witness 0, exact simplex 0",
        "coherent_spectrum: 42 paths; no rows 0, shadow walk 26, opposite rows 16, "
        "shared witness 0, HiGHS strict omega 0, HiGHS witness 0, exact simplex 0"]


@pytest.fixture(scope="module")
def p10_dyadic():
    """p10-sphere, whose exact dyadic coordinates give slope rows with
    integers far above 2^53."""
    return zoo.p10_spherical()


@pytest.mark.parametrize("c", [(1, 1, 1), (1, 2, 3), (3, 2, 1), (0, 0, 1)])
def test_scaled_rows_keep_high_bit_paths_on_highs(p10_dyadic, c, request, monkeypatch):
    P = p10_dyadic
    G = orient(P, c)
    exact = _log_calls(monkeypatch, coherence, "lp_maximize")
    fast = list(coherent_paths(P, c, graph=G))
    assert exact == []
    request.getfixturevalue("highs_fails")
    slow = list(coherent_paths(P, c, graph=G))
    assert exact
    assert [p for p, _ in fast] == [p for p, _ in slow]
    # the two routes certify with different omegas; each is rechecked on the
    # path's unscaled rows
    for path, cert in fast + slow:
        rows = slope_cone(P, c, path, graph=G).rows
        assert rows and min(dot(row, cert.omega) for row in rows) == cert.margin > 0


def _remove_c_component(omega, c):
    """omega less its component along c, in `Fraction`s: the normal form
    `_decide_rows` once computed, kept as the oracle of its integer form."""
    cc = dot(c, c)
    if cc == 0:
        return tuple(omega)
    t = dot(omega, c)
    if t == 0:
        return tuple(omega)
    return tuple(w - t * ck / cc for w, ck in zip(omega, c))


_DIRECTION = st.one_of(st.just(Fraction(0)), st.fractions(-5, 5, max_denominator=7))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_certificate_matches_the_fraction_normal_form(data):
    """`_decide_rows` projects omega off c and reads its margin on integers;
    the `Fraction` projection gives the same (omega, margin), whether omega
    is handed in (orthogonal to c or not), proposed by HiGHS, or the exact
    simplex's optimum."""
    d = data.draw(st.integers(2, 5))
    c = data.draw(st.tuples(*[_DIRECTION] * d).filter(any))
    omega = data.draw(st.tuples(*[st.fractions(-1, 1, max_denominator=60)] * d))
    if data.draw(st.booleans()):
        omega = _remove_c_component(omega, c)  # t = 0
    # rows orthogonal to c, as slope rows are, each on omega's positive side
    cn, _ = exactgeom._over_common_denominator(c)
    rows = []
    for a in data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=1, max_size=6)):
        row = [dot(cn, cn) * x - dot(a, cn) * y for x, y in zip(a, cn)]
        side = dot(row, omega)
        if side:
            rows.append(_primitive_int_vector([x * side for x in row]))
    assume(rows)
    route = data.draw(st.sampled_from(["handed in", "HiGHS strict omega", "exact simplex"]))
    with pytest.MonkeyPatch.context() as mp:
        if route == "handed in":
            mp.setattr(coherence, "_strict_interior",
                       lambda rows, table: (exactgeom._over_common_denominator(omega), None))
        else:
            proposals = _log_calls(mp, coherence, "_strict_interior")
            optima = _log_calls(mp, coherence, "lp_maximize")
            if route == "exact simplex":
                record_highs(mp, failed)
        found, cert = coherence._decide_rows(rows, *coherence._lp_context(c, rows))
    if route == "handed in":
        assert found == "HiGHS strict omega"
    else:
        (_args, (y, _lam)), = proposals
        assert found == ("HiGHS strict omega" if y is not None else "exact simplex")
        assert y is None or route == "HiGHS strict omega"
        if y is None:
            (_args, (omega, _t)), = optima
        else:
            omega = tuple(Fraction(x, y[1]) for x in y[0])
    omega = _remove_c_component(omega, c)
    num, den = exactgeom._over_common_denominator(omega)
    assert (cert.omega, cert.margin) == (omega, Fraction(min(dot(row, num) for row in rows), den))
    assert [str(x) for x in cert.omega] == [str(x) for x in omega]
