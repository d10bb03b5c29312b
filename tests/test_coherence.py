from fractions import Fraction

import pytest

from pathspectra import (FLOAT, IndeterminateError, InputError,
                         MonotonePath, Polytope, coherent_paths,
                         coherent_spectrum, count_paths_by_length,
                         enumerate_paths, is_coherent, orient, sample_coherent,
                         shadow_path, slope_cone)
from pathspectra import zoo
from pathspectra.exactgeom import dot


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


def test_certificate_round_trip():
    cases = [(zoo.cross_polytope(3), (1, 2, 3)),
             (zoo.cube(3), (1, 1, 1)),
             (zoo.lopsided_cube(3), (1, 1, 1)),
             (zoo.loday_associahedron(4), (1, 2, 3, 4))]
    for P, c in cases:
        for path, cert in coherent_paths(P, c):
            assert cert.margin > 0
            assert dot(cert.omega, c) == 0  # certificate reported without its c-component
            assert shadow_path(P, c, cert.omega) == path


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
    draw = sample_coherent(P, (1, 1, 1), 400, seed=7)
    assert len(draw.paths) == 6


def test_sampling_is_deterministic_and_contained():
    P = zoo.cube(3)
    c = (1, 1, 1)
    one = sample_coherent(P, c, 1, seed=3)
    assert len(one.paths) == 1
    again = sample_coherent(P, c, 200, seed=3)
    twice = sample_coherent(P, c, 200, seed=3)
    assert again.paths == twice.paths
    exact = {p for p, _ in coherent_paths(P, c)}
    assert again.paths <= exact
    with pytest.raises(InputError):
        sample_coherent(P, c, 0, seed=1)


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
    for path, cert in coherent_paths(P, c):
        doubled = tuple(2 * x for x in cert.omega)
        assert shadow_path(P, c, doubled) == path


def test_float_backend_raises_indeterminate_on_degenerate_cone():
    exact = zoo.cross_polytope(3)
    P = Polytope([tuple(map(float, v)) for v in exact.vertices],
                 backend=FLOAT)
    c = (1, 2, 3)
    G = orient(P, c)
    long_paths = [p for p in enumerate_paths(G) if p.length == 4]
    with pytest.raises(IndeterminateError):
        for p in long_paths:
            is_coherent(P, c, p, graph=G)


def test_float_backend_certifies_clear_cones():
    exact = zoo.cube(3)
    P = Polytope([tuple(map(float, v)) for v in exact.vertices],
                 backend=FLOAT)
    c = (1, 1, 1)
    G = orient(P, c)
    for p in enumerate_paths(G):
        cert = is_coherent(P, c, p, graph=G)
        assert cert is not None and cert.margin > 1e-6


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
