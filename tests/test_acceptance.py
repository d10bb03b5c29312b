"""Acceptance suite: every reproduction table, oracle equivalence, property
suite, and statistical check, one test per criterion.

Run `pytest -v -s tests/test_acceptance.py` to get one printed line per
criterion in addition to the pytest verdicts.  Statistical criteria use the
fixed seed below.
"""
import math
import warnings
from fractions import Fraction

import pytest
from scipy import integrate, special

from pathspectra import (Polytope, coherent_paths, coherent_spectrum,
                         count_paths_by_length, enumerate_paths, is_coherent,
                         is_log_concave, is_ultra_log_concave, is_unimodal,
                         orient, prism_spectrum, sample_coherent, shadow_path)
from pathspectra import zoo
from pathspectra.betasim import (SimConfig, clt_check, estimate_growth_exponent,
                                 first_diff_moment, floating_radius, simulate_Qn)
from pathspectra.pathcount import LengthSpectrum
from test_betasim import cap_measure, cap_measure_asymptotic, max_independent_caps
from test_zoo import c_lex, canonical_direction

SEED = 20260808


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def dp(P, c, **kw):
    return count_paths_by_length(orient(P, c, **kw))


# ---------------------------------------------------------------------------
# Table reproduction (exact, zero tolerance)
# ---------------------------------------------------------------------------

def test_p10_monotone_table():
    spec = dp(zoo.p10(), (1, 0, 0))
    ok = spec.values() == [3, 8, 12, 11, 12, 6, 1] and spec.total == 53 \
        and (spec.min_len, spec.max_len) == (2, 8)
    report("p10 spectrum (3,8,12,11,12,6,1), total 53", ok, str(spec.counts))


def test_p10_spherical_on_float_backend():
    """The sphere-normalized p10 keeps each double coordinate as its exact
    dyadic rational."""
    P = zoo.p10_spherical()
    for x in (x for v in P.vertices for x in v):
        assert isinstance(x, Fraction) and x.denominator & (x.denominator - 1) == 0
    spec = dp(P, (1, 0, 0))
    ok = spec.values() == [4, 8, 10, 8, 11, 6, 1] and spec.min_len == 2
    report("spherical p10 spectrum (4,8,10,8,11,6,1) on its exact dyadic coordinates", ok,
           str(spec.counts))


def test_lopsided_3_table_and_coherence():
    P = zoo.lopsided_cube(3)
    spec = dp(P, (1, 1, 1))
    coh = coherent_spectrum(P, (1, 1, 1))
    ok = spec.counts == {2: 2, 4: 4} and coh.counts == {2: 2, 4: 4}
    report("lopsided 3-cube {2:2, 4:4} with all 6 paths coherent", ok)


@pytest.mark.parametrize("d", [4, 5])
def test_lopsided_cube_dp_and_prism(d):
    spec = dp(zoo.lopsided_cube(d), (1,) * d)
    lifted = prism_spectrum(dp(zoo.lopsided_cube(3), (1, 1, 1)), d - 3)
    expected = {d - 1: math.factorial(d - 1), d + 1: math.factorial(d + 1) // 6}
    ok = spec.counts == expected and lifted.counts == expected
    report(f"lopsided {d}-cube {{{d-1}:{expected[d-1]}, {d+1}:{expected[d+1]}}} by DP and prism lift", ok)


def test_truncated_lopsided_4_table():
    spec = dp(zoo.truncated_lopsided_4(), (1, 1, 1, 1))
    ok = spec.values() == [6, 22, 6, 8, 4] and (spec.min_len, spec.max_len) == (4, 8)
    report("truncated lopsided 4-cube (6,22,6,8,4) on lengths 4..8", ok, str(spec.counts))


def test_ass5_tables(ass5_pack):
    mono, coh = ass5_pack["monotone"], ass5_pack["coherent"]
    ok = (mono.values() == [1, 10, 22, 22, 18, 13, 12] and mono.total == 98
          and coh.values() == [1, 10, 21, 21, 18, 9, 10] and coh.total == 90
          and mono.min_len == 4)
    report("associahedron n=5: monotone row total 98, coherent row total 90", ok)


def test_ass6_tables(ass6_pack):
    mono, coh = ass6_pack["monotone"], ass6_pack["coherent"]
    ok = (mono.values() == [1, 20, 112, 232, 382, 348, 456, 390, 420, 334, 286]
          and mono.total == 2981
          and coh.values() == [1, 20, 105, 206, 332, 274, 332, 270, 206, 122, 142]
          and coh.total == 2010
          and (mono.min_len, mono.max_len) == (5, 15))
    report("associahedron n=6: monotone total 2981 and coherent total 2010, full rows", ok)


def test_complex_330_table():
    P = zoo.zero_one_from_complex(5, [(1, 4), (1, 2, 3, 5), (2, 3, 4, 5)])
    spec = dp(P, c_lex(5))
    ok = spec.values() == [2, 36, 96, 76, 84, 36] and spec.total == 330
    report("0/1 complex {14,1235,2345}: (2,36,96,76,84,36) total 330", ok)


def test_pure_complex_table():
    P = zoo.zero_one_from_complex(5, [(1, 2, 3), (1, 3, 4), (2, 4, 5), (3, 4, 5)])
    spec = dp(P, c_lex(5))
    ok = (spec.values() == [8, 40, 67, 62, 22, 8]
          and is_unimodal(spec) and not is_log_concave(spec))
    report("pure complex {123,134,245,345}: (8,40,67,62,22,8), unimodal, not log-concave", ok)


def test_complex_x4_coherent_values():
    F = zoo.fixture("complex-x4")
    coh = coherent_spectrum(F.polytope, F.direction)
    ok = coh.values() == [1, 4, 4, 5, 2] and not is_log_concave(coh)
    report("0/1 polytope X in dim 4: coherent values (1,4,4,5,2), not log-concave", ok,
           str(coh.counts))


# ---------------------------------------------------------------------------
# Oracle equivalence (exact)
# ---------------------------------------------------------------------------

def test_oracle_simplices_up_to_8():
    for d in range(1, 9):
        c = tuple(range(1, d + 1))
        assert dp(zoo.simplex(d), c) == zoo.simplex_spectrum(d), d
    report("simplex DP equals binomial closed form for d <= 8", True)


def test_oracle_cubes_up_to_7():
    for d in range(1, 8):
        assert dp(zoo.cube(d), (1,) * d) == zoo.cube_spectrum(d), d
    report("cube DP equals d! at length d for d <= 7", True)


def test_oracle_cross_polytopes_monotone_up_to_6():
    for d in range(2, 7):
        c = tuple(range(1, d + 1))
        spec = dp(zoo.cross_polytope(d), c)
        assert spec == zoo.crosspoly_monotone(d), d
        assert spec.total == (2 ** (2 * d - 1) - 2) // 3, d
    report("cross-polytope monotone DP equals closed form with total (2^(2d-1)-2)/3 for d <= 6", True)


def test_oracle_cross_polytopes_coherent_up_to_5():
    for d in range(2, 6):
        c = tuple(range(1, d + 1))
        coh = coherent_spectrum(zoo.cross_polytope(d), c)
        assert coh == zoo.crosspoly_coherent(d), d
        assert coh.total == 3 ** (d - 1) - 1, d
    report("cross-polytope coherent counts equal C(d-1,l-1) 2^(l-1) with total 3^(d-1)-1 for d <= 5", True)


def test_oracle_cyclic_coherent_d4():
    for n in range(5, 9):
        P = zoo.cyclic(4, range(1, n + 1))
        assert coherent_spectrum(P, (1, 0, 0, 0)) == zoo.cyclic_coherent(n, 4), n
    report("cyclic d=4 coherent counts equal the plateau formula for n <= 8", True)


def test_oracle_s_hypersimplices_up_to_7():
    cases = [(4, (2, 4)), (4, (1, 3, 4)), (5, (2, 5)), (5, (1, 3, 5)),
             (6, (2, 6)), (6, (2, 4, 6)), (7, (3, 7)), (7, (1, 4, 7))]
    for d, S in cases:
        P = zoo.s_hypersimplex(d, S)
        G = orient(P, (1,) * d, drop_level_ties=True)
        mono = count_paths_by_length(G)
        assert mono == zoo.s_hypersimplex_total(d, S), (d, S)
        assert len(mono.counts) == 1 and mono.min_len == len(S), (d, S)
        coh = coherent_spectrum(P, (1,) * d, graph=G)
        assert coh == mono, (d, S)
    report("S-hypersimplices d <= 7: single length |S|, multinomial total, all paths coherent", True)


def test_oracle_second_hypersimplex_up_to_6():
    totals = {}
    for n in (4, 5, 6):
        P = zoo.second_hypersimplex(n)
        c = canonical_direction(P)
        brute = coherent_spectrum(P, c)
        rec = zoo.second_hypersimplex_coherent(n)
        # the recursion's z-power counts path vertices, one above the edge count
        assert {l - 1: v for l, v in rec.counts.items()} == brute.counts, n
        totals[n] = brute.total
        assert brute.total == (25 * 4 ** (n - 4) - 1) // 3, n
    ok = totals == {4: 8, 5: 33, 6: 133}
    report("second hypersimplex coherent totals 8, 33, 133 match the matrix recursion", ok)


def test_oracle_products_of_simplices_up_to_5_5():
    for n in range(2, 6):
        for m in range(2, 6):
            P = zoo.product_of_simplices((n, m))
            assert dp(P, canonical_direction(P)) == zoo.product_simplices_spectrum(n, m), (n, m)
    P = zoo.product_of_simplices((4, 3))
    c = canonical_direction(P)
    assert coherent_spectrum(P, c) == count_paths_by_length(orient(P, c))
    report("products of simplices match the double-binomial formula up to (5,5) vertices", True)


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def spectra_collection(ass5_pack):
    out = []
    fixtures = [(zoo.cube(3), (1, 1, 1)), (zoo.cross_polytope(3), (1, 2, 3)),
                (zoo.cross_polytope(4), (1, 2, 3, 4)),
                (zoo.lopsided_cube(3), (1, 1, 1)), (zoo.lopsided_cube(4), (1, 1, 1, 1)),
                (zoo.p10(), (1, 0, 0)),
                (zoo.second_hypersimplex(4), (1, 2, 4, 8)),
                (zoo.product_of_simplices((3, 2)), (1, 2, 3)),
                (zoo.loday_associahedron(4), (1, 2, 3, 4))]
    for P, c in fixtures:
        G = orient(P, c)
        out.append((P, c, count_paths_by_length(G), coherent_spectrum(P, c, graph=G)))
    out.append((ass5_pack["P"], ass5_pack["c"], ass5_pack["monotone"], ass5_pack["coherent"]))
    return out


def test_pointwise_domination(spectra_collection):
    for P, c, mono, coh in spectra_collection:
        for l in range(mono.min_len, mono.max_len + 1):
            assert coh[l] <= mono[l], (P.label, l)
        assert coh.total >= 2
    report("coherent counts never exceed monotone counts, totals at least 2, on every fixture", True)


def test_sampler_contained_in_exact_coherent_set(ass5_pack):
    cases = [(zoo.cube(3), (1, 1, 1)), (zoo.cross_polytope(3), (1, 2, 3)),
             (ass5_pack["P"], ass5_pack["c"])]
    exact_sets = [
        {p for p, _ in coherent_paths(*cases[0])},
        {p for p, _ in coherent_paths(*cases[1])},
        {p for p, _ in ass5_pack["pairs"]},
    ]
    for (P, c), exact in zip(cases, exact_sets):
        draw = sample_coherent(P, orient(P, c), 10_000, seed=SEED)
        assert draw.paths <= exact, P.label
    report("10k sampled capture vectors never produce a path outside the exact coherent set (3 fixtures)", True)


def test_certificate_round_trips(ass5_pack, spectra_collection):
    checked = 0
    for P, c, _mono, _coh in spectra_collection[:6]:
        G = orient(P, c)
        for path, cert in coherent_paths(P, c, graph=G):
            assert shadow_path(P, c, cert.omega, graph=G) == path, (P.label, path)
            checked += 1
    for path, cert in ass5_pack["pairs"]:
        assert shadow_path(ass5_pack["P"], ass5_pack["c"], cert.omega,
                           graph=ass5_pack["G"]) == path
        checked += 1
    report("certificate round trip shadow_path(omega) == certified path", True,
           f"{checked} certificates")


def test_implication_chain_on_generated_spectra(spectra_collection):
    seen = 0
    for _P, _c, mono, coh in spectra_collection:
        for spec in (mono, coh):
            seen += 1
            if is_ultra_log_concave(spec):
                assert is_log_concave(spec), spec
            if is_log_concave(spec):
                assert is_unimodal(spec), spec
    report("ultra-log-concave implies log-concave implies unimodal on generated spectra", True,
           f"{seen} spectra")


def test_translation_and_scaling_invariance():
    cases = [(zoo.cross_polytope(3), (1, 2, 3), (5, -7, 2), 3),
             (zoo.lopsided_cube(3), (1, 1, 1), (1, 2, -1), 2),
             (zoo.p10(), (1, 0, 0), (-3, 4, 11), 5)]
    for P, c, shift, scale in cases:
        mono = dp(P, c)
        coh = coherent_spectrum(P, c)
        moved = Polytope([tuple(x + s for x, s in zip(v, shift)) for v in P.vertices])
        scaled = Polytope([tuple(scale * x for x in v) for v in P.vertices])
        for Q in (moved, scaled):
            assert dp(Q, c) == mono, P.label
            assert coherent_spectrum(Q, c) == coh, P.label
    report("spectra and coherence verdicts survive translation and positive scaling", True)


# ---------------------------------------------------------------------------
# Simulation criteria (statistical, fixed seeds)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [4, 5])
def test_growth_exponent(d):
    fit = estimate_growth_exponent(d, [2 ** k for k in range(8, 15)],
                                   trials=200, seed=SEED)
    target = 1 / (d - 1)
    ok = abs(fit.slope - target) <= 0.05
    report(f"growth exponent d={d}: slope within 0.05 of {target:.4f}", ok,
           f"slope={fit.slope:.4f}")


def test_cap_quadrature_matches_asymptotics():
    ratios = {}
    for beta in (-0.5, 0.0, 1.0, 10.0):
        r = cap_measure(beta, 1 - 1e-6) / cap_measure_asymptotic(beta, 1 - 1e-6)
        ratios[beta] = r
        assert 0.95 <= r <= 1.05, (beta, r)
    report("cap measure over asymptotic formula within [0.95, 1.05] at 1-R = 1e-6", True,
           str({k: round(v, 6) for k, v in ratios.items()}))


@pytest.mark.parametrize("d", [4, 5, 6])
def test_independent_cap_count_exponent(d):
    import numpy as np
    beta = d / 2 - 2
    eps_grid = [10.0 ** (-k) for k in range(3, 9)]
    xs = [math.log(1 / e) for e in eps_grid]
    ys = [math.log(max_independent_caps(beta, e)) for e in eps_grid]
    slope = float(np.polyfit(xs, ys, 1)[0])
    ok = abs(slope - 1 / (d - 1)) <= 0.05
    report(f"independent cap count d={d}: slope within 0.05 of {1/(d-1):.4f}", ok,
           f"slope={slope:.4f}")


def test_efron_stein_consistency():
    runs = []
    grid = [(d, 2 ** k) for d in (4, 5) for k in range(6, 13)] \
        + [(6, 2 ** k) for k in range(6, 12)]
    for d, n in grid:
        rep = first_diff_moment(SimConfig(d=d, n=n, trials=300, seed=SEED ^ (d * 1000 + n)), p=2)
        runs.append(rep.var_f0 <= rep.es_proxy)
    rate = sum(runs) / len(runs)
    ok = rate >= 0.95
    report("jackknife bound Var f0 <= (n+1) E[(D f0)^2] holds in at least 95% of grid runs", ok,
           f"{sum(runs)}/{len(runs)}")


def _exact_mean_f0(d, n):
    """E f0 for n i.i.d. points of the planar beta law, beta = d/2 - 2, with
    no sampling (Renyi and Sulanke; Blaschke-Petkantschin on lines):

    C(n,2) 2 pi C^2 K(beta) int_0^1 (1 - p^2)^((4 beta + 3)/2) [s^(n-2) + (1 - s)^(n-2)] dp,

    where C is the density constant, s = cap_measure(beta, p) and
    K(beta) = int int_[-1,1]^2 (1 - u^2)^beta (1 - v^2)^beta |u - v| du dv.

    The line integral runs in q = 1 - p, with 1 - p^2 = q (2 - q) and
    s = I_{q (2 - q)}(beta + 3/2, 1/2) / 2, which is `cap_measure`'s
    (1 - I_{p^2}(1/2, beta + 3/2)) / 2 by the symmetry of the incomplete beta
    function.  p is never formed, so no node rounds to p = 1, though the
    integrand lives at q of order n^(-1 / (beta + 3/2)).
    """
    beta = d / 2 - 2
    c = (beta + 1) / math.pi
    half, _ = integrate.dblquad(lambda v, u: ((1 - u * u) * (1 - v * v)) ** beta * (u - v),
                                -1, 1, -1, lambda u: u, epsabs=0, epsrel=1e-9)

    def line(q):
        w = q * (2 - q)
        s = 0.5 * float(special.betainc(beta + 1.5, 0.5, w))
        return w ** ((4 * beta + 3) / 2) * (
            math.exp((n - 2) * math.log(s)) + math.exp((n - 2) * math.log1p(-s)))

    # the far side's mass s is about 1/n where the integrand lives
    rims = [1 - floating_radius(beta, x / n) for x in (0.1, 1, 10, 100) if x / n < 0.5]
    value, _ = integrate.quad(line, 0, 1, points=rims, limit=200, epsabs=0, epsrel=1e-10)
    return math.comb(n, 2) * 2 * math.pi * c * c * 2 * half * value


def test_exact_mean_of_three_points_is_three():
    means = {d: _exact_mean_f0(d, 3) for d in (3, 4, 5, 8)}
    ok = all(abs(m - 3) < 1e-8 for m in means.values())
    report("exact mean vertex count of three points is 3 for d in {3, 4, 5, 8}", ok, str(means))


def test_exact_mean_grows_as_the_square_root_of_n_in_d3():
    """E f0 grows as n^(1/(d - 1)); at d = 3, doubling n from 5 10^8 to
    10^9 multiplies it by sqrt 2, with no quadrature warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        half, full = _exact_mean_f0(3, 5 * 10 ** 8), _exact_mean_f0(3, 10 ** 9)
    ok = math.isfinite(full) and abs(full / half - math.sqrt(2)) <= 1e-4
    report("exact E f0 at d=3 grows by sqrt 2 from n=5e8 to n=1e9", ok,
           f"{half:.3f} -> {full:.3f}, ratio {full / half:.6f}")


@pytest.mark.parametrize("d, n", [(5, 10 ** 6), (8, 10 ** 7)])
def test_simulated_means_match_the_exact_mean(d, n):
    """A gate that does not depend on the stream: the simulated f0 and f1_up
    means sit within 4 standard errors of E f0 and E f1_up = E f0 / 2."""
    exact = _exact_mean_f0(d, n)
    rep = simulate_Qn(SimConfig(d=d, n=n, trials=400, seed=SEED))
    z = {name: (rep.summary[name]["mean"] - want) / rep.summary[name]["stderr"]
         for name, want in (("f0", exact), ("f1_up", exact / 2))}
    ok = all(abs(v) <= 4 for v in z.values())
    report(f"simulated means at d={d}, n={n} within 4 stderr of the exact E f0 = {exact:.2f}",
           ok, ", ".join(f"{k} z={v:+.2f}" for k, v in z.items()))


@pytest.fixture(scope="module")
def clt_results():
    return {n: clt_check(SimConfig(d=5, n=n, trials=2000, seed=SEED))
            for n in (10 ** 3, 10 ** 4, 10 ** 5)}


def test_clt_distance_decreases_with_n(clt_results):
    ks = [clt_results[n].ks for n in (10 ** 3, 10 ** 4, 10 ** 5)]
    ok = ks[0] > ks[1] > ks[2]
    report("Kolmogorov distance decreases across n in {1e3, 1e4, 1e5}", ok,
           f"ks={['%.4f' % k for k in ks]}")


def test_clt_smoothed_distance_small(clt_results):
    res = clt_results[10 ** 4]
    ok = res.ks_smoothed <= 0.05
    report("continuity-corrected Kolmogorov distance at n=1e4 is at most 0.05", ok,
           f"ks_smoothed={res.ks_smoothed:.4f}")


@pytest.mark.xfail(strict=True, reason=(
    "the chain length is integer valued; with std around 2.5 at n=1e4 the exact "
    "Kolmogorov distance to any continuous law is floored near 0.2/std ~ 0.08, "
    "so the raw 0.05 bound is unattainable even though the law is normal "
    "(the continuity-corrected distance is ~0.02)"))
def test_clt_literal_raw_distance(clt_results):
    res = clt_results[10 ** 4]
    report("raw Kolmogorov distance at n=1e4 is at most 0.05", res.ks <= 0.05,
           f"ks={res.ks:.4f}")
