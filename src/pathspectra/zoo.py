"""Polytope families, closed-form spectra, and the reproduction fixtures with
their recorded directions and expectations.  `FAMILIES` lists the
families the command line builds, each with the options it takes.

Closed forms act as independent oracles for the counting pipeline: whatever a
formula predicts, the dynamic program on the constructed polytope must match.
Recorded expectations live in data/expectations.json so verification diffs can
name their source.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import combinations, product
from typing import Optional

from .coherence import coherent_spectrum
from .errors import InputError
from .exactgeom import Polytope, _rational, orient
from .pathcount import LengthSpectrum, count_paths_by_length

def _binom(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# Family constructors
# ---------------------------------------------------------------------------

def simplex(d: int) -> Polytope:
    """Standard d-simplex: the origin and the d unit vectors."""
    if d < 1:
        raise InputError("simplex needs d >= 1")
    verts = [tuple(0 for _ in range(d))]
    verts += [tuple(1 if k == i else 0 for k in range(d)) for i in range(d)]
    return Polytope(verts, label=f"simplex-{d}")


def cube(d: int) -> Polytope:
    if d < 1:
        raise InputError("cube needs d >= 1")
    return Polytope(list(product((0, 1), repeat=d)), label=f"cube-{d}")


def cross_polytope(d: int) -> Polytope:
    if d < 1:
        raise InputError("cross-polytope needs d >= 1")
    verts = [tuple(s if k == i else 0 for k in range(d))
             for i in range(d) for s in (1, -1)]
    return Polytope(verts, label=f"cross-{d}")


def cyclic(d: int, t) -> Polytope:
    """Cyclic polytope on the moment curve at parameters t (strictly increasing)."""
    t = list(t)
    if d < 2 or len(t) <= d:
        raise InputError("cyclic needs d >= 2 and more than d parameters")
    if any(not a < b for a, b in zip(t, t[1:])):
        raise InputError("cyclic parameters must be strictly increasing")
    verts = [tuple(Fraction(x) ** k for k in range(1, d + 1)) for x in t]
    return Polytope(verts, label=f"cyclic-{d}-{len(t)}")


def s_hypersimplex(d: int, S) -> Polytope:
    """Convex hull of the 0/1 vectors whose coordinate sum lies in S or is zero.

    Requires d in S so the all-ones sink is a vertex.  The all-ones direction
    ties exactly on same-level edges (present whenever S skips levels), so this
    family is counted with level ties dropped; see `orient(..., drop_level_ties=True)`.
    """
    S = sorted(set(S))
    if not S or S[0] < 1 or S[-1] > d:
        raise InputError("S must be a nonempty subset of {1, ..., d}")
    if d not in S:
        raise InputError("S must contain d so the top vertex is unique")
    levels = {0, *S}
    verts = [v for v in product((0, 1), repeat=d) if sum(v) in levels]
    slug = "".join(str(s) for s in S)
    return Polytope(verts, label=f"shyp-{d}-{slug}")


def second_hypersimplex(d: int) -> Polytope:
    """Convex hull of the 0/1 vectors with exactly two ones."""
    if d < 4:
        raise InputError("second hypersimplex needs d >= 4")
    verts = []
    for i, j in combinations(range(d), 2):
        v = [0] * d
        v[i] = v[j] = 1
        verts.append(tuple(v))
    return Polytope(verts, label=f"hyp2-{d}")


# vertex k stands for the k-th subset of {1,2,3}: {} 1 2 3 12 13 23 123
_LOP3 = (
    (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (4, 1, 0), (2, 0, 1), (0, Fraction(1, 3), 1), (3, Fraction(1, 3), 1),
)


def lopsided_cube(d: int, prism_first: bool = False) -> Polytope:
    """Combinatorial d-cube whose all-ones orientation reverses one top arc.

    d = 3 is the hand-built instance; d > 3 stacks d-3 prism coordinates on it.
    `prism_first` puts the 0/1 prism block before the three lopsided
    coordinates (the layout the published truncation constants act on).
    """
    if d < 3:
        raise InputError("lopsided cube needs d >= 3")
    if d == 3:
        return Polytope(_LOP3, label="lopsided-3")
    verts = []
    for base in _LOP3:
        for bits in product((0, 1), repeat=d - 3):
            verts.append(bits + base if prism_first else base + bits)
    return Polytope(verts, label=f"lopsided-{d}")


def truncate_vertex(P: Polytope, normal, bound) -> Polytope:
    """Intersect P with <x, normal> <= bound; exactly one vertex may violate it.

    The cut vertex is replaced by the intersection points of its edges with the
    hyperplane.
    """
    a = [_rational(x) for x in normal]
    b = _rational(bound)
    if len(a) != P.dim:
        raise InputError("normal has wrong dimension")
    vals = [sum(x * y for x, y in zip(v, a)) for v in P.vertices]
    cut = [i for i, val in enumerate(vals) if val > b]
    if len(cut) != 1:
        raise InputError(f"hyperplane must cut exactly one vertex, cuts {len(cut)}")
    i = cut[0]
    u = P.vertices[i]
    verts = [v for k, v in enumerate(P.vertices) if k != i]
    for j in P.neighbors(i):
        w = P.vertices[j]
        t = (b - vals[i]) / (vals[j] - vals[i])
        verts.append(tuple(u[k] + t * (w[k] - u[k]) for k in range(P.dim)))
    return Polytope(verts, label=P.label + "-trunc")


def truncated_lopsided_4() -> Polytope:
    """Lopsided 4-cube (prism coordinate first) cut just below its top vertex."""
    P = lopsided_cube(4, prism_first=True)
    Q = truncate_vertex(P, (2, 4, 3, 3), Fraction(41, 2))
    Q.label = "truncated-lopsided-4"
    return Q


def modified_lopsided_3() -> Polytope:
    """Lopsided 3-cube with one vertex moved and another truncated: the
    all-ones counts (2, 2, 1, 4) are non-unimodal with no internal zeros.

    Moving the third unit vertex to (-1/2, 3/2, 0) absorbs the second one and
    leaves a 7-vertex solid; cutting the vertex (0, 1/3, 1) halfway below its
    peak in the direction (-3, 1, 4) yields the 10-vertex fixture.
    """
    base = list(_LOP3)
    base[3] = (Fraction(-1, 2), Fraction(3, 2), 0)
    P = Polytope(base, on_nonvertex="strip")
    a = (-3, 1, 4)
    vals = sorted(sum(x * y for x, y in zip(v, a)) for v in P.vertices)
    bound = vals[-1] - Fraction(1, 2) * (vals[-1] - vals[-2])
    Q = truncate_vertex(P, a, bound)
    Q.label = "modified-lopsided-3"
    return Q


_P10 = ((0, 0, 0), (1, -5, -5), (2, 0, -5), (3, -5, 0), (4, -6, 0),
        (5, -3, 5), (6, 5, 5), (7, 0, 5), (8, 5, 2), (9, 0, 0))


def p10() -> Polytope:
    """Ten-vertex simplicial 3-polytope with non-unimodal counts along e1."""
    return Polytope(_P10, label="p10")


def p10_spherical() -> Polytope:
    """The p10 vertices recentred at their barycenter and pushed to the unit
    sphere in floating point; each coordinate is the exact value of its double."""
    bary = [sum(v[k] for v in _P10) / Fraction(len(_P10)) for k in range(3)]
    verts = []
    for v in _P10:
        w = [float(v[k] - bary[k]) for k in range(3)]
        norm = math.sqrt(sum(x * x for x in w))
        verts.append(tuple(Fraction(x / norm) for x in w))
    return Polytope(verts, label="p10-sphere")


def _binary_trees(n: int):
    if n == 0:
        return [None]
    out = []
    for i in range(n):
        for left in _binary_trees(i):
            for right in _binary_trees(n - 1 - i):
                out.append((left, right))
    return out


def _loday(tree):
    """(leaf count, Loday coordinates in infix order) of a binary tree."""
    if tree is None:
        return 1, ()
    left, before = _loday(tree[0])
    right, after = _loday(tree[1])
    return left + right, before + (left * right,) + after


def loday_associahedron(n: int) -> Polytope:
    """Associahedron on binary trees with n internal nodes: coordinate i is the
    product of the left and right leaf counts at the i-th node in infix order."""
    if n < 2:
        raise InputError("associahedron needs n >= 2")
    return Polytope([_loday(tree)[1] for tree in _binary_trees(n)], label=f"ass-{n}")


def zero_one_polytope(n: int, sets, label: str = "") -> Polytope:
    """0/1 polytope spanned by the indicator vectors of the given subsets of [n]."""
    canon = sorted({frozenset(s) for s in sets}, key=lambda s: (len(s), sorted(s)))
    if any(not s <= set(range(1, n + 1)) for s in canon):
        raise InputError("subsets must live in {1, ..., n}")
    verts = [tuple(1 if i in s else 0 for i in range(1, n + 1)) for s in canon]
    return Polytope(verts, label=label or f"zeroone-{n}")


def zero_one_from_complex(n: int, facets) -> Polytope:
    """0/1 polytope of the simplicial complex generated by the facets (all subsets)."""
    sets = set()
    for f in facets:
        f = tuple(sorted(set(f)))
        for r in range(len(f) + 1):
            sets.update(map(frozenset, combinations(f, r)))
    slug = "-".join("".join(map(str, sorted(f))) or "0" for f in sorted(map(tuple, map(sorted, facets))))
    return zero_one_polytope(n, sets, label=f"complex-{n}-{slug}")


def product_of_simplices(vertex_counts) -> Polytope:
    """Product of simplices, one factor per entry; entries are vertex counts."""
    counts = list(vertex_counts)
    if not counts or any(m < 2 for m in counts):
        raise InputError("each factor needs at least 2 vertices")
    factors = []
    for m in counts:
        block = [tuple(0 for _ in range(m - 1))]
        block += [tuple(1 if k == i else 0 for k in range(m - 1)) for i in range(m - 1)]
        factors.append(block)
    verts = [sum(choice, ()) for choice in product(*factors)]
    slug = "x".join(map(str, counts))
    return Polytope(verts, label=f"prod-{slug}")


# The families `zoo emit` builds: name -> (constructor, the options it takes
# in order).  `zoo list` shows them in this order.
FAMILIES = {
    "simplex": (simplex, ("d",)),
    "cube": (cube, ("d",)),
    "cross": (cross_polytope, ("d",)),
    "cyclic": (lambda d, n: cyclic(d, range(1, n + 1)), ("d", "n")),
    "shyp": (s_hypersimplex, ("d", "s")),
    "hyp2": (second_hypersimplex, ("d",)),
    "lopsided": (lopsided_cube, ("d",)),
    "ass": (loday_associahedron, ("n",)),
    "prod": (product_of_simplices, ("counts",)),
    "complex": (zero_one_from_complex, ("n", "facets")),
}


# ---------------------------------------------------------------------------
# Closed-form spectra
# ---------------------------------------------------------------------------

def simplex_spectrum(d: int) -> LengthSpectrum:
    return LengthSpectrum({l: _binom(d - 1, l - 1) for l in range(1, d + 1)})


def cube_spectrum(d: int) -> LengthSpectrum:
    return LengthSpectrum({d: math.factorial(d)})


def crosspoly_monotone(d: int) -> LengthSpectrum:
    counts = {}
    for l in range(2, 2 * d - 1):
        counts[l] = 2 * sum(_binom(2 * k, l - 2) for k in range(d - 1))
    return LengthSpectrum(counts)


def crosspoly_coherent(d: int) -> LengthSpectrum:
    return LengthSpectrum({l: _binom(d - 1, l - 1) * 2 ** (l - 1)
                           for l in range(2, d + 1)})


def _compositions(total: int, parts: int) -> int:
    """Compositions of `total` into `parts` positive parts."""
    if parts == 0:
        return 1 if total == 0 else 0
    if total < parts:
        return 0
    return _binom(total - 1, parts - 1)


def cyclic_coherent(n: int, d: int) -> LengthSpectrum:
    """Coherent counts on the cyclic polytope along e1, via sign sequences.

    A coherent path of length l corresponds to a word in {+, -}^(n-2) with l-1
    plus signs and at most d-1 plateaus; a word with a plus-plateaus and b
    minus-plateaus contributes compositions(l-1, a) * compositions(n-1-l, b).
    """
    if d < 4:
        raise InputError("the plateau count applies for d >= 4")
    if n <= d:
        raise InputError("need more points than the dimension")
    counts = {}
    for l in range(1, n):
        plus, minus = l - 1, n - 1 - l
        total = 0
        for p in range(1, d):
            if p % 2 == 0:
                delta = p // 2
                total += 2 * _compositions(plus, delta) * _compositions(minus, delta)
            else:
                delta = p // 2
                total += (_compositions(plus, delta + 1) * _compositions(minus, delta)
                          + _compositions(plus, delta) * _compositions(minus, delta + 1))
        if total:
            counts[l] = total
    return LengthSpectrum(counts)


def s_hypersimplex_total(d: int, S) -> LengthSpectrum:
    """All paths share length |S|; their number is the multinomial of the level gaps."""
    S = sorted(set(S))
    if not S or S[0] < 1 or S[-1] != d:
        raise InputError("S must be a subset of {1, ..., d} containing d")
    count = math.factorial(d)
    prev = 0
    for s in S:
        count //= math.factorial(s - prev)
        prev = s
    return LengthSpectrum({len(S): count})


def product_simplices_spectrum(n: int, m: int) -> LengthSpectrum:
    """Paths per length on the product of simplices with n and m vertices."""
    if n < 2 or m < 2:
        raise InputError("factors need at least 2 vertices")
    counts = {}
    for l in range(1, n + m):
        total = sum(_binom(n - 2, k - 1) * _binom(m - 2, l - k - 1) * _binom(l, k)
                    for k in range(1, l + 1))
        if total:
            counts[l] = total
    return LengthSpectrum(counts)


def second_hypersimplex_coherent(n: int) -> LengthSpectrum:
    """Coefficients of the recursion T,Q,C under M = [[z,1+z,1+z],[0,1+z,z],[z+z^2,0,1+z]]
    from the seed (z^4 + 2z^3, z^4, 2z^4 + 2z^3); the coefficient of z^l in
    T + Q + C is the coherent count at length l."""
    if n < 4:
        raise InputError("defined for n >= 4")

    def padd(a, b):
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, 0) + v
        return out

    def pmul(a, b):
        out = {}
        for i, x in a.items():
            for j, y in b.items():
                out[i + j] = out.get(i + j, 0) + x * y
        return out

    z = {1: 1}
    one_plus_z = {0: 1, 1: 1}
    z_plus_z2 = {1: 1, 2: 1}
    T, Q, C = {4: 1, 3: 2}, {4: 1}, {4: 2, 3: 2}
    for _ in range(n - 4):
        T, Q, C = (
            padd(pmul(z, T), padd(pmul(one_plus_z, Q), pmul(one_plus_z, C))),
            padd(pmul(one_plus_z, Q), pmul(z, C)),
            padd(pmul(z_plus_z2, T), pmul(one_plus_z, C)),
        )
    return LengthSpectrum(padd(padd(T, Q), C))


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

@dataclass
class Fixture:
    name: str
    polytope: Polytope
    direction: tuple
    expected_monotone: Optional[LengthSpectrum]
    expected_coherent: Optional[LengthSpectrum]
    source: str


@dataclass
class FixtureReport:
    name: str
    passed: bool
    diffs: list
    computed_monotone: Optional[LengthSpectrum]
    computed_coherent: Optional[LengthSpectrum]
    source: str


_BUILDERS = {
    "cube3": lambda: cube(3),
    "p10": p10,
    "p10-sphere": p10_spherical,
    "lopsided3": lambda: lopsided_cube(3),
    "lopsided4": lambda: lopsided_cube(4),
    "lopsided5": lambda: lopsided_cube(5),
    "truncated-lopsided4": truncated_lopsided_4,
    "modified-lopsided3": modified_lopsided_3,
    "cross3": lambda: cross_polytope(3),
    "cross4": lambda: cross_polytope(4),
    "hyp2-5": lambda: second_hypersimplex(5),
    "ass5": lambda: loday_associahedron(5),
    "ass6": lambda: loday_associahedron(6),
    "complex-14-1235-2345": lambda: zero_one_from_complex(5, [(1, 4), (1, 2, 3, 5), (2, 3, 4, 5)]),
    "complex-123-134-245-345": lambda: zero_one_from_complex(5, [(1, 2, 3), (1, 3, 4), (2, 4, 5), (3, 4, 5)]),
    "complex-x4": lambda: zero_one_polytope(
        4, [(), (1,), (2,), (1, 2), (1, 3), (3, 4), (1, 2, 4)], label="complex-x4"),
}


def _expectations():
    text = resources.files("pathspectra").joinpath("data/expectations.json").read_text()
    return json.loads(text)


def _names(data, include_slow):
    return sorted(n for n in data if include_slow or not data[n].get("slow", False))


def fixture_names(include_slow=True):
    return _names(_expectations(), include_slow)


def fixtures(names=None, include_slow=True):
    """The named fixtures in order, or with no names every recorded one (the
    slow ones only with `include_slow`), from one parse of the expectations."""
    data = _expectations()
    for name in _names(data, include_slow) if names is None else names:
        yield fixture(name, data)


def fixture(name: str, data=None) -> Fixture:
    """The named fixture; `data` is the parsed expectations, read here when
    the caller has not."""
    if data is None:
        data = _expectations()
    if name not in data or name not in _BUILDERS:
        raise InputError(f"unknown fixture {name!r}; known: {', '.join(sorted(_BUILDERS))}")
    rec = data[name]
    P = _BUILDERS[name]()
    mono = LengthSpectrum.from_json_dict(rec["monotone"]) if rec.get("monotone") else None
    coh = LengthSpectrum.from_json_dict(rec["coherent"]) if rec.get("coherent") else None
    return Fixture(
        name=name,
        polytope=P,
        direction=tuple(Fraction(x) if isinstance(x, str) else x for x in rec["direction"]),
        expected_monotone=mono,
        expected_coherent=coh,
        source=rec["source"],
    )


def verify_fixture(F: Fixture) -> FixtureReport:
    """Recompute the fixture's spectra and diff them against its expectations."""
    G = orient(F.polytope, F.direction)
    mono = count_paths_by_length(G)
    diffs = []
    coh = None
    if F.expected_monotone is not None and mono != F.expected_monotone:
        diffs.append(f"monotone: expected {F.expected_monotone.counts}, got {mono.counts}")
    if F.expected_coherent is not None:
        coh = coherent_spectrum(F.polytope, F.direction, graph=G)
        if coh != F.expected_coherent:
            diffs.append(f"coherent: expected {F.expected_coherent.counts}, got {coh.counts}")
    return FixtureReport(name=F.name, passed=not diffs, diffs=diffs,
                         computed_monotone=mono, computed_coherent=coh,
                         source=F.source)
