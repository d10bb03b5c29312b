"""Monotone-path counting and enumeration, plus integer-sequence analytics.

Counting follows the standard topological-order dynamic program: the number of
paths of length l through an arc u -> v equals the number of paths of length
l - 1 reaching u.  All counts are exact big integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .errors import InputError
from .exactgeom import DirectedGraph


@dataclass(frozen=True)
class MonotonePath:
    """Source-to-sink vertex index sequence; length is the number of edges."""

    vertex_indices: tuple

    @property
    def length(self) -> int:
        return len(self.vertex_indices) - 1


class LengthSpectrum:
    """Map from path length to an exact count, with a contiguous value view."""

    def __init__(self, counts):
        cleaned = {}
        for length, count in dict(counts).items():
            length = int(length)
            count = int(count)
            if length < 0 or count < 0:
                raise InputError("lengths and counts must be nonnegative")
            if count:
                cleaned[length] = count
        if not cleaned:
            raise InputError("a length spectrum needs at least one positive count")
        self.counts = dict(sorted(cleaned.items()))

    @property
    def min_len(self) -> int:
        return next(iter(self.counts))

    @property
    def max_len(self) -> int:
        return next(reversed(self.counts))

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __getitem__(self, length) -> int:
        return self.counts.get(length, 0)

    def values(self):
        """Counts on the contiguous range [min_len, max_len], zeros included."""
        return [self[t] for t in range(self.min_len, self.max_len + 1)]

    def items(self):
        return self.counts.items()

    def __eq__(self, other):
        if isinstance(other, LengthSpectrum):
            return self.counts == other.counts
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.counts.items()))

    def __repr__(self):
        return f"LengthSpectrum({self.counts})"

    def to_csv_rows(self):
        return [(length, str(count)) for length, count in self.counts.items()]

    @classmethod
    def from_json_dict(cls, data) -> "LengthSpectrum":
        return cls({int(k): int(v) for k, v in data.items()})


def count_paths_by_length(G: DirectedGraph) -> LengthSpectrum:
    """Number of source-to-sink paths per edge count, by dynamic programming."""
    dp = [{} for _ in range(G.n)]
    dp[G.source][0] = 1
    for u in G.order:
        du = dp[u]
        if not du:
            continue
        for v in G.arcs[u]:
            dv = dp[v]
            for length, count in du.items():
                dv[length + 1] = dv.get(length + 1, 0) + count
    return LengthSpectrum(dp[G.sink])


def enumerate_paths(G: DirectedGraph) -> Iterator[MonotonePath]:
    """Every monotone path exactly once, lexicographic in the c-sorted order.

    A depth-first search that keeps one iterator over the remaining arcs of
    each vertex on the path, so no path is too long for the recursion limit.
    """
    sink = G.sink
    path, todo = [G.source], [iter(G.arcs[G.source])]
    while todo:
        if path[-1] == sink:
            yield MonotonePath(tuple(path))
        v = next(todo[-1], None)
        if v is None:
            todo.pop()
            path.pop()
        else:
            path.append(v)
            todo.append(iter(G.arcs[v]))


def prism_spectrum(spectrum: LengthSpectrum, k: int) -> LengthSpectrum:
    """Spectrum of the k-fold standard prism: count at k+l is (k+l)!/l! times count at l."""
    if k < 0:
        raise InputError("k must be nonnegative")
    out = {}
    for length, count in spectrum.items():
        factor = 1
        for t in range(length + 1, length + k + 1):
            factor *= t
        out[length + k] = factor * count
    return LengthSpectrum(out)


# ---------------------------------------------------------------------------
# Sequence analytics
# ---------------------------------------------------------------------------

Series = Union[LengthSpectrum, list, tuple]


def _series(S: Series):
    """Keys and values of the analyzed sequence.

    Spectra are read over their contiguous range including internal zeros,
    which is what makes parity-gapped spectra non-unimodal.
    """
    if isinstance(S, LengthSpectrum):
        keys = list(range(S.min_len, S.max_len + 1))
        vals = S.values()
    else:
        vals = list(S)
        keys = list(range(len(vals)))
    if not vals:
        raise InputError("empty sequence")
    return keys, vals


def is_unimodal(S: Series) -> bool:
    _, a = _series(S)
    i = 0
    while i + 1 < len(a) and a[i] <= a[i + 1]:
        i += 1
    while i + 1 < len(a) and a[i] >= a[i + 1]:
        i += 1
    return i + 1 == len(a)


def modes(S: Series):
    """All argmax positions: lengths for a spectrum, 0-based indices otherwise."""
    keys, a = _series(S)
    peak = max(a)
    return [k for k, v in zip(keys, a) if v == peak]


def _has_internal_zero(a):
    """Whether a zero lies strictly between two nonzero entries."""
    support = [k for k, x in enumerate(a) if x]
    return bool(support) and not all(a[support[0]:support[-1] + 1])


def is_log_concave(S: Series) -> bool:
    """Whether a_(k-1) a_(k+1) <= a_k^2 for every inner k and no zero lies
    between two nonzero entries (so that, for a nonnegative sequence,
    log-concave implies unimodal)."""
    _, a = _series(S)
    return not _has_internal_zero(a) and all(
        a[i - 1] * a[i + 1] <= a[i] * a[i] for i in range(1, len(a) - 1))


def is_ultra_log_concave(S: Series) -> bool:
    """Whether a_k / C(n, k) is log-concave, n = len(a) - 1: no internal zero
    and, clearing the binomials, (k+1)(n-k+1) a_(k-1) a_(k+1) <= k(n-k) a_k^2
    for 0 < k < n."""
    _, a = _series(S)
    n = len(a) - 1
    return not _has_internal_zero(a) and all(
        (k + 1) * (n - k + 1) * a[k - 1] * a[k + 1] <= k * (n - k) * a[k] * a[k]
        for k in range(1, n))


def is_symmetric(S: Series) -> bool:
    _, a = _series(S)
    return a == a[::-1]
