from types import SimpleNamespace

import pytest

from pathspectra import count_paths_by_length, exactgeom, orient
from pathspectra import zoo
from pathspectra.coherence import coherent_paths
from pathspectra.pathcount import LengthSpectrum


@pytest.fixture(scope="session")
def ass5_pack():
    """Associahedron on 5 nodes with its orientation and both spectra."""
    P = zoo.loday_associahedron(5)
    c = (1, 2, 3, 4, 5)
    G = orient(P, c)
    mono = count_paths_by_length(G)
    pairs = list(coherent_paths(P, G))
    counts = {}
    for path, _ in pairs:
        counts[path.length] = counts.get(path.length, 0) + 1
    return {"P": P, "c": c, "G": G, "monotone": mono,
            "coherent": LengthSpectrum(counts), "pairs": pairs}


@pytest.fixture(scope="session")
def ass6_pack():
    P = zoo.loday_associahedron(6)
    c = (1, 2, 3, 4, 5, 6)
    G = orient(P, c)
    mono = count_paths_by_length(G)
    pairs = list(coherent_paths(P, G))
    counts = {}
    for path, _ in pairs:
        counts[path.length] = counts.get(path.length, 0) + 1
    return {"P": P, "c": c, "G": G, "monotone": mono,
            "coherent": LengthSpectrum(counts), "pairs": pairs}


def record_highs(mp, substitute=None):
    """Route every HiGHS call through one recorder, patched in with `mp`;
    returns its log of (args, model, result): the row-wise arguments, the
    dense model HiGHS sees rebuilt from them as `linprog` keyword arguments
    (`exactgeom._dense_cone_lp`), and the result.  The result is the
    solver's own, or `substitute(result)` in its place."""
    solve, np_ = exactgeom._highs()
    calls = []

    def recorded(*args):
        res = solve(*args)
        if substitute is not None:
            res = substitute(res)
        calls.append((args, exactgeom._dense_cone_lp(*args), res))
        return res
    mp.setattr(exactgeom, "_highs_handle", (recorded, np_))
    return calls


def failed(res):
    """A failed HiGHS solve (status 4, no solution) in place of `res`."""
    return SimpleNamespace(status=4, x=None)


@pytest.fixture
def highs_fails(monkeypatch):
    """Make every HiGHS call fail (status 4, no solution); returns the call log.

    Every float proposal is then missing, so each verdict falls through to
    the exact simplex.
    """
    return record_highs(monkeypatch, failed)


def _without_duals(res):
    if res.status == 0:
        res.ineqlin.marginals = [0.0] * len(res.ineqlin.marginals)
    return res


@pytest.fixture
def highs_without_duals(monkeypatch):
    """Run HiGHS as usual but zero every row dual (`ineqlin.marginals`), so no
    Gordan witness can be read off them."""
    record_highs(monkeypatch, _without_duals)
