from types import SimpleNamespace

import numpy as np
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
    pairs = list(coherent_paths(P, c, graph=G))
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
    pairs = list(coherent_paths(P, c, graph=G))
    counts = {}
    for path, _ in pairs:
        counts[path.length] = counts.get(path.length, 0) + 1
    return {"P": P, "c": c, "G": G, "monotone": mono,
            "coherent": LengthSpectrum(counts), "pairs": pairs}


@pytest.fixture
def highs_fails(monkeypatch):
    """Make every HiGHS call fail (status 4, no solution); returns the call log.

    Every float proposal is then missing, so each verdict falls through to
    the exact simplex.
    """
    calls = []

    def linprog(*args, **kwargs):
        calls.append(kwargs)
        return SimpleNamespace(status=4, x=None)

    monkeypatch.setattr(exactgeom, "_highs_handle", (linprog, np))
    return calls
