"""The benchmark's workloads: the commands of one pass, and their oracles.

Each workload is a fixed list of `pathspectra` command lines (one pass).
`prepare` emits the inputs into a work directory and returns the commands;
`check` decides, outside the timed window, whether every output of a pass is
correct and returns one error string per failed command (None when it passed).

Why these three:
- verify-tables: the recorded count tables; the certified edge graph
  (one HiGHS LP per vertex pair) dominates.
- coherent-spectra: per-path coherence certification dominates, on inputs
  that are all coherent (the product) and mostly incoherent (cross, cyclic),
  so both the omega proposal and the Gordan witness stages work.
- mc-bulk: d = 8, so most points fall deep inside the disk; sphere sampling
  and the 8-direction throwaway filter dominate.
Passes are sized so that a 24 s run holds about six of them (mc-bulk: about twenty).
`verify-tables` therefore leaves out the four slowest fast fixtures, ass5
(about 6 s of a 17 s `verify --all`), lopsided5 (3.5 s), complex-14-1235-2345
(1.8 s) and truncated-lopsided4 (1.6 s); `coherent-spectra` uses cross5,
hyp2-5, cyclic(4, 1..8) and the 3x4 product rather than their larger siblings.
A fourth, `simulate --d 3 --n 30000` (beta = -1/2, where the sort and monotone
chain dominate), was left out: on a shared 2-vCPU Xeon host its median pass
time spread by 0.20 and 0.32 of the median (quartile distance) over two sets
of ten runs, more than any bound a regression check can use.
"""
from __future__ import annotations

import json
import os
from fractions import Fraction

WORKLOADS = ("verify-tables", "coherent-spectra", "mc-bulk")

# the reference task (see reference.py) that each workload's passes are timed
# against, and the one for set-up
REFERENCE = {"verify-tables": "mixed", "coherent-spectra": "mixed", "mc-bulk": "numpy"}
SETUP_REFERENCE = "mixed"

# `betasim._rng` keys Philox by `seed ^ trial`, so two seeds whose difference
# lies in the bits below the trial count share trial streams.  The program
# seed keeps the benchmark seed above bit 20, far from the CLI default 0 and
# from every other benchmark seed.
_SEED_SHIFT = 20

# the fast recorded fixtures but for the four slowest (see the module docstring)
_VERIFY_FIXTURES = (
    "complex-123-134-245-345", "complex-x4", "cross3", "cross4", "cube3", "hyp2-5",
    "lopsided3", "lopsided4", "modified-lopsided3", "p10", "p10-sphere")

# (label, zoo builder, direction, reference coherent spectrum or None for
# "every path is coherent", i.e. the monotone spectrum)
_COHERENT_INPUTS = (
    ("cross5", lambda z: z.cross_polytope(5), "1,2,3,4,5",
     lambda z: z.crosspoly_coherent(5).counts),
    # the recursion's z-power counts path vertices, one above the edge count
    ("hyp2-5", lambda z: z.second_hypersimplex(5), "1,2,4,8,16",
     lambda z: {k - 1: v for k, v in z.second_hypersimplex_coherent(5).items()}),
    ("cyclic4-8", lambda z: z.cyclic(4, range(1, 9)), "1,0,0,0",
     lambda z: z.cyclic_coherent(8, 4).counts),
    ("prod3x4", lambda z: z.product_of_simplices((3, 4)), "1,2,3,4,5", None),
)
_COHERENT_SMOKE = (("cross3", lambda z: z.cross_polytope(3), "1,2,3",
                    lambda z: z.crosspoly_coherent(3).counts),)

# a pass (d, n, trials) takes about a second
_SIMULATE = ("8", "100000", "16")
_SIMULATE_SMOKE = ("8", "2000", "2")


def program_seed(seed: int) -> int:
    return (seed + 1) << _SEED_SHIFT


def uses_seed(workload: str) -> bool:
    return workload != "verify-tables"


class Workload:
    """Commands of one pass plus the state their oracles need."""

    def __init__(self, name, workdir, seed, smoke, audit=True):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.workdir = workdir
        self.seed = program_seed(seed)
        self.smoke = smoke
        # without audit the costly oracles (certificate audit, Qhull recount)
        # are skipped; run.py then requires the outputs to be byte-identical
        # to those of an audited process
        self.audit = audit
        self.commands = []
        self._inputs = []   # coherent-spectra: (label, json path, direction, reference)
        self._references = {}
        self._audited = {}  # certificate bytes or simulation stdout -> error or None

    def prepare(self):
        """Emit the inputs and build the pass's command lines (part of set-up)."""
        from pathspectra import zoo
        if self.name == "verify-tables":
            names = ["cube3"] if self.smoke else _VERIFY_FIXTURES
            self.commands = [["verify", *names, "--format", "json"]]
        elif self.name == "coherent-spectra":
            sample = "20" if self.smoke else "300"
            for label, build, direction, ref in (_COHERENT_SMOKE if self.smoke
                                                 else _COHERENT_INPUTS):
                path = os.path.join(self.workdir, f"{label}.json")
                with open(path, "w") as fh:
                    fh.write(build(zoo).to_json() + "\n")
                certs = os.path.join(self.workdir, f"{label}.certs.json")
                self._inputs.append((label, path, direction, ref))
                self.commands.append(["coherent", path, "--direction", direction,
                                      "--sample", sample, "--certificates", certs,
                                      "--seed", str(self.seed), "--format", "json"])
        else:
            d, n, trials = _SIMULATE_SMOKE if self.smoke else _SIMULATE
            self.commands = [["simulate", "--d", d, "--n", n, "--trials", trials,
                              "--seed", str(self.seed), "--format", "json"]]
        return self.commands

    def artifacts(self, index):
        """Files a command wrote, read after it ran (outside the timed window)."""
        if self.name != "coherent-spectra":
            return None
        argv = self.commands[index]
        with open(argv[argv.index("--certificates") + 1], "rb") as fh:
            return fh.read()

    # -- oracles

    def check(self, index, rc, stdout, artifact, first_stdout):
        """Error message for command `index` of one pass, or None if correct.

        `first_stdout` is the output of the same command in the run's first
        pass; simulations must rerun byte-identically.
        """
        if rc != 0:
            return f"exit code {rc}"
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        if self.name == "verify-tables":
            want = len(self.commands[0]) - 3  # verify <names> --format json
            got = doc["summary"]
            if not got["passed"] == got["total"] == want:
                return f"verify passed {got['passed']} of {got['total']}, want {want} of {want}"
            return None
        if self.name == "coherent-spectra":
            return self._check_coherent(index, doc, artifact)
        if stdout != first_stdout:
            return "simulation rerun is not byte-identical"
        for row in doc["rows"]:
            if row["f0"] != row["f1_up"] + row["f1_low"] or row["f0"] < 3:
                return f"bad hull counts {row}"
        if self.audit and stdout not in self._audited:
            self._audited[stdout] = self._check_hulls(doc["rows"])
        return self._audited.get(stdout)

    def _check_hulls(self, rows):
        """Recount every trial's hull with Qhull, from the program's own random
        draws (attempt 0; a collinear draw has probability 0) without its
        throwaway filter and monotone chain."""
        import numpy as np
        from scipy.spatial import ConvexHull
        from pathspectra import betasim
        argv = self.commands[0]
        d, n = int(argv[argv.index("--d") + 1]), int(argv[argv.index("--n") + 1])
        want_trials = int(argv[argv.index("--trials") + 1])
        if [row["trial"] for row in rows] != list(range(want_trials)):
            return f"rows for trials {[row['trial'] for row in rows]}, want 0..{want_trials - 1}"
        for row in rows:
            rng = betasim._rng(self.seed, row["trial"])
            xy = betasim.project_to_disk(betasim.sample_sphere(d, n, rng))
            cycle = ConvexHull(xy).vertices  # counterclockwise
            keys = np.lexsort((xy[cycle, 1], xy[cycle, 0]))
            lowest, highest = int(keys[0]), int(keys[-1])
            f0 = len(cycle)
            # counterclockwise from the lexicographic minimum runs the lower chain
            f1_low = (highest - lowest) % f0
            want = {"trial": row["trial"], "f0": f0, "f1_up": f0 - f1_low, "f1_low": f1_low}
            if row != want:
                return f"hull counts {row}, Qhull gives {want}"
        return None

    def _reference(self, index):
        if index not in self._references:
            from pathspectra import zoo
            from pathspectra.exactgeom import Polytope, orient
            _label, path, direction, ref = self._inputs[index]
            if ref is None:
                with open(path) as fh:
                    P = Polytope.from_json(fh.read())
                c = tuple(Fraction(x) for x in direction.split(","))
                counts = zoo.count_paths_by_length(orient(P, c)).counts
            else:
                counts = ref(zoo)
            self._references[index] = {int(k): int(v) for k, v in counts.items()}
        return self._references[index]

    def _check_coherent(self, index, doc, artifact):
        got = {int(r["length"]): int(r["count"]) for r in doc["rows"]}
        want = self._reference(index)
        if got != want:
            return f"{self._inputs[index][0]}: coherent counts {got}, want {want}"
        if doc["summary"].get("sample_contained") is not True:
            return f"{self._inputs[index][0]}: sample_contained is not true"
        if self.audit and artifact not in self._audited:
            self._audited[artifact] = self._audit(index, artifact, sum(want.values()))
        return self._audited.get(artifact)

    def _audit(self, index, artifact, total):
        """Re-check every certificate in Fraction arithmetic: every slope-cone
        row times omega is positive and `margin` is their minimum."""
        from pathspectra.coherence import slope_cone
        from pathspectra.exactgeom import Polytope, dot, orient
        from pathspectra.pathcount import MonotonePath
        label, path, direction, _ref = self._inputs[index]
        with open(path) as fh:
            P = Polytope.from_json(fh.read())
        c = tuple(Fraction(x) for x in direction.split(","))
        G = orient(P, c)
        certs = json.loads(artifact)["certificates"]
        if len({tuple(cert["path"]) for cert in certs}) != len(certs) or len(certs) != total:
            return f"{label}: {len(certs)} certificates for {total} coherent paths"
        for cert in certs:
            omega = tuple(Fraction(x) for x in cert["omega"])
            rows = slope_cone(P, c, MonotonePath(tuple(cert["path"])), graph=G).rows
            if not rows:
                continue
            values = [dot(row, omega) for row in rows]
            if min(values) <= 0 or Fraction(cert["margin"]) != min(values):
                return f"{label}: certificate for path {cert['path']} does not hold"
        return None

