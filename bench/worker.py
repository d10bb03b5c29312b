"""One workload in one fresh process: set up, run timed passes, check outputs.

Started by `run.py`; prints a single JSON object on its last stdout line.
With --setup-only it stops after set-up and reports only its set-up times.
With --no-audit it skips the costly oracles and reports digests of its
outputs, which run.py compares with those of an audited process.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# an untraced worker measures for --seconds and for this many passes at least
# (run.py splits a run's seconds over several workers)
MIN_PASSES = 1


def _run_pass(cli, commands, outputs):
    """Run every command once; return the pass's wall seconds (commands only)."""
    elapsed = 0.0
    for argv in commands:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = "exception"
        elapsed += time.perf_counter() - t0
        outputs.append((rc, buf.getvalue()))
    return elapsed


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--no-audit", action="store_true",
                    help="skip the costly oracles; run.py compares output digests instead")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    from pathspectra import cli, exactgeom
    exactgeom._highs()  # imports scipy.optimize.linprog, cached for every later LP
    from workloads import SETUP_REFERENCE, Workload
    workdir = tempfile.mkdtemp(dir=args.workdir)
    try:
        work = Workload(args.workload, workdir, args.seed, args.smoke,
                        audit=not args.no_audit)
        commands = work.prepare()
        result = {"setup_s": time.perf_counter() - t0}
        if not args.trace:
            from reference import reference_s, scaled_s
            result["setup_scaled_s"] = scaled_s(result["setup_s"],
                                                reference_s(SETUP_REFERENCE), SETUP_REFERENCE)
        if not args.setup_only:
            result.update(_measure(args, cli, work, commands, workdir))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _digest(outputs, artifacts, workdir):
    """Digest of one pass's outputs, with the work directory's path masked."""
    h = hashlib.sha256()
    for (rc, out), artifact in zip(outputs, artifacts):
        h.update(f"{rc}\0{out.replace(workdir, '<work>')}\0".encode())
        h.update((artifact or b"").replace(workdir.encode(), b"<work>") + b"\0")
    return h.hexdigest()


def _measure(args, cli, work, commands, workdir):
    tracer = None
    if args.trace:
        from tracing import STABLE_COUNTS, Tracer, layer_metrics
        tracer = Tracer()

    # A traced run alternates untraced ("U") and traced ("T") passes and ends
    # on a whole U/T pair; two pairs at least, so that it sees whether the
    # counts repeat and can compare each traced pass with the one before it.
    if args.smoke:
        min_passes = 2 if args.trace else 1
    else:
        min_passes = 4 if args.trace else MIN_PASSES
    reference = None
    if not args.trace:
        from reference import reference_s, scaled_s
        from workloads import REFERENCE
        reference = REFERENCE[args.workload]
    times = {"U": [], "T": [], "R": []}
    layers = []
    passes = []  # (outputs, artifacts) per pass
    start = time.perf_counter()
    k = 0
    last = 0.0
    # past the minimum, a pass starts only if it would end less than half a
    # pass after --seconds, so a run's length stays close to its budget
    while (k < min_passes or (args.trace and k % 2)
           or (not args.smoke and time.perf_counter() - start + last / 2 < args.seconds)):
        outputs = []
        if args.trace and k % 2:
            tracer.counts.clear()
            first_span = len(tracer.spans)
            tracer.install()
            try:
                times["T"].append(_run_pass(cli, commands, outputs))
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer.self_times(first_span), tracer.counts))
        else:
            if reference is not None:
                times["R"].append(reference_s(reference))
            times["U"].append(_run_pass(cli, commands, outputs))
        last = (times["T"] if args.trace and k % 2 else times["U"])[-1]
        passes.append((outputs, [work.artifacts(i) for i in range(len(commands))]))
        k += 1
    import numpy
    import scipy
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = []
    first = passes[0][0]
    for outputs, artifacts in passes:
        for i, (rc, out) in enumerate(outputs):
            try:
                err = work.check(i, rc, out, artifacts[i], first[i][1])
            except Exception as exc:  # a malformed output is a failed command
                err = f"oracle raised {exc!r}"
            if err:
                errors.append(f"{' '.join(commands[i][:2])}: {err}")
    result = {
        "pass_s": times["U"],
        "reference_s": times["R"],
        "attempted": sum(len(o) for o, _ in passes),
        "failed": len(errors),
        "errors": errors,
        "digests": sorted({_digest(o, a, workdir) for o, a in passes}),
        "peak_rss_mb": peak_rss_mb,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if reference is not None:
        result["pass_scaled_s"] = [scaled_s(p, r, reference)
                                   for p, r in zip(times["U"], times["R"])]
    if tracer is not None:
        tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
        result["traced_pass_s"] = times["T"]
        result["layers"] = layers
        result["flags"] = _unstable_counts(args.workdir, tag,
                                           [{k: m[k] for k in STABLE_COUNTS} for m in layers])
        spans_path = os.path.join(args.workdir, f"spans-{tag}.jsonl")
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        result["spans_file"] = os.path.relpath(spans_path)
    return result


def _source_digest():
    """Digest of the program's sources and of the workload definitions."""
    paths = [os.path.join(HERE, "workloads.py")]
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "pathspectra"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        paths += [os.path.join(base, name) for name in sorted(files)]
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _unstable_counts(workdir, tag, per_pass):
    """Counts that differ between the traced passes of this run, or from an
    earlier traced run of the same sources, workload and seed."""
    flags = [f"{key} differs between passes: {[c[key] for c in per_pass]}"
             for key in per_pass[0] if len({c[key] for c in per_pass}) > 1]
    path = os.path.join(workdir, f"counts-{tag}-{_source_digest()}.json")
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        flags += [f"{key} was {earlier[key]} in an earlier run, now {per_pass[0][key]}"
                  for key in per_pass[0] if earlier.get(key) != per_pass[0][key]]
    else:
        with open(path, "w") as fh:
            json.dump(per_pass[0], fh, indent=1)
    return flags


if __name__ == "__main__":
    print(json.dumps(main()))
