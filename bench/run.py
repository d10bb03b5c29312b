"""pathspectra benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload verify-tables --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seconds 24      # every workload, one table
    python3 bench/run.py --workload mc-bulk --smoke       # toy sizes, one pass

Each workload runs in fresh single-threaded processes (see worker.py) that
drive `pathspectra.cli.main(argv)` in-process and check every output outside
the timed window.  An untraced run spreads its seconds over WORKERS measuring
processes, one after another, and reports the median over all their passes.
The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones (pass_s,
setup_s, peak_rss_mb; the times are scaled to a reference host speed, see
reference.py); with --trace 1 they are the per-layer ones from the traced
passes (see tracing.py).  Earlier lines hold the run record (commit, machine,
versions) and a readable summary with the unscaled wall times.  Traced runs
leave their spans in bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

from workloads import WORKLOADS, program_seed, uses_seed  # noqa: E402

# An untraced run splits its seconds over this many fresh measuring processes
# and pools their passes: a process's speed varies on a shared host (whole
# processes run up to ~20% slower than others), and a median over several
# processes is steadier than one over the passes of a single process.
# A process that only sets up runs between two measuring ones, so set-up is
# timed in 2 * WORKERS - 1 fresh processes per run.  Only the first measuring
# process runs the costly oracles; the others must reproduce its outputs.
WORKERS = 3
RUN_TIMEOUT_S = 170


def _child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _worker(args, deadline, seconds, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--workdir", OUT, *extra]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _record(args):
    rec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "smoke": args.smoke, "commit": _git_commit(),
           "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
           "loadavg_start": list(os.getloadavg())}
    if uses_seed(args.workload):
        rec["program_seed"] = program_seed(args.seed)
    else:
        rec["program_seed"] = None
        rec["seed_note"] = "verify-tables uses no randomness; the seed changes nothing"
    return rec


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(res, setups):
    # times scaled to the reference host speed (see reference.py)
    return {"pass_s": _metric(statistics.median(res["pass_scaled_s"]), "s"),
            "setup_s": _metric(statistics.median(s["setup_scaled_s"] for s in setups), "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB")}


def _per_layer(res):
    layers = res["layers"]
    out = {}
    for key, first in layers[0].items():
        unit = "s" if key.endswith("_s") else "ratio" if isinstance(first, float) else "count"
        out[key] = _metric(statistics.median(m[key] for m in layers), unit)
    traced, untraced = res["traced_pass_s"], res["pass_s"]
    out["trace.pass_s"] = _metric(statistics.median(traced), "s")
    out["trace.untraced_pass_s"] = _metric(statistics.median(untraced), "s")
    # each traced pass against the untraced pass just before it
    out["trace.overhead_ratio"] = _metric(
        statistics.median(t / u for u, t in zip(untraced, traced)), "ratio")
    # share of a traced pass charged to a named layer; the rest is cli.self_s,
    # which also takes any work that no wrapper covers
    out["trace.named_frac"] = _metric(
        statistics.median(1 - m["cli.self_s"] / t for m, t in zip(layers, traced)), "ratio")
    return out


def _pool(parts):
    """One result from the results of several measuring processes."""
    res = dict(parts[0])
    for key in ("pass_s", "reference_s", "pass_scaled_s"):
        res[key] = [t for part in parts for t in part[key]]
    res["peak_rss_mb"] = max(part["peak_rss_mb"] for part in parts)
    for key in ("attempted", "failed", "errors"):
        res[key] = sum((part[key] for part in parts[1:]), parts[0][key])
    audited = set(parts[0]["digests"])
    for i, part in enumerate(parts[1:], 1):
        if not audited.issuperset(part["digests"]):
            res["failed"] += 1
            res["errors"] = res["errors"] + [
                f"process {i}: outputs differ from those of the audited process 0"]
    return res


def run_workload(args):
    """Run one workload; return (record, result dict, summary lines)."""
    rec = _record(args)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    os.makedirs(OUT, exist_ok=True)
    if args.smoke or args.trace:
        res = _worker(args, deadline, args.seconds)
        setups = [res]
    else:
        # set-up-only and measuring processes alternate, so that both kinds
        # sample the host's speed over the whole run
        setups, parts = [], []
        for i in range(WORKERS):
            if i:
                setups.append(_worker(args, deadline, 0, "--setup-only"))
            parts.append(_worker(args, deadline, args.seconds / WORKERS,
                                 *(("--no-audit",) if i else ())))
            setups.append(parts[-1])
        res = _pool(parts)
    rec["loadavg_end"] = list(os.getloadavg())
    rec.update(res["versions"])
    rec["passes"] = len(res["pass_s"]) + len(res.get("traced_pass_s", ()))
    rec["processes"] = len(setups)
    metrics = _per_layer(res) if args.trace else _end_to_end(res, setups)
    flags = res.get("flags", [])
    result = {"correct": res["failed"] == 0 and not flags, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    wall = (f"pass {statistics.median(res['pass_s']):.4f} s "
            f"(median of {len(res['pass_s'])} untraced passes), "
            f"set-up {statistics.median(s['setup_s'] for s in setups):.4f} s "
            f"(median of {len(setups)})")
    if args.trace:
        lines = [f"{args.workload}: wall {wall}"]
    else:
        lines = [f"{args.workload}: pass_s {metrics['pass_s']['value']:.4f} s, "
                 f"setup_s {metrics['setup_s']['value']:.4f} s (scaled to the reference "
                 f"speed; reference {statistics.median(res['reference_s']):.4f} s), "
                 f"wall {wall}"]
    lines[0] += (f", peak_rss_mb {res['peak_rss_mb']:.1f} MB, "
                 f"fail_frac {res['failed'] / res['attempted']:.4f} "
                 f"({res['failed']}/{res['attempted']} commands)")
    lines += [f"  FAILED {e}" for e in res["errors"]]
    lines += [f"  UNSTABLE COUNT {f}" for f in flags]
    if args.trace:
        lines.append(f"  spans written to {res['spans_file']}")
        width = max(map(len, metrics))
        lines += [f"  {k:<{width}} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    return rec, result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy sizes and a single pass, for testing the benchmark")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pathspectra", "__init__.py")):
        print(f"no pathspectra sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        args.workload = name
        rec, result, lines = run_workload(args)
        print("record: " + json.dumps(rec))
        print("\n".join(lines), flush=True)
        results.append(result)
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in results),
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results),
                          "metrics": {f"{n}/{k}": m for n, r in zip(names, results)
                                      for k, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
