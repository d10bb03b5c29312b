"""Command-line front end.

Subcommands: count, coherent, zoo, verify, simulate, growth, diffmoment,
cltcheck, floatbody.  Exit codes: 0 success, 1 input error, 2 genericity or
degeneracy, 3 verification mismatch.

Every output embeds a run manifest (command line, seed, backend, versions,
input digests).  Timestamps are left unset unless --stamp-time is given, so a
rerun with the same flags produces byte-identical files.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from fractions import Fraction

import numpy
import scipy

from . import __version__
from .betasim import (SimConfig, clt_check, estimate_growth_exponent,
                      first_diff_moment, floating_containment_rate,
                      simulate_Qn)
from .coherence import coherent_paths, sample_coherent
from .errors import (DegeneracyError, GenericityError, IndeterminateError,
                     InputError, VerificationMismatch)
from .exactgeom import FLOAT, RATIONAL, Float, Polytope, orient
from .pathcount import (LengthSpectrum, count_paths_by_length, is_log_concave,
                        is_symmetric, is_ultra_log_concave, is_unimodal, modes)
from . import zoo


@dataclass
class RunManifest:
    command: list
    seed: int
    backend: str
    versions: dict
    timestamp: str
    input_digests: dict


def _manifest(args, inputs=()):
    versions = {"pathspectra": __version__, "numpy": numpy.__version__,
                "scipy": scipy.__version__}
    digests = {}
    for path in inputs:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            h.update(fh.read())
        digests[path] = h.hexdigest()
    stamp = datetime.now(timezone.utc).isoformat() if args.stamp_time else "unset"
    return RunManifest(command=list(args.argv), seed=args.seed,
                       backend=args.backend, versions=versions,
                       timestamp=stamp, input_digests=digests)


def _emit(args, manifest, rows, header, summary=None, extra_comments=()):
    """Write CSV (rows + comment manifest/summary) or a single JSON document."""
    if args.format == "json":
        doc = {"manifest": asdict(manifest),
               "rows": [dict(zip(header, r)) for r in rows]}
        if summary is not None:
            doc["summary"] = summary
        text = json.dumps(doc, indent=2, default=str) + "\n"
    else:
        import csv
        import io
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        lines = [f"# manifest: {json.dumps(asdict(manifest))}"]
        lines.append(buf.getvalue().rstrip("\n"))
        lines += list(extra_comments)
        if summary is not None:
            lines.append(f"# summary: {json.dumps(summary, default=str)}")
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _backend(args):
    if args.backend == "rational":
        return RATIONAL
    if args.backend == "float":
        return Float(args.tolerance) if args.tolerance is not None else FLOAT
    raise InputError(f"unknown backend {args.backend!r}")


def _parse_direction(text, dim):
    try:
        parts = [Fraction(p) for p in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad direction {text!r}: {exc}") from exc
    if len(parts) != dim:
        raise InputError(f"direction has {len(parts)} entries, polytope has dimension {dim}")
    return tuple(parts)


def _load_polytope(path, backend):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return Polytope.from_json(text, backend=backend)


def _spectrum_analytics(spec: LengthSpectrum):
    return {
        "unimodal": is_unimodal(spec),
        "log_concave": is_log_concave(spec),
        "ultra_log_concave": is_ultra_log_concave(spec),
        "symmetric": is_symmetric(spec),
        "modes": modes(spec),
        "total": str(spec.total),
    }


def cmd_count(args):
    backend = _backend(args)
    P = _load_polytope(args.polytope, backend)
    direction = _parse_direction(args.direction, P.dim)
    G = orient(P, direction, drop_level_ties=args.allow_level_ties)
    spec = count_paths_by_length(G)
    manifest = _manifest(args, inputs=[args.polytope])
    analytics = _spectrum_analytics(spec)
    _emit(args, manifest, spec.to_csv_rows(), ("length", "count"),
          summary=analytics,
          extra_comments=[f"# analytics: {json.dumps(analytics)}"])
    return 0


def cmd_coherent(args):
    backend = _backend(args)
    P = _load_polytope(args.polytope, backend)
    direction = _parse_direction(args.direction, P.dim)
    G = orient(P, direction, drop_level_ties=args.allow_level_ties)
    counts = {}
    certs = []
    for path, cert in coherent_paths(P, direction, graph=G):
        counts[path.length] = counts.get(path.length, 0) + 1
        certs.append({
            "path": list(path.vertex_indices),
            "omega": [str(x) for x in cert.omega],
            "margin": str(cert.margin),
        })
    spec = LengthSpectrum(counts)
    manifest = _manifest(args, inputs=[args.polytope])
    summary = _spectrum_analytics(spec)
    if args.sample:
        draw = sample_coherent(P, direction, args.sample, args.seed)
        exact = {tuple(c["path"]) for c in certs}
        sampled = {tuple(p.vertex_indices) for p in draw.paths}
        summary["sampled_paths"] = len(sampled)
        summary["sample_degenerate_skips"] = draw.degenerate
        summary["sample_contained"] = sampled <= exact
    cert_path = args.certificates or (args.out + ".certs.json" if args.out else None)
    if cert_path:
        with open(cert_path, "w") as fh:
            json.dump({"manifest": asdict(manifest), "certificates": certs}, fh, indent=2)
    _emit(args, manifest, spec.to_csv_rows(), ("length", "count"), summary=summary)
    return 0


def cmd_zoo(args):
    if args.zoo_command == "list":
        names = sorted(zoo._BUILDERS)
        families = ["simplex --d D", "cube --d D", "cross --d D",
                    "cyclic --d D --n N", "shyp --d D --s S1,S2,...",
                    "hyp2 --d D", "lopsided --d D", "ass --n N",
                    "prod --counts M1,M2", "complex --n N --facets F1,F2,..."]
        sys.stdout.write("fixtures:\n" + "\n".join(f"  {n}" for n in names) + "\n")
        sys.stdout.write("families:\n" + "\n".join(f"  {f}" for f in families) + "\n")
        return 0
    P = _zoo_build(args)
    text = P.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


def _zoo_build(args):
    name = args.name
    if name in zoo._BUILDERS:
        return zoo._BUILDERS[name]()
    need = lambda v, what: v if v is not None else (_ for _ in ()).throw(
        InputError(f"zoo emit {name} needs --{what}"))
    if name == "simplex":
        return zoo.simplex(need(args.d, "d"))
    if name == "cube":
        return zoo.cube(need(args.d, "d"))
    if name == "cross":
        return zoo.cross_polytope(need(args.d, "d"))
    if name == "cyclic":
        return zoo.cyclic(need(args.d, "d"), range(1, need(args.n, "n") + 1))
    if name == "shyp":
        S = [int(x) for x in need(args.s, "s").split(",")]
        return zoo.s_hypersimplex(need(args.d, "d"), S)
    if name == "hyp2":
        return zoo.second_hypersimplex(need(args.d, "d"))
    if name == "lopsided":
        return zoo.lopsided_cube(need(args.d, "d"))
    if name == "ass":
        return zoo.loday_associahedron(need(args.n, "n"))
    if name == "prod":
        counts = [int(x) for x in need(args.counts, "counts").split(",")]
        return zoo.product_of_simplices(counts)
    if name == "complex":
        facets = [tuple(int(ch) for ch in f) for f in need(args.facets, "facets").split(",")]
        return zoo.zero_one_from_complex(need(args.n, "n"), facets)
    raise InputError(f"unknown zoo name {name!r}")


def _spectrum_cell(spec):
    if spec is None:
        return "-"
    return " ".join(f"{k}:{v}" for k, v in spec.items())


def cmd_verify(args):
    names = args.names or None
    if args.all or not names:
        names = zoo.fixture_names(include_slow=args.include_slow)
    rows = []
    failures = []
    for n in names:
        F = zoo.fixture(n)
        r = zoo.verify_fixture(F)
        expected = _spectrum_cell(F.expected_monotone) + (
            " | coh " + _spectrum_cell(F.expected_coherent) if F.expected_coherent else "")
        computed = _spectrum_cell(r.computed_monotone) + (
            " | coh " + _spectrum_cell(r.computed_coherent) if r.computed_coherent else "")
        rows.append((r.name, expected, computed,
                     "pass" if r.passed else "FAIL", r.source))
        failures.extend(r.diffs)
    manifest = _manifest(args)
    passed = sum(1 for r in rows if r[3] == "pass")
    _emit(args, manifest, rows, ("fixture", "expected", "computed", "status", "source"),
          summary={"passed": passed, "total": len(rows)})
    if failures:
        raise VerificationMismatch("; ".join(failures))
    return 0


def cmd_simulate(args):
    cfg = SimConfig(d=args.d, n=args.n, trials=args.trials, seed=args.seed)
    rep = simulate_Qn(cfg)
    rows = [(t, rep.f0[t], rep.f1_up[t], rep.f1_low[t]) for t in range(cfg.trials)]
    summary = {"summary": rep.summary, "degenerate_retries": rep.degenerate_retries,
               "config": {"d": cfg.d, "n": cfg.n, "trials": cfg.trials, "seed": cfg.seed}}
    _emit(args, _manifest(args), rows, ("trial", "f0", "f1_up", "f1_low"), summary=summary)
    return 0


def cmd_growth(args):
    grid = [2 ** k for k in range(args.log2_min, args.log2_max + 1)]
    fit = estimate_growth_exponent(args.d, grid, args.trials, args.seed)
    rows = [(n, mean) for n, mean in fit.points]
    summary = {"slope": fit.slope, "stderr": fit.stderr,
               "ci": [fit.ci_low, fit.ci_high], "target": 1.0 / (args.d - 1)}
    _emit(args, _manifest(args), rows, ("n", "mean_f0"), summary=summary)
    return 0


def cmd_diffmoment(args):
    cfg = SimConfig(d=args.d, n=args.n, trials=args.trials, seed=args.seed)
    rep = first_diff_moment(cfg, args.p)
    rows = [("moment", rep.moment), ("second_moment", rep.second_moment),
            ("es_proxy", rep.es_proxy), ("var_f0", rep.var_f0),
            ("mean_f0", rep.mean_f0), ("zero_rate", rep.zero_rate)]
    summary = {"p": rep.p, "es_bound_holds": rep.var_f0 <= rep.es_proxy}
    _emit(args, _manifest(args), rows, ("statistic", "value"), summary=summary)
    return 0


def cmd_cltcheck(args):
    cfg = SimConfig(d=args.d, n=args.n, trials=args.trials, seed=args.seed)
    res = clt_check(cfg)
    rows = [("ks", res.ks), ("mean", res.mean), ("std", res.std)]
    summary = {"ks": res.ks, "reliable": res.reliable}
    _emit(args, _manifest(args), rows, ("statistic", "value"), summary=summary)
    return 0


def cmd_floatbody(args):
    cfg = SimConfig(d=args.d, n=args.n, trials=args.trials, seed=args.seed)
    rep = floating_containment_rate(cfg, args.c0)
    rows = [(t, int(flag)) for t, flag in enumerate(rep.contained)]
    summary = {"rate": rep.rate, "eps": rep.eps, "radius": rep.radius}
    _emit(args, _manifest(args), rows, ("trial", "contained"), summary=summary)
    return 0


def _add_global_options(parser, suppress):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--backend", choices=("rational", "float"),
                        default=d if suppress else "rational")
    parser.add_argument("--tolerance", type=float, default=d,
                        help="float backend tolerance (default 1e-9)")
    parser.add_argument("--seed", type=int, default=d if suppress else 0)
    parser.add_argument("--out", default=d, help="output file (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"),
                        default=d if suppress else "csv")
    parser.add_argument("--stamp-time", action="store_true",
                        default=d if suppress else False,
                        help="embed a wall-clock timestamp in the manifest")


def build_parser():
    p = argparse.ArgumentParser(prog="pathspectra",
                                description="Monotone and coherent path spectra of polytopes")
    _add_global_options(p, suppress=False)
    # the same options are accepted after the subcommand; SUPPRESS keeps the
    # top-level values when they are not repeated there
    common = argparse.ArgumentParser(add_help=False)
    _add_global_options(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True, parser_class=lambda **kw:
                           argparse.ArgumentParser(parents=[common], **kw))

    c = sub.add_parser("count", help="monotone path counts by length")
    c.add_argument("polytope")
    c.add_argument("--direction", required=True, help="comma-separated rationals")
    c.add_argument("--allow-level-ties", action="store_true",
                   help="drop level edges instead of failing on them")
    c.set_defaults(func=cmd_count)

    c = sub.add_parser("coherent", help="coherent path counts and certificates")
    c.add_argument("polytope")
    c.add_argument("--direction", required=True)
    c.add_argument("--allow-level-ties", action="store_true")
    c.add_argument("--sample", type=int, default=0,
                   help="cross-check with this many random capture vectors")
    c.add_argument("--certificates", default=None, help="certificate JSON path")
    c.set_defaults(func=cmd_coherent)

    c = sub.add_parser("zoo", help="construct polytopes")
    zsub = c.add_subparsers(dest="zoo_command", required=True)
    zlist = zsub.add_parser("list")
    zlist.set_defaults(func=cmd_zoo)
    zemit = zsub.add_parser("emit")
    zemit.add_argument("name")
    zemit.add_argument("--d", type=int)
    zemit.add_argument("--n", type=int)
    zemit.add_argument("--s")
    zemit.add_argument("--counts")
    zemit.add_argument("--facets")
    zemit.set_defaults(func=cmd_zoo)

    c = sub.add_parser("verify", help="reproduce recorded fixture tables")
    c.add_argument("names", nargs="*")
    c.add_argument("--all", action="store_true")
    c.add_argument("--include-slow", action="store_true")
    c.set_defaults(func=cmd_verify)

    c = sub.add_parser("simulate", help="hull statistics of projected sphere samples")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--trials", type=int, default=5)
    c.set_defaults(func=cmd_simulate)

    c = sub.add_parser("growth", help="growth exponent of the expected vertex count")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--log2-min", type=int, default=8)
    c.add_argument("--log2-max", type=int, default=14)
    c.add_argument("--trials", type=int, default=200)
    c.set_defaults(func=cmd_growth)

    c = sub.add_parser("diffmoment", help="moments of the one-point difference")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--trials", type=int, default=200)
    c.add_argument("--p", type=int, default=2)
    c.set_defaults(func=cmd_diffmoment)

    c = sub.add_parser("cltcheck", help="normality of the upper chain length")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--trials", type=int, default=2000)
    c.set_defaults(func=cmd_cltcheck)

    c = sub.add_parser("floatbody", help="containment rate of the floating body")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--trials", type=int, default=200)
    c.add_argument("--c0", type=float, required=True)
    c.set_defaults(func=cmd_floatbody)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (GenericityError, DegeneracyError, IndeterminateError) as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return 2
    except VerificationMismatch as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
