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
import functools
import hashlib
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction

import numpy
import scipy

from . import __version__
from .betasim import (SimConfig, clt_check, estimate_growth_exponent,
                      first_diff_moment, floating_containment_rate,
                      simulate_Qn)
from .coherence import coherent_paths, sample_coherent
from .errors import (DegeneracyError, GenericityError, InputError,
                     VerificationMismatch)
from .exactgeom import Polytope, _rational, orient
from .pathcount import (LengthSpectrum, count_paths_by_length, is_log_concave,
                        is_symmetric, is_ultra_log_concave, is_unimodal, modes)
from . import zoo


def _manifest(args, digests=None):
    """The run manifest; digests maps each input path to its SHA-256."""
    versions = {"pathspectra": __version__, "numpy": numpy.__version__,
                "scipy": scipy.__version__}
    stamp = datetime.now(timezone.utc).isoformat() if args.stamp_time else "unset"
    return {"command": list(args.argv), "seed": args.seed, "backend": args.backend,
            "versions": versions, "timestamp": stamp, "input_digests": digests or {}}


def _emit(args, manifest, rows, header, summary, extra_comments=()):
    """Write CSV (rows + comment manifest/summary) or a single JSON document."""
    if args.format == "json":
        doc = {"manifest": manifest,
               "rows": [dict(zip(header, r)) for r in rows],
               "summary": summary}
        text = json.dumps(doc, indent=2, default=str) + "\n"
    else:
        import csv
        import io
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        lines = [f"# manifest: {json.dumps(manifest)}"]
        lines.append(buf.getvalue().rstrip("\n"))
        lines += list(extra_comments)
        lines.append(f"# summary: {json.dumps(summary, default=str)}")
        text = "\n".join(lines) + "\n"
    _write(args, text)


def _write(args, text):
    """Write text to --out, or to stdout when it is not given."""
    if args.out:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)


def _write_file(path, text):
    """Write text to path; a path that cannot be written is an input error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _parse_direction(text, dim):
    try:
        parts = [Fraction(p) for p in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad direction {text!r}: {exc}") from exc
    if len(parts) != dim:
        raise InputError(f"direction has {len(parts)} entries, polytope has dimension {dim}")
    return tuple(parts)


def _nearest_double(x):
    """x rounded to the nearest double, as the exact Fraction of that double."""
    try:
        return Fraction(float(_rational(x)))
    except OverflowError as exc:
        raise InputError(f"{x} does not fit a double") from exc


class _DoublePolytope(Polytope):
    """A polytope read with `--backend float`: every coordinate is rounded to
    the nearest double before validation, then everything runs exactly."""

    def __init__(self, points, label=""):
        super().__init__([[_nearest_double(x) for x in p] for p in points], label=label)


def _load_polytope(args):
    """The polytope in args.polytope and the input digests of its manifest.

    The file is read once: the digest is of the bytes that are parsed, which
    are decoded as text mode reads them (UTF-8, universal newlines)."""
    try:
        with open(args.polytope, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {args.polytope}: {exc}") from exc
    cls = _DoublePolytope if args.backend == "float" else Polytope
    return cls.from_json(text), {args.polytope: hashlib.sha256(data).hexdigest()}


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
    P, digests = _load_polytope(args)
    direction = _parse_direction(args.direction, P.dim)
    G = orient(P, direction, drop_level_ties=args.allow_level_ties)
    spec = count_paths_by_length(G)
    manifest = _manifest(args, digests)
    analytics = _spectrum_analytics(spec)
    _emit(args, manifest, spec.to_csv_rows(), ("length", "count"),
          summary=analytics,
          extra_comments=[f"# analytics: {json.dumps(analytics)}"])
    return 0


def cmd_coherent(args):
    if args.sample < 0:
        raise InputError("--sample must be nonnegative")
    P, digests = _load_polytope(args)
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
    manifest = _manifest(args, digests)
    summary = _spectrum_analytics(spec)
    if args.sample:
        draw = sample_coherent(P, G, args.sample, args.seed)
        exact = {tuple(c["path"]) for c in certs}
        sampled = {tuple(p.vertex_indices) for p in draw.paths}
        summary["sampled_paths"] = len(sampled)
        summary["sample_degenerate_skips"] = draw.degenerate
        summary["sample_contained"] = sampled <= exact
    cert_path = args.certificates or (args.out + ".certs.json" if args.out else None)
    if cert_path:
        _write_file(cert_path, json.dumps(
            {"manifest": manifest, "certificates": certs}, indent=2))
    _emit(args, manifest, spec.to_csv_rows(), ("length", "count"), summary=summary)
    return 0


# zoo emit's options: the placeholder `zoo list` shows, and how one
# comma-separated part is read (None: the option is a single integer)
_ZOO_OPTIONS = {"d": ("D", None), "n": ("N", None), "s": ("S1,S2,...", int),
                "counts": ("M1,M2", int),
                "facets": ("F1,F2,...", lambda f: tuple(map(int, f)))}


def cmd_zoo(args):
    if args.zoo_command == "list":
        families = (" ".join([name] + [f"--{o} {_ZOO_OPTIONS[o][0]}" for o in options])
                    for name, (_, options) in zoo.FAMILIES.items())
        _write(args, "fixtures:\n" + "".join(f"  {n}\n" for n in zoo.fixture_names())
               + "families:\n" + "".join(f"  {f}\n" for f in families))
    else:
        _write(args, _zoo_build(args).to_json() + "\n")
    return 0


def _zoo_build(args):
    name = args.name
    try:
        return next(zoo.fixtures([name])).polytope
    except InputError:  # not a recorded fixture
        pass
    if name not in zoo.FAMILIES:
        raise InputError(f"unknown zoo name {name!r}")
    build, options = zoo.FAMILIES[name]
    missing = [o for o in options if getattr(args, o) is None]
    if missing:
        raise InputError(f"zoo emit {name} needs --{missing[0]}")
    return build(*(_zoo_option(args, o) for o in options))


def _zoo_option(args, option):
    """The value of a zoo emit option, each comma-separated part read in turn."""
    text, parse = getattr(args, option), _ZOO_OPTIONS[option][1]
    if parse is None:
        return text
    try:
        return [parse(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --{option} {text!r}: {exc}") from exc


def _spectrum_cell(spec):
    if spec is None:
        return "-"
    return " ".join(f"{k}:{v}" for k, v in spec.items())


def cmd_verify(args):
    names = None if args.all else args.names or None
    rows = []
    failures = []
    for F in zoo.fixtures(names, include_slow=args.include_slow):
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
                        default=d if suppress else "rational",
                        help="float: round each input coordinate to the nearest "
                             "double, then compute exactly (default rational)")
    parser.add_argument("--seed", type=int, default=d if suppress else 0)
    parser.add_argument("--out", default=d, help="output file (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"),
                        default=d if suppress else "csv")
    parser.add_argument("--stamp-time", action="store_true",
                        default=d if suppress else False,
                        help="embed a wall-clock timestamp in the manifest")


@functools.cache
def build_parser():
    """The command-line parser, built by the first call and shared after it.

    `main(argv)` may be called any number of times in one process; each call
    parses into a fresh namespace with this one parser, so nothing carries
    from one command to the next.  Callers must not mutate the parser.
    Importing this module builds none."""
    # no abbreviations: a prefix such as zoo emit's --s would otherwise be
    # matched against --seed and --stamp-time before the subcommand sees it
    p = argparse.ArgumentParser(prog="pathspectra", allow_abbrev=False,
                                description="Monotone and coherent path spectra of polytopes")
    _add_global_options(p, suppress=False)
    # the same options are accepted after every subcommand; SUPPRESS keeps
    # the top-level values when they are not repeated there
    common = argparse.ArgumentParser(add_help=False)
    _add_global_options(common, suppress=True)

    subparser = functools.partial(argparse.ArgumentParser, parents=[common], allow_abbrev=False)
    sub = p.add_subparsers(dest="command", required=True, parser_class=subparser)

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
    zsub = c.add_subparsers(dest="zoo_command", required=True, parser_class=subparser)
    zlist = zsub.add_parser("list")
    zlist.set_defaults(func=cmd_zoo)
    zemit = zsub.add_parser("emit")
    zemit.add_argument("name")
    for option, (_, parse) in _ZOO_OPTIONS.items():
        zemit.add_argument(f"--{option}", type=int if parse is None else str)
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
    except (GenericityError, DegeneracyError) as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return 2
    except VerificationMismatch as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return 3
