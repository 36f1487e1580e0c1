"""Command-line front end.

Subcommands: entropy, ball-volume, sample-ball, gen-code, check-ld
(exact | mc), span-exp, pair-sum, rate-sweep, chain (find | verify |
oracle), shatter (find | verify).

Output defaults to human-readable text on stdout; --json switches to
line-delimited JSON records and --csv to a CSV table.  --out FILE
writes the output to FILE plus a FILE.manifest.json sidecar recording
the argv, the subcommand with its action (e.g. "check-ld exact"), the
resolved seed, and params: every option of the subcommand except --seed
and the output flags, as parsed (fractions as "a/b", lists as JSON
arrays, options left out at their defaults).  `ldlab --manifest FILE`
replays that run.  Exit status: 0 success, 2 invalid parameters
or usage, 3 resource-budget refusal.

The master seed comes from --seed, else the LDLAB_SEED environment
variable, else 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path

from . import __version__
from .chains import (chain_find, chain_length_bound, chain_verify,
                     format_chain, format_witness, longest_chain_oracle,
                     oracle_best_translate, parse_chain, parse_vector_set,
                     shatter_find, shatter_threshold, shatter_verify)
from .codes import (check_ld_exact, check_ld_montecarlo, format_code,
                    parse_code, random_code)
from .errors import ParameterError, ResourceBudgetError, shorten
from .experiments import (BallSampleConfig, PairSumConfig, SpanTrialConfig,
                          SweepConfig, run_ball_samples,
                          run_pair_sum_experiment, run_rate_sweep,
                          run_span_experiment)
from .gfq import VecQ
from .hamming import as_fraction, check_ball_volume, entropy_q, radius_of
from .seeding import derive_stream

MANIFEST_SCHEMA_VERSION = 1

# Namespace entries that are not run parameters: the subcommand path, the
# dispatch plumbing, the seed (a manifest field of its own) and output flags.
_NOT_PARAMS = frozenset({"subcommand", "action", "handler", "manifest", "seed",
                         "json", "csv", "out"})


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility sidecar for a result file.

    Re-running the stored argv reproduces the result records byte for
    byte; created_at is the only timestamp and lives here, never in the
    records themselves.
    """

    subcommand: str
    argv: tuple[str, ...]
    seed: int | None
    params: dict
    outputs: tuple[str, ...]
    version: str
    created_at: str

    def to_json(self) -> str:
        payload = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "tool": "ldlab",
            "version": self.version,
            "subcommand": self.subcommand,
            "argv": list(self.argv),
            "seed": self.seed,
            "params": self.params,
            "outputs": list(self.outputs),
            "created_at": self.created_at,
        }
        return json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"manifest is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ParameterError("manifest is not a JSON object")
        argv = payload.get("argv", [])
        if not (isinstance(argv, list)
                and all(isinstance(arg, str) for arg in argv)):
            raise ParameterError("manifest argv is not a list of strings")
        try:
            return cls(
                subcommand=payload["subcommand"],
                argv=tuple(payload["argv"]),
                seed=payload["seed"],
                params=payload["params"],
                outputs=tuple(payload["outputs"]),
                version=payload["version"],
                created_at=payload["created_at"],
            )
        except KeyError as exc:
            raise ParameterError(f"manifest is missing field {exc}") from None


def _resolve_seed(flag: int | None) -> int:
    if flag is not None:
        return flag
    env = os.environ.get("LDLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParameterError(
                f"LDLAB_SEED={env!r} is not an integer") from None
    return 0


def _parse_int(text: str, kind: type = int) -> int | float:
    """int(text), or float(text) with kind=float, as an argument type whose
    refusal names the text shortened, not echoed whole by argparse."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {kind.__name__} value: {shorten(repr(text))}") from None


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(_parse_int(x) for x in text.split(",") if x.strip())


def _parse_workers(text: str) -> int:
    workers = _parse_int(text)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {shorten(text)}")
    return workers


def _parse_fraction(text: str) -> Fraction:
    """`as_fraction` as an argument type: its refusal, which names the text
    shortened, is the error line, not argparse's echo of the whole text."""
    try:
        return as_fraction(text)
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_fraction_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_parse_fraction(x) for x in text.split(",") if x.strip())


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from None


def _human_lines(records: list[dict]) -> str:
    out = []
    for rec in records:
        for key, value in rec.items():
            if key in ("schema_version", "kind"):
                continue
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            out.append(f"{key} = {value}")
        out.append("")
    return "\n".join(out[:-1]) + "\n" if out else ""


def _emit(args: argparse.Namespace, argv: list[str], records: list[dict],
          table: tuple[list[str], list[list]] | None = None,
          text: str | None = None) -> int:
    """Write `records` as --json lines, `table` as --csv, or else `text`
    (by default one "key = value" line per field), to stdout or --out."""
    name = " ".join(filter(None, (args.subcommand,
                                  getattr(args, "action", None))))
    if getattr(args, "json", False):
        content = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    elif getattr(args, "csv", False):
        if table is None:
            raise ParameterError(f"--csv is not supported for {name}")
        header, rows = table
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if cell is None else cell for cell in row])
        content = buf.getvalue()
    else:
        content = _human_lines(records) if text is None else text
    out_path = getattr(args, "out", None)
    if out_path:
        params = {key: value for key, value in vars(args).items()
                  if key not in _NOT_PARAMS}
        manifest = RunManifest(
            subcommand=name, argv=tuple(argv),
            seed=getattr(args, "seed", None), params=params,
            outputs=(out_path,), version=__version__,
            created_at=datetime.now(timezone.utc).isoformat())
        written = []
        try:
            for path, text in ((out_path, content),
                               (out_path + ".manifest.json", manifest.to_json())):
                with open(path, "w") as fh:
                    written.append(path)  # opened, so removed if a write fails
                    fh.write(text)
        except OSError as exc:
            for path in written:
                os.remove(path)
            raise ParameterError(
                f"cannot write {exc.filename}: {exc.strerror}") from None
    else:
        sys.stdout.write(content)
    return 0


# ------------------------------------------------------------- handlers

def _cmd_entropy(args, argv):
    value = entropy_q(args.x, args.q)
    record = {"kind": "entropy", "x": str(args.x), "q": args.q,
              "entropy": value}
    table = (["x", "q", "entropy"], [[str(args.x), args.q, value]])
    return _emit(args, argv, [record], table=table, text=f"{value!r}\n")


def _radius_from_args(args) -> tuple[int, Fraction]:
    if (args.r is None) == (args.p is None):
        raise ParameterError("exactly one of --r and --p is required")
    if args.r is not None:
        if args.n < 1:
            raise ParameterError(f"length n={args.n} must be >= 1")
        if args.r < 0 or args.r > args.n:
            raise ParameterError(f"radius r={args.r} outside [0, {args.n}]")
        return args.r, Fraction(args.r, args.n)
    return radius_of(args.p, args.n), args.p


# The largest power of two with 4000 digits: a volume up to it prints below
# CPython's 4300-digit str limit.
VOLUME_PRINT_BUDGET = 2 ** 13287


def _cmd_ball_volume(args, argv):
    r, p = _radius_from_args(args)
    volume = check_ball_volume("ball volume", args.n, r, args.q,
                               VOLUME_PRINT_BUDGET)
    record = {"kind": "ball-volume", "n": args.n, "r": r, "q": args.q,
              "p": str(p), "volume": volume}
    table = (["n", "r", "q", "volume"], [[args.n, r, args.q, volume]])
    return _emit(args, argv, [record], table=table, text=f"{volume}\n")


def _cmd_sample_ball(args, argv):
    _, p = _radius_from_args(args)
    config = BallSampleConfig(q=args.q, n=args.n, p=p, count=args.count,
                              seed=args.seed)
    summary = run_ball_samples(config, workers=args.workers)
    records = [{"kind": "ball-sample", "index": i, "vector": s,
                "weight": sum(1 for ch in s if ch != "0")}
               for i, s in enumerate(summary.samples)]
    records.append(summary.as_record())
    rows = [[rec["index"], rec["vector"], rec["weight"]]
            for rec in records[:-1]]
    text = "".join(s + "\n" for s in summary.samples)
    return _emit(args, argv, records,
                 table=(["index", "vector", "weight"], rows), text=text)


def _cmd_gen_code(args, argv):
    rng = derive_stream(args.seed, "gen-code")
    code = random_code(args.n, args.k, args.q, not args.iid, rng)
    text = format_code(code)
    record = {"kind": "code", "q": args.q, "n": args.n, "k": args.k,
              "full_rank": code.full_rank, "code": text}
    return _emit(args, argv, [record], text=text)


def _cmd_check_ld(args, argv):
    code = parse_code(_read_text(args.code))
    if args.action == "exact":
        verdict = check_ld_exact(code, args.p, args.L, mode=args.mode)
        record = {"kind": "ld-verdict", "p": str(args.p),
                  **verdict.as_record()}
        table = (list(record.keys())[1:], [list(record.values())[1:]])
        return _emit(args, argv, [record], table=table)
    rng = derive_stream(args.seed, "ldmc")
    dist = check_ld_montecarlo(code, args.p, args.trials, rng)
    record = {"kind": "ld-samples", "p": str(args.p), **dist.as_record()}
    rows = [[c, f] for c, f in sorted(dist.histogram.items())]
    return _emit(args, argv, [record], table=(["count", "occurrences"], rows))


def _cmd_span_exp(args, argv):
    config = SpanTrialConfig(n=args.n, p=args.p, q=args.q, ell=args.ell,
                             trials=args.trials, seed=args.seed,
                             c_threshold=args.c_threshold)
    summary = run_span_experiment(config, workers=args.workers)
    record = summary.as_record()
    rows = [[c, summary.histogram[c]] for c in sorted(summary.histogram)]
    return _emit(args, argv, [record], table=(["count", "occurrences"], rows))


def _cmd_pair_sum(args, argv):
    config = PairSumConfig(p=args.p, q=args.q, n_values=args.n_list,
                           trials=args.trials, seed=args.seed)
    summary = run_pair_sum_experiment(config, workers=args.workers)
    record = summary.as_record()
    header = ["n", "center", "trials", "hit_count", "estimate",
              "log2_estimate_per_n"]
    rows = [[r.n, r.center, r.trials, r.hit_count, r.estimate,
             r.log2_estimate_per_n] for r in summary.records]
    return _emit(args, argv, [record], table=(header, rows))


def _cmd_rate_sweep(args, argv):
    config = SweepConfig(n=args.n, q=args.q, p=args.p, eps_grid=args.eps,
                         codes_per_point=args.codes, seed=args.seed,
                         c_constant=args.c_constant)
    summary = run_rate_sweep(config, workers=args.workers)
    record = summary.as_record()
    header = ["eps", "rate", "k", "degenerate", "L_candidate", "l_max",
              "codes"]
    rows = []
    for pt in summary.points:
        if pt.degenerate:
            rows.append([str(pt.eps), pt.rate, pt.k, True, None, None, None])
            continue
        hist = Counter(pt.l_max_values)
        for v in sorted(hist):
            rows.append([str(pt.eps), pt.rate, pt.k, False, pt.L_candidate,
                         v, hist[v]])
    return _emit(args, argv, [record], table=(header, rows))


def _read_vector_set(path: str) -> tuple[set[VecQ], int, int]:
    """The distinct vectors of a vector-set file, with their q and length."""
    vectors = parse_vector_set(_read_text(path))
    return set(vectors), vectors[0].field.q, vectors[0].n


def _cmd_chain(args, argv):
    if args.action == "find":
        S, q, _ = _read_vector_set(args.set)
        chain = chain_find(S, args.c, q)
        bound = chain_length_bound(len(S), chain.ell, args.c, q)
        record = {
            "kind": "chain-find", "q": q, "ell": chain.ell, "c": args.c,
            "set_size": len(S), "d": chain.d, "bound": bound,
            "meets_bound": bound <= 0 or chain.d >= math.ceil(bound),
            "valid": chain.verify(),
            "translate": str(chain.translate_w),
            "members": [str(v) for v in chain.members],
        }
        return _emit(args, argv, [record], text=format_chain(chain))
    if args.action == "verify":
        chain = parse_chain(_read_text(args.chain))
        valid = chain_verify(chain.translate_w, chain.members, chain.c)
        record = {"kind": "chain-verify", "q": chain.q, "ell": chain.ell,
                  "c": chain.c, "d": chain.d, "valid": valid}
        table = (["q", "ell", "c", "d", "valid"],
                 [[chain.q, chain.ell, chain.c, chain.d, valid]])
        return _emit(args, argv, [record], table=table)
    S, q, ell = _read_vector_set(args.set)
    if args.best_translate:
        d, w = oracle_best_translate(S, args.c)
        record = {"kind": "chain-oracle", "q": q, "ell": ell,
                  "c": args.c, "longest": d, "best_translate": str(w)}
    else:
        T = list(S)
        applied = None
        if args.translate is not None:
            w = VecQ.from_string(T[0].field, args.translate)
            T = [v + w for v in T]
            applied = str(w)
        d = longest_chain_oracle(T, args.c)
        record = {"kind": "chain-oracle", "q": q, "ell": ell,
                  "c": args.c, "longest": d, "translate": applied}
    table = (list(record.keys())[1:], [list(record.values())[1:]])
    return _emit(args, argv, [record], table=table)


def _cmd_shatter(args, argv):
    S, q, ell = _read_vector_set(args.set)
    if args.action == "find":
        witness = shatter_find(S, args.c)
        threshold = shatter_threshold(ell, args.c, q)
        if witness is None:
            record = {"kind": "shatter-find", "q": q, "ell": ell,
                      "c": args.c, "set_size": len(S),
                      "threshold": threshold, "found": False}
            return _emit(args, argv, [record], text="no witness found\n")
        record = {"kind": "shatter-find", "q": q, "ell": ell, "c": args.c,
                  "set_size": len(S), "threshold": threshold,
                  "found": True, "U": sorted(witness.U),
                  "valid": shatter_verify(S, witness.U, q)}
        return _emit(args, argv, [record], text=format_witness(witness))
    U = args.u
    valid = shatter_verify(S, U, q)
    record = {"kind": "shatter-verify", "q": q, "ell": ell,
              "U": sorted(set(U)), "valid": valid}
    table = (["q", "ell", "U", "valid"],
             [[q, ell, " ".join(str(j) for j in sorted(set(U))), valid]])
    return _emit(args, argv, [record], table=table)


# -------------------------------------------------------------- parser

def _add_output_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true",
                       help="emit line-delimited JSON records")
    group.add_argument("--csv", action="store_true",
                       help="emit a CSV table")
    p.add_argument("--out", metavar="FILE",
                   help="write output to FILE plus FILE.manifest.json")


def _add_seed_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_parse_int, default=None,
                   help="master seed (default: $LDLAB_SEED, else 0)")


def _add_workers_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=_parse_workers, default=1,
                   help="parallel workers, clamped to the core count; a "
                        "chunk of trials is forked only when its work "
                        "outweighs the fork; results do not depend on the count")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line; subparsers are built from this class."""

    def error(self, message: str):
        self.exit(2, f"ldlab: error: {message}\n")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The ldlab parser, built on the first call and reused after it."""
    parser = _Parser(
        prog="ldlab",
        description="Finite-field Hamming geometry, random linear codes, "
                    "list-decodability checkers, and shattering/chain "
                    "construction with brute-force oracles.")
    parser.add_argument("--version", action="version",
                        version=f"ldlab {__version__}")
    parser.add_argument("--manifest", metavar="FILE",
                        help="replay the run recorded in a manifest file")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("entropy", help="q-ary entropy H_q(x)")
    p.add_argument("--x", type=_parse_fraction, required=True,
                   help="argument in [0,1]; accepts a/b")
    p.add_argument("--q", type=_parse_int, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("ball-volume", help="exact Hamming ball volume")
    p.add_argument("--n", type=_parse_int, required=True)
    p.add_argument("--q", type=_parse_int, required=True)
    p.add_argument("--r", type=_parse_int, default=None, help="integer radius")
    p.add_argument("--p", type=_parse_fraction, default=None,
                   help="error fraction; radius = floor(p*n)")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_ball_volume)

    p = sub.add_parser("sample-ball",
                       help="uniform samples from a Hamming ball")
    p.add_argument("--n", type=_parse_int, required=True)
    p.add_argument("--q", type=_parse_int, required=True)
    p.add_argument("--r", type=_parse_int, default=None)
    p.add_argument("--p", type=_parse_fraction, default=None)
    p.add_argument("--count", type=_parse_int, required=True)
    _add_seed_flag(p)
    _add_workers_flag(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_sample_ball)

    p = sub.add_parser("gen-code", help="draw a random linear code")
    p.add_argument("--n", type=_parse_int, required=True)
    p.add_argument("--k", type=_parse_int, required=True)
    p.add_argument("--q", type=_parse_int, required=True)
    p.add_argument("--iid", action="store_true",
                   help="keep an i.i.d. generator even if rank-deficient "
                        "(default: rejection-sample to full rank)")
    _add_seed_flag(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_gen_code)

    p = sub.add_parser("check-ld", help="list-decodability checkers")
    ld_sub = p.add_subparsers(dest="action", required=True,
                              metavar="{exact,mc}")
    pe = ld_sub.add_parser("exact", help="exact L_max over all centers")
    pe.add_argument("--code", required=True, metavar="FILE")
    pe.add_argument("--p", type=_parse_fraction, required=True)
    pe.add_argument("--L", type=_parse_int, required=True)
    pe.add_argument("--mode", choices=("auto", "full", "syndrome"),
                    default="auto",
                    help="syndrome: one walk over B(0, r) tallying cosets "
                         "(budget: ball volume <= 2^24); full: scan all "
                         "q^n centers (budget q^n * |C| <= 2^24); "
                         "auto = syndrome")
    _add_output_flags(pe)
    pe.set_defaults(handler=_cmd_check_ld)
    pm = ld_sub.add_parser("mc", help="Monte Carlo list-size sampling")
    pm.add_argument("--code", required=True, metavar="FILE")
    pm.add_argument("--p", type=_parse_fraction, required=True)
    pm.add_argument("--trials", type=_parse_int, required=True)
    _add_seed_flag(pm)
    _add_output_flags(pm)
    pm.set_defaults(handler=_cmd_check_ld)

    p = sub.add_parser("span-exp", help="span-of-ball-points experiment")
    p.add_argument("--n", type=_parse_int, required=True)
    p.add_argument("--q", type=_parse_int, required=True)
    p.add_argument("--p", type=_parse_fraction, required=True)
    p.add_argument("--ell", type=_parse_int, required=True)
    p.add_argument("--c-threshold", type=_parse_int, default=64,
                   help="tail threshold constant C (default 64)")
    p.add_argument("--trials", type=_parse_int, required=True)
    _add_seed_flag(p)
    _add_workers_flag(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_span_exp)

    p = sub.add_parser("pair-sum", help="pair-sum decay experiment")
    p.add_argument("--q", type=_parse_int, required=True)
    p.add_argument("--p", type=_parse_fraction, required=True)
    p.add_argument("--n-list", type=_parse_int_list, required=True,
                   metavar="N1,N2,...")
    p.add_argument("--trials", type=_parse_int, required=True)
    _add_seed_flag(p)
    _add_workers_flag(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_pair_sum)

    p = sub.add_parser("rate-sweep", help="L_max sweep over rate grid")
    p.add_argument("--n", type=_parse_int, required=True)
    p.add_argument("--q", type=_parse_int, required=True)
    p.add_argument("--p", type=_parse_fraction, required=True)
    p.add_argument("--eps", type=_parse_fraction_list, required=True,
                   metavar="E1,E2,...")
    p.add_argument("--codes", type=_parse_int, required=True,
                   help="codes sampled per grid point")
    p.add_argument("--c-constant", type=partial(_parse_int, kind=float),
                   default=1.0,
                   help="candidate list size is ceil(C/eps) (default C=1)")
    _add_seed_flag(p)
    _add_workers_flag(p)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_rate_sweep)

    p = sub.add_parser("chain", help="c-increasing chain tools")
    ch_sub = p.add_subparsers(dest="action", required=True,
                              metavar="{find,verify,oracle}")
    pf = ch_sub.add_parser("find", help="construct translate + chain")
    pf.add_argument("--set", required=True, metavar="FILE",
                    help="vector-set file (header 'q ell')")
    pf.add_argument("--c", type=_parse_int, required=True)
    _add_output_flags(pf)
    pf.set_defaults(handler=_cmd_chain)
    pv = ch_sub.add_parser("verify", help="check a chain file")
    pv.add_argument("--chain", required=True, metavar="FILE")
    _add_output_flags(pv)
    pv.set_defaults(handler=_cmd_chain)
    po = ch_sub.add_parser("oracle", help="exact longest chain length")
    po.add_argument("--set", required=True, metavar="FILE")
    po.add_argument("--c", type=_parse_int, required=True)
    where = po.add_mutually_exclusive_group()
    where.add_argument("--translate", default=None, metavar="DIGITS",
                       help="apply this translate before the search")
    where.add_argument("--best-translate", action="store_true",
                       help="scan all q^ell translates")
    _add_output_flags(po)
    po.set_defaults(handler=_cmd_chain)

    p = sub.add_parser("shatter", help="everywhere-differing shattering")
    sh_sub = p.add_subparsers(dest="action", required=True,
                              metavar="{find,verify}")
    pf = sh_sub.add_parser("find", help="find a shattered coordinate set")
    pf.add_argument("--set", required=True, metavar="FILE")
    pf.add_argument("--c", type=_parse_int, required=True)
    _add_output_flags(pf)
    pf.set_defaults(handler=_cmd_shatter)
    pv = sh_sub.add_parser("verify", help="check a coordinate set directly")
    pv.add_argument("--set", required=True, metavar="FILE")
    pv.add_argument("--u", type=_parse_int_list, required=True,
                    metavar="I1,I2,...", help="1-based coordinates")
    _add_output_flags(pv)
    pv.set_defaults(handler=_cmd_shatter)

    return parser


def dispatch(argv: list[str]) -> int:
    """Parse argv and run; returns the process exit status.

    Every call in a process, the `--manifest` replay included, parses
    with the one parser `build_parser` makes on the first call (never at
    import): parse_args keeps no state between calls, and building the
    parser costs more than most runs.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.manifest:
            path = args.manifest
            argv = list(RunManifest.from_json(_read_text(path)).argv)
            try:
                args = parser.parse_args(argv)
            except SystemExit as exc:
                return int(exc.code or 0)
            if args.manifest:
                raise ParameterError(
                    f"manifest {path} replays an argv that names --manifest")
        if not getattr(args, "handler", None):
            parser.print_usage(sys.stderr)
            return 2
        if "seed" in vars(args):
            args.seed = _resolve_seed(args.seed)
        return args.handler(args, list(argv))
    except ParameterError as exc:
        print(f"ldlab: error: {exc}", file=sys.stderr)
        return 2
    except ResourceBudgetError as exc:
        print(f"ldlab: resource refusal: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
