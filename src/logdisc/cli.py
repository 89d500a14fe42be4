"""Command line front end.

Exit codes: 0 success; 1 usage error; 2 computational failure; 3 when
`verify` finds an invalid or malformed certificate; 4 when any record
is a counterexample or unresolved.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures.process import BrokenProcessPool

from .arith import FactorizationBudgetError
from .certify import classify
from .sweep import (
    SweepConfig,
    SweepFileError,
    certificate_to_json,
    run_sweep,
    status_of,
    verify_file,
)
from .trunclog import disc_exact, disc_mod, exceptional_set, p_n_exact, p_n_mod


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse wants to exit(2) on bad flags; route that to exit 1 instead
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(
        prog="logdisc",
        description="Exact and modular discriminant data for truncated "
        "logarithm polynomials, with non-squareness certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_disc = sub.add_parser("disc", help="discriminant data for one n")
    p_disc.add_argument("n", type=_positive_int)
    mode = p_disc.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="print only the exact rational")
    mode.add_argument("--mod", type=_positive_int, metavar="L",
                      help="residue mod a prime L > n, by a DFT at L = 1 (mod n) below 2^31, else Euclid")

    p_pn = sub.add_parser("pn", help="the integer resultant P_n")
    p_pn.add_argument("n", type=_positive_int)
    p_pn.add_argument("--mod", type=_positive_int, metavar="L", help="residue mod a prime L")

    p_xy = sub.add_parser("xy", help="X(m), Y(m) and the exceptional prime set")
    p_xy.add_argument("m", type=_positive_int)

    p_cls = sub.add_parser("classify", help="non-squareness certificate for one n")
    p_cls.add_argument("n", type=_positive_int)

    p_sweep = sub.add_parser("sweep", help="classify a range of n into a JSONL file")
    p_sweep.add_argument("--from", dest="start", type=_positive_int, required=True)
    p_sweep.add_argument("--to", dest="stop", type=_positive_int, required=True)
    p_sweep.add_argument("--filter", choices=("all", "mod4eq1", "odd-squares"), default="all")
    p_sweep.add_argument("--jobs", type=_positive_int, default=1)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--resume", action="store_true")

    p_verify = sub.add_parser("verify", help="re-check every record in a sweep file")
    p_verify.add_argument("path")
    p_verify.add_argument("--jobs", type=_positive_int, default=1)
    return parser


def _cmd_disc(args) -> int:
    if args.mod is not None:
        print(disc_mod(args.n, args.mod))
        return 0
    report = disc_exact(args.n)
    if args.exact:
        print(report.exact)
        return 0
    print(f"n = {report.n}")
    print(f"sign = {'+' if report.sign > 0 else '-'}")
    print(f"P_n = {report.p_n}")
    frame = " ".join(f"{v.prime}^{v.exponent}" for v in report.frame_valuations)
    print(f"frame = {frame if frame else '1'}")
    print(f"disc = {report.exact}")
    return 0


def _cmd_pn(args) -> int:
    if args.mod is not None:
        print(p_n_mod(args.n, args.mod))
    else:
        print(p_n_exact(args.n))
    return 0


def _cmd_xy(args) -> int:
    profile = exceptional_set(args.m)
    print(f"X = {profile.x}")
    print(f"Y = {profile.y}")
    print("E = {" + ", ".join(str(ell) for ell in profile.exceptional) + "}")
    return 0


def _cmd_classify(args) -> int:
    cert = classify(args.n)
    record = {
        "n": args.n,
        "status": status_of(cert),
        "certificate": certificate_to_json(cert),
    }
    print(json.dumps(record, sort_keys=True))
    return 0 if record["status"] == "certified" else 4


def _cmd_sweep(args) -> int:
    config = SweepConfig(
        start=args.start,
        stop=args.stop,
        out=args.out,
        filter=args.filter,
        jobs=args.jobs,
        resume=args.resume,
    )
    try:
        summary = run_sweep(config, log=sys.stderr)
    except BrokenProcessPool as exc:
        print(
            f"error: sweep: a worker process died ({exc}); the records written "
            f"so far are kept, rerun with --resume to finish {args.out}",
            file=sys.stderr,
        )
        return 2
    print(
        f"certified {summary.certified}, counterexamples {summary.counterexamples}, "
        f"unresolved {summary.unresolved}, skipped {summary.skipped}, "
        f"wall {summary.wall_s:.1f}s"
    )
    return 0 if summary.clean else 4


def _cmd_verify(args) -> int:
    try:
        # one argument at --jobs 1, where callers may wrap verify_file
        report = verify_file(args.path) if args.jobs == 1 else verify_file(args.path, args.jobs)
    except BrokenProcessPool as exc:
        print(f"error: verify: a worker process died ({exc}) while checking {args.path}", file=sys.stderr)
        return 2
    for lineno, err in report.malformed:
        print(f"line {lineno}: malformed: {err}")
    for n, reason in report.invalid:
        print(f"n={n}: INVALID: {reason}")
    for n, status in report.flagged:
        print(f"n={n}: {status}")
    print(
        f"checked {report.total} records: {len(report.malformed)} malformed, "
        f"{len(report.invalid)} invalid, {len(report.flagged)} flagged"
    )
    for kind, (count, seconds) in sorted(report.routes.items()):
        print(f"route {kind}: {count} records, {seconds:.2f} s")
    if report.malformed or report.invalid:
        return 3
    if report.flagged:
        return 4
    return 0


_COMMANDS = {
    "disc": _cmd_disc,
    "pn": _cmd_pn,
    "xy": _cmd_xy,
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def cmd_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep" and args.start > args.stop:
            parser.error(f"empty range: {args.start} > {args.stop}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help lands here with code 0
        return int(exc.code or 0)
    # P_n for n in the hundreds has tens of thousands of digits; printing
    # them must not trip the interpreter's int-to-str guard, which is the
    # caller's again on return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ArithmeticError, MemoryError, FactorizationBudgetError, SweepFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


def main() -> None:
    raise SystemExit(cmd_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
