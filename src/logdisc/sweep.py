"""Range sweeps over n with JSONL persistence, resume, and verification.

One line per n, append-only, written by a single process even when
classification fans out to worker processes.  Big integers inside
certificates are serialized as decimal strings so records survive JSON
implementations that mangle large numbers.
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import islice, starmap
from pathlib import Path

from . import __version__
from .certify import CERT_INT_FIELDS, CERT_KINDS, Certificate, ClassifyConfig, classify, verify_failure


class SweepFileError(Exception):
    """A sweep file is unreadable or structurally corrupt."""


@dataclass(frozen=True)
class SweepConfig:
    start: int
    stop: int
    out: str
    filter: str = "all"
    jobs: int = 1
    classify: ClassifyConfig = field(default_factory=ClassifyConfig)
    resume: bool = False

    def __post_init__(self) -> None:
        if self.start > self.stop:
            raise ValueError(f"empty range: {self.start} > {self.stop}")
        if self.start < 1:
            raise ValueError("range must start at 1 or above")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.filter not in ("all", "mod4eq1", "odd-squares"):
            raise ValueError(f"unknown filter {self.filter!r}")


@dataclass
class SweepSummary:
    certified: int = 0
    counterexamples: int = 0
    unresolved: int = 0
    skipped: int = 0
    wall_s: float = 0.0

    @property
    def clean(self) -> bool:
        return self.counterexamples == 0 and self.unresolved == 0


@dataclass
class VerifyReport:
    total: int = 0
    malformed: list[tuple[int, str]] = field(default_factory=list)  # (line no, error)
    invalid: list[tuple[int, str]] = field(default_factory=list)  # (n, reason)
    flagged: list[tuple[int, str]] = field(default_factory=list)  # (n, status)
    # certificate kind -> (records verify_failure checked, its seconds on them)
    routes: dict[str, tuple[int, float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not (self.malformed or self.invalid or self.flagged)


def iter_targets(config: SweepConfig):
    if config.filter == "all":
        yield from range(config.start, config.stop + 1)
    elif config.filter == "mod4eq1":
        yield from (n for n in range(config.start, config.stop + 1) if n % 4 == 1)
    else:
        k = max(1, math.isqrt(config.start - 1) + 1)
        if k % 2 == 0:
            k += 1
        while k * k <= config.stop:
            yield k * k
            k += 2


# integers in a sweep file are read only as certificate_to_json writes
# them (str of an int): ASCII, no sign but a minus, no leading zero, at
# most the interpreter's default digit limit.  Every field of a valid
# certificate, and n, has far fewer digits.  The check runs before int(),
# whose cost grows with the length and whose own limit the CLI lifts.
_MAX_DIGITS = sys.int_info.default_max_str_digits
_DECIMAL = re.compile(rf"0|-?[1-9][0-9]{{0,{_MAX_DIGITS - 1}}}")


def _decimal(s: str, what: str = "an integer") -> int:
    if not _DECIMAL.fullmatch(s):
        raise ValueError(f"{what} is not a canonical decimal of at most {_MAX_DIGITS} digits: {s[:24]!r}")
    return int(s)


# a record's JSON integers, n among them, take the same check
_RECORD_DECODER = json.JSONDecoder(parse_int=_decimal)


def certificate_to_json(cert: Certificate) -> dict:
    out = {"type": cert.kind}
    for name in CERT_INT_FIELDS:
        v = getattr(cert, name)
        if v is not None:
            out[name] = str(v)
    return out


def certificate_from_json(obj: dict) -> Certificate:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("certificate object must carry a type")
    kind = obj["type"]
    if kind not in CERT_KINDS:
        raise ValueError(f"unknown certificate type {kind!r}")
    fields: dict[str, int] = {}
    for key, value in obj.items():
        if key == "type":
            continue
        if key not in CERT_INT_FIELDS:
            raise ValueError(f"unknown certificate field {key!r}")
        if not isinstance(value, str):
            raise ValueError(f"field {key} must be a decimal string")
        fields[key] = _decimal(value, f"field {key}")
    return Certificate(kind, **fields)


def status_of(cert: Certificate) -> str:
    return cert.kind if cert.kind in ("counterexample", "unresolved") else "certified"


def classify_record(n: int, config: ClassifyConfig) -> dict:
    """One SweepRecord as a plain dict; never raises.

    Failures inside classify are demoted to an unresolved record with a
    diagnostic, so one bad n cannot kill a long sweep.
    """
    t0 = time.perf_counter()
    error = None
    try:
        cert = classify(n, config)
    except Exception as exc:  # worker survival: any error becomes a record
        cert = Certificate("unresolved", witness_attempts=0)
        error = f"{type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - t0) * 1000.0
    rec = {
        "n": n,
        "status": status_of(cert),
        "certificate": certificate_to_json(cert),
        "ms": round(ms, 3),
        "tool_version": __version__,
    }
    if error is not None:
        rec["error"] = error
    return rec


def _parse_record(line: str) -> tuple[dict, Certificate]:
    rec = _RECORD_DECODER.decode(line)
    if not isinstance(rec, dict):
        raise ValueError("record is not an object")
    n = rec.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("record lacks an integer n")
    if rec.get("status") not in ("certified", "counterexample", "unresolved"):
        raise ValueError(f"bad status {rec.get('status')!r}")
    cert = certificate_from_json(rec.get("certificate"))
    if rec["status"] != status_of(cert):
        raise ValueError("status does not match certificate type")
    return rec, cert


def scan_sweep_file(path: Path) -> tuple[dict[int, str], int]:
    """Existing records as {n: status}, plus the byte length of the
    valid prefix.  A partial trailing line (interrupted writer) is not
    an error: resume truncates it.  Corruption or a repeated n is."""
    done: dict[int, str] = {}
    keep = 0
    with open(path, "rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break  # partial trailing line, dropped on resume
            if line.strip():
                try:
                    rec, _ = _parse_record(line.decode("utf-8"))
                    if rec["n"] in done:
                        raise ValueError(f"duplicate record for n={rec['n']}")
                except (ValueError, UnicodeDecodeError) as exc:
                    raise SweepFileError(f"{path}: corrupt record on byte {keep}: {exc}") from exc
                done[rec["n"]] = rec["status"]
            keep += len(line)
    return done, keep


def run_sweep(config: SweepConfig, log=None) -> SweepSummary:
    """Classify every target and append one JSONL record per n.

    With resume=True, records already present in the output are kept
    and their n skipped, so an interrupted sweep converges to the same
    record set as an uninterrupted one.
    """
    t0 = time.perf_counter()
    path = Path(config.out)
    summary = SweepSummary()
    done: dict[int, str] = {}
    keep = 0
    if config.resume and path.exists():
        done, keep = scan_sweep_file(path)
        with open(path, "rb+") as fh:
            fh.truncate(keep)
    targets = []
    for n in iter_targets(config):
        if n in done:
            # only rows inside this range and filter are counted
            summary.skipped += 1
            _tally(summary, done[n])
        else:
            targets.append(n)

    mode = "ab" if config.resume and path.exists() else "wb"
    with open(path, mode) as fh:
        def emit(rec: dict) -> None:
            fh.write((json.dumps(rec, sort_keys=True) + "\n").encode("utf-8"))
            fh.flush()
            _tally(summary, rec["status"])
            if log is not None and rec["status"] != "certified":
                print(f"n={rec['n']}: {rec['status']}", file=log)

        jobs = config.jobs if len(targets) > 1 else 1
        for rec in _pool_map(classify_record, ((n, config.classify) for n in targets), jobs):
            emit(rec)
    summary.wall_s = time.perf_counter() - t0
    return summary


def _pool_map(fn, arg_tuples, jobs: int):
    """fn(*args) for each args of arg_tuples: in order here at jobs = 1,
    else in jobs worker processes as they finish, with at most 2 * jobs
    calls in flight, each one yielded admitting the next.  A dead worker
    raises BrokenProcessPool."""
    if jobs == 1:
        yield from starmap(fn, arg_tuples)
        return
    todo = iter(arg_tuples)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pending = {pool.submit(fn, *args) for args in islice(todo, 2 * jobs)}
        while pending:
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in finished:
                yield fut.result()
                pending.update(pool.submit(fn, *args) for args in islice(todo, 1))


def _tally(summary: SweepSummary, status: str) -> None:
    if status == "certified":
        summary.certified += 1
    elif status == "counterexample":
        summary.counterexamples += 1
    else:
        summary.unresolved += 1


def _check_record(lineno: int, n: int, cert: Certificate) -> tuple[int, int, str, str | None, float]:
    """verify_failure(n, cert) and its seconds; the worker task of verify_file."""
    t0 = time.perf_counter()
    try:
        reason = verify_failure(n, cert)
    except (ValueError, ArithmeticError, MemoryError) as exc:
        raise ArithmeticError(f"verify: line {lineno}, n = {n}, {cert.kind}: {exc}") from exc
    return lineno, n, cert.kind, reason, time.perf_counter() - t0


def verify_file(path: str | Path, jobs: int = 1) -> VerifyReport:
    """Re-check every record in a sweep file from scratch.

    Malformed lines and certificates that fail verification are
    collected separately from honest non-certifying records
    (unresolved, counterexample), which are flagged but well formed.
    At jobs > 1, verify_failure runs in that many worker processes, and
    the report is the same but for the seconds in routes.
    """
    report = VerifyReport()
    invalid, flagged = [], []  # (line no, n, reason) and (line no, n, status)
    seen: set[int] = set()

    def to_check(fh):  # the records verify_failure must check, as (line no, n, cert)
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            report.total += 1
            try:
                # decoded per line, so a bad byte costs only its own line
                rec, cert = _parse_record(line.decode("utf-8"))
            except ValueError as exc:
                report.malformed.append((lineno, str(exc)))
                continue
            n = rec["n"]
            if n in seen:
                report.malformed.append((lineno, f"duplicate record for n={n}"))
                continue
            seen.add(n)
            if cert.kind == "unresolved":
                flagged.append((lineno, n, "unresolved"))
            else:
                yield lineno, n, cert

    with open(path, "rb") as fh:
        for lineno, n, kind, reason, seconds in _pool_map(_check_record, to_check(fh), jobs):
            count, total_s = report.routes.get(kind, (0, 0.0))
            report.routes[kind] = (count + 1, total_s + seconds)
            if reason is not None:
                invalid.append((lineno, n, reason))
            elif kind == "counterexample":
                flagged.append((lineno, n, kind))
    # a pool finishes records out of file order; the report keeps file order
    report.invalid = [(n, reason) for _, n, reason in sorted(invalid)]
    report.flagged = [(n, status) for _, n, status in sorted(flagged)]
    return report
