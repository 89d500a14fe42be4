"""Range sweeps over n with JSONL persistence, resume, and verification.

One line per n, append-only, written by a single process even when
classification fans out to worker processes.  Big integers inside
certificates are serialized as decimal strings so records survive JSON
implementations that mangle large numbers.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
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
        fields[key] = int(value)
    return Certificate(kind, **fields)


def status_of(cert: Certificate) -> str:
    if cert.kind == "counterexample":
        return "counterexample"
    if cert.kind == "unresolved":
        return "unresolved"
    return "certified"


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
    rec = json.loads(line)
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
    an error: resume truncates it.  Corruption elsewhere is."""
    done: dict[int, str] = {}
    keep = 0
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0
    while pos < len(data):
        nl = data.find(b"\n", pos)
        if nl < 0:
            break  # partial trailing line, dropped on resume
        line = data[pos : nl + 1]
        if line.strip():
            try:
                rec, _ = _parse_record(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise SweepFileError(
                    f"{path}: corrupt record on byte {pos}: {exc}"
                ) from exc
            done[rec["n"]] = rec["status"]
        pos = nl + 1
        keep = pos
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

        if config.jobs == 1 or len(targets) <= 1:
            for n in targets:
                emit(classify_record(n, config.classify))
        else:
            with ProcessPoolExecutor(max_workers=config.jobs) as pool:
                pending = {pool.submit(classify_record, n, config.classify) for n in targets}
                while pending:
                    finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for fut in finished:
                        emit(fut.result())
    summary.wall_s = time.perf_counter() - t0
    return summary


def _tally(summary: SweepSummary, status: str) -> None:
    if status == "certified":
        summary.certified += 1
    elif status == "counterexample":
        summary.counterexamples += 1
    else:
        summary.unresolved += 1


def verify_file(path: str | Path) -> VerifyReport:
    """Re-check every record in a sweep file from scratch.

    Malformed lines and certificates that fail verification are
    collected separately from honest non-certifying records
    (unresolved, counterexample), which are flagged but well formed.
    """
    report = VerifyReport()
    seen: set[int] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            report.total += 1
            try:
                rec, cert = _parse_record(line)
            except ValueError as exc:
                report.malformed.append((lineno, str(exc)))
                continue
            n = rec["n"]
            if n in seen:
                report.malformed.append((lineno, f"duplicate record for n={n}"))
                continue
            seen.add(n)
            if cert.kind == "unresolved":
                report.flagged.append((n, "unresolved"))
                continue
            reason = verify_failure(n, cert)
            if reason is not None:
                report.invalid.append((n, reason))
            elif cert.kind == "counterexample":
                report.flagged.append((n, "counterexample"))
    return report
