"""One round of one workload, in a fresh interpreter.

Run by perfbench/run.py, never imported by it:

    python3 perfbench/round.py --workload W --seed S --out RESULT.json
        [--trace] [--shrink] [--tamper]

The round drives logdisc only through its public entry points
(`logdisc.cli.cmd_dispatch` for sweeps, `logdisc.trunclog.p_n_exact` for
the exact workload), checks every output, and writes its timings,
item times, route counts and failures to RESULT.json.  A phase's
timing is a list of [start, end] intervals: one each for a sweep and
its verify, one per n for the exact workload.  With --trace the
boundary names are rebound to span recorders first (see spans.py) and
the spans are written beside RESULT.json at exit.  With --tamper one
output is corrupted before the checks run, to show that they catch it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

# routes that compute no residue: they take microseconds and would pin
# the median per-n time at timer noise
_CHEAP_ROUTES = ("trivial_n1", "negative_sign")


def _tamper_sweep_file(src: Path, dst: Path) -> None:
    """Copy src to dst with the first certificate that names a prime ell
    changed to ell + 1, which is even and so not prime."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if "ell" in rec["certificate"]:
            rec["certificate"]["ell"] = str(int(rec["certificate"]["ell"]) + 1)
            lines[i] = json.dumps(rec, sort_keys=True) + "\n"
            break
    dst.write_text("".join(lines), encoding="utf-8")


def sweep_round(inp, workdir: Path, tamper: bool) -> dict:
    from logdisc import cli

    targets = workloads.sweep_targets(inp)
    path = workdir / "sweep.jsonl"
    argv = ["sweep", "--from", str(inp.start), "--to", str(inp.stop),
            "--filter", "all", "--jobs", "1", "--out", str(path)]
    failures: list[str] = []
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        c0, t0 = time.process_time(), time.perf_counter()
        rc = cli.cmd_dispatch(argv)
        t1, c1 = time.perf_counter(), time.process_time()
    if rc != 0:
        failures.append(f"sweep exited {rc}: {quiet.getvalue().strip()[-300:]}")

    records = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        try:
            records.append(json.loads(line))
        except ValueError as exc:
            failures.append(f"sweep file line {lineno} is not JSON: {exc}")
    seen = [r["n"] for r in records]
    if sorted(seen) != targets:
        missing = sorted(set(targets) - set(seen))
        extra = sorted(set(seen) - set(targets))
        failures.append(f"record set differs from targets: missing {missing[:5]}, "
                        f"extra {extra[:5]}, {len(seen)} records for {len(targets)} targets")
    failures += [f"n={r['n']}: {r['status']}" for r in records if r["status"] != "certified"]

    checked = path
    if tamper:
        checked = workdir / "tampered.jsonl"
        _tamper_sweep_file(path, checked)
    reports = []
    verify_file = cli.verify_file

    def keep_report(p):
        reports.append(verify_file(p))
        return reports[-1]

    cli.verify_file = keep_report
    try:
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            t2 = time.perf_counter()
            vrc = cli.cmd_dispatch(["verify", str(checked)])
            t3 = time.perf_counter()
    finally:
        cli.verify_file = verify_file
    if vrc != 0:
        failures.append(f"verify exited {vrc}")
    if reports:
        rep = reports[0]
        failures += [f"line {ln}: malformed: {err}" for ln, err in rep.malformed]
        failures += [f"n={n}: invalid: {why}" for n, why in rep.invalid]
        failures += [f"n={n}: flagged {st}" for n, st in rep.flagged]
        if rep.total != len(targets):
            failures.append(f"verify checked {rep.total} records, expected {len(targets)}")
        checked_n = rep.total
    else:
        failures.append("verify did not read the file")
        checked_n = 0

    items = {str(r["n"]): r["ms"] for r in records
             if r["certificate"]["type"] not in _CHEAP_ROUTES}
    return {
        "phases": {"produce": [[t0, t1]], "verify": [[t2, t3]]},
        "produce_cpu_s": c1 - c0,
        "n_done": len(targets),
        "n_checked": checked_n,
        "items": items,
        "routes": dict(Counter(r["certificate"]["type"] for r in records)),
        "worker_busy_s": sum(r["ms"] for r in records) / 1000.0,
        "bytes_written": path.stat().st_size,
        "failures": failures,
    }


def exact_round(inp, tamper: bool) -> dict:
    from logdisc import trunclog

    failures: list[str] = []
    items: dict[str, float] = {}
    produce: list[list[float]] = []
    verify: list[list[float]] = []
    cpu = 0.0
    # each result is checked as soon as it is made, so the checks are
    # timed all through the round and not in one short burst at its end
    for n in inp.ns:
        moduli = workloads.check_primes(n)
        c0, t0 = time.process_time(), time.perf_counter()
        value = trunclog.p_n_exact(n)
        t1, c1 = time.perf_counter(), time.process_time()
        produce.append([t0, t1])
        cpu += c1 - c0
        items[str(n)] = (t1 - t0) * 1000.0
        if tamper and n == inp.ns[0]:
            value += 1
        t2 = time.perf_counter()
        for ell in moduli:
            if value % ell != trunclog.p_n_mod(n, ell):
                failures.append(f"P_{n} mod {ell} disagrees with p_n_mod")
        if n == workloads.PINNED_N:
            v, rest = 0, value
            while rest % workloads.PINNED_PRIME == 0:
                rest //= workloads.PINNED_PRIME
                v += 1
            if v != workloads.PINNED_VALUATION:
                failures.append(f"v_{workloads.PINNED_PRIME}(P_{n}) = {v}, "
                                f"expected {workloads.PINNED_VALUATION}")
        verify.append([t2, time.perf_counter()])
    return {
        "phases": {"produce": produce, "verify": verify},
        "produce_cpu_s": cpu,
        "n_done": len(inp.ns),
        "n_checked": len(inp.ns),
        "items": items,
        "routes": {},
        "failures": failures,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--shrink", action="store_true")
    ap.add_argument("--tamper", action="store_true")
    args = ap.parse_args()

    out = Path(args.out)
    workdir = out.parent / (out.stem + ".d")
    workdir.mkdir(parents=True, exist_ok=True)
    inp = workloads.make_inputs(args.workload, args.seed, args.shrink)

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    if inp.kind == "sweep":
        result = sweep_round(inp, workdir, args.tamper)
    else:
        result = exact_round(inp, args.tamper)

    from logdisc import trunclog

    info = trunclog.x_of.cache_info()
    result.update(
        traced=bool(tracer),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        x_of_hits=info.hits,
        x_of_misses=info.misses,
    )
    if tracer:
        spans_path = out.with_suffix(".spans.json")
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
        result["spans_file"] = str(spans_path)
    shutil.rmtree(workdir)
    out.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
