"""The logdisc benchmark: one workload, one seed, one time budget.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a source checkout (the directory holding
BENCHMARK.json and src/logdisc).  Nothing is built: every round imports
logdisc from src/ in a fresh interpreter, so each pays the cold sieve
and the cold x_of cache a command-line user pays on every sweep.

--trace 0 measures the end-to-end metrics over the rounds that fit in
T seconds (at least two): rates over their summed phase times and
medians of per-n times, scaled to a nominal host speed read from a
reference kernel timed between the rounds (see hostspeed.py), and the
median of several interpreter start-ups spread through the run for
setup_s.  --trace 1 runs traced rounds
(spans at every module boundary, see spans.py) alternating with
untraced ones, and reports the per-layer metrics and the tracing
overhead.  Both check every output; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics, and the
exit code is 1 if any check failed.

--shrink runs each workload on a few n, and --tamper corrupts one
output before the checks; both exist for perfbench/test_harness.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent

SETUP_SAMPLES = 9  # at least this many, one before each round
SETUP_PER_ROUND = 1
KERNEL_SAMPLES = 16  # at least this many, KERNEL_PER_ROUND before each round
KERNEL_PER_ROUND = 2
MIN_PLAIN_ROUNDS = 2
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0)

_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "import logdisc, numpy; print(time.monotonic(), numpy.__version__)"
)


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _probe(src: Path) -> tuple[float, str]:
    """Seconds from launching a fresh interpreter to logdisc imported."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(src)],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise HarnessError(f"cannot import logdisc from {src}: {proc.stderr.strip()[-500:]}")
    stamp, numpy_version = proc.stdout.split()
    return float(stamp) - t0, numpy_version


def _facts(root: Path, args, numpy_version: str) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "logdisc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    held_out = int(hashlib.sha256(f"held-out:{args.seed}".encode()).hexdigest()[:8], 16) % 1_000_000
    return {
        "nproc": workloads.nproc(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_start": list(os.getloadavg()),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": held_out,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _plan(traced: bool) -> tuple[list[bool], int]:
    """The cycle of rounds to repeat (traced or not), and how many rounds
    must run whatever the budget."""
    if not traced:
        return [False], MIN_PLAIN_ROUNDS
    # traced rounds alternate with untraced ones, which give the tracing
    # overhead; two traced rounds at least, to compare their counts
    return [True, False], 3


class Runner:
    def __init__(self, args, workdir: Path, n_expected: int) -> None:
        self.args = args
        self.workdir = workdir
        self.n_expected = n_expected
        self.results: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.started = 0

    def round(self, traced: bool, deadline: float) -> dict | None:
        idx = self.started
        self.started += 1
        out = self.workdir / f"round{idx}.json"
        cmd = [sys.executable, str(HERE / "round.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--out", str(out)]
        cmd += ["--trace"] * traced + ["--shrink"] * self.args.shrink + ["--tamper"] * self.args.tamper
        self.attempted += self.n_expected
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            output, _ = proc.communicate(timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return self._lost(f"round {idx} killed after {time.monotonic() - t0:.0f} s")
        finally:
            # whatever a round started must not outlive it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0 or not out.exists():
            tail = output.decode(errors="replace").strip()[-800:]
            return self._lost(f"round {idx} exited {proc.returncode}: {tail}")
        result = json.loads(out.read_text(encoding="utf-8"))
        if result["failures"]:
            self.failed += min(self.n_expected, len(result["failures"]))
            self.failures += result["failures"]
        self.results.append(result)
        return result

    def _lost(self, why: str) -> None:
        self.failed += self.n_expected
        self.failures.append(why)
        return None


def _tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest percentile of
    the ladder with at least ten samples beyond it, else the maximum."""
    s = sorted(values)
    n = len(s)
    for p in TAIL_LADDER:
        pos = (n - 1) * p / 100.0
        lo = int(pos)
        if n - 1 - lo >= 10:
            value = s[lo] + (s[min(lo + 1, n - 1)] - s[lo]) * (pos - lo)
            return p, value, n - 1 - lo
    return 100.0, s[-1], 0


def end_to_end(plain: list[dict], setup: list[float], kernel: list[float],
               report: list[str]) -> dict[str, float]:
    """End-to-end metrics over the untraced rounds of one run.

    Each rate is the work of all rounds over their summed phase time,
    and each n's time is its mean over the rounds, so every second of
    the run counts once.  Times and rates are then scaled to the nominal
    host speed (see hostspeed.py); setup_s and peak_rss_mb are not.
    """

    def total(fn):
        return sum(fn(r) for r in plain)

    per_n: dict[str, list[float]] = {}
    for r in plain:
        for n, ms in r["items"].items():
            per_n.setdefault(n, []).append(ms)
    items = [statistics.fmean(v) for v in per_n.values()]
    p, tail, beyond = _tail(items)
    what = "maximum (no percentile >= p75 has 10 samples beyond)" if p == 100.0 else f"p{p:g}"
    report.append(f"item times: {len(items)} n, each the mean of {len(plain)} rounds; "
                  f"tail = {what}, {beyond} samples beyond")
    done = total(lambda r: r["n_done"])
    rates = {
        "throughput_n_per_s": done / total(lambda r: spans.phase_s(r, "produce")),
        "n_per_cpu_s": done / total(lambda r: r["produce_cpu_s"]),
        "verify_n_per_s": total(lambda r: r["n_checked"]) / total(lambda r: spans.phase_s(r, "verify")),
    }
    times = {"item_ms_p50": statistics.median(items), "item_ms_tail": tail}
    slow = statistics.median(kernel) / hostspeed.NOMINAL_S
    report.append(f"host speed: reference kernel median {statistics.median(kernel):.4f} s over "
                  f"{len(kernel)} samples, nominal {hostspeed.NOMINAL_S} s; times are divided "
                  f"and rates multiplied by {slow:.4f}")
    report += [f"raw {name} = {value:.6g}" for name, value in {**rates, **times}.items()]
    return {
        "setup_s": statistics.median(setup),
        **{name: value * slow for name, value in rates.items()},
        **{name: value / slow for name, value in times.items()},
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024.0 for r in plain),
    }


def per_layer(traced: list[dict], plain: list[dict], sweep: bool,
              report: list[str]) -> tuple[dict[str, float], list[str]]:
    """Median per-layer metrics over the traced rounds, the worker
    numbers from the untraced rounds, and the tracing overhead against
    the untraced rounds."""
    rounds = []
    for r in traced:
        with open(r["spans_file"], encoding="utf-8") as fh:
            rounds.append(spans.per_layer(json.load(fh), r, sweep))
    problems = []
    counts = [spans.exact_counts(m) for m in rounds]
    if any(c != counts[0] for c in counts[1:]):
        diff = sorted(k for k in counts[0] if any(c.get(k) != counts[0][k] for c in counts[1:]))
        problems.append(f"traced counts differ between rounds of one seed: {diff[:8]}")
    metrics = spans.median_metrics(rounds)

    def walls(rs):
        return [sum(spans.phase_s(r, phase) for phase in r["phases"]) for r in rs]

    if sweep:
        metrics["sweep.worker_busy_s"] = statistics.median(r["worker_busy_s"] for r in plain)
        metrics["sweep.worker_util"] = statistics.median(
            r["worker_busy_s"] / spans.phase_s(r, "produce") for r in plain)
    untraced = statistics.median(walls(plain))
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_frac"] = statistics.median(walls(traced)) / untraced - 1.0
    report.append(f"tracing overhead: traced produce + verify {metrics['trace.wall_s']:.3f} s "
                  f"against untraced {untraced:.3f} s ({metrics['trace.overhead_frac']:+.1%}), "
                  f"medians of {len(traced)} and {len(plain)} rounds")
    report += spans.accounting_rows(metrics)
    report += spans.crossover_rows(metrics)
    return metrics, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--shrink", action="store_true")
    ap.add_argument("--tamper", action="store_true")
    args = ap.parse_args()

    # a terminated run still stops its rounds and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    t_start = time.monotonic()
    root = Path.cwd()
    src = root / "src"
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise HarnessError(f"no readable BENCHMARK.json in {root}: {exc}") from exc
    if not (src / "logdisc" / "__init__.py").is_file():
        raise HarnessError(f"no logdisc source under {src}; run from the root of a checkout")

    # the first import may compile bytecode; users of an installed
    # package never pay that, so it stays out of setup_s
    _, numpy_version = _probe(src)
    facts = _facts(root, args, numpy_version)
    inp = workloads.make_inputs(args.workload, args.seed, args.shrink)
    n_expected = len(workloads.sweep_targets(inp)) if inp.kind == "sweep" else len(inp.ns)
    setup: list[float] = []
    kernel: list[float] = []

    def take_setup(k: int, k_kernel: int) -> None:
        # spread over the run, so the medians see the same host load the rounds do
        if not args.trace:
            setup.extend(_probe(src)[0] for _ in range(k))
            kernel.extend(hostspeed.kernel_s() for _ in range(k_kernel))

    report = ["facts " + json.dumps(facts, sort_keys=True)]
    if inp.kind == "sweep":
        report.append(f"inputs: sweep --from {inp.start} --to {inp.stop} --filter all "
                      f"--jobs 1, {n_expected} n, then verify")
    else:
        report.append(f"inputs: p_n_exact for n in {list(inp.ns)}, each checked by p_n_mod")

    workdir = root / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args, workdir, n_expected)
    try:
        cycle, minimum = _plan(bool(args.trace))
        deadline = time.monotonic() + args.seconds
        hard_deadline = t_start + HARD_LIMIT_S
        last_wall: dict[bool, float] = {}
        i = 0
        while True:
            kind = cycle[i % len(cycle)]
            now = time.monotonic()
            guess = last_wall.get(kind, max(last_wall.values(), default=0.0))
            if i >= minimum and now + guess > deadline:
                break
            if now >= hard_deadline:
                runner.failures.append("hard time limit reached before the minimum rounds ran")
                runner.failed += 1
                break
            take_setup(SETUP_PER_ROUND, KERNEL_PER_ROUND)
            if runner.round(kind, hard_deadline) is None:
                break
            last_wall[kind] = time.monotonic() - now
            i += 1
        take_setup(max(0, SETUP_SAMPLES - len(setup)), max(0, KERNEL_SAMPLES - len(kernel)))

        results = runner.results
        plain = [r for r in results if not r["traced"]]
        routes = [r["routes"] for r in results]
        if any(r != routes[0] for r in routes[1:]):
            runner.failures.append(f"route counts differ between rounds of one seed: {routes}")
            runner.failed += 1
        if routes:
            report.append(f"routes per round: {json.dumps(routes[0], sort_keys=True)}")

        section = "end_to_end" if args.trace == 0 else "per_layer"
        computed: dict[str, float] = {}
        if args.trace == 0 and len(plain) >= 1:
            computed = end_to_end(plain, setup, kernel, report)
        elif args.trace == 1:
            traced = [r for r in results if r["traced"]]
            if traced and plain:
                computed, problems = per_layer(traced, plain, inp.kind == "sweep", report)
                runner.failures += problems
                runner.failed += len(problems)
            if len(traced) < 2:
                runner.failures.append("fewer than two traced rounds: counts not compared")
                runner.failed += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for m in spec[section]:
        name = m["name"]
        if name in computed:
            value = computed[name]
        elif section == "per_layer" and computed:
            value = 0.0  # this workload does no such work
        else:
            runner.failures.append(f"metric {name} could not be measured")
            runner.failed += 1
            value = 0.0
        metrics[name] = {"value": value, "unit": m["unit"]}
    attempted = max(runner.attempted, 1)
    failed = min(runner.failed, attempted)
    traced_rounds = sum(r["traced"] for r in runner.results)
    report.append(f"rounds: {len(runner.results)} ({traced_rounds} traced), "
                  f"run wall {time.monotonic() - t_start:.1f} s")
    for r in runner.results:
        walls = " ".join(f"{phase} {spans.phase_s(r, phase):.3f} s" for phase in r["phases"])
        report.append(f"round traced={r['traced']}: {walls}")
    for name, m in metrics.items():
        report.append(f"metric {name} = {m['value']:.6g} {m['unit']}")
    report.append(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} n attempted)")
    report += [f"FAILURE: {f}" for f in runner.failures[:20]]
    correct = failed == 0 and not runner.failures
    print("\n".join(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
