"""Span tracing at module boundaries, and the per-layer metrics made from it.

A traced round rebinds imported names at each boundary between logdisc's
modules (for example `logdisc.certify.p_n_mod`, the name certify calls)
to a wrapper that records a span: its name, start, end, parent and item.
The item is the n of the root span, so every span of one n shares it.
Spans stay in memory and are written out when the round ends; nothing
inside the program is edited.

A layer is a module.  A span's self time is its duration minus its
children's; summed per module, self times plus the time outside every
span make up the round's produce and verify wall time.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

LAYERS = ("certify", "trunclog", "poly", "arith")
ARITH_FROM_CERTIFY = ("next_prime", "legendre_symbol", "factorize", "is_prime")
# degree bands for the Euclid crossover report, by the larger degree
BANDS = ((0, 32), (32, 64), (64, 96), (96, 128), (128, 256), (256, 512),
         (512, 1024), (1024, 2048), (2048, None))


def band_name(lo: int, hi: int | None) -> str:
    return f"d{lo:04d}-{hi - 1:04d}" if hi else f"d{lo:04d}-up"


# span name -> layer that does the work; a span's name is the metric
# prefix, and calls from poly into arith.is_prime are poly's prime
# generation but arith's work
_SPAN_LAYER = {"poly.prime_gen": "arith"}


def _no_label(args, result):
    return None, None


def _route(args, result):
    return result.kind, None


def _cert_route(args, result):
    return args[1].kind, None


def _found(args, result):
    return None, 0 if result is None else 1


def _value(args, result):
    return None, result


def _euclid_path(gate_mod: int, gate_len: int):
    """Label a resultant_mod_p call with the path the program's gate
    picks (numpy for p < gate_mod and a reduced length >= gate_len) and
    its computed work, deg f * deg g after reduction mod p."""

    def reduced_len(poly, p):
        k = len(poly)
        while k and poly[k - 1] % p == 0:
            k -= 1
        return k

    def label(args, result):
        f, g, p = args[0], args[1], args[2]
        la, lb = reduced_len(f, p), reduced_len(g, p)
        path = "np" if p < gate_mod and max(la, lb) >= gate_len else "py"
        return path, (max(la - 1, 0) * max(lb - 1, 0), max(la, lb) - 1)

    return label


class Tracer:
    def __init__(self) -> None:
        # (name, label, parent index, item, t0, t1, value); parent -1 for roots
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def _wrap(self, module, attr: str, name: str, label) -> None:
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            item = spans[parent][3] if parent >= 0 else args[0]
            idx = len(spans)
            spans.append((name, None, parent, item, 0.0, 0.0, None))
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                t1 = clock()
            except BaseException:
                spans[idx] = (name, "error", parent, item, t0, clock(), None)
                raise
            finally:
                stack.pop()
            lab, value = label(args, result)
            spans[idx] = (name, lab, parent, item, t0, t1, value)
            return result

        setattr(module, attr, traced)

    def install(self) -> None:
        """Rebind the boundary names of every logdisc module."""
        sweep = importlib.import_module("logdisc.sweep")
        certify = importlib.import_module("logdisc.certify")
        trunclog = importlib.import_module("logdisc.trunclog")
        poly = importlib.import_module("logdisc.poly")
        # sweep -> certify
        self._wrap(sweep, "classify", "certify.classify", _route)
        self._wrap(sweep, "verify_failure", "certify.verify_failure", _cert_route)
        # inside certify: the witness search is its own span
        self._wrap(certify, "witness_search", "certify.witness_search", _found)
        # certify -> trunclog
        self._wrap(certify, "disc_mod", "trunclog.disc_mod", _value)
        self._wrap(certify, "p_n_mod", "trunclog.p_n_mod", _no_label)
        self._wrap(certify, "in_exceptional_set", "trunclog.in_exceptional_set", _no_label)
        self._wrap(certify, "disc_exact", "trunclog.disc_exact", _no_label)
        # certify -> arith
        for attr in ARITH_FROM_CERTIFY:
            self._wrap(certify, attr, f"arith.{attr}", _no_label)
        # trunclog's own calls between its entry points, and the harness's
        self._wrap(trunclog, "p_n_mod", "trunclog.p_n_mod", _no_label)
        self._wrap(trunclog, "p_n_exact", "trunclog.p_n_exact", _no_label)
        # trunclog -> poly
        gate = _euclid_path(getattr(poly, "_NP_MAX_MOD", 1 << 31), getattr(poly, "_NP_MIN_DEG", 128))
        self._wrap(trunclog, "resultant_mod_p", "poly.resultant_mod_p", gate)
        self._wrap(trunclog, "resultant_exact", "poly.resultant_exact", _no_label)
        # poly -> arith: prime generation for the CRT moduli
        self._wrap(poly, "is_prime", "poly.prime_gen", _value)


def phase_s(result: dict, phase: str) -> float:
    """Seconds a round spent in one phase, summed over its intervals."""
    return sum(t1 - t0 for t0, t1 in result["phases"][phase])


def per_layer(spans: list, result: dict, sweep: bool) -> dict[str, float]:
    """Per-layer metrics of one traced round from its spans and its
    result: the produce and verify intervals as [t0, t1] pairs on the
    clock the spans use, x_of's cache counters and the sweep file size.
    """
    phases = result["phases"]
    m: dict[str, float] = defaultdict(float)
    children = defaultdict(float)
    for name, _, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            children[parent] += t1 - t0
    layer_self = defaultdict(float)
    root_busy = {"produce": 0.0, "verify": 0.0}
    attempts = zeros = 0
    band_busy = defaultdict(float)
    band_work = defaultdict(float)
    for idx, (name, label, parent, _, t0, t1, value) in enumerate(spans):
        dur = t1 - t0
        own = dur - children[idx]
        layer_self[_SPAN_LAYER.get(name, name.split(".")[0])] += own
        if parent < 0:
            for phase, intervals in phases.items():
                if any(p0 <= t0 <= p1 for p0, p1 in intervals):
                    root_busy[phase] += dur
        if name == "certify.classify" or name == "certify.verify_failure":
            m[f"{name}.{label}.calls"] += 1
            m[f"{name}.{label}.busy_s"] += dur
        elif name == "certify.witness_search":
            m[f"{name}.busy_s"] += dur
            m["certify.witness_search.found"] += value or 0
        elif name == "poly.resultant_mod_p" and label in ("py", "np"):
            deg2, top = value
            m[f"{name}.{label}.calls"] += 1
            m[f"{name}.{label}.busy_s"] += dur
            m[f"{name}.{label}.deg2_sum"] += deg2
            band = next(b for b in BANDS if top >= b[0] and (b[1] is None or top < b[1]))
            band_busy[label, band] += dur
            band_work[label, band] += deg2
        elif name == "poly.prime_gen":
            m[f"{name}.is_prime_calls"] += 1
            m[f"{name}.primes"] += 1 if value else 0
            m[f"{name}.busy_s"] += dur
        else:
            m[f"{name}.calls"] += 1
            m[f"{name}.busy_s"] += dur
            m[f"{name}.self_s"] += own
        if name == "trunclog.disc_mod" and parent >= 0 and spans[parent][0] == "certify.witness_search":
            attempts += 1
            zeros += value == 0

    m["certify.witness_search.attempts"] = attempts
    m["certify.witness_search.zero_residues"] = zeros
    found = m.pop("certify.witness_search.found", 0)
    m["certify.witness_search.success_ratio"] = found / attempts if attempts else 0.0
    for path in ("py", "np"):
        for band in BANDS:
            work = band_work[path, band]
            key = f"poly.resultant_mod_p.{path}.ns_per_deg2.{band_name(*band)}"
            m[key] = band_busy[path, band] / work * 1e9 if work else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    produce = phase_s(result, "produce")
    verify = phase_s(result, "verify")
    m["trace.wall_s"] = produce + verify
    m["trace.outside_spans_s"] = produce + verify - root_busy["produce"] - root_busy["verify"]
    if sweep:
        m["sweep.emit_s"] = produce - root_busy["produce"]
        m["sweep.verify_overhead_s"] = verify - root_busy["verify"]
        m["sweep.bytes_written"] = result["bytes_written"]
    hits, misses = result["x_of_hits"], result["x_of_misses"]
    m["trunclog.x_of.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return dict(m)


def exact_counts(metrics: dict[str, float]) -> dict[str, float]:
    """The traced numbers that must repeat exactly between rounds of one
    seed: route counts, witness attempts, primes generated, Euclid work."""
    keep = {}
    for key, value in metrics.items():
        if key.endswith((".calls", ".attempts", ".zero_residues", ".primes",
                         ".is_prime_calls", ".deg2_sum", ".hit_ratio")):
            keep[key] = value
    return keep


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*rounds)
    return {k: statistics.median(r.get(k, 0.0) for r in rounds) for k in keys}


def crossover_rows(metrics: dict[str, float]) -> list[str]:
    """The Euclid crossover report: ns per deg^2 for each path by band."""
    rows = ["euclid crossover (ns per deg f * deg g; '-' = path not taken in this band):",
            f"  {'band':<12}{'py':>12}{'np':>12}"]
    for band in BANDS:
        cells = []
        for path in ("py", "np"):
            v = metrics.get(f"poly.resultant_mod_p.{path}.ns_per_deg2.{band_name(*band)}", 0.0)
            cells.append(f"{v:12.3f}" if v else f"{'-':>12}")
        rows.append(f"  {band_name(*band):<12}" + "".join(cells))
    return rows


def accounting_rows(metrics: dict[str, float]) -> list[str]:
    """Module self times against the traced produce + verify wall."""
    wall = metrics.get("trace.wall_s", 0.0)
    parts = [("outside spans (sweep/cli or harness)", metrics.get("trace.outside_spans_s", 0.0))]
    parts += [(layer, metrics.get(f"{layer}.self_s", 0.0)) for layer in LAYERS]
    rows = [f"self time by module (traced produce + verify wall {wall:.3f} s):"]
    for name, value in parts:
        share = value / wall if wall else 0.0
        rows.append(f"  {name:<38}{value:10.3f} s {share:7.1%}")
    total = sum(v for _, v in parts)
    rows.append(f"  {'sum':<38}{total:10.3f} s {total / wall if wall else 0.0:7.1%}")
    return rows
