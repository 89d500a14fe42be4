import json
import random
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logdisc.certify import Certificate
from logdisc.sweep import (
    SweepConfig,
    SweepFileError,
    certificate_from_json,
    certificate_to_json,
    classify_record,
    iter_targets,
    run_sweep,
    scan_sweep_file,
    status_of,
    verify_file,
)


def load_records(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        out[rec["n"]] = (rec["status"], json.dumps(rec["certificate"], sort_keys=True))
    return out


def test_certificate_serialization_roundtrip():
    rng = random.Random(3001)
    kinds_and_fields = [
        ("negative_sign", {}),
        ("odd_valuation", {"ell": 7}),
        ("odd_prime_power_valuation", {"p": 13, "e": 1}),
        ("split_theorem", {"m": 3, "q": 7}),
        ("non_residue_witness", {"ell": 37, "residue": 14}),
        ("exact_non_square", {}),
        ("trivial_n1", {}),
        ("counterexample", {}),
        ("unresolved", {"witness_attempts": 200}),
    ]
    for kind, fields in kinds_and_fields:
        cert = Certificate(kind, **fields)
        obj = certificate_to_json(cert)
        assert obj["type"] == kind
        assert certificate_from_json(json.loads(json.dumps(obj))) == cert
    # big integers survive as decimal strings
    big = 98481394090065580021**3
    cert = Certificate("non_residue_witness", ell=big, residue=big - 1)
    obj = json.loads(json.dumps(certificate_to_json(cert)))
    assert obj["ell"] == str(big)
    assert certificate_from_json(obj) == cert


def test_certificate_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        certificate_from_json({"no_type": 1})
    with pytest.raises(ValueError):
        certificate_from_json({"type": "nonsense_kind"})
    with pytest.raises(ValueError):
        certificate_from_json({"type": "odd_valuation", "ell": 7})  # not a string
    with pytest.raises(ValueError):
        certificate_from_json({"type": "odd_valuation", "bogus": "7"})


@pytest.mark.parametrize("value", ["+7", " 7", "7 ", "7\n", "1_0", "\u0667", "1\u0660", "\uff17", "0007",
                                   "07", "-0", "--7", "0x7", "7.0", "", "-",
                                   pytest.param("1" * 4301, id="4301-digits")])
def test_certificate_from_json_accepts_only_canonical_decimals(value):
    with pytest.raises(ValueError, match="field ell is not a canonical decimal"):
        certificate_from_json({"type": "odd_valuation", "ell": value})


def test_certificate_from_json_reads_what_it_writes_up_to_the_digit_cap():
    for value in ["0", "7", "-7", "10", "9" * 4300, "-" + "9" * 4300]:
        assert certificate_from_json({"type": "odd_valuation", "ell": value}).ell == int(value)
        assert certificate_to_json(Certificate("odd_valuation", ell=int(value)))["ell"] == value


def test_status_of():
    assert status_of(Certificate("negative_sign")) == "certified"
    assert status_of(Certificate("counterexample")) == "counterexample"
    assert status_of(Certificate("unresolved")) == "unresolved"


def test_iter_targets_filters():
    assert list(iter_targets(SweepConfig(2, 20, out="x"))) == list(range(2, 21))
    assert list(iter_targets(SweepConfig(2, 30, out="x", filter="mod4eq1"))) == [
        5, 9, 13, 17, 21, 25, 29,
    ]
    assert list(iter_targets(SweepConfig(2, 1000, out="x", filter="odd-squares"))) == [
        9, 25, 49, 81, 121, 169, 225, 289, 361, 441, 529, 625, 729, 841, 961,
    ]
    assert list(iter_targets(SweepConfig(50, 200, out="x", filter="odd-squares"))) == [
        81, 121, 169,
    ]


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(5, 4, out="x")
    with pytest.raises(ValueError):
        SweepConfig(1, 4, out="x", jobs=0)
    with pytest.raises(ValueError):
        SweepConfig(1, 4, out="x", filter="evens")


def test_classify_record_shape():
    rec = classify_record(13)
    assert rec["n"] == 13
    assert rec["status"] == "certified"
    assert rec["certificate"] == {"type": "local_square_class", "ell": "7"}
    assert rec["ms"] >= 0
    assert isinstance(rec["tool_version"], str)


def test_classify_record_survives_internal_errors(monkeypatch):
    import logdisc.sweep as sweep_mod

    def boom(n):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(sweep_mod, "classify", boom)
    rec = sweep_mod.classify_record(7)
    assert rec["status"] == "unresolved"
    assert "synthetic failure" in rec["error"]


def test_run_sweep_basic(tmp_path):
    out = tmp_path / "sweep.jsonl"
    summary = run_sweep(SweepConfig(2, 30, out=str(out)))
    assert summary.certified == 29
    assert summary.counterexamples == 0 and summary.unresolved == 0
    recs = load_records(out)
    assert sorted(recs) == list(range(2, 31))
    report = verify_file(out)
    assert report.ok and report.total == 29


def test_run_sweep_parallel_matches_serial(tmp_path):
    a = tmp_path / "serial.jsonl"
    b = tmp_path / "parallel.jsonl"
    run_sweep(SweepConfig(2, 80, out=str(a), jobs=1))
    run_sweep(SweepConfig(2, 80, out=str(b), jobs=4))
    ra, rb = load_records(a), load_records(b)
    assert ra == rb


def test_run_sweep_bounds_work_in_flight(tmp_path, monkeypatch):
    import logdisc.sweep as sweep_mod

    class CountingPool:
        # runs each task at once; a future counts as outstanding until
        # the sweep reads its result
        outstanding: set = set()
        peak = 0

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            pool = CountingPool

            class Tracked(Future):
                def result(self, timeout=None):
                    pool.outstanding.discard(self)
                    return super().result(timeout)

            fut = Tracked()
            fut.set_result(fn(*args))
            pool.outstanding.add(fut)
            pool.peak = max(pool.peak, len(pool.outstanding))
            return fut

    serial = tmp_path / "serial.jsonl"
    pooled = tmp_path / "pooled.jsonl"
    run_sweep(SweepConfig(2, 60, out=str(serial)))
    monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", CountingPool)
    summary = run_sweep(SweepConfig(2, 60, out=str(pooled), jobs=3))
    assert CountingPool.peak == 6 and not CountingPool.outstanding
    assert summary.certified == 59 and summary.clean
    assert load_records(pooled) == load_records(serial)
    # verify --jobs 3 shares the bound
    CountingPool.peak = 0
    report = verify_file(serial, jobs=3)
    assert CountingPool.peak == 6 and not CountingPool.outstanding
    assert report.ok and report.total == 59


def test_sweep_2_to_1201_keeps_every_theorem_certificate(tmp_path):
    # the range-sweep benchmark's window: every record verifies, every
    # n = 2, 3 (mod 4) keeps its sign record, and every n = 0 (mod 4) keeps
    # the interval theorem's prime, the least prime above n/2, now as a
    # local square class
    out = tmp_path / "sweep.jsonl"
    summary = run_sweep(SweepConfig(2, 1201, out=str(out)))
    report = verify_file(out)
    assert summary.certified == 1200 and report.ok and report.total == 1200
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert Counter(r["certificate"]["type"] for r in records) == {
        "negative_sign": 600, "local_square_class": 600,
    }
    for r in records:
        n = r["n"]
        if n % 4 in (2, 3):
            assert r["certificate"] == {"type": "negative_sign"}, n
        elif n % 4 == 0:
            assert r["certificate"] == {"type": "local_square_class", "ell": str(sympy.nextprime(n // 2))}, n


def test_run_sweep_resume_after_truncation(tmp_path):
    full = tmp_path / "full.jsonl"
    run_sweep(SweepConfig(2, 60, out=str(full)))
    cut = tmp_path / "cut.jsonl"
    data = full.read_bytes()
    cut.write_bytes(data[: len(data) - 25])  # drop tail, leave a partial line
    summary = run_sweep(SweepConfig(2, 60, out=str(cut), resume=True))
    assert summary.skipped > 0
    assert load_records(cut) == load_records(full)


def test_run_sweep_resume_skips_done(tmp_path):
    out = tmp_path / "sweep.jsonl"
    run_sweep(SweepConfig(2, 40, out=str(out)))
    before = out.read_bytes()
    summary = run_sweep(SweepConfig(2, 40, out=str(out), resume=True))
    assert summary.skipped == 39 and summary.certified == 39
    assert out.read_bytes() == before


def test_run_sweep_resume_counts_only_rows_in_range(tmp_path):
    out = tmp_path / "sweep.jsonl"
    run_sweep(SweepConfig(2, 50, out=str(out)))
    # an unresolved row outside the new range must not flip clean either
    with open(out, "a") as fh:
        fh.write(json.dumps({
            "n": 99, "status": "unresolved",
            "certificate": {"type": "unresolved", "witness_attempts": "3"},
            "ms": 1, "tool_version": "x",
        }) + "\n")
    summary = run_sweep(SweepConfig(60, 70, out=str(out), resume=True))
    assert (summary.certified, summary.skipped, summary.unresolved) == (11, 0, 0)
    assert summary.clean
    summary = run_sweep(SweepConfig(40, 70, out=str(out), resume=True))
    assert (summary.certified, summary.skipped, summary.unresolved) == (31, 22, 0)
    assert sorted(load_records(out)) == list(range(2, 71)) + [99]


def test_run_sweep_overwrites_without_resume(tmp_path):
    out = tmp_path / "sweep.jsonl"
    run_sweep(SweepConfig(2, 50, out=str(out)))
    run_sweep(SweepConfig(2, 10, out=str(out)))
    assert sorted(load_records(out)) == list(range(2, 11))


def test_scan_rejects_corrupt_middle(tmp_path):
    out = tmp_path / "sweep.jsonl"
    run_sweep(SweepConfig(2, 10, out=str(out)))
    lines = out.read_text().splitlines()
    lines[2] = lines[2][:10] + "#corrupt#" + lines[2][10:]
    out.write_text("\n".join(lines) + "\n")
    with pytest.raises(SweepFileError):
        scan_sweep_file(out)


def test_verify_file_flags_and_invalids(tmp_path):
    out = tmp_path / "sweep.jsonl"
    run_sweep(SweepConfig(2, 40, out=str(out)))
    records = [json.loads(line) for line in out.read_text().splitlines()]
    # tamper with one odd prime ell, which becomes even
    tampered = 0
    for rec in records:
        if rec["certificate"]["type"] == "local_square_class" and not tampered:
            rec["certificate"]["ell"] = str(int(rec["certificate"]["ell"]) + 1)
            tampered = rec["n"]
    # append an unresolved record and a duplicate
    records.append({"n": 9999, "status": "unresolved",
                    "certificate": {"type": "unresolved", "witness_attempts": "5"},
                    "ms": 0, "tool_version": "x"})
    records.append(records[0])
    out.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    report = verify_file(out)
    assert not report.ok
    assert [n for n, _ in report.invalid] == [tampered]
    assert (9999, "unresolved") in report.flagged
    assert any("duplicate" in msg for _, msg in report.malformed)
    # every record but the unresolved one and the duplicate reached
    # verify_failure, and is counted under its kind
    assert sum(count for count, _ in report.routes.values()) == len(records) - 2
    assert report.routes["local_square_class"][0] == sum(
        r["certificate"]["type"] == "local_square_class" for r in records[:-1])
    assert all(seconds >= 0 for _, seconds in report.routes.values())


def test_verify_file_rejects_status_mismatch(tmp_path):
    out = tmp_path / "one.jsonl"
    rec = {"n": 6, "status": "unresolved",
           "certificate": {"type": "negative_sign"}, "ms": 0, "tool_version": "x"}
    out.write_text(json.dumps(rec) + "\n")
    report = verify_file(out)
    assert len(report.malformed) == 1


def record_lines(path):
    """Every row of a sweep file as (n, status, certificate), sorted;
    a duplicated row shows up twice."""
    return sorted((rec["n"], rec["status"], json.dumps(rec["certificate"], sort_keys=True))
                  for rec in map(json.loads, Path(path).read_text().splitlines()))


@pytest.fixture(scope="module")
def full_sweep_2_to_80(tmp_path_factory):
    out = tmp_path_factory.mktemp("full") / "full.jsonl"
    run_sweep(SweepConfig(2, 80, out=str(out)))
    return out


@settings(max_examples=20, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_resume_after_truncation_at_any_byte(full_sweep_2_to_80, tmp_path, data):
    # a sweep cut at any byte, resumed at --jobs 1 or 2, ends with the
    # record set of the uninterrupted one, and verifies clean
    raw = full_sweep_2_to_80.read_bytes()
    cut = data.draw(st.integers(0, len(raw)), label="cut")
    want = record_lines(full_sweep_2_to_80)
    for jobs in (1, 2):
        path = tmp_path / f"cut{jobs}.jsonl"
        path.write_bytes(raw[:cut])
        summary = run_sweep(SweepConfig(2, 80, out=str(path), jobs=jobs, resume=True))
        assert summary.certified == 79 and summary.clean, (cut, jobs)
        assert record_lines(path) == want, (cut, jobs)
        report = verify_file(path)
        assert report.ok and report.total == 79, (cut, jobs)
