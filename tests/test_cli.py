import hashlib
import json
import multiprocessing
import os
import re
import sys
import time

import pytest

from helpers import older_certificate
from logdisc.arith import is_prime, next_prime
from logdisc.cli import cmd_dispatch
from logdisc.sweep import certificate_to_json


def run(capsys, *argv):
    code = cmd_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_disc_exact(capsys):
    code, out, _ = run(capsys, "disc", "4", "--exact")
    assert code == 0 and out.strip() == "725/432"


def test_disc_mod(capsys):
    code, out, _ = run(capsys, "disc", "333", "--mod", "337")
    assert code == 0 and out.strip() == "157"


def test_disc_mod_of_the_linear_f1(capsys):
    # disc F_1 = 1, as `disc 1` reports; the modulus checks still apply
    code, out, _ = run(capsys, "disc", "1", "--mod", "3")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "disc", "1")
    assert code == 0 and "disc = 1" in out
    assert run(capsys, "disc", "1", "--mod", "4")[0] == 2
    assert run(capsys, "disc", "1", "--mod", "1")[0] == 2


def test_disc_report(capsys):
    code, out, _ = run(capsys, "disc", "9")
    assert code == 0
    assert "sign = +" in out
    assert "P_n = 545477892155962965656209531" in out
    assert "3^-14" in out


def test_pn(capsys):
    code, out, _ = run(capsys, "pn", "9")
    assert code == 0 and out.strip() == "545477892155962965656209531"
    code, out, _ = run(capsys, "pn", "33", "--mod", "37")
    assert code == 0 and out.strip() == str(int(out.strip()))


def test_xy(capsys):
    code, out, _ = run(capsys, "xy", "3")
    assert code == 0
    assert out.splitlines() == ["X = 13/36", "Y = 11/6", "E = {11}"]
    code, out, _ = run(capsys, "xy", "5")
    assert "E = {101, 137, 3001}" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "33")
    assert code == 0
    rec = json.loads(out)
    assert rec["n"] == 33
    assert rec["status"] == "certified"
    assert rec["certificate"] == {"type": "local_square_class", "ell": "19"}
    code, out, _ = run(capsys, "classify", "505")
    assert code == 0
    assert json.loads(out)["certificate"] == {"type": "local_square_class", "ell": "269"}


def test_pn_333_lifts_the_digit_limit_for_the_call_only(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "pn", "333")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "61d62ebe81a50feff9292aca83daedf06aeea8965ba1d21d1c7187bdb85ecdf3")
    assert sys.get_int_max_str_digits() == limit


def square_residues_only(monkeypatch):
    # every Legendre symbol reads 1, a square: the witness search of an odd
    # square n, whose primes all give an even valuation, tries its whole
    # budget and finds nothing
    import logdisc.certify as certify_mod

    monkeypatch.setattr(certify_mod, "legendre_symbol", lambda a, ell: 1)


def test_classify_unresolved_exit_code(capsys, monkeypatch):
    square_residues_only(monkeypatch)
    code, out, _ = run(capsys, "classify", "9")
    assert code == 4
    assert json.loads(out)["certificate"] == {"type": "unresolved", "witness_attempts": "200"}


def test_usage_errors(capsys, tmp_path):
    assert run(capsys, "bogus")[0] == 1
    assert run(capsys, "disc")[0] == 1
    assert run(capsys, "disc", "0")[0] == 1
    assert run(capsys, "disc", "4", "--exact", "--mod", "7")[0] == 1
    assert run(capsys, "sweep", "--from", "2")[0] == 1
    # an empty range is refused before the output file is opened
    code, _, err = run(capsys, "sweep", "--from", "5", "--to", "3", "--out", str(tmp_path / "s.jsonl"))
    assert code == 1 and err.startswith("usage error: empty range: 5 > 3")
    assert not (tmp_path / "s.jsonl").exists()
    assert run(capsys)[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "sweep", "--help")[0] == 0
    # the witness budget and the exact fallback's flags are gone from both
    for command in ("classify", "sweep"):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert "--max-witness-attempts" not in out
        assert "--exact-degree-cap" not in out and "--no-exact-fallback" not in out


def test_removed_exact_fallback_flags_are_usage_errors(capsys, tmp_path):
    assert run(capsys, "classify", "9", "--exact-degree-cap", "8")[0] == 1
    assert run(capsys, "classify", "9", "--no-exact-fallback")[0] == 1
    # the witness budget is a constant of certify, not an option
    assert run(capsys, "classify", "9", "--max-witness-attempts", "1")[0] == 1
    out_path = tmp_path / "s.jsonl"
    assert run(capsys, "sweep", "--from", "9", "--to", "9", "--out", str(out_path),
               "--max-witness-attempts", "1")[0] == 1
    assert not out_path.exists()


def test_sweep_passes_classify_options(tmp_path, capsys, monkeypatch):
    # n = 9 needs the witness search, which finds no witness in its budget
    square_residues_only(monkeypatch)
    out_path = tmp_path / "s.jsonl"
    code, out, _ = run(capsys, "sweep", "--from", "9", "--to", "9", "--out", str(out_path))
    assert code == 4 and "unresolved 1" in out
    rec = json.loads(out_path.read_text())
    assert rec["certificate"] == {"type": "unresolved", "witness_attempts": "200"}


def test_computational_errors_exit_two(capsys):
    code, _, err = run(capsys, "disc", "5", "--mod", "4")
    assert code == 2 and "too small" in err
    assert run(capsys, "xy", "1")[0] == 2
    assert run(capsys, "pn", "10", "--mod", "9")[0] == 2
    assert run(capsys, "verify", "/nonexistent/path.jsonl")[0] == 2


def test_sweep_and_verify_cycle(tmp_path, capsys):
    out_path = tmp_path / "s.jsonl"
    code, out, _ = run(capsys, "sweep", "--from", "2", "--to", "40",
                       "--out", str(out_path), "--jobs", "2")
    assert code == 0
    assert "certified 39" in out
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 0
    assert "checked 39 records" in out
    # resume is a no-op on a complete file
    code, out, _ = run(capsys, "sweep", "--from", "2", "--to", "40",
                       "--out", str(out_path), "--resume")
    assert code == 0 and "skipped 39" in out
    # a repeated n: verify reports it, and resume refuses the file as it stands
    with open(out_path, "rb+") as fh:
        dup = next(line for line in fh if json.loads(line)["n"] == 4)
        fh.seek(0, os.SEEK_END)
        fh.write(dup)
    before = out_path.read_bytes()
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 3 and "line 40: malformed: duplicate record for n=4" in out
    code, out, err = run(capsys, "sweep", "--from", "2", "--to", "42", "--out", str(out_path),
                         "--resume")
    offset = len(before) - len(dup)
    assert code == 2 and f"corrupt record on byte {offset}: duplicate record for n=4" in err
    assert out_path.read_bytes() == before


def test_verify_reports_a_non_utf8_line_as_malformed(tmp_path, capsys):
    out_path = tmp_path / "s.jsonl"
    assert run(capsys, "sweep", "--from", "2", "--to", "10", "--out", str(out_path))[0] == 0
    lines = out_path.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3].replace(b'"tool_version": "', b'"tool_version": "\xff')
    # a false claim after the bad line must still be caught: disc F_9 is a
    # square at 7, with f = -8 and (9 | 7) = 1
    rec = json.loads(lines[7])
    assert rec["n"] == 9 and rec["certificate"] == {"type": "local_square_class", "ell": "17"}
    rec["certificate"]["ell"] = "7"
    lines[7] = (json.dumps(rec) + "\n").encode()
    out_path.write_bytes(b"".join(lines))
    code, out, err = run(capsys, "verify", str(out_path))
    assert code == 3 and err == ""
    assert "line 4: malformed: 'utf-8' codec" in out and "n=9: INVALID" in out
    assert "checked 9 records: 1 malformed, 1 invalid" in out
    # resume still refuses the file as corrupt
    code, _, err = run(capsys, "sweep", "--from", "2", "--to", "10", "--out", str(out_path),
                       "--resume")
    assert code == 2 and "corrupt record" in err


@pytest.mark.parametrize("spelling", ["+73", " 73 ", "073", "7_3", "\u0667\u0663", "7\u0663"])
def test_verify_and_resume_refuse_a_non_canonical_integer(tmp_path, capsys, spelling):
    # each spelling is 73 to int(), but certificate_to_json never writes it
    assert int(spelling) == 73
    out_path = tmp_path / "s.jsonl"
    assert run(capsys, "sweep", "--from", "2", "--to", "10", "--out", str(out_path))[0] == 0
    lines = out_path.read_text().splitlines(keepends=True)
    rec = json.loads(lines[7])
    assert rec["n"] == 9
    # an older file's witness record at n = 9
    rec["certificate"] = {"type": "non_residue_witness", "ell": spelling, "residue": "21"}
    lines[7] = json.dumps(rec) + "\n"
    out_path.write_text("".join(lines))
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 3 and "line 8: malformed: field ell is not a canonical decimal" in out
    assert "checked 9 records: 1 malformed, 0 invalid" in out
    code, _, err = run(capsys, "sweep", "--from", "2", "--to", "10", "--out", str(out_path),
                       "--resume")
    assert code == 2 and "corrupt record" in err


def test_verify_refuses_an_oversized_integer_before_converting_it(tmp_path, capsys):
    lines = [
        # a million digits: seconds inside int() once the digit limit is lifted
        {"n": 33, "status": "certified",
         "certificate": {"type": "non_residue_witness", "ell": "7" * 10**6, "residue": "3"}},
        '{"n": %s, "status": "certified", "certificate": {"type": "negative_sign"}}' % ("1" * 4301),
        # 4,300 digits are read, and the claim is then checked and rejected
        {"n": 33, "status": "certified",
         "certificate": {"type": "non_residue_witness", "ell": "1" * 4300, "residue": "3"}},
        # 1,000 nested brackets: past the JSON decoder's recursion limit
        '{"n": %s}' % ("[" * 1000 + "]" * 1000),
    ]
    path = tmp_path / "big.jsonl"
    path.write_text("".join((x if isinstance(x, str) else json.dumps(x)) + "\n" for x in lines))
    # cmd_dispatch lifts the interpreter's digit limit while it runs
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(path))
    elapsed = time.perf_counter() - t0
    resumed, _, err = run(capsys, "sweep", "--from", "2", "--to", "3", "--out", str(path),
                          "--resume")
    assert code == 3 and elapsed < 1
    assert "line 1: malformed: field ell is not a canonical decimal of at most 4300 digits" in out
    assert "line 2: malformed: an integer is not a canonical decimal" in out
    assert "n=33: INVALID" in out and "below 2^31" in out
    assert "line 4: malformed: record nests too deeply" in out
    assert "checked 4 records: 3 malformed, 1 invalid" in out
    assert resumed == 2 and "corrupt record on byte 0" in err
    # the nested line alone: resume refuses it the same way, with no traceback
    path.write_text(lines[-1] + "\n")
    resumed, _, err = run(capsys, "sweep", "--from", "2", "--to", "3", "--out", str(path),
                          "--resume")
    assert resumed == 2 and "corrupt record on byte 0: record nests too deeply" in err


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched worker reaches the pool only by fork")
def test_sweep_dead_worker_exits_two(tmp_path, capsys, monkeypatch):
    import logdisc.sweep as sweep_mod

    def die(n):
        os._exit(1)

    # the pool pickles classify_record by name, so the patch goes one
    # level down, where the forked worker looks it up
    monkeypatch.setattr(sweep_mod, "classify", die)
    out_path = tmp_path / "s.jsonl"
    code, _, err = run(capsys, "sweep", "--from", "2", "--to", "9",
                       "--out", str(out_path), "--jobs", "2")
    assert code == 2
    assert "sweep" in err and "--resume" in err
    assert "Traceback" not in err


def without_seconds(out):
    # route lines end in the seconds verify_failure took, which vary
    return re.sub(r"(route \w+: \d+ records), \d+\.\d\d s", r"\1", out)


def test_verify_jobs_reports_as_one_job(tmp_path, capsys):
    from logdisc.certify import Certificate

    out_path = tmp_path / "s.jsonl"
    assert run(capsys, "sweep", "--from", "2", "--to", "30", "--out", str(out_path))[0] == 0
    lines = out_path.read_bytes().splitlines(keepends=True)
    recs = [json.loads(line) for line in lines]
    assert [recs[i]["certificate"]["type"] for i in (2, 10)] == ["local_square_class", "local_square_class"]
    # a false claim in an older file's witness record at n = 4005 comes
    # first: its check takes far longer than any other here, so a pool
    # finishes later records first
    cert = certificate_to_json(Certificate("non_residue_witness", ell=64081, residue=54202))
    slow = {"n": 4005, "status": "certified", "certificate": cert}
    recs[2]["status"] = "counterexample"  # n = 4: a false claim
    recs[2]["certificate"] = {"type": "counterexample"}
    recs[10]["certificate"]["ell"] = "9"  # n = 12: invalid
    lines = [(json.dumps(r) + "\n").encode() for r in [slow] + recs]
    lines[4] = lines[4].replace(b'"tool_version": "', b'"tool_version": "\xff')  # n = 5
    lines[12:12] = [b"{not json\n", lines[8]]  # a malformed line and a duplicate n = 9
    lines.append(json.dumps({"n": 77, "status": "unresolved",
                             "certificate": {"type": "unresolved", "witness_attempts": "3"}})
                 .encode() + b"\n")
    out_path.write_bytes(b"".join(lines))

    code, out, err = run(capsys, "verify", str(out_path))
    assert code == 3 and err == ""
    assert out.index("n=4005: INVALID") < out.index("n=4: INVALID") < out.index("n=12: INVALID")
    assert "line 5: malformed: 'utf-8' codec" in out and "line 13: malformed" in out
    assert "line 14: malformed: duplicate record for n=9" in out and "n=77: unresolved" in out
    assert "checked 33 records: 3 malformed, 3 invalid, 1 flagged" in out
    assert "route non_residue_witness: 1 records, " in out and "route counterexample: 1 records" in out
    code2, out2, err2 = run(capsys, "verify", str(out_path), "--jobs", "2")
    assert (code2, without_seconds(out2), err2) == (3, without_seconds(out), "")


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched worker reaches the pool only by fork")
def test_verify_dead_worker_exits_two(tmp_path, capsys, monkeypatch):
    import logdisc.sweep as sweep_mod

    out_path = tmp_path / "s.jsonl"
    assert run(capsys, "sweep", "--from", "2", "--to", "9", "--out", str(out_path))[0] == 0

    def die(n, cert):
        os._exit(1)

    # the pool pickles _check_record by name; the forked worker looks up
    # verify_failure in the patched module
    monkeypatch.setattr(sweep_mod, "verify_failure", die)
    code, out, err = run(capsys, "verify", str(out_path), "--jobs", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: verify: ") and str(out_path) in err
    assert "Traceback" not in err


def test_verify_exit_codes_on_bad_files(tmp_path, capsys):
    out_path = tmp_path / "s.jsonl"
    run(capsys, "sweep", "--from", "2", "--to", "20", "--out", str(out_path))
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    for rec in records:
        if rec["certificate"]["type"] == "local_square_class":
            rec["certificate"]["ell"] = "9"
    out_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 3 and "INVALID" in out

    flagged = tmp_path / "f.jsonl"
    flagged.write_text(json.dumps({
        "n": 77, "status": "unresolved",
        "certificate": {"type": "unresolved", "witness_attempts": "3"},
        "ms": 1, "tool_version": "x",
    }) + "\n")
    assert run(capsys, "verify", str(flagged))[0] == 4


def test_verify_tampered_witness_at_n1_exits_three(tmp_path, capsys):
    # invalid, not a computational error
    tampered = tmp_path / "t.jsonl"
    tampered.write_text(json.dumps({
        "n": 1, "status": "certified",
        "certificate": {"type": "non_residue_witness", "ell": "2", "residue": "1"},
    }) + "\n")
    code, out, _ = run(capsys, "verify", str(tampered))
    assert code == 3 and "n=1: INVALID" in out


def test_verify_tampered_divisor_records_exit_three(tmp_path, capsys):
    # the divisor records of an older 40..50 sweep
    out_path = tmp_path / "s.jsonl"
    recs = [{"n": n, "status": "certified", "certificate": certificate_to_json(older_certificate(n))}
            for n in range(40, 51)]
    out_path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    assert recs[5]["n"] == 45 and recs[5]["certificate"] == {"type": "divisor_valuation",
                                                             "p": "5", "e": "1"}
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 0 and "route divisor_valuation: 2 records, " in out  # 41 and 45
    tampered = [
        (45, {"p": "3", "e": "2"}, "frame valuation at 3 is even"),
        (45, {"p": "3", "e": "1"}, "3^1 does not exactly divide n"),
        (45, {"p": "5", "e": "1", "m": "9"}, "carries stray field m"),
        (333, {"p": "37", "e": "1"}, "P_333 vanishes mod 37"),
        (35, {"p": "5", "e": "1"}, "needs n = 1 (mod 4)"),
    ]
    for n, fields, reason in tampered:
        rec = {"n": n, "status": "certified", "certificate": {"type": "divisor_valuation", **fields}}
        out_path.write_text("".join(json.dumps(r) + "\n" for r in recs[:5] + [rec]))
        code, out, _ = run(capsys, "verify", str(out_path))
        assert code == 3 and f"n={n}: INVALID: " in out and reason in out, (n, fields, out)


def test_verify_rejects_valuation_records_the_identity_refutes(tmp_path, capsys):
    # each tampered record exits 3 and names its reason, next to a genuine
    # one: G(1) = 0 at (21, 3), a composite r, and an interval prime outside
    # (n/2, n - 2); P_333 = 0 (mod 37) is test_verify_tampered_divisor_records_exit_three's
    out_path = tmp_path / "s.jsonl"
    good = {"n": 8, "status": "certified", "certificate": {"type": "odd_valuation", "ell": "5"}}
    tampered = [
        (21, {"type": "divisor_valuation", "p": "3", "e": "1"}, "P_21 vanishes mod 3"),
        (45, {"type": "divisor_valuation", "p": "9", "e": "1"}, "9 is not prime"),
        (24, {"type": "odd_valuation", "ell": "11"}, "11 is outside the interval (12, 22)"),
    ]
    for n, cert, reason in tampered:
        rec = {"n": n, "status": "certified", "certificate": cert}
        out_path.write_text(json.dumps(good) + "\n" + json.dumps(rec) + "\n")
        code, out, _ = run(capsys, "verify", str(out_path))
        assert code == 3 and f"n={n}: INVALID: " in out and reason in out, (n, cert, out)
        assert "checked 2 records: 0 malformed, 1 invalid" in out


def test_allocation_failure_exits_two(tmp_path, capsys, monkeypatch):
    # a row too large to allocate is a computational failure, in a command
    # and in a verify check, not a traceback with the usage code 1: the
    # row G = F_n mod ell > n of `pn --mod` and of a witness record
    import logdisc.trunclog as trunclog

    out_path = tmp_path / "s.jsonl"
    out_path.write_text(json.dumps({
        "n": 33, "status": "certified",
        "certificate": {"type": "non_residue_witness", "ell": "37", "residue": "14"},
    }) + "\n")

    def no_memory(n, ell):
        raise MemoryError("Unable to allocate 128. GiB for an array")

    monkeypatch.setattr(trunclog, "psi_g_resultant", no_memory)
    code, out, err = run(capsys, "pn", "17", "--mod", "19")
    assert (code, out, err) == (2, "", "error: Unable to allocate 128. GiB for an array\n")
    code, out, err = run(capsys, "verify", str(out_path))
    assert (code, out) == (2, "")
    assert err == "error: verify: line 1, n = 33, non_residue_witness: Unable to allocate 128. GiB for an array\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_names_the_record_whose_check_raises(tmp_path, capsys, jobs):
    # a well-formed divisor record at n = p * q, p > q > 2^61, whose check
    # Python refuses (before it allocates anything): G has degree m = q, and
    # its list of q + 1 inverses is too long.  The run ends naming the line,
    # n and kind, and the error's type, since it carries no message
    q = next_prime(1 << 61)
    p = next(c for c in range(q + 2, 1 << 64, 2) if c * q % 4 == 1 and is_prime(c))
    out_path = tmp_path / "s.jsonl"
    out_path.write_text("".join(json.dumps(r) + "\n" for r in (
        {"n": 8, "status": "certified", "certificate": {"type": "odd_valuation", "ell": "5"}},
        {"n": p * q, "status": "certified", "certificate": {"type": "divisor_valuation", "p": str(p), "e": "1"}},
    )))
    code, out, err = run(capsys, "verify", str(out_path), "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err == f"error: verify: line 2, n = {p * q}, divisor_valuation: MemoryError()\n"


def test_verify_accepts_an_older_exact_record_at_n4(tmp_path, capsys):
    # an older file's exact record at n = 4, as its sweep wrote it, still
    # verifies by the exact kernel
    out_path = tmp_path / "s.jsonl"
    assert run(capsys, "sweep", "--from", "2", "--to", "30", "--out", str(out_path))[0] == 0
    lines = out_path.read_text().splitlines(keepends=True)
    assert json.loads(lines[2])["certificate"] == {"type": "local_square_class", "ell": "3"}
    lines[2] = ('{"certificate": {"type": "exact_non_square"}, "ms": 4.993, "n": 4, '
                '"status": "certified", "tool_version": "0.1.0"}\n')
    out_path.write_text("".join(lines))
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "verify", str(out_path), "--jobs", jobs)
        assert code == 0 and "checked 29 records: 0 malformed, 0 invalid, 0 flagged" in out
        assert "route exact_non_square: 1 records" in out


def test_sweep_odd_squares_filter(tmp_path, capsys):
    out_path = tmp_path / "odd.jsonl"
    code, out, _ = run(capsys, "sweep", "--from", "2", "--to", "1000",
                       "--filter", "odd-squares", "--out", str(out_path))
    assert code == 0
    ns = sorted(json.loads(line)["n"] for line in out_path.read_text().splitlines())
    assert ns == [k * k for k in range(3, 32, 2)]


def test_verify_witness_modulus_above_two_to_the_64_exits_three(tmp_path, capsys):
    # a Mersenne prime of 9,689 bits: rejected on its size, not after
    # seconds of primality testing and Euclid
    tampered = tmp_path / "t.jsonl"
    tampered.write_text(json.dumps({
        "n": 33, "status": "certified",
        "certificate": {"type": "non_residue_witness", "ell": str(2**9689 - 1), "residue": "3"},
    }) + "\n")
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(tampered))
    assert code == 3 and "n=33: INVALID" in out and "below 2^31" in out
    assert time.perf_counter() - t0 < 5


def test_classify_past_two_to_the_64_exits_two(tmp_path, capsys):
    # is_prime proves no prime from 2^64 up, so n = 2^70, whose scan starts
    # at 2^69, gets no certificate: classify exits 2 naming n, and a sweep
    # writes it unresolved, with the error
    n = 2**70
    code, out, err = run(capsys, "classify", str(n))
    assert (code, out, err) == (2, "", f"error: witness search for n = {n} reached 2^64\n")
    out_path = tmp_path / "s.jsonl"
    code, out, _ = run(capsys, "sweep", "--from", str(n), "--to", str(n), "--out", str(out_path))
    assert code == 4 and "unresolved 1" in out
    rec = json.loads(out_path.read_text())
    assert rec["status"] == "unresolved"
    assert rec["error"] == f"ArithmeticError: witness search for n = {n} reached 2^64"
