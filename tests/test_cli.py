import json
import multiprocessing
import os
import time

import pytest

from logdisc.cli import cmd_dispatch


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
    assert rec["certificate"] == {"type": "non_residue_witness", "ell": "37", "residue": "14"}


def test_classify_unresolved_exit_code(capsys):
    code, out, _ = run(capsys, "classify", "25", "--max-witness-attempts", "1",
                       "--no-exact-fallback")
    rec = json.loads(out)
    if rec["status"] == "unresolved":
        assert code == 4
    else:
        assert code == 0


def test_usage_errors(capsys):
    assert run(capsys, "bogus")[0] == 1
    assert run(capsys, "disc")[0] == 1
    assert run(capsys, "disc", "0")[0] == 1
    assert run(capsys, "disc", "4", "--exact", "--mod", "7")[0] == 1
    assert run(capsys, "sweep", "--from", "2")[0] == 1
    assert run(capsys)[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "sweep", "--help")[0] == 0
    # classify and sweep share the classify options
    for command in ("classify", "sweep"):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert "--max-witness-attempts" in out and "--exact-degree-cap" in out
        assert ("--no-exact-fallback" in out) == (command == "classify")


def test_sweep_passes_classify_options(tmp_path, capsys):
    # n = 25 needs the witness search; one attempt fails, and the cap
    # keeps the exact fallback from running
    out_path = tmp_path / "s.jsonl"
    code, out, _ = run(capsys, "sweep", "--from", "25", "--to", "25", "--out", str(out_path),
                       "--max-witness-attempts", "1", "--exact-degree-cap", "24")
    assert code == 4 and "unresolved 1" in out
    rec = json.loads(out_path.read_text())
    assert rec["certificate"] == {"type": "unresolved", "witness_attempts": "1"}


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


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched worker reaches the pool only by fork")
def test_sweep_dead_worker_exits_two(tmp_path, capsys, monkeypatch):
    import logdisc.sweep as sweep_mod

    def die(n, config):
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


def test_verify_exit_codes_on_bad_files(tmp_path, capsys):
    out_path = tmp_path / "s.jsonl"
    run(capsys, "sweep", "--from", "2", "--to", "20", "--out", str(out_path))
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    for rec in records:
        if rec["certificate"]["type"] == "odd_valuation":
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
    assert code == 3 and "n=33: INVALID" in out and "below 2^64" in out
    assert time.perf_counter() - t0 < 5
