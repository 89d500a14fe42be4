import dataclasses
import hashlib
import json
import math
import time
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy

from helpers import OLDER_WITNESSES, dense_disc_mod, older_certificate, rat_valuation
from logdisc.arith import is_prime, is_rational_square
from logdisc.certify import (
    Certificate,
    classify,
    verify_certificate,
    verify_failure,
    witness_search,
)
from logdisc.sweep import SweepConfig, certificate_to_json, run_sweep, verify_file
from logdisc.trunclog import disc_exact, disc_mod, psi_g_resultant, psi_g_resultant_by_powers


def test_bertrand_prime_values():
    # every n = 0 (mod 4) takes the least prime in (n/2, n), Bertrand's:
    # there m = 1 and f = -(n - 1) is odd.  n = 4, whose interval
    # (n/2, n - 2) of older files is empty, takes 3
    assert [classify(n).ell for n in (4, 8, 12, 16, 100)] == [3, 5, 7, 11, 53]
    for n in range(4, 400, 4):
        ell = classify(n).ell
        assert sympy.isprime(ell) and sympy.prevprime(ell) <= n // 2 < ell < n


def test_witness_search_pinned():
    # n = 1 (mod 4) from n/2 up, where (n | ell) = -1 certifies, and the odd
    # squares from n/3 up; 9 and 25 alone go past n
    assert witness_search(333, 10) == 167
    assert witness_search(33, 10) == 19
    assert witness_search(505, 10) == 269
    assert witness_search(4005, 50) == 2003
    assert witness_search(9765, 50) == 4909
    assert witness_search(9, 10) == 17
    assert witness_search(25, 10) == 37


def test_nearest_prime_witnesses_still_verify():
    # certificates of the former nearest-prime policy, as old files hold them
    for n, ell, res in ((33, 37, 14), (333, 337, 157), (505, 509, 200)):
        assert verify_certificate(n, Certificate("non_residue_witness", ell=ell, residue=res))


@lru_cache(maxsize=None)
def _exact_disc(n):
    return disc_exact(n).exact


def _exact_class_is_not_square(n, ell):
    """Whether disc F_n is not a square in Q_ell, an odd prime, from the
    exact value and sympy's legendre_symbol: an odd valuation, or a unit
    part that is a non-residue mod ell."""
    d = _exact_disc(n)
    v = rat_valuation(d, ell)
    unit = d / Fraction(ell) ** v
    return v % 2 == 1 or sympy.legendre_symbol(unit.numerator * pow(unit.denominator, -1, ell) % ell, ell) == -1


def _scan_start(n):
    return n // 3 if n % 2 and math.isqrt(n) ** 2 == n else n // 2


def test_witness_search_scans_in_order():
    # replay the scan by hand: every prime it passes over has no producer
    # value or shows disc F_n a square at ell by its exact value, and the
    # prime it returns shows it is not
    for n in (4, 5, 9, 13, 25, 33, 49, 69, 81, 105, 117):
        ell = witness_search(n, 50)
        for probe in sympy.primerange(_scan_start(n) + 1, ell):
            assert not psi_g_resultant_by_powers(n, probe) or not _exact_class_is_not_square(n, probe), (n, probe)
        assert _exact_class_is_not_square(n, ell), (n, ell)


def test_witness_search_budget_exhaustion(monkeypatch):
    import logdisc.certify as certify

    real, calls = certify.psi_g_resultant_by_powers, []

    def recording(n, ell):
        calls.append(ell)
        return real(n, ell)

    monkeypatch.setattr(certify, "psi_g_resultant_by_powers", recording)
    assert witness_search(9, 0) is None
    assert calls == []
    # each prime is one attempt and one value, in ascending order from
    # 9 // 3: 9's first certifying prime is its fifth, 17
    assert witness_search(9, 4) is None
    assert calls == [5, 7, 11, 13]
    calls.clear()
    assert witness_search(9, 5) == 17
    assert calls == [5, 7, 11, 13, 17]


def test_witness_search_stops_at_two_to_the_64(monkeypatch):
    import logdisc.certify as certify

    # is_prime is a proof below 2^64 only: n = 2^70 starts at 2^69, and
    # the error names n before any prime is tested
    t0 = time.perf_counter()
    with pytest.raises(ArithmeticError, match=f"n = {2**70} reached 2\\^64"):
        witness_search(2**70, 200)
    with pytest.raises(ArithmeticError, match="reached 2\\^64"):
        classify(2**70)
    assert time.perf_counter() - t0 < 0.1
    # primes that run out before the budget is spent: below 30, 25 has
    # 11, ..., 29, none certifying
    monkeypatch.setattr(certify, "_PROVEN_PRIME_TOP", 30)
    with pytest.raises(ArithmeticError, match="n = 25 reached 2\\^64"):
        witness_search(25, 200)
    # past n, the verifier's bound: 9 at a bound of 8 has only 5 and 7
    monkeypatch.setattr(certify, "_PROVEN_PRIME_TOP", 1 << 64)
    monkeypatch.setattr(certify, "_EXACT_MAX_N", 8)
    with pytest.raises(ArithmeticError, match="n = 9 passed n > 8"):
        witness_search(9, 200)


def test_classify_routing():
    assert classify(1).kind == "trivial_n1"
    assert classify(2).kind == "negative_sign"
    assert classify(6).kind == "negative_sign"
    assert classify(11).kind == "negative_sign"
    # n = 0 (mod 4): the least prime above n/2, 3 at n = 4
    for n, ell in ((4, 3), (8, 5), (12, 7)):
        assert classify(n) == Certificate("local_square_class", ell=ell)
    # n = 1 (mod 4), not a square: the least prime ell > n/2 with
    # (n | ell) = -1, or ell = n for a prime n, where f = 2 - n is odd
    for n, ell in ((5, 3), (13, 7), (21, 11), (33, 19), (125, 67), (165, 83), (205, 103),
                   (221, 113), (505, 269), (1197, 599)):
        assert classify(n) == Certificate("local_square_class", ell=ell)
        assert ell == n or sympy.jacobi_symbol(n, ell) == -1
    # odd squares: from n/3, where m = 2; 9 and 25 go on past n
    for n, ell in ((9, 17), (25, 37), (49, 19), (625, 211)):
        assert classify(n) == Certificate("local_square_class", ell=ell)


def test_classify_rejects_bad_n():
    with pytest.raises(ValueError):
        classify(0)


def test_classify_deterministic():
    for n in (4, 8, 13, 21, 25, 33, 205):
        assert classify(n) == classify(n)


def test_classify_unresolved_when_starved(monkeypatch):
    import logdisc.certify as certify_mod

    # classify reads the budget at call time
    monkeypatch.setattr(certify_mod, "_MAX_WITNESS_ATTEMPTS", 0)
    cert = classify(25)
    assert cert == Certificate("unresolved", witness_attempts=0)
    assert verify_certificate(25, cert) is False

    # a failed search ends unresolved at any n, small ones included:
    # there is no exact computation after it
    def no_exact(n):
        raise AssertionError(f"disc_exact({n}) called")

    monkeypatch.setattr(certify_mod, "disc_exact", no_exact)
    monkeypatch.setattr(certify_mod, "_MAX_WITNESS_ATTEMPTS", 2)
    assert classify(9) == Certificate("unresolved", witness_attempts=2)


def test_classify_evaluates_no_theorem_residue(monkeypatch):
    # the producer never computes L mod ell: the sign route is chosen from
    # the shape of n, and the local square class needs only Res(psi_k, G),
    # without the unit L/s.  With L mod ell unavailable, classify still
    # gives every certificate of the range-sweep window and of mod4eq1 up
    # to 10^4
    import logdisc.trunclog as trunclog_mod

    want = {n: classify(n) for n in range(2, 1210)}
    kinds = [cert.kind for cert in want.values()]
    assert (kinds.count("negative_sign"), kinds.count("local_square_class")) == (604, 604)
    want |= {n: classify(n) for n in range(1213, 10001, 4)}

    def forbidden(*args, **kwargs):
        raise AssertionError("L mod p evaluated")

    monkeypatch.setattr(trunclog_mod, "_lcm_mod", forbidden)
    assert {n: classify(n) for n in want} == want


def test_classify_calls_no_verifier_core(monkeypatch):
    # the producer shares no code with the verifier's P_n check: with
    # psi_g_resultant and its DFT made to raise, classify still gives the
    # certificates of 2..1209 whose digest CI pins for the sweep window
    import logdisc.certify as certify_mod
    import logdisc.trunclog as trunclog_mod

    def forbidden(*args):
        raise AssertionError("the verifier's core ran")

    for module, name in ((trunclog_mod, "psi_g_resultant"), (certify_mod, "psi_g_resultant"),
                         (trunclog_mod, "_split_product")):
        monkeypatch.setattr(module, name, forbidden)
    pairs = [[n, certificate_to_json(classify(n))] for n in range(2, 1210)]
    digest = hashlib.sha256(json.dumps(pairs, sort_keys=True).encode()).hexdigest()
    assert digest == "42f8ce31b5cd1dd207351012b8f9b3d3e8fee85142b880f0e932b214af914eb3"


def test_classify_reaches_no_exact_kernel(monkeypatch):
    # the producer runs no exact arithmetic and no E_m membership: neither
    # the X(m) behind E_m nor the exact kernel is reached anywhere on the
    # range-sweep window, n = 4 included
    import logdisc.certify as certify_mod
    import logdisc.poly as poly_mod
    import logdisc.trunclog as trunclog_mod

    ns = range(2, 1210)
    want = {n: classify(n) for n in ns}

    def no_kernel(*args):
        raise AssertionError("exact kernel reached")

    for mod, name in ((trunclog_mod, "x_of"), (trunclog_mod, "resultant_exact"),
                      (poly_mod, "resultant_exact"), (trunclog_mod, "in_exceptional_set"),
                      (certify_mod, "in_exceptional_set"), (certify_mod, "disc_exact"),
                      (trunclog_mod, "disc_exact"), (trunclog_mod, "p_n_exact"),
                      (certify_mod, "is_rational_square")):
        monkeypatch.setattr(mod, name, no_kernel)
    assert {n: classify(n) for n in ns} == want


def test_round_trip_2_to_300():
    for n in range(2, 301):
        cert = classify(n)
        assert cert.kind not in ("unresolved", "counterexample"), n
        assert verify_certificate(n, cert), (n, cert, verify_failure(n, cert))


def test_round_trip_odd_squares():
    for k in range(3, 32, 2):
        n = k * k
        cert = classify(n)
        assert cert.kind not in ("unresolved", "counterexample"), n
        assert verify_certificate(n, cert), (n, cert)


def test_certificates_never_contradict_exact_computation():
    for n in range(2, 61):
        cert = classify(n)
        assert cert.kind not in ("unresolved", "counterexample")
        assert not is_rational_square(disc_exact(n).exact), n


def test_odd_valuation_claims_are_literal():
    for n in range(8, 61, 4):
        cert = classify(n)
        assert cert.kind == "local_square_class"
        v = rat_valuation(disc_exact(n).exact, cert.ell)
        assert v % 2 == 1, (n, cert.ell, v)


def test_verify_rejects_tampering():
    ok = Certificate("non_residue_witness", ell=37, residue=14)
    assert verify_certificate(33, ok)
    assert not verify_certificate(33, dataclasses.replace(ok, residue=15))
    assert not verify_certificate(33, dataclasses.replace(ok, ell=41))
    assert not verify_certificate(34, ok)
    # stray fields are rejected outright
    assert not verify_certificate(33, dataclasses.replace(ok, m=3))
    # missing fields
    assert not verify_certificate(33, Certificate("non_residue_witness", ell=37))
    assert not verify_certificate(8, Certificate("odd_valuation"))
    # unknown kind
    assert not verify_certificate(33, Certificate("definitely_fine"))


def _claim_holds(n, cert):
    """Whether cert's claim about n is true, by oracles the verifier does
    not use: disc F_n from the exact P_n, and sympy's isprime and
    legendre_symbol (a test-only dependency)."""
    if cert.kind == "local_square_class":
        return cert.ell % 2 == 1 and sympy.isprime(cert.ell) and _exact_class_is_not_square(n, cert.ell)
    if cert.kind == "non_residue_witness":
        ell, d = cert.ell, _exact_disc(n)
        return (ell > n and sympy.isprime(ell)
                and d.numerator * pow(d.denominator, -1, ell) % ell == cert.residue % ell
                and sympy.legendre_symbol(cert.residue % ell, ell) == -1)
    # the valuation routes: an odd power of a prime divides disc F_n
    if cert.kind == "odd_valuation":
        prime, shape = cert.ell, n % 4 == 0 and n // 2 < cert.ell < n - 2
    elif cert.kind == "odd_prime_power_valuation":
        prime, shape = cert.p, n % 4 == 1 and cert.p**cert.e == n
    elif cert.kind == "split_theorem":
        prime, shape = cert.q, n % 4 == 1 and cert.m * cert.q == n and 2 <= cert.m < cert.q
    elif cert.kind == "divisor_valuation":
        p, e = cert.p, cert.e
        prime, shape = p, n % 4 == 1 and p >= 2 and e >= 1 and n % p**e == 0 and n // p**e % p != 0
    else:
        raise AssertionError(f"no integer fields on {cert.kind}")
    return shape and sympy.isprime(prime) and rat_valuation(_exact_disc(n), prime) % 2 == 1


def test_verify_accepts_no_tampered_certificate_with_a_false_claim():
    # every certificate of sweep 2..300, as classify writes it and as older
    # files hold it, with one field moved by a nonzero amount: a mutant the
    # verifier accepts must be a true certificate
    mutants = accepted = 0
    for n, cert in [(n, make(n)) for n in range(2, 301) for make in (classify, older_certificate)]:
        for name in ("ell", "p", "e", "m", "q", "residue"):
            v = getattr(cert, name)
            if v is None:
                continue
            for delta in (-2, -1, 1, 2, 6, n, v):
                mutant = dataclasses.replace(cert, **{name: v + delta})
                mutants += 1
                if verify_failure(n, mutant) is None:
                    accepted += 1
                    assert _claim_holds(n, mutant), (n, mutant)
    assert mutants > 1500 and accepted > 0


def test_verify_rejects_tampered_divisor_records():
    ok = Certificate("divisor_valuation", p=5, e=1)
    assert older_certificate(45) == ok and verify_failure(45, ok) is None
    assert verify_failure(45, Certificate("divisor_valuation", p=3, e=2)) == (
        "frame valuation at 3 is even")  # 3^2 || 45, but e is even
    assert verify_failure(45, Certificate("divisor_valuation", p=7, e=1)) == (
        "7^1 does not exactly divide n")
    assert verify_failure(45, Certificate("divisor_valuation", p=3, e=1)) == (
        "3^1 does not exactly divide n")  # 3^2 | 45
    assert verify_failure(45, Certificate("divisor_valuation", p=15, e=1)) == "15 is not prime"
    assert verify_failure(333, Certificate("divisor_valuation", p=37, e=1)) == (
        "P_333 vanishes mod 37")
    assert verify_failure(35, Certificate("divisor_valuation", p=5, e=1)) == (
        "divisor route needs n = 1 (mod 4)")
    for stray in ({"m": 9}, {"q": 5}):
        assert verify_failure(45, dataclasses.replace(ok, **stray)) == (
            f"divisor_valuation certificate carries stray field {next(iter(stray))}")
    assert verify_failure(45, Certificate("divisor_valuation", p=5)) == (
        "divisor_valuation certificate missing field e")


def test_verify_divisor_route_bounds_e_before_the_power():
    class NoPower(int):
        def __pow__(self, other, mod=None):
            raise AssertionError("p**e evaluated")

    for e in (10**7, 10**100, 0, -1):
        reason = verify_failure(45, Certificate("divisor_valuation", p=NoPower(5), e=e))
        assert reason == f"5^{e} does not exactly divide n"
    for p in (46, 1, 0, -3):
        assert verify_failure(45, Certificate("divisor_valuation", p=p, e=1)) is not None


def test_witness_records_of_divisor_route_n_still_verify():
    # the witnesses of the search before the divisor route took these n,
    # as older sweep files hold them
    for n, ell, res in ((33, 199, 39), (45, 271, 173), (165, 1321, 518), (1197, 43093, 37167)):
        assert older_certificate(n).kind == "divisor_valuation"
        assert verify_failure(n, Certificate("non_residue_witness", ell=ell, residue=res)) is None


def test_verify_route_hypotheses():
    # correct kind, wrong arithmetic facts
    assert verify_certificate(10, Certificate("negative_sign"))
    assert not verify_certificate(13, Certificate("negative_sign"))
    assert not verify_certificate(12, Certificate("odd_valuation", ell=5))  # 5 < 6
    assert verify_certificate(12, Certificate("odd_valuation", ell=7))
    assert not verify_certificate(12, Certificate("odd_valuation", ell=9))
    assert not verify_certificate(25, Certificate("odd_prime_power_valuation", p=5, e=2))
    assert verify_certificate(125, Certificate("odd_prime_power_valuation", p=5, e=3))
    assert not verify_certificate(10, Certificate("odd_prime_power_valuation", p=5, e=1))
    assert verify_certificate(221, Certificate("split_theorem", m=13, q=17))
    assert not verify_certificate(221, Certificate("split_theorem", m=17, q=13))
    # 505 = 5*101: hypotheses hold except 101 is exceptional for 5, so
    # P_505 vanishes mod 101
    bad = verify_failure(505, Certificate("split_theorem", m=5, q=101))
    assert bad == "P_505 vanishes mod 101"
    assert not verify_certificate(2, Certificate("trivial_n1"))
    assert verify_certificate(1, Certificate("trivial_n1"))
    assert verify_certificate(4, Certificate("exact_non_square"))
    assert not verify_certificate(4, Certificate("counterexample"))


def test_verify_bounds_n_before_exact_arithmetic(monkeypatch):
    import logdisc.certify as certify_mod

    def no_exact(n):
        raise AssertionError(f"disc_exact({n}) called")

    with monkeypatch.context() as mp:
        mp.setattr(certify_mod, "disc_exact", no_exact)
        for kind in ("exact_non_square", "counterexample"):
            reason = verify_failure(1501, Certificate(kind))
            assert reason is not None and "n = 1000" in reason
    # n = 4, which older files certify exactly, still verifies
    assert verify_failure(4, Certificate("exact_non_square")) is None
    assert verify_failure(4, Certificate("counterexample")) == "disc F_4 is not a rational square"


def test_verify_diagnostics_are_specific():
    reason = verify_failure(33, Certificate("non_residue_witness", ell=37, residue=15))
    assert reason is not None and "15" in reason
    assert verify_failure(33, classify(33)) is None


def test_verify_witness_route_rejects_n_below_two():
    reason = verify_failure(1, Certificate("non_residue_witness", ell=2, residue=1))
    assert reason is not None and "n >= 2" in reason


def test_verify_prime_power_bounds_e_before_the_power():
    class NoPower(int):
        def __pow__(self, other, mod=None):
            raise AssertionError("p**e evaluated")

    for e in (10**7, 10**100, 0, -1):
        reason = verify_failure(9, Certificate("odd_prime_power_valuation", p=NoPower(3), e=e))
        assert reason is not None and "n != 3^" in reason
    for p in (11, 1, 0, -3):
        assert verify_failure(9, Certificate("odd_prime_power_valuation", p=p, e=2)) is not None


def test_verify_bounds_the_power_by_the_size_of_n():
    # r^e >= 2^(e * (bitlen(r) - 1)) > n rejects a tampered power before it
    # is taken: at n = 10^4200 + 1, r = 10^4200 - 1 and e = bitlen(n), r^e
    # would have about 2 * 10^8 bits.  The genuine records at 99005 = 5 * 19801
    # and 125 = 5^3 still pass
    n, r = 10**4200 + 1, 10**4200 - 1
    e = n.bit_length()
    for kind, reason in (("odd_prime_power_valuation", f"n != {r}^{e}"),
                         ("divisor_valuation", f"{r}^{e} does not exactly divide n")):
        t0 = time.perf_counter()
        assert verify_failure(n, Certificate(kind, p=r, e=e)) == reason
        assert time.perf_counter() - t0 < 1.0, kind
    assert verify_certificate(99005, Certificate("divisor_valuation", p=19801, e=1))
    assert verify_certificate(125, Certificate("divisor_valuation", p=5, e=3))
    assert verify_certificate(125, Certificate("odd_prime_power_valuation", p=5, e=3))


def test_verify_interval_checks_come_before_primality(monkeypatch):
    import logdisc.certify as certify_mod

    def no_is_prime(x):
        raise AssertionError(f"is_prime({x}) called")

    monkeypatch.setattr(certify_mod, "is_prime", no_is_prime)
    big = 2**521 - 1
    reason = verify_failure(12, Certificate("odd_valuation", ell=big))
    assert reason is not None and "outside the interval" in reason
    reason = verify_failure(221, Certificate("split_theorem", m=13, q=big))
    assert reason is not None and "n != 13 *" in reason
    reason = verify_failure(33, Certificate("non_residue_witness", ell=31, residue=3))
    assert reason is not None and "not a prime > n" in reason


def test_verify_witness_modulus_lies_below_two_to_the_31(monkeypatch):
    import logdisc.certify as certify_mod

    def no_call(*args):
        raise AssertionError("primality or disc_mod reached")

    # witness_search stops at 2^31; above it disc_mod's Euclid runs on
    # lists of Python ints (a second at n = 2001), and above 2^64 is_prime alone
    # takes seconds (2^9689 - 1 is a Mersenne prime)
    with monkeypatch.context() as mp:
        mp.setattr(certify_mod, "is_prime", no_call)
        mp.setattr(certify_mod, "disc_mod", no_call)
        for n, ell in ((33, 1 << 64), (33, 2**127 - 1), (33, 2**9689 - 1),
                       (2001, 2**31 + 11), (2001, 2**63 - 25)):
            t0 = time.perf_counter()
            reason = verify_failure(n, Certificate("non_residue_witness", ell=ell, residue=3))
            assert time.perf_counter() - t0 < 0.01
            assert reason is not None and "below 2^31" in reason
    # the largest prime below the bound is still checked in full; disc
    # F_33 is a non-residue mod it
    ell = 2**31 - 1
    r = disc_mod(33, ell)
    assert verify_failure(33, Certificate("non_residue_witness", ell=ell, residue=r)) is None
    assert verify_failure(33, Certificate("non_residue_witness", ell=ell, residue=r + 1)) == (
        f"disc F_33 mod {ell} is not {r + 1}"
    )


@pytest.mark.parametrize(
    "n, ell, residue, reason",
    [
        # ell = 1 (mod n), where disc_mod takes its own DFT: 199 is the
        # witness of 33 (residue 39); disc F_33 is a square mod 331 and
        # vanishes mod 67
        (33, 199, 40, "disc F_33 mod 199 is not 40"),
        (33, 199, 4, "disc F_33 mod 199 is not 4"),
        (33, 199, 0, "disc F_33 mod 199 is not 0"),
        (33, 331, 241, "241 is not a non-residue mod 331"),
        (33, 67, 0, "0 is not a non-residue mod 67"),
        # ell != 1 (mod n), where it keeps Euclid: 37 is the nearest-prime
        # witness of 33 (residue 14); disc F_33 is a square mod 43, and
        # disc F_25 vanishes mod 31
        (33, 37, 15, "disc F_33 mod 37 is not 15"),
        (33, 37, 4, "disc F_33 mod 37 is not 4"),
        (33, 37, 0, "disc F_33 mod 37 is not 0"),
        (33, 43, 36, "36 is not a non-residue mod 43"),
        (25, 31, 0, "0 is not a non-residue mod 31"),
    ],
)
def test_verify_rejects_tampered_witnesses_on_both_paths(n, ell, residue, reason):
    assert verify_failure(n, Certificate("non_residue_witness", ell=ell, residue=residue)) == reason


def test_older_certificates_are_the_previous_release_s():
    # older_certificate rebuilds the previous release's sweep files: the
    # digests its CI pinned for 2..400 and 2..1209
    for top, want in ((400, "375ffe56f897fe46ef9dc92f1b7d52387ace15ec5b0815d520a632511d56b19f"),
                      (1209, "82fe46d303c4cbe1378f9e240bf49ac25446e69a566ccc6dc85b6237cbb89a79")):
        pairs = [[n, certificate_to_json(older_certificate(n))] for n in range(2, top + 1)]
        assert hashlib.sha256(json.dumps(pairs, sort_keys=True).encode()).hexdigest() == want


def test_verify_checks_witnesses_without_the_producer_dft(tmp_path, monkeypatch):
    # the verifier's DFT at ell = 1 (mod n) is its own: the witness
    # records of an older 2..400 sweep verify through the console command
    # with every DFT kernel of the exact route, and the producer's
    # Res(psi_k, G), made to raise
    import logdisc.certify as certify_mod
    import logdisc.poly as poly_mod
    import logdisc.trunclog as trunclog_mod
    from logdisc.cli import cmd_dispatch

    path = tmp_path / "s.jsonl"
    witnesses = [{"n": n, "status": "certified", "certificate": certificate_to_json(older_certificate(n))}
                 for n in OLDER_WITNESSES if n <= 400]
    assert len(witnesses) == 11 and all(int(r["certificate"]["ell"]) % r["n"] == 1 for r in witnesses)
    path.write_text("".join(json.dumps(r) + "\n" for r in witnesses))

    def no_kernel(*args):
        raise AssertionError("producer DFT reached")

    for mod, name in ((poly_mod, "_dft"), (poly_mod, "_unity_dft"), (poly_mod, "_all_ones_residues"),
                      (trunclog_mod, "psi_g_resultant_by_powers"), (certify_mod, "psi_g_resultant_by_powers")):
        monkeypatch.setattr(mod, name, no_kernel)
    assert cmd_dispatch(["verify", str(path)]) == 0


def _relabel_to_theorem_kinds(rec):
    """rec with a divisor_valuation certificate rewritten to the kind the
    producer gave it before the divisor route took the theorem n:
    split_theorem(m, q) for (q, 1) with n = m*q and q > m >= 2, and
    odd_prime_power_valuation(p, e) for p^e = n."""
    n, cert = rec["n"], rec["certificate"]
    if cert["type"] == "divisor_valuation":
        p, e = int(cert["p"]), int(cert["e"])
        if p**e == n:
            cert = {"type": "odd_prime_power_valuation", "p": cert["p"], "e": cert["e"]}
        elif e == 1 and p > n // p >= 2:
            cert = {"type": "split_theorem", "m": str(n // p), "q": cert["p"]}
    return {**rec, "certificate": cert}


def test_verify_runs_no_exact_kernel_but_on_the_exact_kinds(tmp_path, monkeypatch):
    # the verifier shares no exact kernel and no producer code: a sweep
    # file verifies with the exact kernel, the X(m) behind E_m and the
    # producer's Res(psi_k, G) made to raise.  The file is the older
    # 2..1209 sweep, relabelled to the two theorem kinds that still older
    # files hold, so every older kind verifies, and this release's own
    # sweep of the same window verifies too
    import logdisc.certify as certify_mod
    import logdisc.poly as poly_mod
    import logdisc.trunclog as trunclog_mod

    full, relabelled = tmp_path / "full.jsonl", tmp_path / "relabelled.jsonl"
    run_sweep(SweepConfig(2, 1209, out=str(full)))
    records = [{"n": n, "status": "certified", "certificate": certificate_to_json(older_certificate(n))}
               for n in range(2, 1210)]
    relabelled.write_text("".join(json.dumps(_relabel_to_theorem_kinds(r)) + "\n" for r in records))

    def no_kernel(*args):
        raise AssertionError("producer code reached")

    for mod, name in ((trunclog_mod, "x_of"), (trunclog_mod, "resultant_exact"),
                      (poly_mod, "_all_ones_residues"), (trunclog_mod, "psi_g_resultant_by_powers"),
                      (certify_mod, "psi_g_resultant_by_powers"), (certify_mod, "disc_exact")):
        monkeypatch.setattr(mod, name, no_kernel)
    assert verify_file(full).ok
    report = verify_file(relabelled)
    assert report.total == 1208 and report.ok
    # the counts of the file the producer wrote before the divisor route
    # took the theorem n
    assert report.routes["split_theorem"][0] == 138
    assert report.routes["odd_prime_power_valuation"][0] == 97
    assert report.routes["divisor_valuation"][0] == 47


def test_classify_records_far_past_any_sweep_verify_with_no_length_n_row(monkeypatch):
    # classify's records at n = 2^34, 10^12 and a prime n = 1 (mod 4) above
    # 2^34 verify in milliseconds: the check allocates no numpy row of more
    # than 10^6 entries, sieves no primes up to n and computes no L mod r
    import numpy as np

    import logdisc.arith as arith_mod
    import logdisc.trunclog as trunclog_mod

    prime = next(c for c in range((1 << 34) + 1, 1 << 35, 4) if is_prime(c))
    ns = (1 << 34, 10**12, prime, (10**6 + 1) ** 2, 10**18 + 1)
    certs = [(n, classify(n)) for n in ns]
    assert all(c.kind == "local_square_class" for _, c in certs)
    # and the records an older release wrote at the first three
    certs += [(1 << 34, Certificate("odd_valuation", ell=(1 << 33) + 17)),
              (10**12, Certificate("odd_valuation", ell=500000000023)),
              (prime, Certificate("divisor_valuation", p=prime, e=1))]

    def bounded(make):
        def guarded(shape, *args, **kwargs):
            if np.prod(shape) > 10**6:
                raise AssertionError(f"a row of {shape} entries allocated")
            return make(shape, *args, **kwargs)

        return guarded

    def forbidden(*args):
        raise AssertionError("primes up to n or L mod r computed")

    for name in ("ones", "full", "zeros"):
        monkeypatch.setattr(np, name, bounded(getattr(np, name)))
    monkeypatch.setattr(trunclog_mod, "_lcm_mod", forbidden)
    monkeypatch.setattr(trunclog_mod, "primes_upto", forbidden)
    monkeypatch.setattr(arith_mod, "primes_upto", bounded(arith_mod.primes_upto))
    t0 = time.perf_counter()
    assert all(verify_failure(n, cert) is None for n, cert in certs)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "n, ell, reason",
    [
        # f = -8 even and (9 | 7) = +1
        (9, 7, "disc F_9 is a square at 7"),
        # G(1) = 0 at 3 | 21, so P_21 = 0 (mod 3) while f = -39 is odd
        (21, 3, "P_21 vanishes mod 3"),
        (8, 2, "2 is not an odd number in (2, 2^64)"),
        (13, 9, "9 is not prime"),
        (10**6 + 1, 2**64 + 13, f"{2**64 + 13} is not an odd number in (2, 2^64)"),
        (10**6 + 1, 2**127 - 1, f"{2**127 - 1} is not an odd number in (2, 2^64)"),
        (10**6 + 1, 1000033, "a prime above n is checked only up to n = 1000"),
    ],
)
def test_verify_rejects_tampered_local_records_fast(n, ell, reason):
    # each tampered record is refused in under 10 ms: ell's size, parity
    # and place against n are checked before any arithmetic, and no check
    # costs a Euclid of degree n
    t0 = time.perf_counter()
    got = verify_failure(n, Certificate("local_square_class", ell=ell))
    assert time.perf_counter() - t0 < 0.01
    assert got is not None and got.startswith(reason), got


def test_local_rule_matches_the_exact_square_class():
    # at every odd prime ell < 2n + 50, for n < 120: where P_n is a unit
    # mod ell, the verifier accepts local_square_class(ell) exactly when
    # disc F_n is not a square in Q_ell; where it is not, it refuses
    checked = 0
    for n in range(2, 120):
        for ell in sympy.primerange(3, 2 * n + 50):
            got = verify_failure(n, Certificate("local_square_class", ell=ell))
            if psi_g_resultant(n, ell) == 0:
                assert got == f"P_{n} vanishes mod {ell}", (n, ell)
            else:
                assert (got is None) == _exact_class_is_not_square(n, ell), (n, ell, got)
                checked += 1
    assert checked > 4000


def test_producer_resultant_matches_the_verifier_on_the_scan(monkeypatch):
    # at every prime the scan visits for n in 2..3000, the producer's
    # Res(psi_k, G) is psi_g_resultant's, where it has a value
    import logdisc.certify as certify_mod

    real, seen = psi_g_resultant_by_powers, []

    def checked(n, ell):
        r = real(n, ell)
        assert r is None or r == psi_g_resultant(n, ell), (n, ell)
        seen.append(r is None)
        return r

    monkeypatch.setattr(certify_mod, "psi_g_resultant_by_powers", checked)
    for n in range(2, 3001):
        assert witness_search(n, 200) is not None, n
    assert len(seen) > 3000


def test_closed_forms_predict_the_verdict():
    # oracles outside the resultant code, for n = 1 (mod 4): at a prime
    # ell in (n/2, n), m = 1 and the verdict is (n | ell) = -1; for an odd
    # square at a prime ell > 3 in (n/3, n/2], m = 2 and it is
    # ((2^n + 1)/3 | ell) = -1.  The producer takes the first such prime
    for n in range(5, 3001, 4):
        square = math.isqrt(n) ** 2 == n
        lo, hi = (n // 3, n // 2) if square else (n // 2, n - 1)
        a = (2**n + 1) // 3 if square else n
        first = None
        for ell in sympy.primerange(max(lo, 3) + 1, hi + 1):
            want = sympy.legendre_symbol(a % ell, ell) == -1 if a % ell else False
            assert (verify_failure(n, Certificate("local_square_class", ell=ell)) is None) == want, (n, ell)
            if want and first is None:
                first = ell
        if first is not None:
            assert classify(n) == Certificate("local_square_class", ell=first), n
