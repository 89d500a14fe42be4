import dataclasses

import pytest

from logdisc.arith import is_prime, is_rational_square, rat_valuation
from logdisc.certify import (
    Certificate,
    ClassifyConfig,
    bertrand_prime,
    classify,
    verify_certificate,
    verify_failure,
    witness_search,
)
from logdisc.trunclog import disc_exact, disc_mod


def test_bertrand_prime_values():
    assert bertrand_prime(8) == 5
    assert bertrand_prime(12) == 7
    assert bertrand_prime(16) == 11
    assert bertrand_prime(100) == 53
    for n in range(8, 400, 4):
        ell = bertrand_prime(n)
        assert is_prime(ell) and n // 2 < ell < n - 2


def test_bertrand_prime_rejects():
    with pytest.raises(ValueError):
        bertrand_prime(10)
    with pytest.raises(ValueError):
        bertrand_prime(4)


def test_witness_search_pinned():
    assert witness_search(333, 10) == (337, 157)
    assert witness_search(33, 10) == (37, 14)
    assert witness_search(505, 10) == (509, 200)


def test_witness_search_scans_in_order():
    # replay the scan by hand and confirm the first hit is returned
    from logdisc.arith import legendre_symbol, next_prime

    for n in (9, 25, 49, 121):
        found = witness_search(n, 50)
        assert found is not None
        ell, res = found
        probe = next_prime(n)
        while probe < ell:
            r = disc_mod(n, probe)
            assert r == 0 or legendre_symbol(r, probe) == 1, (n, probe)
            probe = next_prime(probe)
        assert disc_mod(n, ell) == res
        assert legendre_symbol(res, ell) == -1


def test_witness_search_budget_exhaustion():
    assert witness_search(9, 0) is None


def test_classify_routing():
    assert classify(1).kind == "trivial_n1"
    assert classify(2).kind == "negative_sign"
    assert classify(6).kind == "negative_sign"
    assert classify(11).kind == "negative_sign"
    assert classify(4).kind == "exact_non_square"
    assert classify(8) == Certificate("odd_valuation", ell=5)
    assert classify(12) == Certificate("odd_valuation", ell=7)
    assert classify(13) == Certificate("odd_prime_power_valuation", p=13, e=1)
    assert classify(5) == Certificate("odd_prime_power_valuation", p=5, e=1)
    assert classify(125) == Certificate("odd_prime_power_valuation", p=5, e=3)
    assert classify(21) == Certificate("split_theorem", m=3, q=7)
    assert classify(205) == Certificate("split_theorem", m=5, q=41)
    assert classify(221) == Certificate("split_theorem", m=13, q=17)
    # 33 = 3*11 but 11 is exceptional for m = 3: witness route
    assert classify(33) == Certificate("non_residue_witness", ell=37, residue=14)
    # 505 = 5*101 with 101 exceptional for m = 5
    assert classify(505) == Certificate("non_residue_witness", ell=509, residue=200)
    # even prime power exponent gives no parity: witness route
    assert classify(25).kind == "non_residue_witness"
    assert classify(625).kind == "non_residue_witness"
    # largest prime factor below its cofactor: split hypotheses fail
    assert classify(165).kind == "non_residue_witness"  # 165 = 3*5*11, q=11 < m=15


def test_classify_rejects_bad_n():
    with pytest.raises(ValueError):
        classify(0)


def test_classify_deterministic():
    for n in (4, 8, 13, 21, 25, 33, 205):
        assert classify(n) == classify(n)


def test_classify_unresolved_when_starved():
    cfg = ClassifyConfig(max_witness_attempts=0, allow_exact_fallback=False)
    cert = classify(25, cfg)
    assert cert == Certificate("unresolved", witness_attempts=0)
    assert verify_certificate(25, cert) is False


def test_classify_exact_fallback_cap():
    cfg = ClassifyConfig(max_witness_attempts=0, allow_exact_fallback=True,
                         exact_degree_cap=30)
    assert classify(25, cfg).kind == "exact_non_square"
    assert classify(49, ClassifyConfig(0, True, 30)).kind == "unresolved"


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
        assert cert.kind == "odd_valuation"
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
    # 505 = 5*101: hypotheses hold except 101 is exceptional for 5
    bad = verify_failure(505, Certificate("split_theorem", m=5, q=101))
    assert bad is not None and "exceptional" in bad
    assert not verify_certificate(2, Certificate("trivial_n1"))
    assert verify_certificate(1, Certificate("trivial_n1"))
    assert verify_certificate(4, Certificate("exact_non_square"))
    assert not verify_certificate(4, Certificate("counterexample"))


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


def test_verify_witness_modulus_lies_below_two_to_the_64(monkeypatch):
    import logdisc.certify as certify_mod

    def no_call(*args):
        raise AssertionError("primality or disc_mod reached")

    # is_prime is a proof only below 2^64, and above it the check alone
    # takes seconds (2^9689 - 1 is a Mersenne prime)
    with monkeypatch.context() as mp:
        mp.setattr(certify_mod, "is_prime", no_call)
        mp.setattr(certify_mod, "disc_mod", no_call)
        for ell in (1 << 64, 2**127 - 1, 2**9689 - 1):
            reason = verify_failure(33, Certificate("non_residue_witness", ell=ell, residue=3))
            assert reason is not None and "below 2^64" in reason
    # the largest prime below the bound is still checked in full; disc
    # F_33 happens to be a square mod it
    ell = 2**64 - 59
    r = disc_mod(33, ell)
    reason = verify_failure(33, Certificate("non_residue_witness", ell=ell, residue=r))
    assert reason == f"{r} is not a non-residue mod {ell}"
    assert verify_failure(33, Certificate("non_residue_witness", ell=ell, residue=r + 1)) == (
        f"disc F_33 mod {ell} is not {r + 1}"
    )
