import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rat_valuation
from logdisc.arith import (
    FactorizationBudgetError,
    crt_combine,
    factorize,
    floor_log,
    harmonic,
    int_valuation,
    is_prime,
    is_rational_square,
    lcm_upto,
    legendre_symbol,
    next_prime,
    primes_upto,
    symmetric_rep,
)


def test_primes_upto_small():
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_lcm_upto_known_values():
    assert [lcm_upto(n) for n in range(1, 11)] == [
        1, 2, 6, 12, 60, 60, 420, 840, 2520, 2520,
    ]


def test_lcm_upto_matches_stdlib():
    for n in range(1, 80):
        assert lcm_upto(n) == math.lcm(*range(1, n + 1))


def test_lcm_upto_rejects_zero():
    with pytest.raises(ValueError):
        lcm_upto(0)


def test_int_valuation():
    assert int_valuation(12, 2) == 2
    assert int_valuation(12, 3) == 1
    assert int_valuation(12, 5) == 0
    assert int_valuation(-27, 3) == 3
    with pytest.raises(ValueError):
        int_valuation(0, 2)


def test_int_valuation_random_reconstruction():
    rng = random.Random(1001)
    primes = [2, 3, 5, 7, 11]
    for _ in range(200):
        exps = {p: rng.randrange(0, 6) for p in primes}
        x = rng.choice([-1, 1]) * math.prod(p**e for p, e in exps.items())
        if x in (-1, 1):
            continue
        for p, e in exps.items():
            assert int_valuation(x, p) == e


def test_rat_valuation():
    assert rat_valuation(Fraction(725, 432), 3) == -3
    assert rat_valuation(Fraction(725, 432), 5) == 2
    assert rat_valuation(Fraction(725, 432), 7) == 0
    assert rat_valuation(Fraction(-19, 12), 2) == -2
    with pytest.raises(ValueError):
        rat_valuation(Fraction(0), 3)


def test_floor_log():
    assert floor_log(2, 1) == 0
    assert floor_log(2, 1023) == 9
    assert floor_log(2, 1024) == 10
    assert floor_log(3, 9) == 2
    assert floor_log(3, 8) == 1
    assert floor_log(10, 10**12) == 12
    with pytest.raises(ValueError):
        floor_log(1, 5)


def test_harmonic():
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(5) == Fraction(137, 60)
    assert harmonic(7) == Fraction(363, 140)
    assert harmonic(9) == Fraction(7129, 2520)
    with pytest.raises(ValueError):
        harmonic(0)


def test_harmonic_recurrence():
    for m in range(2, 60):
        assert harmonic(m) - harmonic(m - 1) == Fraction(1, m)


def test_is_rational_square():
    assert is_rational_square(Fraction(0))
    assert is_rational_square(Fraction(4, 9))
    assert is_rational_square(Fraction(144))
    assert not is_rational_square(Fraction(-4, 9))
    assert not is_rational_square(Fraction(2))
    assert not is_rational_square(Fraction(4, 8))  # normalizes to 1/2
    rng = random.Random(1002)
    for _ in range(200):
        r = Fraction(rng.randrange(1, 10**9), rng.randrange(1, 10**9))
        assert is_rational_square(r * r)
        assert not is_rational_square(r * r * 2)


def test_legendre_exhaustive_against_square_sets():
    # (a|l) = 1 exactly on the nonzero squares mod l
    for ell in primes_upto(200):
        if ell == 2:
            continue
        squares = {a * a % ell for a in range(1, ell)}
        for a in range(ell):
            want = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre_symbol(a, ell) == want


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre_symbol(3, 2)
    with pytest.raises(ValueError):
        legendre_symbol(3, 15)


def test_is_prime_against_sieve():
    flags = set(primes_upto(200_000))
    for x in range(200_000):
        assert is_prime(x) == (x in flags), x


def test_is_prime_structured_cases():
    assert is_prime(2**89 - 1)  # Mersenne prime
    assert not is_prime(2**67 - 1)  # = 193707721 * 761838257287
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert not is_prime(561)  # Carmichael
    assert not is_prime(1)
    assert not is_prime(-7)
    # across the word-size boundary where the test switches method
    assert is_prime(2**64 - 59)
    assert not is_prime((2**64 - 59) * (2**64 - 83))
    assert is_prime(2**127 - 1)
    assert not is_prime(2**128 + 1)


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(3) == 5
    assert next_prime(13) == 17
    assert next_prime(333) == 337
    assert next_prime(2**31) == 2**31 + 11


def test_factorize_known():
    assert factorize(2) == {2: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(2**61 - 1) == {2**61 - 1: 1}
    assert factorize(1234567891011) == {3: 1, 7: 1, 13: 1, 67: 1, 107: 1, 630803: 1}
    with pytest.raises(ValueError):
        factorize(1)


def test_factorize_random_roundtrip():
    rng = random.Random(1003)
    small = primes_upto(3000)
    for _ in range(80):
        x = 1
        want: dict[int, int] = {}
        for _ in range(rng.randrange(1, 6)):
            p = rng.choice(small)
            e = rng.randrange(1, 4)
            x *= p**e
            want[p] = want.get(p, 0) + e
        if x == 1:
            continue
        assert factorize(x) == want


def test_factorize_around_the_trial_limit(monkeypatch):
    # trial division runs over the primes below 10^4 (the largest is
    # 9973, the next prime 10007) and returns as soon as p^2 exceeds what
    # is left; n on both sides of the limit and of its square
    for x in (9973**2, 10007, 10007**2, 9973 * 10007, 99_999_989, 100_000_007):
        assert factorize(x) == sympy.factorint(x), x
    # a leftover below p^2 is 1 or a prime, with no primality test
    import logdisc.arith as arith_mod

    def no_is_prime(x):
        raise AssertionError(f"is_prime({x}) called")

    monkeypatch.setattr(arith_mod, "is_prime", no_is_prime)
    assert factorize(2) == {2: 1}
    assert factorize(3 * 10007) == {3: 1, 10007: 1}
    assert factorize(9797) == {97: 1, 101: 1}


def test_factorize_semiprime_and_powers():
    p = next_prime(10**9)
    q = next_prime(10**9 + 100)
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(p**3) == {p: 3}
    assert factorize(p**2 * q) == {p: 2, q: 1}


def test_factorize_budget_error_names_cofactor():
    p = next_prime(10**21)
    q = next_prime(10**21 + 1000)
    with pytest.raises(FactorizationBudgetError) as info:
        factorize(p * q, rho_budget=50)
    assert info.value.cofactor == p * q
    assert str(p * q) in str(info.value)


def test_crt_combine():
    r, m = crt_combine([(2, 3), (3, 5), (2, 7)])
    assert (r, m) == (23, 105)
    rng = random.Random(1004)
    for _ in range(100):
        moduli = rng.sample(primes_upto(500)[2:], 5)
        residues = [rng.randrange(m) for m in moduli]
        r, m = crt_combine(list(zip(residues, moduli)))
        assert m == math.prod(moduli)
        assert 0 <= r < m
        for res, mod in zip(residues, moduli):
            assert r % mod == res


def test_crt_combine_rejects_shared_factor():
    with pytest.raises(ValueError):
        crt_combine([(1, 6), (2, 10)])
    with pytest.raises(ValueError):
        crt_combine([(1, 5), (2, 0)])


def crt_fold(pairs):
    """Sequential CRT: one inverse of the running modulus per pair."""
    R, M = 0, 1
    for r, m in pairs:
        R += M * ((r - R) * pow(M, -1, m) % m)
        M *= m
    return R, M


def word_primes(top, count):
    out = []
    c = top
    while len(out) < count:
        if is_prime(c):
            out.append(c)
        c -= 2
    return out


WORD_PRIMES = word_primes((1 << 31) - 1, 400) + word_primes((1 << 24) - 1, 200)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_crt_combine_matches_sequential_fold(data):
    moduli = data.draw(st.lists(st.sampled_from(WORD_PRIMES), max_size=300, unique=True))
    residues = data.draw(st.lists(st.integers(-(1 << 64), 1 << 64),
                                  min_size=len(moduli), max_size=len(moduli)))
    pairs = list(zip(residues, moduli))
    assert crt_combine(pairs) == crt_fold(pairs)


def test_crt_combine_rejects_shared_factor_anywhere():
    moduli = WORD_PRIMES[:257]
    for i, j in [(0, 1), (3, 256), (128, 129), (255, 256)]:
        bad = list(moduli)
        bad[j] = bad[i]
        with pytest.raises(ValueError, match=f"not pairwise coprime at {bad[i]}"):
            crt_combine([(1, m) for m in bad])
    # composite moduli sharing a factor with a product of two others
    with pytest.raises(ValueError, match="coprime"):
        crt_combine([(1, 7), (1, 11), (1, 13), (1, 5 * 11 * 13 * 17)])
    for zero_or_negative in (0, -7):
        with pytest.raises(ValueError, match="positive"):
            crt_combine([(1, m) for m in moduli[:100]] + [(2, zero_or_negative)])
    assert crt_combine([]) == (0, 1)
    assert crt_combine([(5, 1), (3, 1)]) == (0, 1)


def test_symmetric_rep():
    assert symmetric_rep(0, 7) == 0
    assert symmetric_rep(3, 7) == 3
    assert symmetric_rep(4, 7) == -3
    assert symmetric_rep(5, 10) == 5
    assert symmetric_rep(6, 10) == -4
    for m in (7, 10, 101):
        for r in range(3 * m):
            s = symmetric_rep(r, m)
            assert -m // 2 < s <= m // 2 or (m % 2 == 0 and s == m // 2)
            assert (s - r) % m == 0
