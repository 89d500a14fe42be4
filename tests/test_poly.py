import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdisc.arith import factorize, is_prime
from logdisc.poly import (
    _WORD_PRIME_TOP,
    _descending_primes_1_mod_n,
    _order_n_root,
    _unity_dft,
    degree,
    normalize,
    poly_eval,
    poly_mul,
    product_bound,
    psi_poly,
    resultant_exact,
    resultant_mod_p,
    resultant_prs,
)


def hadamard_bound(f, g):
    """|Res(f,g)| <= ||f||^deg g * ||g||^deg f, valid for any f, g."""
    nf = math.isqrt(sum(c * c for c in f)) + 1
    ng = math.isqrt(sum(c * c for c in g)) + 1
    return nf ** (len(g) - 1) * ng ** (len(f) - 1)


def random_poly(rng, deg, lead_one=False, cmax=50):
    p = [rng.randrange(-cmax, cmax + 1) for _ in range(deg + 1)]
    p[-1] = 1 if lead_one else rng.choice([c for c in range(-cmax, cmax + 1) if c])
    return p


def test_normalize_and_degree():
    assert normalize([0, 1, 0, 0]) == [0, 1]
    assert normalize([0, 0]) == []
    assert degree([]) == -1
    assert degree([5]) == 0
    assert degree([1, 1, 1]) == 2


def test_poly_mul_and_eval():
    assert poly_mul([1, 1], [1, 1]) == [1, 2, 1]
    assert poly_mul([], [1, 2]) == []
    assert poly_eval([1, 2, 3], 10) == 321


def test_psi_poly():
    assert psi_poly(2) == [1, 1]
    assert psi_poly(5) == [1, 1, 1, 1, 1]
    with pytest.raises(ValueError):
        psi_poly(1)


def test_resultant_prs_hand_values():
    # Res(x^2+x+1, 3x+5) = 3^2 * ((5/3)^2 - 5/3 + 1) = 19
    assert resultant_prs([1, 1, 1], [5, 3]) == 19
    assert resultant_prs([5, 3], [1, 1, 1]) == 19
    # Res(x^2 - 1, x - 2) = (2-1)(2+1)
    assert resultant_prs([-1, 0, 1], [-2, 1]) == 3
    # shared factor
    assert resultant_prs([1, 1, 1], [1, 1, 1]) == 0
    assert resultant_prs(poly_mul([1, 1], [3, 1]), poly_mul([1, 1], [-2, 1])) == 0
    # constants
    assert resultant_prs([7], [1, 1, 1]) == 49
    assert resultant_prs([1, 1, 1], [7]) == 49
    assert resultant_prs([4], [9]) == 1
    # zero polynomial
    assert resultant_prs([], [1, 1]) == 0


def test_resultant_prs_as_product_over_roots():
    # f = (x-1)(x-2)(x-3), g arbitrary: Res = lc(g)^3-free product g(1)g(2)g(3)
    f = poly_mul(poly_mul([-1, 1], [-2, 1]), [-3, 1])
    rng = random.Random(2001)
    for _ in range(50):
        g = random_poly(rng, rng.randrange(0, 5))
        want = poly_eval(g, 1) * poly_eval(g, 2) * poly_eval(g, 3)
        assert resultant_prs(f, g) == want


def test_resultant_prs_swap_sign():
    rng = random.Random(2002)
    for _ in range(100):
        f = random_poly(rng, rng.randrange(1, 7))
        g = random_poly(rng, rng.randrange(1, 7))
        sign = -1 if (degree(f) * degree(g)) % 2 else 1
        assert resultant_prs(f, g) == sign * resultant_prs(g, f)


def test_resultant_prs_multiplicative():
    rng = random.Random(2003)
    for _ in range(60):
        f = random_poly(rng, rng.randrange(1, 5), lead_one=True)
        g = random_poly(rng, rng.randrange(1, 4))
        h = random_poly(rng, rng.randrange(1, 4))
        assert resultant_prs(f, poly_mul(g, h)) == resultant_prs(f, g) * resultant_prs(f, h)


def test_resultant_mod_p_matches_prs():
    rng = random.Random(2004)
    primes = [2, 3, 5, 97, 10007, (1 << 31) - 1, (1 << 61) - 1]
    for _ in range(80):
        f = random_poly(rng, rng.randrange(1, 8), lead_one=True)
        g = random_poly(rng, rng.randrange(0, 8))
        want = resultant_prs(f, g)
        for p in primes:
            assert resultant_mod_p(f, g, p) == want % p


def test_resultant_mod_p_degree_drop_in_g():
    # leading coefficients of g that vanish mod p must not break anything
    rng = random.Random(2005)
    for p in (5, 13):
        for _ in range(40):
            f = random_poly(rng, rng.randrange(1, 6), lead_one=True)
            g = random_poly(rng, rng.randrange(1, 6))
            g[-1] = p * rng.randrange(1, 4)
            want = resultant_prs(f, g) % p
            assert resultant_mod_p(f, g, p) == want


def test_resultant_mod_p_rejects_nonmonic():
    with pytest.raises(ValueError):
        resultant_mod_p([1, 5], [1, 1], 5)  # lc = 5 = 0 mod 5
    with pytest.raises(ValueError):
        resultant_mod_p([3], [1, 1], 7)


def test_resultant_mod_p_matches_unity_dft():
    # Euclid mod p against the exact value from the roots-of-unity DFT,
    # at degrees around 64 and 128 and on int64 and object arrays
    rng = random.Random(2006)
    for n in (5, 64, 65, 127, 128, 138):
        f = psi_poly(n)
        g = random_poly(rng, n, cmax=10**3)
        exact = resultant_exact(f, g, product_bound(g, n - 1))
        for p in (10007, (1 << 31) - 1, (1 << 61) - 1):
            assert resultant_mod_p(f, g, p) == exact % p


def test_resultant_exact_matches_prs_random():
    rng = random.Random(2007)
    for _ in range(100):
        f = random_poly(rng, rng.randrange(1, 9), lead_one=True)
        g = random_poly(rng, rng.randrange(0, 9))
        want = resultant_prs(f, g)
        got = resultant_exact(f, g, hadamard_bound(f, g))
        assert got == want


def test_resultant_exact_all_ones_path_matches_prs():
    # exercises the roots-of-unity evaluation route
    rng = random.Random(2008)
    for n in (2, 3, 4, 6, 7, 12, 16, 21):
        f = psi_poly(n)
        for _ in range(10):
            g = random_poly(rng, rng.randrange(0, n + 2), cmax=30)
            want = resultant_prs(f, g)
            got = resultant_exact(f, g, product_bound(g, n - 1) * 100)
            assert got == want, (n, g)


def test_resultant_exact_euclid_tail_after_the_progression(monkeypatch):
    # every sieved sequence capped at 601: the primes = 1 (mod 12) up to
    # there multiply to about 2^190, far below the bound, so the word
    # primes != 1 (mod 12) below 601 must follow by Euclid; a prime
    # taken twice would make crt_combine raise
    import logdisc.poly as poly

    sieve = poly._descending_primes_1_mod_n
    monkeypatch.setattr(poly, "_descending_primes_1_mod_n", lambda n, top=601: sieve(n, min(top, 601)))
    euclid = []

    def counted(f, g, p):
        euclid.append(p)
        return resultant_mod_p(f, g, p)

    monkeypatch.setattr(poly, "resultant_mod_p", counted)
    rng = random.Random(601)
    f = psi_poly(12)
    for _ in range(5):
        g = [rng.randrange(-(1 << 40), 1 << 40) for _ in range(rng.randrange(2, 15))]
        euclid.clear()
        assert resultant_exact(f, g, product_bound(g, 11)) == resultant_prs(f, g)
        # the tail moduli and the check prime
        assert len(euclid) > 2 and all(p < 601 and p % 12 != 1 for p in euclid)


def scan_primes_1_mod_n(n, top=_WORD_PRIME_TOP):
    """Primes p = 1 (mod n), max(n, 2) < p <= top, downward, by is_prime
    on every candidate."""
    c = top - (top - 1) % n
    while c > max(n, 2):
        if is_prime(c):
            yield c
        c -= n


@pytest.mark.parametrize("n", [2, 3, 4, 9, 21, 100, 128, 333, 997])
def test_sieved_progression_matches_plain_scan(n):
    # 3,000 primes cross many sieve segments; at the small tops the
    # sieving primes are themselves candidates and must survive
    head = list(itertools.islice(_descending_primes_1_mod_n(n), 3000))
    assert head == list(itertools.islice(scan_primes_1_mod_n(n), 3000))
    for top in (n * 1000 + 1, 50 * n + 1, 5 * n + 1):
        assert list(_descending_primes_1_mod_n(n, top)) == list(scan_primes_1_mod_n(n, top))


def test_sieved_progression_resumes_and_bounds_top():
    # a consumer that stops and pulls one more, at every point of the
    # first few segments, gets the next prime of the progression
    want = list(itertools.islice(scan_primes_1_mod_n(5), 80))
    for k in range(len(want) - 1):
        primes = _descending_primes_1_mod_n(5)
        assert list(itertools.islice(primes, k)) == want[:k]
        assert next(primes) == want[k]
    assert list(_descending_primes_1_mod_n(7, 7)) == []
    assert list(_descending_primes_1_mod_n(2, 0)) == []
    with pytest.raises(ValueError, match="top"):
        next(_descending_primes_1_mod_n(3, _WORD_PRIME_TOP + 2))


@pytest.mark.parametrize("n", [2, 3, 4, 9, 12, 37, 100, 102, 128, 333])
def test_unity_dft_matches_poly_eval(n):
    # primes, prime powers and mixed factorisations of n; g longer than
    # n (folded mod x^n - 1) with negative and multi-limb coefficients
    rng = random.Random(2011 + n)
    g = [rng.randrange(-(1 << 80), 1 << 80) for _ in range(n + 5)]
    g[0] = -(1 << 200) - 1
    top = _descending_primes_1_mod_n(n)
    small = _descending_primes_1_mod_n(n, top=n * 1000 + 1)
    primes = [next(top), next(top), next(small)]
    vals = _unity_dft(n, g, primes)
    assert vals.shape == (len(primes), n)
    for row, p in zip(vals, primes):
        z = _order_n_root(n, p, factorize(n))
        want = [poly_eval(g, pow(z, k, p)) % p for k in range(n)]
        assert [int(v) for v in row] == want, (n, p)


def test_unity_dft_coefficients_past_one_matmul_chunk():
    # 200,000 limbs of 0xffff: one unchunked int64 matmul would overflow
    g = [(1 << 3_200_000) - 1, -(3**380_000), 7, -1]
    primes = list(itertools.islice(_descending_primes_1_mod_n(3), 4))
    vals = _unity_dft(3, g, primes)
    for row, p in zip(vals, primes):
        z = _order_n_root(3, p, {3: 1})
        want = [poly_eval([c % p for c in g], pow(z, k, p)) % p for k in range(3)]
        assert [int(v) for v in row] == want


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_resultant_exact_all_ones_property(data):
    n = data.draw(st.integers(2, 60))
    g = data.draw(st.lists(st.integers(-(1 << 70), 1 << 70), max_size=n + 3))
    f = psi_poly(n)
    assert resultant_exact(f, g, product_bound(g, n - 1)) == resultant_prs(f, g)


def test_resultant_exact_low_bound_raises():
    # |Res| is about 10^24 on both routes, far past one word prime
    cases = [(psi_poly(5), [10**6, 1]), ([-2, 0, 1], [10**12, 1])]
    for f, g in cases:
        assert abs(resultant_prs(f, g)) > 1 << 62
        with pytest.raises(ArithmeticError, match="bound"):
            resultant_exact(f, g, 1)
        assert resultant_exact(f, g, hadamard_bound(f, g)) == resultant_prs(f, g)
    # bound 0 claims Res = 0; the generic route then has no moduli at all
    with pytest.raises(ArithmeticError, match="bound"):
        resultant_exact([-2, 0, 1], [1, 1], 0)
    assert resultant_exact([-2, 0, 1], [-2, 0, 1], 0) == 0
    assert resultant_exact(psi_poly(3), [1, 1, 1], 0) == 0


def test_resultant_exact_zero_detection():
    # f and g sharing the factor x^2+x+1 must give exactly 0
    f = poly_mul([1, 1, 1], [1, 1])  # psi_4 in disguise
    g = poly_mul([1, 1, 1], [5, 7])
    assert resultant_exact(f, g, hadamard_bound(f, g)) == 0


def test_resultant_exact_against_complex_roots():
    # float oracle: |Res| = |prod g(root)| for monic f, to relative tolerance
    rng = random.Random(2009)
    for _ in range(30):
        f = random_poly(rng, rng.randrange(2, 7), lead_one=True, cmax=8)
        g = random_poly(rng, rng.randrange(1, 6), cmax=8)
        exact = resultant_exact(f, g, hadamard_bound(f, g))
        roots = np.roots(list(reversed(f)))
        approx = 1.0
        for r in roots:
            approx *= complex(poly_eval([complex(c) for c in g], r))
        if abs(approx) > 1e-8:
            assert math.isclose(abs(exact), abs(approx), rel_tol=1e-5), (f, g)


def test_product_bound_bounds_unit_circle_products():
    rng = random.Random(2010)
    for n in (3, 5, 8):
        f = psi_poly(n)
        for _ in range(40):
            g = random_poly(rng, rng.randrange(0, 6))
            assert abs(resultant_prs(f, g)) <= product_bound(g, n - 1)


def test_product_bound_validates():
    with pytest.raises(ValueError):
        product_bound([1, 2], -1)
    assert product_bound([3, -4], 2) == 49
    assert product_bound([], 3) == 0


def test_resultant_exact_rejects_nonmonic():
    with pytest.raises(ValueError):
        resultant_exact([1, 2], [1], 10)
    with pytest.raises(ValueError):
        resultant_exact([1, 1], [1], -3)
