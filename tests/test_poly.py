import hashlib
import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logdisc.poly as poly
from helpers import degree, normalize, poly_eval, poly_mul, resultant_prs
from logdisc.arith import factorize, is_prime
from logdisc.poly import (
    _WORD_PRIME_TOP,
    _descending_primes_1_mod_n,
    _order_n_root,
    _unity_dft,
    resultant_exact,
    resultant_mod_p,
)
from logdisc.trunclog import f_tilde, p_n_exact


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


def test_resultant_mod_p_reduces_big_coefficients_exactly():
    # L * F_43 mixes coefficients in [2^63, 2^64) with small ones, where
    # np.asarray infers float64: a list must be reduced by Python ints,
    # below 2^31 and above it
    g = f_tilde(43)
    assert any(1 << 63 <= c < 1 << 64 for c in g) and np.asarray(g).dtype == np.float64
    want = resultant_prs([1] * 43, g)
    for p in ((1 << 31) - 1, (1 << 61) - 1):
        assert resultant_mod_p([1] * 43, g, p) == want % p, p


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
    # at degrees around 64 and 128, on int64 rows down to _NP_MIN_DEG
    # coefficients and on lists of Python ints below that and above 2^31
    rng = random.Random(2006)
    for n in (5, 64, 65, 127, 128, 138):
        f = [1] * n
        g = random_poly(rng, n, cmax=10**3)
        exact = resultant_exact(n, g)
        for p in (10007, (1 << 31) - 1, (1 << 61) - 1):
            assert resultant_mod_p(f, g, p) == exact % p


# 2, word primes, the last int64 modulus 2^31 - 1, the first above it
# 2^31 + 11, and a 61-bit prime
EUCLID_PRIMES = [2, 10007, (1 << 31) - 1, (1 << 31) + 11, (1 << 61) - 1]


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_resultant_mod_p_low_zero_coefficients(data):
    # g = x^k * h mod p of degree d, h(0) != 0 (mod p), for every k from
    # 0 to d: Euclid on a g with g(0) = 0 (mod p) must equal the PRS
    # oracle, also where f(0) = 0 (mod p), where g has a leading
    # coefficient = 0 (mod p), and where f and g share a factor
    p = data.draw(st.sampled_from(EUCLID_PRIMES))
    d = data.draw(st.integers(0, 40))
    k = data.draw(st.integers(0, d))
    residue = st.integers(1, p - 1)
    lift = st.integers(-2, 2)
    g = [p * data.draw(lift) for _ in range(k)]  # = 0 (mod p)
    g.append(data.draw(residue) + p * data.draw(lift))  # h(0)
    if d > k:
        g += data.draw(st.lists(st.integers(-50, 50), min_size=d - k - 1, max_size=d - k - 1))
        g.append(data.draw(residue))
    if data.draw(st.booleans()):
        g.append(p * data.draw(st.integers(1, 3)))  # a leading coefficient = 0 (mod p)
    u = data.draw(st.lists(st.integers(-50, 50), max_size=2 * d + 1)) + [1]
    shared = d > 0 and data.draw(st.booleans())
    if shared:
        # f = u * g / lc(g) mod p: g divides f, so Res = 0
        inv = pow(g[d], -1, p)
        f = [c * inv % p for c in poly_mul(g[: d + 1], u)]
    else:
        f = u if len(u) > 1 else [0, 1]
        f[0] = data.draw(st.integers(0, p - 1)) + p * data.draw(lift)  # a draw of 0 makes f(0) = 0 (mod p)
    f0, g0 = list(f), list(g)
    got = resultant_mod_p(f, g, p)
    assert got == resultant_prs(f, g) % p
    if shared:
        assert got == 0
    # int64 rows of the same coefficients give the same value
    F, G = np.array(f, dtype=np.int64), np.array(g, dtype=np.int64)
    assert resultant_mod_p(F, G, p) == got
    # the in-place remainder step must work on copies of the caller's
    # lists and arrays
    assert f == f0 and g == g0 and F.tolist() == f0 and G.tolist() == g0


def eager_polymod(a, b, p):
    """The reference division: every quotient step reduces its slice."""
    db = len(b) - 1
    if len(a) - 1 < db:
        return a
    inv = pow(int(b[-1]), -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = int(a[i]) * inv % p
        if c:
            a[i - db : i] = (a[i - db : i] - b[:db] * c) % p
    k = db
    while k and not a[k - 1]:
        k -= 1
    return a[:k]


def lazy_limit(steps):
    """The largest prime p with steps * (p - 1)^2 + p < 2^63, and the next
    prime, the first at which a division of that many steps must reduce."""
    p = math.isqrt(((1 << 63) - 1) // steps) + 1
    while steps * (p - 1) ** 2 + p >= 1 << 63 or not is_prime(p):
        p -= 1
    q = p + 1
    while not is_prime(q):
        q += 1
    return p, q


def worst_division(steps, dg):
    """f, g over Z with f mod g taking `steps` quotient steps, for
    steps <= dg: g = -(1 + x + ... + x^dg) and f = (1 + ... + x^(steps-1))
    * (1 + ... + x^dg) + r.  Mod any p, every quotient coefficient and
    every column of g is p - 1, so the coefficient of x^(dg-1) falls by
    (p - 1)^2 at each step."""
    f = poly_mul([1] * steps, [1] * (dg + 1))
    for j in range(dg):
        f[j] += j % 3
    return f, [-1] * (dg + 1)


@pytest.mark.parametrize("steps", [3, 7, 40])
def test_polymod_skips_reductions_exactly_up_to_its_bound(steps):
    at, above = lazy_limit(steps)
    # past the bound this input would leave int64
    assert steps * (above - 1) ** 2 > (1 << 63) + above
    f, g = worst_division(steps, steps)
    for p in (at, above):
        a = np.array([c % p for c in f], dtype=np.int64)
        b = np.array([c % p for c in g], dtype=np.int64)
        got = poly._polymod(a, b, p)
        # a division that skipped its reductions leaves the quotient
        # positions of a unreduced, and below zero
        assert bool((a[steps:] < 0).any()) == (p == at), p
        want = eager_polymod(np.array([c % p for c in f], dtype=object), b.astype(object), p)
        assert got.tolist() == want.tolist()


# the primes around the lazy bound for the first division of each step
# count drawn below; later divisions of two steps are lazy at every
# int64 modulus
LAZY_LIMITS = {s: lazy_limit(s) for s in range(3, 25)}


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_resultant_mod_p_lazy_reduction_property(data):
    # the first division f mod g takes `steps` quotient steps; p lies
    # below, at or just above the largest prime at which it may skip its
    # reductions, or among fixed primes (p = 2, 2^31 - 1, and lists of
    # Python ints from 2^31 up).  Res mod p equals the PRS oracle and
    # euclid with every step reduced.  These rows are shorter than
    # _NP_MIN_DEG, so the gate is lowered to send every division below
    # 2^31 through _polymod
    dg = data.draw(st.integers(3, 24))
    steps = data.draw(st.integers(3, dg))
    at, above = LAZY_LIMITS[steps]
    p = data.draw(st.sampled_from([2, at // 2, at, above, (1 << 31) - 1,
                                   (1 << 31) + 11, (1 << 61) - 1]))
    if not is_prime(p):
        p = next(q for q in range(p, 0, -1) if is_prime(q))
    if data.draw(st.booleans()):
        f, g = worst_division(steps, dg)
    else:
        f = data.draw(st.lists(st.integers(-50, 50), min_size=dg + steps - 1,
                               max_size=dg + steps - 1)) + [1]
        g = data.draw(st.lists(st.integers(0, p - 1), min_size=dg, max_size=dg))
        g.append(data.draw(st.integers(1, p - 1)))
    if data.draw(st.booleans()):
        g.append(p * data.draw(st.integers(1, 3)))  # a leading coefficient = 0 (mod p)
    with mock.patch.object(poly, "_NP_MIN_DEG", 2):
        got = resultant_mod_p(f, g, p)
        with mock.patch.object(poly, "_polymod", eager_polymod):
            eager = resultant_mod_p(f, g, p)
    assert got == eager == resultant_prs(f, g) % p


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_resultant_mod_p_matches_prs_across_the_gate(data):
    # degrees 1 to 80 on both sides of _NP_MIN_DEG, either row the longer,
    # at every modulus of EUCLID_PRIMES; the second row is dense, monic
    # (then also taken first), x^k * h, zero, or has leading
    # coefficients = 0 (mod p).  Res mod p equals the PRS oracle
    p = data.draw(st.sampled_from(EUCLID_PRIMES))
    small = st.integers(-50, 50)
    df, dg = data.draw(st.integers(1, 80)), data.draw(st.integers(1, 80))
    f = data.draw(st.lists(small, min_size=df, max_size=df)) + [1 + p * data.draw(st.integers(-1, 1))]
    g = data.draw(st.lists(small, min_size=dg, max_size=dg)) + [data.draw(st.integers(1, p - 1))]
    kind = data.draw(st.sampled_from(["dense", "monic", "shifted", "zero"]))
    if kind == "monic":
        g[-1] = 1
    elif kind == "shifted":
        k = data.draw(st.integers(1, dg))
        g = [p * data.draw(st.integers(-2, 2)) for _ in range(k)] + g[: dg + 1 - k]
    elif kind == "zero":
        g = [p * c for c in g]
    g += [p * data.draw(st.integers(1, 3)) for _ in range(data.draw(st.integers(0, 2)))]
    assert resultant_mod_p(f, g, p) == resultant_prs(f, g) % p
    if kind == "monic":
        g = g[: dg + 1]
        assert resultant_mod_p(g, f, p) == resultant_prs(g, f) % p


def test_resultant_mod_p_takes_int64_rows_only_for_long_divisors_below_2_31(monkeypatch):
    # on a degree-200 int64 input below 2^31, _polymod divides while the
    # divisor has at least _NP_MIN_DEG coefficients and no further; with
    # _polymod refusing, short rows below 2^31 and long rows above it
    # still give the exact value
    rng = random.Random(2009)
    n = 200
    F, G = np.ones(n, dtype=np.int64), np.array(random_poly(rng, n, cmax=10**3), dtype=np.int64)
    exact = resultant_exact(n, G.tolist())
    real, divisors = poly._polymod, []

    def recording(a, b, p):
        divisors.append(len(b))
        return real(a, b, p)

    monkeypatch.setattr(poly, "_polymod", recording)
    assert resultant_mod_p(F, G, 10007) == exact % 10007
    assert min(divisors) == poly._NP_MIN_DEG and divisors == sorted(divisors, reverse=True)

    def refuse(a, b, p):
        raise AssertionError("int64 division")

    monkeypatch.setattr(poly, "_polymod", refuse)
    f, g = random_poly(rng, poly._NP_MIN_DEG - 2, lead_one=True), random_poly(rng, 2 * n)
    for p in (2, 10007, (1 << 31) - 1):
        assert resultant_mod_p(f, g, p) == resultant_prs(f, g) % p
    for p in ((1 << 31) + 11, (1 << 61) - 1):
        assert resultant_mod_p(F, G, p) == exact % p


def test_resultant_exact_matches_prs_random():
    rng = random.Random(2007)
    for _ in range(100):
        n = rng.randrange(2, 10)
        g = random_poly(rng, rng.randrange(0, 9))
        assert resultant_exact(n, g) == resultant_prs([1] * n, g), (n, g)


def test_resultant_exact_all_ones_path_matches_prs():
    # exercises the roots-of-unity evaluation route
    rng = random.Random(2008)
    for n in (2, 3, 4, 6, 7, 12, 16, 21):
        f = [1] * n
        for _ in range(10):
            g = random_poly(rng, rng.randrange(0, n + 2), cmax=30)
            assert resultant_exact(n, g) == resultant_prs(f, g), (n, g)


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
    f = [1] * 12
    for _ in range(5):
        g = [rng.randrange(-(1 << 40), 1 << 40) for _ in range(rng.randrange(2, 15))]
        euclid.clear()
        assert resultant_exact(12, g) == resultant_prs(f, g)
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


# 210, 2310 and 30030 drop their factors from the sieving primes and
# spread the rest over many classes mod n, 46337 is the largest prime
# below sqrt(2^31), and at 65536 every sieving prime is its own class
@pytest.mark.parametrize("n", [2, 3, 4, 9, 21, 100, 128, 333, 997, 210, 2310, 30030, 46337, 65536])
def test_sieved_progression_matches_plain_scan(n):
    # 3,000 primes cross many sieve segments; at the small tops the
    # sieving primes are themselves candidates and must survive
    head = list(itertools.islice(_descending_primes_1_mod_n(n), 3000))
    assert head == list(itertools.islice(scan_primes_1_mod_n(n), 3000))
    for top in (n * 1000 + 1, 50 * n + 1, 5 * n + 1):
        assert list(_descending_primes_1_mod_n(n, top)) == list(scan_primes_1_mod_n(n, top))
        # a caller that takes a single prime
        assert next(_descending_primes_1_mod_n(n, top), None) == next(scan_primes_1_mod_n(n, top), None)


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


def eval_mod(g, x, p):
    """g(x) mod p by Horner over Python ints."""
    acc = 0
    for c in reversed(g):
        acc = (acc * x + c) % p
    return acc


def unity_dft(n, g, primes):
    """_unity_dft on the rows g mod (x^n - 1, p), folded and reduced over
    Python ints."""
    a = [0] * n
    for i, c in enumerate(g):
        a[i % n] += c
    C = np.array([[c % p for c in a] for p in primes], dtype=np.int64)
    return _unity_dft(n, C, np.array(primes, dtype=np.int64))


# primes and prime powers, mixed factorisations, a radix at the matmul
# threshold (22 = 2 * 11), radices above 64 (67, 122, 131) and one whose
# matrix of roots is built a few rows at a time (1031)
@pytest.mark.parametrize("n", [2, 3, 4, 9, 12, 22, 37, 67, 100, 102, 122, 128, 131, 333, 1031])
def test_unity_dft_matches_poly_eval(n):
    # g longer than n (folded mod x^n - 1) with negative and multi-limb
    # coefficients; two primes just below 2^31, where the limb sums of
    # the matmul are largest, and a small one
    rng = random.Random(2011 + n)
    g = [rng.randrange(-(1 << 80), 1 << 80) for _ in range(n + 5)]
    g[0] = -(1 << 200) - 1
    top = _descending_primes_1_mod_n(n)
    small = _descending_primes_1_mod_n(n, top=n * 1000 + 1)
    primes = [next(top), next(top), next(small)]
    vals = unity_dft(n, g, primes)
    assert vals.shape == (len(primes), n)
    for row, p in zip(vals, primes):
        z = _order_n_root(n, p, factorize(n))
        gp = [c % p for c in g]
        want = [eval_mod(gp, pow(z, k, p), p) for k in range(n)]
        assert [int(v) for v in row] == want, (n, p)


@pytest.mark.parametrize("n", [22, 67, 122, 131, 1031])
@pytest.mark.parametrize("count", [1, 31, 32, 33])
def test_unity_dft_matmul_matches_horner_across_chunks(n, count, monkeypatch):
    # prime counts on both sides of the matmul's prime chunks (32 primes,
    # fewer for a large radix), the largest primes below 2^31
    rng = random.Random(2017 * n + count)
    g = [rng.randrange(-(1 << 90), 1 << 90) for _ in range(n)]
    primes = list(itertools.islice(_descending_primes_1_mod_n(n), count))
    got = unity_dft(n, g, primes)
    monkeypatch.setattr(poly, "_MATMUL_RADIX", poly._MATMUL_RADIX_TOP)  # Horner only
    assert np.array_equal(got, unity_dft(n, g, primes))


def test_dft_matmul_guard(monkeypatch):
    # the largest radix below _MATMUL_RADIX_TOP with every root and limb
    # at its largest: a sum of r products plus the reduced high half
    # shifted back by 16 bits stays in int64
    r = poly._MATMUL_RADIX_TOP - 1
    root, limb = (1 << 31) - 2, (1 << 16) - 1
    assert r * root * limb + (root << 16) < 1 << 63

    # a radix at the guard takes Horner, one just below it the matmul
    # (the only caller of np.take in the kernel); values never change
    calls = []
    take = np.take
    monkeypatch.setattr(np, "take", lambda *a, **k: calls.append(1) or take(*a, **k))
    monkeypatch.setattr(poly, "_MATMUL_RADIX_TOP", 67)
    for n, radix_takes_matmul in ((122, True), (67, False), (134, False)):
        calls.clear()
        g = list(range(1, n + 3))
        primes = list(itertools.islice(_descending_primes_1_mod_n(n), 2))
        vals = unity_dft(n, g, primes)
        assert bool(calls) == radix_takes_matmul, n
        for row, p in zip(vals, primes):
            z = _order_n_root(n, p, factorize(n))
            assert [int(v) for v in row] == [eval_mod(g, pow(z, k, p), p) for k in range(n)]


def first_passing_base(n, p, n_factors):
    e = (p - 1) // n
    return next(a for a in range(2, p)
                if all(pow(pow(a, e, p), n // q, p) != 1 for q in n_factors))


# prime powers, smooth n whose first passing base is often above 16
# (120, 210, 2310, 30030) and one where it never is (333); batch sizes on
# both sides of the vectorized path's threshold
@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 120, 210, 333, 2310, 30030])
@pytest.mark.parametrize("size", [1, 4, poly._ROOTS_VEC_MIN - 1, poly._ROOTS_VEC_MIN, 256])
@pytest.mark.parametrize("top", ["word", "small"])
def test_order_n_roots_match_the_scalar_scan(n, size, top):
    # the top primes below 2^31, and a progression up to 1000 n + 1,
    # which holds fewer than 256 primes for n = 3, 5, 9 and 333
    top = _WORD_PRIME_TOP if top == "word" else 1000 * n + 1
    primes = list(itertools.islice(_descending_primes_1_mod_n(n, top), size))
    nf = factorize(n)
    roots = poly._order_n_roots(n, primes, nf)
    assert roots.dtype == np.int64
    assert roots.tolist() == [_order_n_root(n, p, nf) for p in primes]
    for z, p in zip(roots.tolist(), primes):
        assert pow(z, n, p) == 1 and all(pow(z, n // q, p) != 1 for q in nf)


def test_order_n_roots_past_the_first_round_of_bases():
    # the top 256 primes for n = 210 = 2 * 3 * 5 * 7: some need a base
    # above 16 and some above 32, so the search takes three rounds
    n, nf = 210, factorize(210)
    primes = list(itertools.islice(_descending_primes_1_mod_n(n), 256))
    bases = [first_passing_base(n, p, nf) for p in primes]
    assert max(bases) > 2 * (poly._ROOTS_FIRST_TOP - 1)
    roots = poly._order_n_roots(n, primes, nf).tolist()
    assert roots == [pow(a, (p - 1) // n, p) for a, p in zip(bases, primes)]


# sha256 of hex(P_n) as the Horner-only kernel computed it
P_N_DIGESTS = {
    100: "ee5d924d514c79a94cfb0451ee5342cd3407badc53d4d54ef86fa73b0597e999",
    102: "8864db317d173bc3fdb2dce52b8829281c607d6421282bf61c38343c20850cc5",
    104: "ae3852c21c5b7bc631c71b524534e6fe62dc23157c15ece3486fc13b5d1bd041",
    106: "9d0302b4b8c3377aa75f164dc486db690e34b97198f982da2cb1502e31b22fea",
    108: "fbbbceb5954992605a0020a2b0b503a3e22ec145a89d8d253696c4b3f5cb7ebf",
    110: "7dc7b729718140aea41aa78cbee2179e8535a6b4b588dafa0e5ef3d519de5014",
    112: "06a35a07aa49d25b50106378825b841b5298a7df8e226e3b57e819fcef90a03d",
    114: "202a09e21111da74b44fab9c131a021840fcdae4cea41717e3d407e281702299",
    116: "e248f668fa0685b94afcf84aa14a2866cf454ec85f044f56630456e87bc01265",
    118: "6970f5e298fc9f3c861d6ac191863ccdbf128b8363489430304da6e7c1aaba85",
    120: "c7b05a9f49f5ce16f39cc302c7c890d9ea59fa69d9c2373d6d08cadec3da8367",
    122: "0cd10fe61352d8d47d70377b34c81d47f1f314cc46765fd823698a435a106489",
    124: "32c70356928a411438e922992b417e7e07a5595735438a545a2996f575b7c4b6",
    126: "f2e26714c36c49916c8b8772406de64052ca022afeccbd50e9a961a0d86ee3cd",
    128: "df0385b432cff18fd9b8ab15aafcbcf18230a4c7b7ff9688f890955c88d0b705",
    333: "ef1568008bddd1140ffcfb46e034920c2e1009e62200a8fc82ed3f06503096ff",
}


@pytest.mark.parametrize("n", sorted(P_N_DIGESTS))
def test_p_n_exact_digest_pinned(n):
    # the exact-pn benchmark's n set
    assert hashlib.sha256(hex(p_n_exact(n)).encode()).hexdigest() == P_N_DIGESTS[n]


def test_unity_dft_coefficients_past_one_matmul_chunk():
    # rows from _residue_table, as resultant_exact builds them; 200,000
    # limbs of 0xffff: one unchunked int64 matmul would overflow
    g = [(1 << 3_200_000) - 1, -(3**380_000), 7, -1]
    primes = list(itertools.islice(_descending_primes_1_mod_n(3), 4))
    P = np.array(primes, dtype=np.int64)
    vals = _unity_dft(3, poly._residue_table([g[0] + g[3], g[1], g[2]], P), P)
    for row, p in zip(vals, primes):
        z = _order_n_root(3, p, {3: 1})
        want = [poly_eval([c % p for c in g], pow(z, k, p)) % p for k in range(3)]
        assert [int(v) for v in row] == want


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_resultant_exact_all_ones_property(data):
    n = data.draw(st.integers(2, 60))
    g = data.draw(st.lists(st.integers(-(1 << 70), 1 << 70), max_size=n + 3))
    assert resultant_exact(n, g) == resultant_prs([1] * n, g)


def test_resultant_exact_check_prime_catches_a_wrong_residue(monkeypatch):
    # one DFT value off by one at one prime shifts the CRT value, and the
    # check prime, by Euclid, must refuse it
    dft = poly._unity_dft

    def corrupted(n, C, P):
        vals = dft(n, C, P)
        vals[0, 1] = (vals[0, 1] + 1) % P[0]
        return vals

    for n in (5, 12, 67):
        g = [10**6, 1] + [3] * (n - 2)
        assert resultant_exact(n, g) == resultant_prs([1] * n, g)
        with monkeypatch.context() as m:
            m.setattr(poly, "_unity_dft", corrupted)
            with pytest.raises(ArithmeticError, match="disagrees"):
                resultant_exact(n, g)


def test_resultant_exact_zero_detection():
    # g sharing a factor with 1 + x + ... + x^(n-1) must give exactly 0
    assert resultant_exact(4, poly_mul([1, 0, 1], [5, 7])) == 0
    assert resultant_exact(6, poly_mul([1, 1, 1], [5, 7])) == 0
    assert resultant_exact(3, [1, 1, 1]) == 0
    assert resultant_exact(3, []) == 0
    # rows that fold mod x^n - 1 to c * (1 + ... + x^(n-1)), c = 0 included
    assert resultant_exact(5, [7] * 5) == 0
    assert resultant_exact(3, [2, 2, 2, 5, 5, 5]) == 0
    assert resultant_exact(4, [-3, 0, 0, 0, 3]) == 0


def test_resultant_exact_sizes_its_crt_from_the_folded_row(monkeypatch):
    # L * F_333 folded mod x^333 - 1 has a_k - a_332 = A_333's a_k, whose
    # absolute sum needs 5,098 primes; the sum of |g_k| of the row as
    # passed would need 5,101
    counts = []
    crt = poly.crt_combine

    def counted(pairs):
        counts.append(len(pairs))
        return crt(pairs)

    monkeypatch.setattr(poly, "crt_combine", counted)
    p_n_exact(333)
    assert counts == [5098]


def test_resultant_exact_against_complex_roots():
    # float oracle: |Res| = |prod g(root)| over the roots of
    # 1 + x + ... + x^(n-1), to relative tolerance
    rng = random.Random(2009)
    for _ in range(30):
        f = [1] * rng.randrange(2, 8)
        g = random_poly(rng, rng.randrange(1, 6), cmax=8)
        exact = resultant_exact(len(f), g)
        roots = np.roots(list(reversed(f)))
        approx = 1.0
        for r in roots:
            approx *= complex(poly_eval([complex(c) for c in g], r))
        if abs(approx) > 1e-8:
            assert math.isclose(abs(exact), abs(approx), rel_tol=1e-5), (f, g)


def test_resultant_exact_rejects_n_below_2():
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="n >= 2"):
            resultant_exact(n, [1])
