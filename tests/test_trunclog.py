import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    a_n_mod,
    dense_disc_mod,
    dense_p_n_mod,
    disc_from_definition,
    normalize,
    poly_mul,
    predicted_interval_residue,
    predicted_prime_power_residue,
    predicted_split_residue,
    rat_valuation,
    resultant_prs,
)
from logdisc.arith import (
    factorize,
    floor_log,
    is_prime,
    lcm_upto,
    legendre_symbol,
    next_prime,
    primes_upto,
)
from logdisc.certify import Certificate, classify, verify_certificate
from logdisc.trunclog import (
    _lcm_mod,
    disc_exact,
    disc_mod,
    disc_mod_dft,
    disc_sign,
    exceptional_set,
    f_tilde,
    frame_valuations,
    in_exceptional_set,
    p_n_exact,
    p_n_mod,
    p_n_unit_at_divisor,
    psi_g_resultant,
    x_of,
)

# independently computed (separate CAS resultant/discriminant routines),
# frozen here as the ground truth for the low range
ORACLE_DISC = {
    2: Fraction(-1, 1),
    3: Fraction(-19, 12),
    4: Fraction(725, 432),
    5: Fraction(5384731, 2592000),
    6: Fraction(-10800869, 4800000),
    7: Fraction(-2003099320619041, 784147392000000),
    8: Fraction(101833470801828909163, 36886293319680000000),
    9: Fraction(545477892155962965656209531, 180701524617913958400000000),
    10: Fraction(-1325763371239942044643451920493, 409831057833428857651200000000),
    11: Fraction(-84489363708266531080765384176102560759302207,
                 24352276952264210145287651029155840000000000),
    12: Fraction(456151800623994039175088646242557386049888713809,
                 123758271471406715958351842530169978880000000000),
}
ORACLE_PN = {
    2: 1,
    3: 19,
    4: 725,
    5: 5384731,
    6: 291623463,
    7: 2003099320619041,
    8: 101833470801828909163,
    9: 545477892155962965656209531,
    10: 1325763371239942044643451920493,
    11: 84489363708266531080765384176102560759302207,
    12: 2280759003119970195875443231212786930249443569045,
    13: 1441418372835413055810389543235459411557722846251871736186542567561,
    14: 508622544760008972152460962079059868523253704832091230386608954929385349,
}
ORACLE_X = {
    2: Fraction(-1, 2),
    3: Fraction(13, 36),
    4: Fraction(-511, 1728),
    5: Fraction(3334111, 12960000),
    6: Fraction(-20017333, 86400000),
    7: Fraction(1170728665999621, 5489031744000000),
    8: Fraction(-58818114221695638797, 295090346557440000000),
    9: Fraction(306236856729921117043081411, 1626313721561225625600000000),
    10: Fraction(-734985617173200541406921612347, 4098310578334288576512000000000),
}
# A_n mod this prime is A_n itself for n <= 42: every coefficient is
# below 2L <= 2 lcm(1..42) < 2^59
M61 = (1 << 61) - 1


def test_lcm_mod_matches_lcm_upto():
    # U = lcm(1..n) with the maximal power of q divided out, mod q (L
    # itself when q > n); the primes above sqrt(n) enter with exponent 1
    for q in (2, 3, 5, 7, 241, 10007, (1 << 31) - 1):
        for n in range(1, 601):
            L = lcm_upto(n)
            U = L // q ** floor_log(q, n) if q <= n else L
            assert _lcm_mod(n, q) == U % q, (n, q)


def test_reduced_coeffs_small():
    # Res(psi_2, F_2) = F_2(-1) = 1/2 mod ell > 2, and the dense reference's
    # A_n mod ell: A_2 = 1, A_3 = 5 + 3x, a_0 = L + L/n - L/(n-1)
    assert psi_g_resultant(2, M61) == pow(2, -1, M61)
    assert a_n_mod(2, M61) == [1]
    assert a_n_mod(3, M61) == [5, 3]
    assert a_n_mod(9, M61)[0] == 2520 + 280 - 315
    with pytest.raises(ValueError):
        p_n_mod(1, M61)


def test_reduced_coeffs_divisions_exact():
    for n in range(2, 60):
        a = a_n_mod(n, M61)
        L = lcm_upto(n)
        assert len(a) == n - 1 and a[-1] != 0
        # direct identity: a_0 = L + L/n - L/(n-1), a_k = L/k - L/(n-1)
        want = [L + L // n - L // (n - 1)] + [L // k - L // (n - 1) for k in range(1, n - 1)]
        assert a == [c % M61 for c in want]
        if n <= 42:
            assert a == want


def test_f_tilde():
    assert f_tilde(1) == [1, 1]
    assert f_tilde(4) == [12, 12, 6, 4, 3]
    assert f_tilde(6) == [60, 60, 30, 20, 15, 12, 10]
    with pytest.raises(ValueError):
        f_tilde(0)


def test_reduction_identity():
    # exact polynomial identity: L*F_n = Psi_n * (L/n x + L/(n-1) - L/n) + A_n
    for n in range(2, 41):
        L = lcm_upto(n)
        quotient = [L // (n - 1) - L // n, L // n]
        lhs = f_tilde(n)
        a = a_n_mod(n, M61)
        prod = poly_mul([1] * n, quotient)
        rhs = [c + (a[i] if i < len(a) else 0) for i, c in enumerate(prod)]
        assert normalize(rhs) == normalize(lhs), n


def test_p_n_exact_matches_oracle():
    for n, want in ORACLE_PN.items():
        assert p_n_exact(n) == want
    with pytest.raises(ValueError):
        p_n_exact(1)


def test_p_n_exact_matches_unreduced_resultant():
    # same value straight from Res(Psi_n, L*F_n), computed by the
    # integer PRS -- no reduction step, no CRT, no shared code path
    for n in range(2, 26):
        assert p_n_exact(n) == resultant_prs([1] * n, f_tilde(n))


def test_p_n_mod_matches_exact():
    moduli = [2, 3, 5, 7, 11, 13, 37, 10007, (1 << 31) - 1, next_prime(1 << 40)]
    for n in list(range(2, 26)) + [30, 40]:
        pn = p_n_exact(n)
        for ell in moduli:
            assert p_n_mod(n, ell) == pn % ell, (n, ell)


@pytest.mark.parametrize("n", list(range(2, 41)) + [64, 243, 1000, 1024])
def test_reduced_coeffs_mod_matches_exact(n):
    # every prime ell in (n, n + 5], the last prime below 2^31, 2^31 - 1, the
    # first above it, 2^31 + 11, and two primes near 2^61; primes ell <= n
    # are test_p_n_mod_matches_the_dense_reference's.  psi_g_resultant's
    # G = F_n mod ell > n, below and above 2^31, against the Euclid on
    # A_n mod ell from the integers of L * F_n
    for ell in [p for p in primes_upto(n + 5) if p > n] + [(1 << 31) - 1, (1 << 31) + 11, M61, 2305843009212694027]:
        assert p_n_mod(n, ell) == dense_p_n_mod(n, ell), (n, ell)
        assert disc_mod(n, ell) == dense_disc_mod(n, ell), (n, ell)


# p_n_mod against the dense Euclid on A_n mod ell from the integers of
# L * F_n, for n below 3000 and five kinds of prime: every ell | n, and a
# drawn ell <= n prime to n, ell in (n/2, n] (m = 1, the interval route's)
# and ell > n, and the first ell = 1 (mod n) (the DFT); psi_g_resultant is
# 0 exactly where P_n is.  The examples
# hold ell = 2, ell^2 | n (45, 2997 = 3^4 * 37), n = ell^e (9, 1024),
# G(1) = 0 at ell | n (21 at 3, 33 at 11), P_333 = 0 (mod 37), and below
# 3000 the largest degree m of G that takes the doubling at ell | n
# (2184 = 13 * 168 at 13: m = 12); test_psi_g_resultant_pinned holds the
# largest at ell prime to n
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 3000), st.randoms(use_true_random=False))
@example(2, random.Random(0))
@example(9, random.Random(0))
@example(21, random.Random(0))
@example(33, random.Random(0))
@example(45, random.Random(0))
@example(333, random.Random(0))
@example(1024, random.Random(0))
@example(2184, random.Random(0))
@example(2997, random.Random(0))
def test_p_n_mod_matches_the_dense_reference(n, rng):
    primes = primes_upto(n)
    kinds = ([p for p in primes if n % p], [p for p in primes if 2 * p > n])
    split = next(ell for ell in range(n + 1, 1 << 31, n) if is_prime(ell))
    ells = {rng.choice(kind) for kind in kinds if kind} | set(factorize(n)) | {next_prime(n + rng.randrange(n)), split}
    for ell in sorted(ells):
        want = dense_p_n_mod(n, ell)
        assert p_n_mod(n, ell) == want, (n, ell)
        assert (psi_g_resultant(n, ell) == 0) == (want == 0), (n, ell)


def test_p_n_mod_rejects_composite_modulus():
    with pytest.raises(ValueError):
        p_n_mod(10, 9)


# every n below 3000 against every prime p | n: p_n_mod's stride and the
# dense Euclid agree, and the producer's lemma calls P_n a unit exactly
# where it is nonzero.  The examples hold p = 3 with p^2 | n
# (45 = 3^2 * 5, 225), n = p^e so that n' = 1 (9, 125, and
# 2, 16, 1024 at p = 2), B(1) = 0 while Res(psi_n', B) != 0 (21 at p = 3,
# 33 at p = 11), P_333 = 0 (mod 37), p = 2 with n' > 1 (12, 96), and
# 2997 = 3^4 * 37 near the top of the range
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 3000))
@example(2)
@example(9)
@example(12)
@example(16)
@example(21)
@example(33)
@example(45)
@example(96)
@example(125)
@example(225)
@example(333)
@example(1024)
@example(2997)
def test_p_n_mod_at_divisor_matches_p_n_mod(n):
    exact = p_n_exact(n) if n <= 150 else None
    for p in factorize(n):
        got = p_n_mod(n, p)
        assert got == dense_p_n_mod(n, p), (n, p)
        assert p_n_unit_at_divisor(n, p) == (got != 0), (n, p)
        if exact is not None:
            assert got == exact % p, (n, p)


def test_p_n_mod_at_a_divisor_runs_only_a_small_resultant(monkeypatch):
    # at p | n, no Euclid of degree n: every resultant_mod_p call takes
    # rows of at most deg G + 1 = m + 1 terms, m = n // p^floor(log_p n)
    import logdisc.trunclog as trunclog

    seen = []
    real = trunclog.resultant_mod_p

    def recording(f, g, p):
        seen.append((len(f), len(g)))
        return real(f, g, p)

    monkeypatch.setattr(trunclog, "resultant_mod_p", recording)
    for n in (221, 1197, 2184, 9933):
        for p in factorize(n):
            want = dense_p_n_mod(n, p)
            seen.clear()
            assert p_n_mod(n, p) == want, (n, p)
            bound = n // p ** floor_log(p, n) + 1
            assert all(max(lens) <= bound for lens in seen), (n, p, seen, bound)


def test_psi_g_resultant_pinned():
    # the largest degree of G below 3000 at ell prime to n (2808 at 53:
    # m = 52, psi_2808 doubled mod a degree-51 H) and at ell | n with k = m
    # (2756 = 52 * 53), both against the dense reference; and the shape of
    # the value: G(1) = 0, then k = 1 (n = 125 at 5), then m = 1, then
    # ell > n, where s = 1 and G = F_n: P_10 = 0 (mod 11)
    assert p_n_mod(2808, 53) == dense_p_n_mod(2808, 53) == 0
    assert p_n_mod(2756, 53) == dense_p_n_mod(2756, 53)
    assert psi_g_resultant(21, 3) == 0
    assert psi_g_resultant(125, 5) == 1
    assert psi_g_resultant(100, 53) == 52 and psi_g_resultant(101, 53) == 1  # (-1)^(k-1)
    assert psi_g_resultant(10, 11) == dense_p_n_mod(10, 11) == 0


def test_verify_rejects_tampered_valuation_records():
    # tampered valuation records are rejected: G(1) = 0 at (21, 3) while
    # Res(psi_7, G) != 0, P_333 = 0 (mod 37), a composite r, and interval
    # primes outside (n/2, n - 2); the genuine records at 21 and 24 pass
    from logdisc.certify import verify_failure

    assert psi_g_resultant(21, 3) == 0 and psi_g_resultant(333, 37) == 0
    for n, cert, reason in (
        (21, Certificate("divisor_valuation", p=3, e=1), "P_21 vanishes mod 3"),
        (333, Certificate("divisor_valuation", p=37, e=1), "P_333 vanishes mod 37"),
        (45, Certificate("divisor_valuation", p=9, e=1), "9 is not prime"),
        (12, Certificate("odd_valuation", ell=5), "outside the interval"),
        (24, Certificate("odd_valuation", ell=23), "outside the interval"),
        (24, Certificate("odd_valuation", ell=11), "outside the interval"),
    ):
        assert reason in verify_failure(n, cert), (n, cert)
    assert verify_certificate(21, Certificate("divisor_valuation", p=7, e=1))
    assert verify_certificate(24, Certificate("odd_valuation", ell=13))


def test_p_n_mod_at_divisor_pinned():
    assert p_n_unit_at_divisor(21, 3) is False  # B(1) = 0 with Res(psi_7, B) = 1
    assert p_n_unit_at_divisor(333, 37) is False
    assert p_n_unit_at_divisor(1197, 19) is True and p_n_mod(1197, 19) != 0
    assert p_n_unit_at_divisor(125, 5) is True  # n' = 1
    # n = 5 * 1000003^2: psi_n' would have n / 5 = 1000006000009 terms; x^n' mod B = y is 0
    far = 5 * 1000003**2
    assert p_n_unit_at_divisor(far, 5) is True
    assert verify_certificate(far, classify(far))
    with pytest.raises(ValueError):
        p_n_unit_at_divisor(45, 7)


def test_p_n_mod_at_divisor_builds_no_length_n_row(monkeypatch):
    # B has (n - 2) // p^floor(log_p n) + 1 terms: neither A_n mod p nor
    # psi_n is built, no resultant takes a row longer than B (psi_n' only
    # where it is no longer, else x^n' mod B), no L mod p enters, and the
    # verifier's core (psi_g_resultant and its DFT) is not called
    import logdisc.trunclog as trunclog

    seen = []
    real = trunclog.resultant_mod_p

    def recording(f, g, p):
        seen.append((len(f), len(g)))
        return real(f, g, p)

    def forbidden(*args):
        raise AssertionError("the verifier's core or L mod p ran")

    monkeypatch.setattr(trunclog, "resultant_mod_p", recording)
    for name in ("psi_g_resultant", "_split_product", "_lcm_mod"):
        monkeypatch.setattr(trunclog, name, forbidden)
    assert p_n_unit_at_divisor(9993, 3331) is True  # 9993 = 3 * 3331
    assert seen == [(3, 3)]
    for n, p in ((45, 5), (5 * 1000003**2, 5)):  # B = y: s = 25, then 5^18
        seen.clear()
        assert p_n_unit_at_divisor(n, p) is True
        assert seen and all(max(lens) <= 2 for lens in seen), (n, seen)


def test_disc_sign_rule():
    for n in range(1, 200):
        assert disc_sign(n) == (-1 if n % 4 in (2, 3) else 1)
    for n in range(2, 21):
        assert (disc_exact(n).exact < 0) == (n % 4 in (2, 3))


def test_disc_exact_matches_oracle():
    for n, want in ORACLE_DISC.items():
        rep = disc_exact(n)
        assert rep.exact == want
        assert rep.p_n == ORACLE_PN[n]
    assert disc_exact(1).exact == 1
    with pytest.raises(ValueError):
        disc_exact(0)


def test_disc_exact_equals_definition_route():
    for n in range(2, 65):
        assert disc_exact(n).exact == disc_from_definition(n), n


def test_frame_valuations_reconstruct_frame():
    for n in range(2, 40):
        fr = frame_valuations(n)
        assert [v.prime for v in fr] == primes_upto(n)
        value = Fraction(1)
        for v in fr:
            value *= Fraction(v.prime) ** v.exponent
        assert value == Fraction(n, lcm_upto(n) ** (n - 1))


def test_disc_factors_as_sign_frame_p_n():
    for n in range(2, 40):
        rep = disc_exact(n)
        frame = Fraction(n, lcm_upto(n) ** (n - 1))
        assert rep.exact == rep.sign * frame * rep.p_n


def test_disc_mod_matches_exact_reduction():
    for n in range(2, 41):
        d = disc_exact(n).exact
        ell = next_prime(n)
        while ell < n + 500:
            num = d.numerator % ell
            den_inv = pow(d.denominator, -1, ell)
            assert disc_mod(n, ell) == num * den_inv % ell, (n, ell)
            ell = next_prime(ell)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 150), st.integers(1, 2000), st.integers(1, 5000), st.integers(0, 1 << 20))
def test_disc_mod_matches_exact_reduction_property(n, k, j, t):
    # three primes ell > n: one = 1 (mod n), one != 1 (mod n) (n = 2 has
    # none), and one above 2^31, where euclid runs on lists of Python ints
    ell = k * n + 1
    while not is_prime(ell):
        ell += n
    other = next_prime(n + j)
    while other % n == 1:
        other = next_prime(other)
    big = next_prime((1 << 31) + t)
    d = disc_exact(n).exact
    for ell in (ell, other, big):
        assert disc_mod(n, ell) == d.numerator * pow(d.denominator, -1, ell) % ell, (n, ell)


# disc_mod takes its own DFT at ell = 1 (mod n) below 2^31: n in every
# class mod 4, prime n (one radix), prime powers and n with many small
# factors, each at the first two primes ell = 1 (mod n), against Euclid
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 3000))
@example(2)
@example(9)
@example(2999)
@example(2048)
@example(2310)
@example(2187)
def test_disc_mod_split_path_matches_dense_euclid(n):
    ells = (ell for ell in range(n + 1, 1 << 31, n) if is_prime(ell))
    for ell in (next(ells), next(ells)):
        assert disc_mod(n, ell) == dense_disc_mod(n, ell), (n, ell)


def test_disc_mod_split_path_stops_below_two_to_the_31(monkeypatch):
    # 2^31 - 1 = 1 (mod 33) takes the DFT, 2147483713 = 1 (mod 33) above
    # 2^31 the Euclid on lists of Python ints; both values are pinned from Euclid
    import logdisc.trunclog as trunclog

    real, calls = trunclog._split_product, []

    def recording(n, ell):
        calls.append(ell)
        return real(n, ell)

    monkeypatch.setattr(trunclog, "_split_product", recording)
    assert disc_mod(33, 2147483647) == 490486654
    assert calls == [2147483647]
    assert disc_mod(33, 2147483713) == 1404554637
    assert calls == [2147483647]
    # and no DFT at a prime ell != 1 (mod n)
    assert disc_mod(333, 337) == 157
    assert calls == [2147483647]


def test_disc_mod_pinned_values():
    assert disc_mod(33, 37) == 14
    assert disc_mod(77, 79) == 39
    assert disc_mod(333, 337) == 157
    assert disc_mod(505, 509) == 200
    assert disc_mod(685, 709) == 443


def test_disc_mod_computes_no_lcm(monkeypatch):
    # L cancels in disc F_n mod ell: the README and CI pins, on the DFT
    # path, on Euclid above 2^31 and on Euclid at ell != 1 (mod n), come
    # out with L mod ell and P_n mod ell made to raise
    import logdisc.trunclog as trunclog

    def forbidden(*args):
        raise AssertionError("L or P_n mod ell computed")

    monkeypatch.setattr(trunclog, "_lcm_mod", forbidden)
    monkeypatch.setattr(trunclog, "p_n_mod", forbidden)
    assert disc_mod(9765, 507781) == 316307
    assert disc_mod(33, 2147483713) == 1404554637
    assert disc_mod(333, 337) == 157
    assert disc_mod(33, 2147483647) == 490486654


# the Euclid path of disc_mod against the L-route reference: a prime
# ell != 1 (mod n) above n (n = 2 has none), and a prime ell = 1 (mod n)
# from 2^31 up, where Euclid runs on lists of Python ints
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 600), st.integers(0, 5000), st.integers(0, 1 << 20))
@example(3, 0, 0)
@example(333, 0, 0)
@example(600, 5000, 1 << 20)
def test_disc_mod_euclid_path_matches_dense_euclid(n, j, t):
    ells = [(1 << 31) + t - ((1 << 31) + t) % n + 1]
    while not is_prime(ells[0]):
        ells[0] += n
    if n > 2:
        ells.append(next_prime(n + j))
        while ells[1] % n == 1:
            ells[1] = next_prime(ells[1])
    for ell in ells:
        assert disc_mod(n, ell) == dense_disc_mod(n, ell), (n, ell)


# n in every class mod 4, and prime n from 11 up, whose one radix takes
# the matmul path of the DFT; ell from just above n to just below 2^31,
# so the row of inverses 1/j mod ell meets every size of ell // j
@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(2, 3000), st.integers(0, (1 << 31) - 2))
@example(11, 11)
@example(13, 65)
@example(131, 131)
@example(601, 1803)
@example(1031, 1031)
@example(22, 22)
@example(2999, 0)
@example(3000, 2147469000)
@example(2, 2147483646)
def test_disc_mod_dft_matches_disc_mod(n, t):
    # the first prime ell = 1 (mod n) above t and n; n = 22 takes 23,
    # 2999 takes 23993.  The reference is the dense Euclid that disc_mod
    # ran there before it took a DFT of its own
    ell = t - t % n + 1
    while ell <= n or not is_prime(ell):
        ell += n
    assume(ell < 1 << 31)
    assert disc_mod_dft(n, ell) == dense_disc_mod(n, ell)


def test_disc_is_sign_n_res_of_derivative_and_c():
    # the identity disc_mod_dft evaluates, over Q: at the roots of
    # F_n' = 1 + ... + x^(n-1), F_n agrees with
    # c = (1 + 1/n) + x + x^2/2 + ... + x^(n-1)/(n-1), so
    # disc F_n = sign * n * Res(F_n', L c) / L^(n-1)
    for n in range(2, 41):
        L = lcm_upto(n)
        lc = [L + L // n] + [L // j for j in range(1, n)]
        res = Fraction(resultant_prs([1] * n, lc), L ** (n - 1))
        assert disc_exact(n).exact == disc_sign(n) * n * res, n


def test_disc_mod_dft_builds_no_big_integers(monkeypatch):
    # neither L * F_n, nor its limb table, nor L mod ell (so no A_n mod
    # ell), nor the verifier's core: the witness rows are inverses mod ell
    # alone, with no Fermat power
    import logdisc.poly as poly
    import logdisc.trunclog as trunclog

    ells = [ell for ell in range(334, 20000, 333) if is_prime(ell)][:4]
    want = [dense_disc_mod(333, ell) for ell in ells]

    def forbidden(*args):
        raise AssertionError("a forbidden path ran")

    assert not hasattr(trunclog, "_pow_mod")
    for module, name in ((trunclog, "f_tilde"), (trunclog, "_lcm_mod"), (poly, "_residue_table"),
                         (poly, "_pow_mod"), (trunclog, "psi_g_resultant"), (trunclog, "_split_product")):
        monkeypatch.setattr(module, name, forbidden)
    assert [disc_mod_dft(333, ell) for ell in ells] == want


def test_disc_mod_dft_rejects_moduli_outside_its_range():
    # too small twice, composite, not 1 (mod 11), a prime = 1 (mod 11) above 2^31
    for ell in (1, 7, 12, 13, 2147483713):
        with pytest.raises(ValueError, match="= 1 \\(mod 11\\)"):
            disc_mod_dft(11, ell)


def test_disc_mod_rejects_small_or_composite():
    with pytest.raises(ValueError, match="too small"):
        disc_mod(10, 7)
    with pytest.raises(ValueError):
        disc_mod(10, 21)


def test_x_of_matches_oracle():
    for m, want in ORACLE_X.items():
        assert x_of(m) == want
    assert x_of(5) == Fraction(11 * 101 * 3001, 2**8 * 3**4 * 5**4)
    assert x_of(7) == Fraction(1170728665999621, 2**12 * 3**6 * 5**6 * 7**6)
    with pytest.raises(ValueError):
        x_of(1)


def test_exceptional_set_pinned_tables():
    p3 = exceptional_set(3)
    assert (p3.x, p3.y, p3.exceptional) == (Fraction(13, 36), Fraction(11, 6), (11,))
    p5 = exceptional_set(5)
    assert p5.exceptional == (101, 137, 3001)
    p7 = exceptional_set(7)
    assert (p7.y, p7.exceptional) == (Fraction(363, 140), (11,))
    p9 = exceptional_set(9)
    assert p9.exceptional == (37, 229, 7129, 98481394090065580021)
    assert p9.x.numerator == 37 * 229 * 367 * 98481394090065580021
    assert exceptional_set(2).exceptional == ()
    assert exceptional_set(4).exceptional == ()


def test_exceptional_set_budget_failure_is_loud(monkeypatch):
    import logdisc.trunclog as trunclog_mod
    from logdisc.arith import FactorizationBudgetError

    monkeypatch.setattr(trunclog_mod, "DEFAULT_RHO_BUDGET", 500)
    with pytest.raises(FactorizationBudgetError) as info:
        exceptional_set(13)
    assert info.value.cofactor > 1


def test_in_exceptional_set_agrees_with_enumeration():
    for m in range(2, 13):
        prof = exceptional_set(m)
        probes = set(prof.exceptional) | {3, 5, 7, 11, 13, 37, 101, 137, 229, 3001, 7129}
        for ell in probes:
            if not is_prime(ell):
                continue
            assert in_exceptional_set(m, ell) == (ell in prof.exceptional), (m, ell)


def test_in_exceptional_set_avoids_factorization():
    # full enumeration for m = 13 is budget-infeasible; membership is not
    assert in_exceptional_set(13, 17) is False
    assert in_exceptional_set(13, 9901) in (True, False)
    with pytest.raises(ValueError):
        in_exceptional_set(1, 5)


def test_predicted_interval_residue():
    assert predicted_interval_residue(8, 5) == p_n_mod(8, 5)
    for n, ell in ((8, 7), (12, 5), (12, 9), (10, 7)):
        with pytest.raises(ValueError):
            predicted_interval_residue(n, ell)


def test_predicted_prime_power_residue():
    for p, e in ((3, 2), (5, 2), (7, 2), (3, 4), (11, 2), (5, 3), (13, 1), (13, 2)):
        n = p**e
        want = p_n_mod(n, p)
        assert predicted_prime_power_residue(p, e) == want
        assert want != 0
    with pytest.raises(ValueError):
        predicted_prime_power_residue(4, 2)


def test_predicted_split_residue():
    import math

    checked = 0
    for m in range(2, 15):
        q = m
        while True:
            q = next_prime(q)
            if m * q > 200:
                break
            if math.gcd(q, m) != 1:
                continue
            assert predicted_split_residue(m, q) == p_n_mod(m * q, q), (m, q)
            checked += 1
    assert checked > 50
    # q dividing the X(9) numerator forces a zero residue
    assert predicted_split_residue(9, 37) == 0
    assert p_n_mod(9 * 37, 37) == 0
    with pytest.raises(ValueError):
        predicted_split_residue(7, 5)


def test_split_residue_vanishes_exactly_on_the_exceptional_set():
    # classify takes the split route whenever q is outside E_m, without
    # evaluating the residue; that is sound because the closed form is
    # zero exactly on E_m.  The verifier never consults E_m, and its
    # P_n mod q check gives the same verdict
    checked = exceptional = 0
    for n in range(5, 3001, 4):
        fac = factorize(n)
        q = max(fac)
        m = n // q
        if m < 2 or fac[q] != 1 or q <= m:
            continue
        in_e = in_exceptional_set(m, q)
        assert (predicted_split_residue(m, q) == 0) == in_e, (m, q)
        assert verify_certificate(n, Certificate("split_theorem", m=m, q=q)) == (not in_e), (m, q)
        checked += 1
        exceptional += in_e
    assert (checked, exceptional) == (396, 14)


def test_witness_residues_are_nonresidues():
    for n, ell, want in ((33, 37, 14), (77, 79, 39), (333, 337, 157),
                         (505, 509, 200), (685, 709, 443)):
        assert legendre_symbol(want, ell) == -1
        assert disc_mod(n, ell) == want
