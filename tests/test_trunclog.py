import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import poly_mul, rat_valuation
from logdisc.arith import (
    is_prime,
    lcm_upto,
    legendre_symbol,
    next_prime,
    primes_upto,
)
from logdisc.poly import normalize, psi_poly, resultant_prs
from logdisc.trunclog import (
    _reduced_coeffs_mod,
    disc_exact,
    disc_from_definition,
    disc_mod,
    disc_mod_dft,
    disc_sign,
    exceptional_set,
    f_tilde,
    frame_valuations,
    in_exceptional_set,
    p_n_exact,
    p_n_mod,
    predicted_interval_residue,
    predicted_prime_power_residue,
    predicted_split_residue,
    reduced_coeffs,
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


def test_reduced_coeffs_small():
    assert reduced_coeffs(2) == [1]
    assert reduced_coeffs(3) == [5, 3]
    assert reduced_coeffs(9)[0] == 2520 + 280 - 315
    with pytest.raises(ValueError):
        reduced_coeffs(1)


def test_reduced_coeffs_divisions_exact():
    for n in range(2, 60):
        a = reduced_coeffs(n)
        L = lcm_upto(n)
        assert len(a) == n - 1 and a[-1] != 0
        # direct identity: a_0 = L + L/n - L/(n-1), a_k = L/k - L/(n-1)
        assert a[0] == L + L // n - L // (n - 1)
        for k in range(1, n - 1):
            assert a[k] == L // k - L // (n - 1)


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
        a = reduced_coeffs(n)
        prod = poly_mul(psi_poly(n), quotient)
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
        assert p_n_exact(n) == resultant_prs(psi_poly(n), f_tilde(n))


def test_p_n_mod_matches_exact():
    moduli = [2, 3, 5, 7, 11, 13, 37, 10007, (1 << 31) - 1, next_prime(1 << 40)]
    for n in list(range(2, 26)) + [30, 40]:
        pn = p_n_exact(n)
        for ell in moduli:
            assert p_n_mod(n, ell) == pn % ell, (n, ell)


@pytest.mark.parametrize("n", list(range(2, 41)) + [64, 243, 1000, 1024])
def test_reduced_coeffs_mod_matches_exact(n):
    # every prime ell <= n + 5, so ell > n, ell^E > 1 and ell | n all
    # occur, ell = 2 among them, and two primes near 2^61
    exact = reduced_coeffs(n)
    for ell in primes_upto(n + 5) + [(1 << 61) - 1, 2305843009212694027]:
        assert _reduced_coeffs_mod(n, ell) == [c % ell for c in exact], (n, ell)


def test_p_n_mod_rejects_composite_modulus():
    with pytest.raises(ValueError):
        p_n_mod(10, 9)


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
    # none), and one above 2^31, where euclid runs on object arrays
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


def test_disc_mod_pinned_values():
    assert disc_mod(33, 37) == 14
    assert disc_mod(77, 79) == 39
    assert disc_mod(333, 337) == 157
    assert disc_mod(505, 509) == 200
    assert disc_mod(685, 709) == 443


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 150), st.integers(1, (1 << 31) // 601))
def test_disc_mod_dft_matches_disc_mod(j, k):
    # n = 1 (mod 4) in 5..601, three primes ell = 1 (mod n) from kn + 1 up
    n = 4 * j + 1
    ells, ell = [], k * n + 1
    while len(ells) < 3 and ell < 1 << 31:
        if is_prime(ell):
            ells.append(ell)
        ell += n
    assert disc_mod_dft(n, ells) == [disc_mod(n, ell) for ell in ells]


def test_disc_mod_dft_rejects_moduli_outside_its_range():
    # too small twice, composite, not 1 (mod 11), a prime = 1 (mod 11) above 2^31
    for ell in (1, 7, 12, 13, 2147483713):
        with pytest.raises(ValueError, match="= 1 \\(mod 11\\)"):
            disc_mod_dft(11, [ell])


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


def test_witness_residues_are_nonresidues():
    for n, ell, want in ((33, 37, 14), (77, 79, 39), (333, 337, 157),
                         (505, 509, 200), (685, 709, 443)):
        assert legendre_symbol(want, ell) == -1
        assert disc_mod(n, ell) == want
