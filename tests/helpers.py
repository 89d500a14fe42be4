"""Helpers that only the tests need: polynomial product and evaluation,
the p-adic valuation of a rational, P_n mod ell by the dense Euclid,
and the paper's closed-form residues of P_n on the three theorem routes.

classify picks those routes from the shape of n without evaluating the
residues; the tests check each formula against Euclid (dense_p_n_mod)
and that it is nonzero exactly where classify takes its route.
"""

from fractions import Fraction

from logdisc.arith import harmonic, int_valuation, is_prime
from logdisc.poly import normalize, psi_poly, resultant_mod_p
from logdisc.trunclog import _lcm_mod, _reduced_coeffs_mod, x_of


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return normalize(out)


def poly_eval(p: list, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def dense_p_n_mod(n: int, ell: int) -> int:
    """P_n mod a prime ell by Euclid on (psi_n, A_n mod ell) at every ell,
    ell | n included: the reference for p_n_mod's stride at ell | n."""
    return resultant_mod_p(psi_poly(n), _reduced_coeffs_mod(n, ell), ell)


def off_stride(reduced_coeffs_mod):
    """reduced_coeffs_mod with a nonzero x^1 coefficient at ell | n, where
    A_n mod ell must be a polynomial in x^s for s = ell^floor(log_ell n) >= 2."""

    def corrupt(n: int, ell: int) -> list[int]:
        A = reduced_coeffs_mod(n, ell)
        if n % ell == 0:
            A[1] = (A[1] + 1) % ell
        return A

    return corrupt


def rat_valuation(r: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if r == 0:
        raise ValueError("valuation of 0 is undefined")
    if r.numerator % p == 0:
        return int_valuation(r.numerator, p)
    if r.denominator % p == 0:
        return -int_valuation(r.denominator, p)
    return 0


def predicted_interval_residue(n: int, ell: int) -> int:
    """Predicted P_n mod ell for n = 0 (mod 4) and a prime ell in
    (n/2, n-2): -(L/ell)^(n-1) mod ell, nonzero; ell^2 > n, so L/ell is
    the product of the maximal prime powers away from ell."""
    if n % 4 or not n // 2 < ell < n - 2 or not is_prime(ell):
        raise ValueError("predicted_interval_residue needs n = 0 (mod 4) and a prime ell in (n/2, n-2)")
    return -pow(_lcm_mod(n, ell, skip=ell), n - 1, ell) % ell


def predicted_prime_power_residue(p: int, e: int) -> int:
    """Predicted P_n mod p for n = p**e: (L/n)^(n-1) mod p, nonzero."""
    if e < 1 or not is_prime(p):
        raise ValueError("predicted_prime_power_residue needs prime p and e >= 1")
    n = p**e
    # L/n is the product of the maximal prime powers away from p
    return pow(_lcm_mod(n, p, skip=p), n - 1, p)


def predicted_split_residue(m: int, q: int) -> int:
    """Predicted P_n mod q for n = m*q with prime q > m coprime to m:

        (L_n / q)^(n-1) * X(m)^q * Y(m)^(q-1)  (mod q).

    The denominators of X(m) and Y(m) involve only primes <= m < q, so
    everything is invertible mod q.
    """
    if not is_prime(q) or q <= m or m < 2:
        raise ValueError("predicted_split_residue needs prime q > m >= 2")
    n = m * q
    base = pow(_lcm_mod(n, q, skip=q), n - 1, q)
    x = x_of(m)
    y = harmonic(m)
    xq = x.numerator % q * pow(x.denominator, -1, q) % q
    yq = y.numerator % q * pow(y.denominator, -1, q) % q
    return base * pow(xq, q, q) % q * pow(yq, q - 1, q) % q
