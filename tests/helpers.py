"""Helpers that only the tests need: polynomial lists (normalize,
product and evaluation), the independent PRS oracle (resultant_prs over
Z, and disc F_n from its defining resultant), the p-adic valuation of a
rational, A_n, P_n and disc F_n mod ell by the dense Euclid from the
integers of L * F_n, and the paper's closed-form residues of P_n on the
three theorem routes.

theorem_route picks those routes from the shape of n; the tests check
each formula against Euclid (dense_p_n_mod) and that it is nonzero on
every n of its route.
"""

import math
from fractions import Fraction
from itertools import chain

from logdisc.arith import factorize, harmonic, int_valuation, is_prime, lcm_upto
from logdisc.certify import bertrand_prime
from logdisc.poly import resultant_mod_p
from logdisc.trunclog import _lcm_mod, disc_sign, f_tilde, in_exceptional_set, x_of


def normalize(coeffs: list[int]) -> list[int]:
    """Strip trailing zeros; the zero polynomial becomes []."""
    k = len(coeffs)
    while k and coeffs[k - 1] == 0:
        k -= 1
    return list(coeffs[:k])


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


def degree(p: list[int]) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def _content(p: list[int]) -> int:
    return math.gcd(*(abs(c) for c in p)) if len(p) > 1 else abs(p[0])


def _prem(A: list[int], B: list[int], c: int) -> list[int]:
    """Pseudo-remainder of A by B, scaled by c = lc(B) to power dA-dB+1."""
    dA, dB = len(A) - 1, len(B) - 1
    steps = dA - dB + 1
    R = list(A)
    while R and len(R) - 1 >= dB:
        lead = R[-1]
        R = [c * x for x in R[:-1]]
        off = len(R) - dB
        for j in range(dB):
            R[off + j] -= lead * B[j]
        R = normalize(R)
        steps -= 1
    if steps > 0 and R:
        scale = c**steps
        R = [scale * x for x in R]
    return R


def resultant_prs(f: list[int], g: list[int]) -> int:
    """Res(f, g) over Z by the subresultant pseudo-remainder sequence.

    Independent of the modular machinery of logdisc.poly: pure integer pseudo-
    division with the classical content/sign bookkeeping.  Takes lists of
    Python ints only: on an int64 row the products would overflow silently.
    """
    assert all(isinstance(c, int) for c in chain(f, g)), "resultant_prs takes lists of Python ints"
    A = normalize(f)
    B = normalize(g)
    if not A or not B:
        return 0
    s = 1
    if degree(A) < degree(B):
        if degree(A) & degree(B) & 1:
            s = -1
        A, B = B, A
    if degree(B) == 0:
        return s * B[0] ** degree(A)
    ca, cb = _content(A), _content(B)
    A = [x // ca for x in A]
    B = [x // cb for x in B]
    t = ca ** degree(B) * cb ** degree(A)
    g_, h = 1, 1
    while True:
        dA, dB = degree(A), degree(B)
        delta = dA - dB
        if dA & dB & 1:
            s = -s
        R = _prem(A, B, B[-1])
        if not R:
            return 0
        A = B
        denom = g_ * h**delta
        B = [x // denom for x in R]
        g_ = A[-1]
        if delta == 1:
            h = g_
        elif delta > 1:
            h = g_**delta // h ** (delta - 1)
        if degree(B) == 0:
            dA = degree(A)
            return s * t * (B[0] ** dA // h ** (dA - 1))


def disc_from_definition(n: int) -> Fraction:
    """disc F_n straight from the defining resultant, no reduction step.

    Uses the subresultant algorithm on L * F_n against the derivative,
    then clears the L factor; serves as an independent cross-check of
    disc_exact, sharing none of its polynomial arithmetic.
    """
    if n < 2:
        raise ValueError(f"disc_from_definition requires n >= 2, got {n}")
    L = lcm_upto(n)
    r = resultant_prs(f_tilde(n), [1] * n)
    # Res(F_n, F_n') = r / L^(n-1) and the leading coefficient 1/n
    # contributes a factor n
    return Fraction(disc_sign(n) * n * r, L ** (n - 1))


def a_n_mod(n: int, ell: int) -> list[int]:
    """A_n mod ell from the integers of L * F_n (f_tilde), reduced mod psi_n:
    x^n = 1, then x^(n-1) = -(1 + x + ... + x^(n-2))."""
    a = f_tilde(n)
    a[0] += a.pop()
    top = a.pop()
    return [(c - top) % ell for c in a]


def dense_p_n_mod(n: int, ell: int) -> int:
    """P_n mod a prime ell by Euclid on (psi_n, A_n mod ell), the dense
    reference for p_n_mod at every ell, ell | n included."""
    return resultant_mod_p([1] * n, a_n_mod(n, ell), ell)


def dense_disc_mod(n: int, ell: int) -> int:
    """disc F_n mod a prime ell > n as sign * n * L^-(n-1) * dense_p_n_mod:
    the Euclid reference for disc_mod's DFT at ell = 1 (mod n)."""
    frame = n * pow(lcm_upto(n), -(n - 1), ell) % ell
    return disc_sign(n) * frame * dense_p_n_mod(n, ell) % ell


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
    return -pow(_lcm_mod(n, ell), n - 1, ell) % ell


def predicted_prime_power_residue(p: int, e: int) -> int:
    """Predicted P_n mod p for n = p**e: (L/n)^(n-1) mod p, nonzero."""
    if e < 1 or not is_prime(p):
        raise ValueError("predicted_prime_power_residue needs prime p and e >= 1")
    n = p**e
    # L/n is the product of the maximal prime powers away from p
    return pow(_lcm_mod(n, p), n - 1, p)


def predicted_split_residue(m: int, q: int) -> int:
    """Predicted P_n mod q for n = m*q with prime q > m coprime to m:

        (L_n / q)^(n-1) * X(m)^q * Y(m)^(q-1)  (mod q).

    The denominators of X(m) and Y(m) involve only primes <= m < q, so
    everything is invertible mod q.
    """
    if not is_prime(q) or q <= m or m < 2:
        raise ValueError("predicted_split_residue needs prime q > m >= 2")
    n = m * q
    base = pow(_lcm_mod(n, q), n - 1, q)
    x = x_of(m)
    y = harmonic(m)
    xq = x.numerator % q * pow(x.denominator, -1, q) % q
    yq = y.numerator % q * pow(y.denominator, -1, q) % q
    return base * pow(xq, q, q) % q * pow(yq, q - 1, q) % q


def theorem_route(n: int) -> tuple[str, int, int] | None:
    """The paper's theorem route for n, chosen from the shape of n, as
    (route, prime, predicted P_n mod prime); None if n takes none:

      * odd_valuation: n = 0 (mod 4), n > 4, at the least prime in (n/2, n-2);
      * odd_prime_power_valuation: n = p^e = 1 (mod 4) with e odd, at p;
      * split_theorem: n = m*q = 1 (mod 4), prime q > m >= 2, q outside
        E_m, at q.
    """
    if n % 4 == 0 and n > 4:
        ell = bertrand_prime(n)
        return "odd_valuation", ell, predicted_interval_residue(n, ell)
    if n % 4 != 1 or n == 1:
        return None
    fac = factorize(n)
    q = max(fac)
    if len(fac) == 1:
        e = fac[q]
        return ("odd_prime_power_valuation", q, predicted_prime_power_residue(q, e)) if e & 1 else None
    m = n // q
    if q > m and not in_exceptional_set(m, q):
        return "split_theorem", q, predicted_split_residue(m, q)
    return None
