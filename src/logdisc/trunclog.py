"""Discriminant data for truncated logarithm polynomials.

The degree-n truncated logarithm is

    F_n(x) = 1 + x + x^2/2 + ... + x^n/n,

whose derivative is 1 + x + ... + x^(n-1).  Its discriminant factors as

    disc F_n = (-1)^(n(n-1)/2) * (n / L^(n-1)) * P_n,

where L = lcm(1..n), P_n = Res(1 + x + ... + x^(n-1), A_n) is an
integer resultant, and A_n is the reduced remainder of L * F_n modulo
the derivative:

    A_n = a_0 + a_1 x + ... + a_(n-2) x^(n-2),
    a_0 = L + L/n - L/(n-1),
    a_k = L/k - L/(n-1)        (1 <= k <= n-2).

Everything downstream (congruence certificates, witness searches) is
built on exact or modular evaluations of these objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .arith import DEFAULT_RHO_BUDGET, PrimeValuation, factorize, floor_log, harmonic, int_valuation
from .arith import is_prime, lcm_upto, max_prime_power_upto, primes_upto
from .poly import _NP_MAX_MOD, _all_ones_residues, product_bound, psi_poly
from .poly import resultant_exact, resultant_mod_p, resultant_prs


@dataclass(frozen=True)
class DiscReport:
    n: int
    sign: int
    p_n: int | None
    frame_valuations: tuple[PrimeValuation, ...]
    exact: Fraction | None


@dataclass(frozen=True)
class XYProfile:
    """X(m), Y(m) and the exceptional primes attached to a cofactor m."""

    m: int
    x: Fraction
    y: Fraction
    exceptional: tuple[int, ...]


def disc_sign(n: int) -> int:
    """(-1)^(n(n-1)/2): positive iff n = 0 or 1 (mod 4)."""
    return -1 if (n * (n - 1) // 2) & 1 else 1


def reduced_coeffs(n: int) -> list[int]:
    """Coefficients of A_n, ascending; every division here is exact and
    the top coefficient is never 0."""
    if n < 2:
        raise ValueError(f"reduced_coeffs requires n >= 2, got {n}")
    L = lcm_upto(n)
    last = L // (n - 1)
    a = [L + L // n - last]
    a.extend(L // k - last for k in range(1, n - 1))
    return a


def f_tilde(n: int) -> list[int]:
    """Integer coefficients of L * F_n, ascending degree."""
    if n < 1:
        raise ValueError(f"f_tilde requires n >= 1, got {n}")
    L = lcm_upto(n)
    return [L] + [L // k for k in range(1, n + 1)]


def p_n_exact(n: int) -> int:
    """The integer resultant P_n = Res(1 + x + ... + x^(n-1), A_n)."""
    if n < 2:
        raise ValueError(f"p_n_exact requires n >= 2, got {n}")
    a = reduced_coeffs(n)
    return resultant_exact(psi_poly(n), a, product_bound(a, n - 1))


def _lcm_mod(n: int, mod: int, skip: int = 0) -> int:
    """Product of maximal prime powers <= n, mod `mod`, optionally
    skipping the prime `skip` entirely."""
    out = 1
    for p in primes_upto(n):
        if p == skip:
            continue
        out = out * max_prime_power_upto(p, n) % mod
    return out


def _reduced_coeffs_mod(n: int, ell: int) -> list[int]:
    """A_n mod ell without constructing any big integers.

    Writes L = ell^E * U with U coprime to ell; then L/j mod ell is 0
    unless ell^E | j, in which case it is U / (j / ell^E) mod ell.  The
    quotients j / ell^E <= m = n // ell^E < ell are inverted together by
    Montgomery's trick: prefix products, one inverse, a backward pass.
    """
    E = floor_log(ell, n) if ell <= n else 0
    U = _lcm_mod(n, ell, skip=ell)
    shift = ell**E
    m = n // shift
    prefix = list(accumulate(range(1, m + 1), lambda x, j: x * j % ell, initial=1))
    acc = U * pow(prefix[m], -1, ell) % ell  # U / m!
    term = [0] * (n + 1)  # term[j] = L / j mod ell
    for j in range(m, 0, -1):
        term[j * shift] = acc * prefix[j - 1] % ell  # U / j
        acc = acc * j % ell
    t_last = term[n - 1]
    return [(term[1] + term[n] - t_last) % ell] + [(t - t_last) % ell for t in term[1 : n - 1]]


def p_n_mod(n: int, ell: int) -> int:
    """P_n mod ell for prime ell, with no big-integer intermediates."""
    if n < 2:
        raise ValueError(f"p_n_mod requires n >= 2, got {n}")
    if not is_prime(ell):
        raise ValueError(f"modulus must be prime, got {ell}")
    return resultant_mod_p(psi_poly(n), _reduced_coeffs_mod(n, ell), ell)


def frame_valuations(n: int) -> tuple[PrimeValuation, ...]:
    """Per-prime valuations of n / L^(n-1) over all primes <= n."""
    out = []
    for p in primes_upto(n):
        e = int_valuation(n, p) - (n - 1) * floor_log(p, n)
        out.append(PrimeValuation(p, e))
    return tuple(out)


def disc_exact(n: int) -> DiscReport:
    """Exact discriminant data for F_n.

    The degenerate n = 1 has discriminant 1 (linear polynomial) and an
    empty frame.
    """
    if n < 1:
        raise ValueError(f"disc_exact requires n >= 1, got {n}")
    if n == 1:
        return DiscReport(1, 1, None, (), Fraction(1))
    pn = p_n_exact(n)
    sign = disc_sign(n)
    L = lcm_upto(n)
    exact = Fraction(sign * n * pn, L ** (n - 1))
    return DiscReport(n, sign, pn, frame_valuations(n), exact)


def disc_from_definition(n: int) -> Fraction:
    """disc F_n straight from the defining resultant, no reduction step.

    Uses the subresultant algorithm on L * F_n against the derivative,
    then clears the L factor; serves as an independent cross-check of
    disc_exact, sharing none of its polynomial arithmetic.
    """
    if n < 2:
        raise ValueError(f"disc_from_definition requires n >= 2, got {n}")
    L = lcm_upto(n)
    r = resultant_prs(f_tilde(n), psi_poly(n))
    # Res(F_n, F_n') = r / L^(n-1) and the leading coefficient 1/n
    # contributes a factor n
    return Fraction(disc_sign(n) * n * r, L ** (n - 1))


def _disc_from_p_n(n: int, ell: int, pn: int) -> int:
    """disc F_n mod ell from P_n mod ell: the frame n / L^(n-1) and the sign."""
    frame = n * pow(_lcm_mod(n, ell), -(n - 1), ell) % ell
    r = frame * pn % ell
    return (-r) % ell if disc_sign(n) < 0 else r


def disc_mod(n: int, ell: int) -> int:
    """disc F_n mod ell for a prime ell > n (so the frame is invertible)."""
    if n < 2:
        raise ValueError(f"disc_mod requires n >= 2, got {n}")
    if ell <= n:
        raise ValueError(f"modulus too small: {ell} <= {n}")
    if not is_prime(ell):
        raise ValueError(f"modulus must be prime, got {ell}")
    return _disc_from_p_n(n, ell, p_n_mod(n, ell))


def disc_mod_dft(n: int, ells: list[int]) -> list[int]:
    """disc F_n mod ell for each prime ell = 1 (mod n), n < ell < 2^31,
    with P_n mod ell from the DFT over the n-th roots of unity in F_ell."""
    for ell in ells:
        if ell % n != 1 or not n < ell < _NP_MAX_MOD or not is_prime(ell):
            raise ValueError(f"modulus must be a prime = 1 (mod {n}) in ({n}, 2^31), got {ell}")
    pns = _all_ones_residues(n, reduced_coeffs(n), ells)
    return [_disc_from_p_n(n, ell, pn) for ell, pn in zip(ells, pns)]


@lru_cache(maxsize=None)
def x_of(m: int) -> Fraction:
    """X(m) = Res(1 + x + ... + x^(m-1), G_m) / L_m^(m-1), where G_m is
    the degree-(m-1) polynomial L_m * (1/m + x + x^2/2 + ... + x^(m-1)/(m-1)).

    This is the cofactor profile entering the split-parameter residue
    prediction; X(2) = -1/2.
    """
    if m < 2:
        raise ValueError(f"x_of requires m >= 2, got {m}")
    L = lcm_upto(m)
    g = [L // m] + [L // j for j in range(1, m)]
    r = resultant_exact(psi_poly(m), g, product_bound(g, m - 1))
    return Fraction(r, L ** (m - 1))


@lru_cache(maxsize=None)
def exceptional_set(m: int) -> XYProfile:
    """X(m), Y(m) = H_m, and the exceptional prime set E_m.

    E_m collects primes ell > m dividing the numerator of X(m) or of
    Y(m), subject to m * ell = 1 (mod 4).  Factoring the numerators can
    in principle exhaust DEFAULT_RHO_BUDGET; the resulting error names the
    stuck cofactor rather than guessing.
    """
    x = x_of(m)
    y = harmonic(m)
    candidates: set[int] = set()
    for num in (abs(x.numerator), y.numerator):
        if num > 1:
            candidates.update(factorize(num, DEFAULT_RHO_BUDGET))
    exc = sorted(ell for ell in candidates if ell > m and m * ell % 4 == 1)
    return XYProfile(m=m, x=x, y=y, exceptional=tuple(exc))


def in_exceptional_set(m: int, ell: int) -> bool:
    """Whether the prime ell lies in E_m, by direct divisibility.

    Enumerating E_m needs the numerators of X(m) and Y(m) fully
    factored, which can exhaust any budget; membership of one given
    prime is just a pair of reductions and never fails.
    """
    if m < 2:
        raise ValueError(f"in_exceptional_set requires m >= 2, got {m}")
    if ell <= m or m * ell % 4 != 1:
        return False
    return (
        x_of(m).numerator % ell == 0
        or harmonic(m).numerator % ell == 0
    )


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
