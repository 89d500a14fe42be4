"""Exact integer and rational arithmetic helpers.

Everything in this module is exact: lcm ranges, valuations, harmonic
sums, quadratic residue symbols, primality testing, factorization, and
Chinese remaindering.  No floating point, no probabilistic shortcuts
except where documented (Baillie-PSW above 2**64).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

DEFAULT_RHO_BUDGET = 10_000_000


@dataclass(frozen=True)
class PrimeValuation:
    prime: int
    exponent: int


class FactorizationBudgetError(Exception):
    """Raised when Pollard rho exhausts its iteration budget.

    The offending cofactor is preserved so callers can report exactly
    which integer resisted factorization.
    """

    def __init__(self, cofactor: int, budget: int) -> None:
        self.cofactor = cofactor
        self.budget = budget
        super().__init__(
            f"factorization budget of {budget} iterations exhausted "
            f"on cofactor {cofactor}"
        )


_sieve_limit = 0
_sieve_primes: list[int] = []


def primes_upto(n: int) -> list[int]:
    """All primes <= n, cached and grown on demand."""
    global _sieve_limit, _sieve_primes
    if n > _sieve_limit:
        limit = max(n, 2 * _sieve_limit, 1 << 10)
        flags = bytearray([1]) * (limit + 1)
        flags[0] = flags[1] = 0
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
        _sieve_primes = [i for i, f in enumerate(flags) if f]
        _sieve_limit = limit
    return _sieve_primes[: bisect.bisect_right(_sieve_primes, n)]


def lcm_upto(n: int) -> int:
    """lcm(1, 2, ..., n) as the product of maximal prime powers <= n."""
    if n < 1:
        raise ValueError(f"lcm_upto requires n >= 1, got {n}")
    out = 1
    for p in primes_upto(n):
        out *= p ** floor_log(p, n)
    return out


def int_valuation(x: int, p: int) -> int:
    """Exponent of the prime p in x.  x must be nonzero."""
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    x = abs(x)
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def floor_log(base: int, n: int) -> int:
    """Largest e with base**e <= n, by integer arithmetic only."""
    if base < 2 or n < 1:
        raise ValueError("floor_log requires base >= 2 and n >= 1")
    e = 0
    q = base
    while q <= n:
        q *= base
        e += 1
    return e


@lru_cache(maxsize=None)
def harmonic(m: int) -> Fraction:
    """1 + 1/2 + ... + 1/m as an exact rational."""
    if m < 1:
        raise ValueError(f"harmonic requires m >= 1, got {m}")
    total = Fraction(0)
    for k in range(1, m + 1):
        total += Fraction(1, k)
    return total


def is_rational_square(r: Fraction) -> bool:
    """True iff r is the square of a rational.

    Since r is in lowest terms this reduces to both numerator and
    denominator being perfect squares (and r >= 0).
    """
    if r < 0:
        return False
    num, den = r.numerator, r.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    return rn * rn == num and rd * rd == den


def legendre_symbol(a: int, ell: int) -> int:
    """Legendre symbol (a | ell) for an odd prime ell, via Euler's criterion."""
    if ell == 2 or not is_prime(ell):
        raise ValueError(f"legendre_symbol needs an odd prime modulus, got {ell}")
    a %= ell
    if a == 0:
        return 0
    # ell prime, so the power is 1 or ell - 1
    return 1 if pow(a, (ell - 1) // 2, ell) == 1 else -1


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _mr_composite_witness(n: int, a: int) -> bool:
    """True if a proves n composite in a strong Fermat test."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a | n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters.

    n must be odd, > 5, and not divisible by any prime in _SMALL_PRIMES.
    """
    r = math.isqrt(n)
    if r * r == n:
        return False
    # First D in 5, -7, 9, -11, ... with (D | n) = -1.
    D = 5
    while True:
        j = _jacobi(D % n, n)
        if j == -1:
            break
        if j == 0:
            return False
        D = -(D + 2) if D > 0 else -(D - 2)
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # Binary chain for U_d, V_d mod n with P = 1.
    U, V, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            # halving mod odd n: force even before the shift
            if U & 1:
                U += n
            if V & 1:
                V += n
            U = (U >> 1) % n
            V = (V >> 1) % n
            qk = qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * qk) % n
        if V == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(x: int) -> bool:
    """Primality test.

    Below 2**64 this is a deterministic Miller-Rabin over the first
    twelve prime bases.  Above, it is Baillie-PSW (strong base-2 Fermat
    plus strong Lucas), which has no known counterexamples but is not a
    proof of primality.
    """
    if x < 2:
        return False
    for p in _SMALL_PRIMES:
        if x % p == 0:
            return x == p
    if x < 41 * 41:
        return True
    if x < 1 << 64:
        return not any(_mr_composite_witness(x, a) for a in _SMALL_PRIMES)
    return not _mr_composite_witness(x, 2) and _strong_lucas_prp(x)


def next_prime(x: int) -> int:
    """Smallest prime strictly greater than x."""
    if x < 2:
        return 2
    c = x + 1 + (x & 1)
    while not is_prime(c):
        c += 2
    return c


def _iroot(x: int, k: int) -> int:
    """Floor of the k-th root of x >= 0."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


def _pollard_brent(n: int, budget: int) -> int:
    """One nontrivial factor of an odd composite n, or raises on timeout.

    Brent's cycle variant with batched gcds.  The polynomial constant
    steps deterministically so results are reproducible.
    """
    spent = 0
    for c in range(1, 1 << 16):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                chunk = min(128, r - k)
                for _ in range(chunk):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += chunk
                spent += chunk
                if spent > budget:
                    raise FactorizationBudgetError(n, budget)
            r <<= 1
        if g == n:
            # batched gcd collapsed: replay one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
                spent += 1
                if spent > budget:
                    raise FactorizationBudgetError(n, budget)
        if g != n:
            return g
        # whole cycle inside one batch: retry with the next constant
    raise FactorizationBudgetError(n, budget)


_TRIAL_LIMIT = 10_000


def factorize(x: int, rho_budget: int = DEFAULT_RHO_BUDGET) -> dict[int, int]:
    """Full factorization of x >= 2 as {prime: exponent}.

    Trial division by primes below 10**4, then Pollard rho (Brent) on
    what is left, with every final factor certified by is_prime.  Raises
    FactorizationBudgetError, naming the cofactor, if rho exceeds its
    iteration budget.
    """
    if x < 2:
        raise ValueError(f"factorize requires x >= 2, got {x}")
    out: dict[int, int] = {}
    for p in primes_upto(_TRIAL_LIMIT):
        if p * p > x:
            break
        while x % p == 0:
            out[p] = out.get(p, 0) + 1
            x //= p
    if x == 1:
        return out
    stack = [x]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        handled = False
        for k in primes_upto(m.bit_length()):
            root = _iroot(m, k)
            if root**k == m:
                stack.extend([root] * k)
                handled = True
                break
        if handled:
            continue
        d = _pollard_brent(m, rho_budget)
        stack.extend([d, m // d])
    return out


def crt_combine(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """Combine (residue, modulus) pairs into (R, M) with R in [0, M).

    Moduli must be pairwise coprime; a shared factor raises ValueError.
    On a product tree: with c_i = r_i / (M / m_i) mod m_i,
    R = sum c_i * M / m_i mod M.  M / m_i mod m_i is (M mod m_i^2) / m_i,
    read off a remainder tree of M over the squared nodes, and the sum
    is built bottom-up as V = V_left * M_right + V_right * M_left.
    """
    moduli = [m for _, m in pairs]
    for m in moduli:
        if m < 1:
            raise ValueError(f"modulus must be positive, got {m}")
    tree = [moduli]  # tree[0] the moduli, tree[-1] = [M]
    while len(tree[-1]) > 1:
        row = tree[-1]
        tree.append([row[i] * row[i + 1] for i in range(0, len(row) - 1, 2)] + row[len(row) & ~1 :])
    M = tree[-1][0] if moduli else 1
    rems = [M]
    for row in reversed(tree[:-1]):
        rems = [rems[i // 2] % (q * q) for i, q in enumerate(row)]
    vals = []
    for (r, m), rem in zip(pairs, rems):
        try:
            vals.append(r * pow(rem // m, -1, m) % m)
        except ValueError:
            raise ValueError(f"moduli are not pairwise coprime at {m}") from None
    for row in tree[:-1]:
        vals = [
            vals[i] * row[i + 1] + vals[i + 1] * row[i] for i in range(0, len(row) - 1, 2)
        ] + vals[len(row) & ~1 :]
    return (vals[0] % M if vals else 0), M


def symmetric_rep(r: int, m: int) -> int:
    """Representative of r mod m in the window (-m/2, m/2]."""
    r %= m
    return r - m if r > m // 2 else r
