"""Discriminant data for truncated logarithm polynomials.

The degree-n truncated logarithm is

    F_n(x) = 1 + x + x^2/2 + ... + x^n/n,

whose derivative is 1 + x + ... + x^(n-1).  Its discriminant factors as

    disc F_n = (-1)^(n(n-1)/2) * (n / L^(n-1)) * P_n,

where L = lcm(1..n) and P_n = Res(1 + x + ... + x^(n-1), L * F_n) is an
integer resultant.  The roots of the derivative are the nontrivial n-th
roots of unity, where L * F_n agrees with its reduced remainder

    A_n = a_0 + a_1 x + ... + a_(n-2) x^(n-2),
    a_0 = L + L/n - L/(n-1),
    a_k = L/k - L/(n-1)        (1 <= k <= n-2),

so P_n = Res(1 + x + ... + x^(n-1), A_n) as well.  The exact route
evaluates L * F_n (f_tilde) folded mod x^n - 1.  A_n is built only mod a
prime ell, for p_n_mod, which also runs at primes ell <= n, where 1/k
mod ell does not exist and L * F_n has no row of inverses; at ell | n
it takes a small resultant of the row's stride (the divisor lemma).
The witness search takes disc F_n mod ell from F_n itself, as
sign * n * Res(F_n', F_n), with no L or A_n (see disc_mod_dft).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .arith import DEFAULT_RHO_BUDGET, PrimeValuation, factorize, floor_log, harmonic, int_valuation
from .arith import is_prime, lcm_upto, primes_upto
from .poly import _NP_MAX_MOD, _all_ones_residues, _row_dtype, psi_poly, resultant_exact, resultant_mod_p


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


def f_tilde(n: int) -> list[int]:
    """Integer coefficients of L * F_n, ascending degree."""
    if n < 1:
        raise ValueError(f"f_tilde requires n >= 1, got {n}")
    L = lcm_upto(n)
    return [L] + [L // k for k in range(1, n + 1)]


def p_n_exact(n: int) -> int:
    """The integer resultant P_n = Res(1 + x + ... + x^(n-1), L * F_n)."""
    if n < 2:
        raise ValueError(f"p_n_exact requires n >= 2, got {n}")
    return resultant_exact(n, f_tilde(n))


def _lcm_mod(n: int, mod: int, skip: int = 0) -> int:
    """Product of maximal prime powers <= n, mod `mod`, optionally
    skipping the prime `skip` entirely; a prime above sqrt(n) enters once."""
    out = 1
    for p in primes_upto(n):
        if p == skip:
            continue
        out = out * (p if p * p > n else p ** floor_log(p, n)) % mod
    return out


def _reduced_coeffs_mod(n: int, ell: int) -> np.ndarray:
    """A_n mod ell as a row of _row_dtype(ell), without any big integers.

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
    inv = [0] * (m + 1)  # inv[j] = U / j = L / (j * ell^E) mod ell
    for j in range(m, 0, -1):
        inv[j] = acc * prefix[j - 1] % ell
        acc = acc * j % ell
    t = 0 if (n - 1) % shift else inv[(n - 1) // shift]  # L / (n - 1) mod ell
    term = np.full(n + 1, -t % ell, dtype=_row_dtype(ell))  # term[k] = L/k - L/(n-1) mod ell
    term[shift::shift] = [(c - t) % ell for c in inv[1:]]
    term[0] = (term[1] + term[n] + t) % ell  # a_0 = L + L/n - L/(n-1)
    return term[: n - 1]


def p_n_mod(n: int, ell: int) -> int:
    """P_n mod ell for prime ell, with no big-integer intermediates.

    Euclid on (psi_n, A_n mod ell); at ell | n, the lemma of
    p_n_mod_at_divisor on B = A_n[::s], once A_n mod ell = B(x^s) is checked.
    """
    if n < 2:
        raise ValueError(f"p_n_mod requires n >= 2, got {n}")
    if not is_prime(ell):
        raise ValueError(f"modulus must be prime, got {ell}")
    A = _reduced_coeffs_mod(n, ell)
    if n % ell:
        return resultant_mod_p(psi_poly(n), A, ell)
    s = ell ** floor_log(ell, n)
    B = A[::s]
    if np.count_nonzero(A) != np.count_nonzero(B):
        raise ArithmeticError(f"A_{n} mod {ell} has a nonzero coefficient off the multiples of {s}")
    n1 = n // ell ** int_valuation(n, ell)
    if B.sum() % ell == 0:
        return 0
    return resultant_mod_p(psi_poly(n1), B, ell) if n1 > 1 else 1


def p_n_mod_at_divisor(n: int, p: int) -> int:
    """P_n mod a prime p | n by a resultant of degree <= max(n' - 1, (n - 2) // s).

    Mod p, with s = p^floor(log_p n) and U = L/s, A_n = B(x^s) for
    B(y) = (U/(n/s) if s | n else 0) + sum_(1 <= j <= (n-2)/s) (U/j) y^j.
    x^n - 1 = (x^n' - 1)^(p^v) with n' = n / p^v, v = v_p(n), and y -> y^s
    permutes the n'-th roots of unity: P_n = Res(psi_n', B) if B(1) != 0, else 0.
    """
    if n < 2 or n % p:
        raise ValueError(f"p_n_mod_at_divisor requires a prime divisor of n >= 2, got {p} for n = {n}")
    n1 = n // p ** int_valuation(n, p)
    if n1 == 1:
        return 1  # n = s, and B = [U] is a unit
    s = p ** floor_log(p, n)
    U = _lcm_mod(n, p, skip=p)
    B = [U * pow(n // s, -1, p) % p if n % s == 0 else 0]
    B += [U * pow(j, -1, p) % p for j in range(1, (n - 2) // s + 1)]
    if sum(B) % p == 0:
        return 0
    return resultant_mod_p(psi_poly(n1), B, p)


def frame_valuation(n: int, p: int) -> int:
    """The valuation of n / L^(n-1) at a prime p <= n."""
    return int_valuation(n, p) - (n - 1) * floor_log(p, n)


def frame_valuations(n: int) -> tuple[PrimeValuation, ...]:
    """Per-prime valuations of n / L^(n-1) over all primes <= n."""
    return tuple(PrimeValuation(p, frame_valuation(n, p)) for p in primes_upto(n))


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


def disc_mod(n: int, ell: int) -> int:
    """disc F_n mod ell for a prime ell > n (so the frame is invertible); disc F_1 = 1.
    By the DFT of _split_product at ell = 1 (mod n) below 2^31, else by Euclid."""
    if n < 1:
        raise ValueError(f"disc_mod requires n >= 1, got {n}")
    if ell <= n:
        raise ValueError(f"modulus too small: {ell} <= {n}")
    if not is_prime(ell):
        raise ValueError(f"modulus must be prime, got {ell}")
    if n == 1:
        return 1
    if ell % n == 1 and ell < _NP_MAX_MOD:
        return disc_sign(n) * n * _split_product(n, ell) % ell
    frame = n * pow(_lcm_mod(n, ell), -(n - 1), ell) % ell
    return disc_sign(n) * frame * p_n_mod(n, ell) % ell


def _split_product(n: int, ell: int) -> int:
    """prod_(k=1..n-1) c(zeta^k) mod a prime ell = 1 (mod n) below 2^31, for
    c as in disc_mod_dft, zeta = g^((ell-1)/n) and the least g with
    zeta^(n/q) != 1 at each prime q | n.  Its mixed-radix DFT, sharing no
    code with disc_mod_dft's, splits rows by the least prime q | n into q
    strided rows, recurses at zeta^q and joins them by Horner in zeta^k:
    n * (sum of the prime factors of n) products of two residues < 2^31.
    """
    qs = factorize(n)
    g, d = 2, (ell - 1) // n
    while any(pow(g, (ell - 1) // q, ell) == 1 for q in qs):  # zeta^(n/q) = g^((ell-1)/q)
        g += 1
    pw = np.ones(n, dtype=np.int64)  # zeta^k, filled by doubling
    for k in (1 << i for i in range((n - 1).bit_length())):
        pw[k : 2 * k] = pw[: min(k, n - k)] * pow(g, d * k, ell) % ell
    inv = [0, 1]  # 1/j = -(ell // j) * 1/(ell mod j)
    for j in range(2, n + 1):
        inv.append((ell - ell // j) * inv[ell % j] % ell)

    def dft(a: np.ndarray, t: int, radices: list[int]) -> np.ndarray:
        s, N = a.shape  # rows a[i] of length N at w^k, k < N, for w = zeta^t of order N
        if N == 1:
            return a
        q, m = radices[0], N // radices[0]
        y = dft(a.reshape(s, m, q).swapaxes(1, 2).reshape(s * q, m), t * q, radices[1:]).reshape(s, q, m)
        w = pw[t * np.arange(N) % n].reshape(q, m)  # X[u*m + v] = sum_j w^(j*(u*m + v)) * y[j, v]
        acc = y[:, q - 1 :]  # broadcast over u from the first step
        for j in range(q - 2, -1, -1):
            acc = (acc * w + y[:, j : j + 1]) % ell
        return acc.reshape(s, N)

    c = np.array([(1 + inv[n]) % ell] + inv[1:n], dtype=np.int64)
    v = dft(c[None, :], 1, [q for q, e in sorted(qs.items()) for _ in range(e)])[0, 1:]
    while len(v) > 1:  # pairwise, to stay inside int64
        h = len(v) // 2
        v = np.concatenate([v[:h] * v[h : 2 * h] % ell, v[2 * h :]])
    return int(v[0])


def disc_mod_dft(n: int, ell: int) -> int:
    """disc F_n mod a prime ell = 1 (mod n), n < ell < 2^31.

    disc F_n = sign * n * Res(F_n', F_n), and F_n' = 1 + x + ... + x^(n-1)
    is monic with the nontrivial n-th roots of unity zeta^k as roots.
    There x^n/n = 1/n, so F_n agrees with
    c = (1 + 1/n) + x + x^2/2 + ... + x^(n-1)/(n-1), and
    disc F_n = sign * n * prod_(k=1..n-1) c(zeta^k) (mod ell): c mod ell
    is a row of inverses, and no L, A_n or big integer enters.  The row
    is the recurrence 1/j = -(ell // j) * 1/(ell mod j), from
    ell = (ell // j) * j + ell mod j with 0 < ell mod j < j.
    """
    if ell % n != 1 or not n < ell < _NP_MAX_MOD or not is_prime(ell):
        raise ValueError(f"modulus must be a prime = 1 (mod {n}) in ({n}, 2^31), got {ell}")
    inv = [0, 1]
    for j in range(2, n + 1):
        inv.append((ell - ell // j) * inv[ell % j] % ell)
    C = np.array(inv, dtype=np.int64)
    C[0] = (1 + C[n]) % ell
    (r,) = _all_ones_residues(n, C[None, :n], np.array([ell], dtype=np.int64))
    return disc_sign(n) * n * r % ell


@lru_cache(maxsize=None)
def x_of(m: int) -> Fraction:
    """X(m) = Res(1 + x + ... + x^(m-1), L_m * (F_m - 1)) / L_m^(m-1).

    Folded mod x^m - 1, the row L_m * (F_m - 1) is
    G_m = L_m * (1/m + x + x^2/2 + ... + x^(m-1)/(m-1)).  This is the
    cofactor profile entering the split-parameter residue prediction;
    X(2) = -1/2.
    """
    if m < 2:
        raise ValueError(f"x_of requires m >= 2, got {m}")
    L = lcm_upto(m)
    r = resultant_exact(m, [0] + f_tilde(m)[1:])
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
    exc = sorted(ell for ell in candidates if in_exceptional_set(m, ell))
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
