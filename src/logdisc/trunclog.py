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
evaluates L * F_n (f_tilde) folded mod x^n - 1.  Mod a prime ell, with
s = ell^E <= n < ell * s and the unit U = L / s, A_n / U = G(x^s) for
G(y) = s + y + ... + y^m/m, m = n // s, and P_n / U^(k-1) = Res(psi_k, G)
(psi_g_resultant): at ell <= n, s = 0 mod ell and no row has length n;
at ell > n, s = 1 and G = F_n.  L enters only P_n's own value, in p_n_mod,
and cancels in disc_mod.  The witness search takes disc F_n mod ell from
F_n itself, as sign * n * Res(F_n', F_n) (disc_mod_dft).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import DEFAULT_RHO_BUDGET, PrimeValuation, factorize, floor_log, harmonic, int_valuation
from .arith import is_prime, lcm_upto, primes_upto
from .poly import _NP_MAX_MOD, _all_ones_residues, _polymod_list, resultant_exact, resultant_mod_p


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


def _lcm_mod(n: int, ell: int) -> int:
    """U = L / ell^E mod ell for L = lcm(1..n) = ell^E * U: the maximal prime
    powers <= n but ell's (U = L when ell > n); a prime above sqrt(n) enters once."""
    out = 1
    for p in primes_upto(n):
        if p != ell:
            out = out * (p if p * p > n else p ** floor_log(p, n)) % ell
    return out


def psi_g_resultant(n: int, ell: int) -> int:
    """Res(psi_k, G) mod a prime ell, G(y) = s + y + y^2/2 + ... + y^m/m for
    s = ell^floor(log_ell n), 1 at ell > n, and m = n // s: P_n / U^(k-1), U = L / s.

    L * F_n / U = G(x^s) mod ell, as L/j / U = s/j is 0 unless s | j, and
    y -> y^s permutes the roots of psi_k: k = n if ell does not divide n,
    and G = F_n at ell > n.  Else x^n - 1 = (x^k - 1)^(ell^v) for
    k = n / ell^v, and P_n = 0 if G(1) = 0.  At s = 1 and ell = 1 (mod n)
    below 2^31 the DFT of _split_product takes G folded mod x^n - 1;
    else Euclid, or psi_k mod the monic H = m * G / y doubles on Python lists.
    """
    s = ell ** floor_log(ell, n)
    m = n // s
    G = [s % ell, 1] + [0] * (m - 1)  # whole first: a hopeless m fails here, not in the loop
    for j in range(2, m + 1):  # 1/j = -(ell // j) / (ell mod j)
        G[j] = (ell - ell // j) * G[ell % j] % ell
    k = n // ell ** int_valuation(n, ell)
    if k < n and sum(G) % ell == 0:  # ell | n and G(1) = 0
        return 0
    if k == 1:
        return 1
    if s == 1 and ell % n == 1 and ell < _NP_MAX_MOD:  # x^n = 1: c_0 = 1 + 1/n
        return _split_product(np.array([(1 + G[n]) % ell] + G[1:n], dtype=np.int64), ell)
    if k - 1 <= m:  # every n = p * q divisor record (k = m) and every ell > n (k = n)
        return resultant_mod_p([1] * k, G, ell)
    # Res(psi_k, y) = (-1)^(k-1) = Res(psi_k, G) at m = 1, every interval
    # prime; Res(psi_k, G / y) = m^(1-k) (-1)^((k-1)(m-1)) Res(H, psi_k mod H)
    if m == 1:
        return (-1) ** (k - 1) % ell
    d, H = m - 1, [m * c % ell for c in G[1:]]
    w = (2 * m * ell * ell).bit_length()  # bits per coefficient, packed

    def pack(c: list[int]) -> int:
        return sum(v << w * i for i, v in enumerate(c))
    def unpack(z: int, count: int) -> list[int]:
        return [(z >> w * i & (1 << w) - 1) % ell for i in range(count)]
    def times_x(c: list[int], c0: int) -> list[int]:  # c0 + x * c mod (H, ell)
        return [(u - c[-1] * h) % ell for u, h in zip([c0] + c[:-1], H)]
    def mul(a: list[int], b: list[int]) -> list[int]:  # a * b mod (H, ell), by Kronecker substitution
        c = unpack(pack(a) * pack(b), 2 * d - 1)
        return unpack(pack(c[:d]) + sum(u * t for u, t in zip(c[d:], T)), d)

    row = [0] * (d - 1) + [1]  # x^(d-1); T packs x^d, ..., x^(2d-2) mod H
    T = [pack(row := times_x(row, 0)) for _ in range(d - 1)]
    S = [0] * d  # psi_0; psi_(j+1) = 1 + x psi_j, so 1 + x^j = 2 + x psi_j - psi_j
    for bit in bin(k)[2:]:
        S = mul(S, [(u - v) % ell for u, v in zip(times_x(S, 2), S)])  # psi_2j = psi_j (1 + x^j)
        if bit == "1":
            S = times_x(S, 1)
    return (-1) ** ((k - 1) * m) * pow(m, 1 - k, ell) * resultant_mod_p(H, S, ell) % ell


def p_n_mod(n: int, ell: int) -> int:
    """P_n mod a prime ell as U^(n-1) * psi_g_resultant(n, ell), U = _lcm_mod(n, ell),
    the one use of L: U^(k-1) = U^(n-1) as ell - 1 divides n - k."""
    if n < 2:
        raise ValueError(f"p_n_mod requires n >= 2, got {n}")
    if not is_prime(ell):
        raise ValueError(f"modulus must be prime, got {ell}")
    return pow(_lcm_mod(n, ell), n - 1, ell) * psi_g_resultant(n, ell) % ell


def p_n_unit_at_divisor(n: int, p: int) -> bool:
    """Whether P_n != 0 mod a prime p | n, by a resultant of degree <= (n - 2) // s.

    Mod p, with s = p^floor(log_p n) and L = s * U, A_n = U * B(x^s) for
    B(y) = (1/(n/s) if s | n else 0) + sum_(1 <= j <= (n-2)/s) y^j / j.
    x^n - 1 = (x^n' - 1)^(p^v) with n' = n / p^v, v = v_p(n), and y -> y^s
    permutes the n'-th roots of unity: P_n = U^(n'-1) * Res(psi_n', B) if
    B(1) != 0, else 0, and the unit U is never computed.  At p^(v+1) > n,
    psi_n' is no longer than B; else, with B(1) != 0, Res(psi_n', B) = 0
    exactly when Res(B / lc B, (x^n' mod B) - 1) = 0, x^n' by squaring.
    """
    if n < 2 or n % p:
        raise ValueError(f"p_n_unit_at_divisor requires a prime divisor of n >= 2, got {p} for n = {n}")
    n1 = n // p ** int_valuation(n, p)
    if n1 == 1:
        return True  # n = s, and B = [1]
    s = p ** floor_log(p, n)
    B = [pow(n // s, -1, p) if n % s == 0 else 0] + [pow(j, -1, p) for j in range(1, (n - 2) // s + 1)]
    if sum(B) % p == 0:
        return False
    if n1 <= len(B):
        return resultant_mod_p([1] * n1, B, p) != 0
    inv = pow(B[-1], -1, p)
    B, r = [c * inv % p for c in B], [1]
    for bit in bin(n1)[2:]:  # r = x^j mod B; x^2j, then x^(2j+1) = x * x^2j
        sq = [0] * (2 * len(r) - 1 + (bit == "1"))
        for i, u in enumerate(r, bit == "1"):
            for j, v in enumerate(r, i):
                sq[j] += u * v
        r = _polymod_list([c % p for c in sq], B, p)
    return resultant_mod_p(B, [(r[0] if r else 0) - 1] + r[1:], p) != 0


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
    """disc F_n mod a prime ell > n as sign * n * Res(psi_n, F_n) = sign * n *
    psi_g_resultant(n, ell), L^(n-1) cancelling in the frame; disc F_1 = 1."""
    if n < 1:
        raise ValueError(f"disc_mod requires n >= 1, got {n}")
    if ell <= n:
        raise ValueError(f"modulus too small: {ell} <= {n}")
    if not is_prime(ell):
        raise ValueError(f"modulus must be prime, got {ell}")
    return disc_sign(n) * n * psi_g_resultant(n, ell) % ell


def _split_product(c: np.ndarray, ell: int) -> int:
    """prod_(k=1..n-1) c(zeta^k) mod a prime ell = 1 (mod n) below 2^31, for
    an int64 row c of length n, zeta = g^((ell-1)/n) and the least g with
    zeta^(n/q) != 1 at each prime q | n.  Its mixed-radix DFT, sharing no
    code with disc_mod_dft's, splits rows by the least prime q | n into q
    strided rows, recurses at zeta^q and joins them by Horner in zeta^k:
    n * (sum of the prime factors of n) products of two residues < 2^31.
    """
    n = len(c)
    qs = factorize(n)
    g, d = 2, (ell - 1) // n
    while any(pow(g, (ell - 1) // q, ell) == 1 for q in qs):  # zeta^(n/q) = g^((ell-1)/q)
        g += 1
    pw = np.ones(n, dtype=np.int64)  # zeta^k, filled by doubling
    for k in (1 << i for i in range((n - 1).bit_length())):
        pw[k : 2 * k] = pw[: min(k, n - k)] * pow(g, d * k, ell) % ell

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
