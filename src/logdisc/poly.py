"""Integer polynomials and exact resultants.

Polynomials are lists of int coefficients in ascending degree order
with a nonzero last entry (the zero polynomial is the empty list).

Three independent resultant routes live here:

  * resultant_mod_p   -- euclidean remainder sequence over F_p,
  * resultant_exact   -- CRT over one descending sequence of sieved
                         word-size primes, each residue by the
                         euclidean route, except that when the monic
                         argument is 1 + x + ... + x^(n-1) the
                         sequence starts with the primes p = 1 (mod n):
                         there its roots are the n-th roots of unity,
                         and g is evaluated at all of them by a
                         mixed-radix DFT.  The next prime of the
                         sequence, by the euclidean route, checks the
                         reconstructed value,
  * resultant_prs     -- subresultant pseudo-remainder sequence over Z.

The last is deliberately kept algorithmically disjoint from the first
two so it can serve as a cross-check oracle.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

# nothing here calls is_prime any more (the progressions are sieved);
# the name stays bound because perfbench traces poly.is_prime
from .arith import crt_combine, factorize, is_prime, primes_upto, symmetric_rep  # noqa: F401

IntPoly = list[int]

# below this modulus the remainder loop runs on int64 arrays, since a
# product of two residues stays inside int64; above it, on object
# arrays of Python ints
_NP_MAX_MOD = 1 << 31


def normalize(coeffs: list[int]) -> IntPoly:
    """Strip trailing zeros; the zero polynomial becomes []."""
    k = len(coeffs)
    while k and coeffs[k - 1] == 0:
        k -= 1
    return list(coeffs[:k])


def degree(p: IntPoly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


def poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return normalize(out)


def poly_eval(p: IntPoly, x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def psi_poly(n: int) -> IntPoly:
    """1 + x + ... + x^(n-1), the derivative of the degree-n truncated log."""
    if n < 2:
        raise ValueError(f"psi_poly requires n >= 2, got {n}")
    return [1] * n


def product_bound(g: list[int], d: int) -> int:
    """Bound |prod g(theta_i)| over d points on the unit circle.

    Valid whenever the monic polynomial whose roots are evaluated has
    all roots of modulus 1, as |g(theta)| <= sum |g_k| there.
    """
    if d < 0:
        raise ValueError("point count must be >= 0")
    return sum(abs(c) for c in g) ** d


def _reduce_mod(p: list[int], m: int) -> list[int]:
    return normalize([c % m for c in p])


def _polymod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a mod b over F_p; both already reduced, b nonzero."""
    db = len(b) - 1
    if len(a) - 1 < db:
        return a
    r = a.copy()
    inv = pow(int(b[-1]), -1, p)
    bl = b[:db]
    for i in range(len(r) - 1, db - 1, -1):
        c = int(r[i])
        if c:
            c = c * inv % p
            seg = r[i - db : i]
            seg -= c * bl
            seg %= p
    nz = np.flatnonzero(r[:db])
    return r[: nz[-1] + 1] if nz.size else r[:0]


def resultant_mod_p(f: list[int], g: list[int], p: int) -> int:
    """Res(f, g) mod p for f monic modulo p of degree >= 1.

    Handles any drop in the degree of g mod p; returns 0 exactly when
    f and g share a root over F_p (or g vanishes identically mod p).
    """
    a = _reduce_mod(f, p)
    if len(a) < 2 or a[-1] != 1:
        raise ValueError("f must be monic of degree >= 1 modulo p")
    dtype = np.int64 if p < _NP_MAX_MOD else object
    a, b = np.array(a, dtype=dtype), np.array(_reduce_mod(g, p), dtype=dtype)
    res = 1
    while True:
        if not len(b):
            return 0
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return res * pow(int(b[0]), da, p) % p
        r = _polymod(a, b, p)
        if not len(r):
            return 0
        if da & db & 1:
            res = p - res
        res = res * pow(int(b[-1]), da - (len(r) - 1), p) % p
        a, b = b, r


_WORD_PRIME_TOP = (1 << 31) - 1
# candidates per sieve segment: the first is small, so a caller that
# needs a prime or two pays for little more, and each next one doubles
_SEGMENT_FIRST = 64
_SEGMENT_MAX = 1 << 13


def _inverse_mod_primes(a: int, S: np.ndarray) -> np.ndarray:
    """a^-1 mod s for each prime s of S (below 2^31, not dividing a), by
    Fermat: a^(s - 2), square and multiply over all of S at once."""
    out = np.ones_like(S)
    base = a % S
    e = S - 2
    while e.any():
        out = np.where(e & 1, out * base % S, out)
        base = base * base % S
        e >>= 1
    return out


def _descending_primes_1_mod_n(n: int, top: int = _WORD_PRIME_TOP):
    """Primes p = 1 (mod n), max(n, 2) < p <= top, downward; may exhaust.

    A segmented sieve of the progression c_k = c_0 - k n.  A prime s
    that does not divide n divides c_k exactly when k = c_0 / n (mod s);
    one that does never divides c_k = 1 (mod n).  Every prime
    s <= sqrt(top) marks its class of k, except the slot where c_k = s
    itself, so the unmarked candidates are exactly the primes: the
    sieve is a primality test on its whole range.  Sieving primes below
    the segment length mark a strided slice each, the larger ones at
    most one slot each, all in one assignment.
    """
    if top > _WORD_PRIME_TOP:
        raise ValueError(f"top must be at most 2^31 - 1, got {top}")
    c0 = top - (top - 1) % n
    count = max(0, -(-(c0 - max(n, 2)) // n))  # candidates above max(n, 2)
    if not count:
        return
    S = np.array(primes_upto(math.isqrt(c0)), dtype=np.int64)
    S = S[n % S != 0]
    K = c0 % S * _inverse_mod_primes(n, S) % S  # s | c_k iff k = K (mod s)
    lo, seg = 0, _SEGMENT_FIRST
    while lo < count:
        seg = min(seg, count - lo)
        composite = np.zeros(seg, dtype=bool)
        first = (K - lo) % S
        n_small = int(np.searchsorted(S, seg))
        for s, j in zip(S[:n_small].tolist(), first[:n_small].tolist()):
            composite[j::s] = True
        big = first[n_small:]
        composite[big[big < seg]] = True
        c = c0 - n * (lo + np.arange(seg, dtype=np.int64))
        if len(S) and c[-1] <= S[-1]:
            composite[np.isin(c, S)] = False  # sieving primes in the progression
        yield from c[~composite].tolist()
        lo += seg
        seg = min(2 * seg, _SEGMENT_MAX)


def _order_n_root(n: int, p: int, n_factors: dict[int, int]) -> int:
    """An element of exact multiplicative order n mod p, for p = 1 (mod n)."""
    e = (p - 1) // n
    for a in range(2, p):
        z = pow(a, e, p)
        if z == 1:
            continue
        if all(pow(z, n // q, p) != 1 for q in n_factors):
            return z
    raise ArithmeticError(f"no order-{n} element mod {p}")  # unreachable for prime p


_BATCH = 256
# limb columns per int64 matmul: 2**15 products below 2**16 * 2**31 stay
# under 2**62
_LIMB_CHUNK = 1 << 15


def _residue_table(a: list[int], P: np.ndarray) -> np.ndarray:
    """a[j] mod P[b] as a (len(P), len(a)) int64 array.

    |a[j]| is split into 16-bit limbs and reduced against a table of
    2^(16 i) mod p by one int64 matmul per 2^15 limbs, then signs are
    fixed.
    """
    nbits = max(abs(c).bit_length() for c in a)
    L = max(1, -(-nbits // 16))
    blob = b"".join(abs(c).to_bytes(2 * L, "little") for c in a)
    limbs = np.frombuffer(blob, dtype="<u2").reshape(len(a), L).astype(np.int64)
    T = np.empty((L, len(P)), dtype=np.int64)  # T[i] = 2^(16 i) mod P
    T[0] = 1
    k = 1
    while k < L:
        T[k : 2 * k] = T[: min(k, L - k)] * (T[k - 1] * 65536 % P) % P
        k *= 2
    C = np.zeros((len(a), len(P)), dtype=np.int64)
    for s in range(0, L, _LIMB_CHUNK):
        C += limbs[:, s : s + _LIMB_CHUNK] @ T[s : s + _LIMB_CHUNK]
        C %= P
    neg = np.array([c < 0 for c in a])
    C[neg] = (P - C[neg]) % P
    return C.T


def _dft(a: np.ndarray, P: np.ndarray, pw: np.ndarray, t: int, radices: list[int]) -> np.ndarray:
    """Length-N DFTs of the rows a[b, s, :] mod P[b] at the root w = zeta^t.

    P holds the primes as a (B, 1, 1, 1) array, pw[b, e] = zeta^e mod
    P[b] for a zeta of order n = pw.shape[1], and
    w has order N = prod(radices).  Decimation in time over r =
    radices[0], N = r * m: with Y_j the length-m DFT of a[j::r] at w^r,
    X[k + m * q] = sum_j (w^m)^(j * q) * w^(j * k) * Y_j[k].  The r-point
    DFTs, and so the leaves, are direct Horner evaluations.  Every
    product of two residues below 2^31 is reduced at once.
    """
    B, s, N = a.shape
    n = pw.shape[1]
    r = radices[0]
    m = N // r
    if m > 1:
        sub = a.reshape(B, s, m, r).transpose(0, 1, 3, 2).reshape(B, s * r, m)
        y = _dft(sub, P, pw, t * r, radices[1:]).reshape(B, s, r, m)
        y = y * pw[:, None, t * np.outer(np.arange(r), np.arange(m)) % n] % P
    else:
        y = a.reshape(B, s, r, 1)
    x = pw[:, None, t * m * np.arange(r) % n, None]
    acc = np.repeat(y[:, :, r - 1 :], r, axis=2)
    for j in range(r - 2, -1, -1):
        acc *= x
        acc += y[:, :, j : j + 1]
        acc %= P
    return acc.reshape(B, s, N)


def _unity_dft(n: int, g: list[int], primes: list[int]) -> np.ndarray:
    """g(zeta^k) mod p for k = 0 .. n-1, one row per prime p = 1 (mod n),
    where zeta = _order_n_root(n, p); g may be longer than n."""
    n_factors = factorize(n)
    radices = [q for q, e in sorted(n_factors.items()) for _ in range(e)]
    a = [0] * n  # g mod x^n - 1, zero-padded to length n
    for i, c in enumerate(g):
        a[i % n] += c
    P = np.array(primes, dtype=np.int64)
    Z = np.array([_order_n_root(n, p, n_factors) for p in primes], dtype=np.int64)
    pw = np.empty((len(primes), n), dtype=np.int64)
    pw[:, 0] = 1
    for k in range(1, n):
        pw[:, k] = pw[:, k - 1] * Z % P
    C = _residue_table(a, P)
    return _dft(C[:, None, :], P[:, None, None, None], pw, 1, radices)[:, 0, :]


def _all_ones_residues(n: int, g: list[int], primes: list[int]) -> list[int]:
    """Res(1 + x + ... + x^(n-1), g) mod p for each p = 1 (mod n).

    The roots are the nontrivial n-th roots of unity, all of which exist
    in F_p, so the resultant is the product of g(zeta^k), k = 1 .. n-1:
    all but the first value of a length-n DFT of g mod x^n - 1.  The DFT
    is mixed-radix over the prime factors of n, about n * (sum of those
    factors) products per prime instead of n^2, and runs as int64
    arrays over batches of primes.
    """
    out: list[int] = []
    for i in range(0, len(primes), _BATCH):
        batch = primes[i : i + _BATCH]
        Pc = np.array(batch, dtype=np.int64)[:, None]
        acc = _unity_dft(n, g, batch)[:, 1:]
        # fold the row products pairwise to stay inside int64
        while acc.shape[1] > 1:
            half = acc.shape[1] // 2
            head = acc[:, :half] * acc[:, half : 2 * half] % Pc
            if acc.shape[1] & 1:
                head = np.concatenate([head, acc[:, -1:]], axis=1)
            acc = head
        out.extend(int(v) for v in acc[:, 0])
    return out


def _is_all_ones(f: list[int]) -> bool:
    return len(f) >= 2 and all(c == 1 for c in f)


def resultant_exact(f: list[int], g: list[int], bound: int) -> int:
    """Exact Res(f, g) for monic f, via CRT over word-size primes.

    The caller must supply bound >= |Res(f, g)|.  Moduli are taken from
    one descending prime sequence until their product exceeds 2 * bound,
    after which the symmetric residue is the exact integer.  For
    f = 1 + x + ... + x^(n-1) the sequence is the primes p = 1 (mod n),
    whose residues come from _all_ones_residues, then, should that
    progression run out, the word primes p != 1 (mod n); for any other
    f it is the word primes.  Every other residue comes from
    resultant_mod_p.  The next prime of the sequence then checks the
    value against resultant_mod_p, so a bound below the true magnitude
    raises ArithmeticError, unless the wrong value happens to agree
    modulo that prime too.  See product_bound for a rigorous bound.
    """
    f = normalize(f)
    g = normalize(g)
    if len(f) < 2 or f[-1] != 1:
        raise ValueError("f must be monic of degree >= 1")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if not g:
        return 0
    target = 2 * bound
    n = len(f)

    all_ones = _is_all_ones(f)
    primes = _descending_primes_1_mod_n(2)
    if all_ones:
        primes = chain(_descending_primes_1_mod_n(n), (p for p in primes if p % n != 1))
    moduli: list[int] = []
    M = 1
    while M <= target:
        p = next(primes)
        moduli.append(p)
        M *= p
    k = sum(p % n == 1 for p in moduli) if all_ones else 0
    residues = _all_ones_residues(n, g, moduli[:k])
    residues += [resultant_mod_p(f, g, p) for p in moduli[k:]]

    # symmetric representative; an actual zero resultant lands on 0 here
    R = symmetric_rep(*crt_combine(list(zip(residues, moduli))))
    # Euclid at the next prime of the sequence is independent of the DFT
    check = next(primes)
    if resultant_mod_p(f, g, check) != R % check:
        raise ArithmeticError(
            f"resultant_exact: the CRT value disagrees with Res(f, g) mod {check}; "
            f"the bound (a {bound.bit_length()}-bit integer) is below |Res(f, g)|"
        )
    return R


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

    Independent of the modular machinery above: pure integer pseudo-
    division with the classical content/sign bookkeeping.
    """
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
