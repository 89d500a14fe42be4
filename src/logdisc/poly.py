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
# the first division of resultant_mod_p, f mod g, takes _sparse_polymod
# when g mod p has at most deg(g) / _SPARSE_DIV nonzero coefficients
# below its top
_SPARSE_DIV = 8


def normalize(coeffs: list[int]) -> IntPoly:
    """Strip trailing zeros; the zero polynomial becomes []."""
    k = len(coeffs)
    while k and coeffs[k - 1] == 0:
        k -= 1
    return list(coeffs[:k])


def degree(p: IntPoly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


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


def _polymod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a mod b over F_p; both already reduced, b nonzero.

    Works in place: a is overwritten, and the remainder returned is a
    view of it, so the caller must not use a afterwards.  A quotient step
    lowers a coefficient by at most (p - 1)^2, so on int64 arrays, while
    steps * (p - 1)^2 + p < 2^63, the steps skip their reductions and the
    remainder is reduced once, at the end.
    """
    db = len(b) - 1
    if len(a) - 1 < db:
        return a
    lazy = a.dtype != object and (len(a) - db) * (p - 1) ** 2 + p < 1 << 63
    inv = pow(int(b[-1]), -1, p)
    bl = b[:db]
    prod = np.empty_like(bl)
    for i in range(len(a) - 1, db - 1, -1):
        c = int(a[i]) * inv % p
        if c:
            seg = a[i - db : i]
            np.multiply(bl, c, out=prod)
            seg -= prod
            if not lazy:
                seg %= p
    if lazy:
        a[:db] %= p
    k = db
    while k and not a[k - 1]:
        k -= 1
    return a[:k]


def _sparse_polymod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """_polymod by a loop over Python ints that touches only the
    nonzero columns of b below its top: for each quotient term, one
    update per such column and no numpy call."""
    db = len(b) - 1
    r = a.tolist()
    inv = pow(int(b[-1]), -1, p)
    cols = [(j, p - c) for j, c in enumerate(b[:db].tolist()) if c]  # (j, -b_j)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            c = c * inv % p
            base = i - db
            for j, m in cols:
                r[base + j] = (r[base + j] + c * m) % p
    return np.array(normalize(r[:db]), dtype=a.dtype)


def resultant_mod_p(f: list[int], g: list[int], p: int) -> int:
    """Res(f, g) mod p for f monic modulo p of degree >= 1.

    Handles any drop in the degree of g mod p; returns 0 exactly when
    f and g share a root over F_p (or g vanishes identically mod p).
    The loop is euclid over F_p on numpy arrays (int64 below
    _NP_MAX_MOD, Python ints above), on copies of f and g, never on the
    caller's lists.  Whether the first division f mod g runs on the
    nonzero columns of g alone (_sparse_polymod) is decided once per
    call, from g mod p only; every later division is dense (_polymod).
    A dense int64 division reduces once, at its end, while steps * (p - 1)^2 + p < 2^63.
    """
    a = normalize([c % p for c in f])
    if len(a) < 2 or a[-1] != 1:
        raise ValueError("f must be monic of degree >= 1 modulo p")
    dtype = np.int64 if p < _NP_MAX_MOD else object
    a, b = np.array(a, dtype=dtype), np.array(normalize([c % p for c in g]), dtype=dtype)
    sparse = np.count_nonzero(b[:-1]) * _SPARSE_DIV <= len(b) - 1
    polymod = _sparse_polymod if sparse else _polymod
    res = 1
    while True:
        if not len(b):
            return 0
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return res * pow(int(b[0]), da, p) % p
        r = polymod(a, b, p)
        polymod = _polymod
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


def _pow_mod(base: np.ndarray, e, P: np.ndarray) -> np.ndarray:
    """base^e mod P elementwise, for residues base of moduli P below 2^31
    and exponents e >= 0, all three broadcast together: square and
    multiply over the bits of the largest exponent, every product
    inside int64."""
    out = np.ones(np.broadcast(base, e, P).shape, dtype=np.int64)
    e = np.array(e, dtype=np.int64)  # a copy, shifted in place
    while e.any():
        out = np.where(e & 1, out * base % P, out)
        base = base * base % P
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
    K = c0 % S * _pow_mod(n % S, S - 2, S) % S  # n^-1 by Fermat; s | c_k iff k = K (mod s)
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
    """An element of exact multiplicative order n mod p, for p = 1 (mod n):
    z = a^((p - 1) / n) for the first base a = 2, 3, ... with
    z^(n / q) != 1 for every prime q | n.  Prime by prime, two to a few
    dozen pow calls each; _order_n_roots runs the same scan over a batch.
    """
    e = (p - 1) // n
    for a in range(2, p):
        z = pow(a, e, p)
        if z == 1:
            continue
        if all(pow(z, n // q, p) != 1 for q in n_factors):
            return z
    raise ArithmeticError(f"no order-{n} element mod {p}")  # unreachable for prime p


# _order_n_roots scans a batch of at least _ROOTS_VEC_MIN primes with
# numpy, all primes at once, and a smaller one prime by prime.  For
# primes near 2^31 (one x86 core), the loop is faster at 32 primes and
# numpy at 48, both for n = 20..40 (x_of) and n = 100..128 and 333
_ROOTS_VEC_MIN = 48
# its first round tries the bases 2 .. _ROOTS_FIRST_TOP - 1; each later
# round, on the primes still without a root, the bases up to twice the top
_ROOTS_FIRST_TOP = 17


def _order_n_roots(n: int, primes: list[int], n_factors: dict[int, int]) -> np.ndarray:
    """_order_n_root(n, p, n_factors) for each p of primes, as an int64 array.

    A batch of at least _ROOTS_VEC_MIN primes runs the scan in rounds over
    blocks of bases.  In a round, z_a = a^((p - 1) / n) mod p comes from one
    _pow_mod over all primes for each prime base a, and as z_d * z_(a/d)
    for a composite a with least prime factor d.  A base passes for p when
    z_a^(n / q) != 1 for every prime q | n (which implies z_a != 1), and
    each prime takes its first passing base, as the scalar scan does.
    Primes with none go on to the next round alone.  Bases a >= p act as
    a mod p; for prime p the first passing base is below p.
    """
    if len(primes) < _ROOTS_VEC_MIN:
        return np.array([_order_n_root(n, p, n_factors) for p in primes], dtype=np.int64)
    P = np.array(primes, dtype=np.int64)
    Z = np.empty_like(P)
    qe = np.array([n // q for q in n_factors])[:, None]
    todo = np.arange(len(P))  # primes without a root yet
    # R[a, :, i] = z_a, then z_a^(n / q) for each q, mod P[todo[i]]; rows
    # 0 and 1 only pad, so that R is indexed by the base
    R = np.zeros((2, len(qe) + 1, len(P)), dtype=np.int64)
    lo, hi = 2, _ROOTS_FIRST_TOP
    while len(todo):
        Pt = P[todo]
        lpf = {a: next(d for d in range(2, a + 1) if a % d == 0) for a in range(lo, hi)}
        bases = [a for a, d in lpf.items() if d == a]
        z = _pow_mod(np.array(bases)[:, None] % Pt, (Pt - 1) // n, Pt)[:, None]
        R = np.concatenate([R, np.empty((hi - lo,) + R.shape[1:], dtype=np.int64)])
        R[bases] = np.concatenate([z, _pow_mod(z, qe, Pt)], axis=1)
        for a, d in lpf.items():
            if d != a:
                R[a] = R[d] * R[a // d] % Pt
        ok = (R[lo:, 1:] != 1).all(axis=1)
        hit = ok.any(axis=0)
        Z[todo[hit]] = R[lo + ok.argmax(axis=0)[hit], 0, hit]
        todo = todo[~hit]
        R = R[:, :, ~hit]
        lo, hi = hi, 2 * hi
    return Z


_BATCH = 256
# limb columns per int64 matmul: 2**15 products below 2**16 * 2**31 stay
# under 2**62
_LIMB_CHUNK = 1 << 15
# _dft takes a radix r with _MATMUL_RADIX <= r < _MATMUL_RADIX_TOP as one
# int64 matmul over 16-bit limbs and any other radix by Horner; r
# products below 2**16 * 2**31 sum to less than 2**63 while r < 2**16
_MATMUL_RADIX = 11
_MATMUL_RADIX_TOP = 1 << 16
# the matmul builds its matrix of roots for at most _MATMUL_PRIMES primes
# and _MATMUL_CELLS entries at a time
_MATMUL_PRIMES = 32
_MATMUL_CELLS = 1 << 17


def _power_table(base: np.ndarray, P: np.ndarray, count: int) -> np.ndarray:
    """base[b]^e mod P[b] for e = 0 .. count - 1, as a (len(P), count)
    int64 array, for residues base[b] of primes P[b] below 2^31.

    Filled by doubling, T[:, k:2k] = T[:, :k] * base^k, so in
    ceil(log2 count) products rather than one per column.
    """
    Pc = P[:, None]
    T = np.empty((len(P), count), dtype=np.int64)
    T[:, 0] = 1
    k = 1
    while k < count:
        step = T[:, k - 1 : k] * base[:, None] % Pc  # base^k
        j = min(k, count - k)
        T[:, k : k + j] = T[:, :j] * step % Pc
        k *= 2
    return T


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
    T = _power_table(65536 % P, P, L).T  # T[i] = 2^(16 i) mod P
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
    X[k + m * q] = sum_j (w^m)^(j * q) * w^(j * k) * Y_j[k].  Every
    product of two residues below 2^31 is reduced at once.

    The r-point DFTs, and so the leaves, are direct evaluations.  A
    radix below _MATMUL_RADIX, or at or above _MATMUL_RADIX_TOP, takes
    r - 1 Horner steps.  Any other radix takes one int64 matmul by
    W[b, q, j] = (w^m)^(q * j) mod P[b], with the Y_j[k] split into
    16-bit limbs hi * 2^16 + lo: each sum of r products of a limb and a
    residue, and then (sum over hi mod P[b]) * 2^16 + (sum over lo),
    stays below (r + 1) * 2^47 <= 2^63, and is reduced once.
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
    if not _MATMUL_RADIX <= r < _MATMUL_RADIX_TOP:
        x = pw[:, None, t * m * np.arange(r) % n, None]
        acc = np.repeat(y[:, :, r - 1 :], r, axis=2)
        for j in range(r - 2, -1, -1):
            acc *= x
            acc += y[:, :, j : j + 1]
            acc %= P
        return acc.reshape(B, s, N)
    # W is symmetric, so X^T = y^T W: the rows y[b, s, :, k] enter as their
    # low limbs, then as their high limbs, and X = hi * 2^16 + lo mod P
    sm = s * m
    yt = y.transpose(0, 1, 3, 2).reshape(B, sm, r)
    X = np.empty((B, s, r, m), dtype=np.int64)
    bp = max(1, min(_MATMUL_PRIMES, _MATMUL_CELLS // (r * r)))
    bq = max(1, min(r, _MATMUL_CELLS // (bp * r)))
    for q in range(0, r, bq):
        # rows q .. q + bq - 1 of W are pw[:, e]
        e = np.outer(np.arange(q, min(q + bq, r)), t * m * np.arange(r) % n) % n
        for i in range(0, B, bp):
            yc, Pc = yt[i : i + bp], P[i : i + bp, 0]
            W = np.take(pw[i : i + bp], e, axis=1)
            prod = np.concatenate([yc & 0xFFFF, yc >> 16], axis=1) @ W.transpose(0, 2, 1)
            lo, hi = prod[:, :sm], prod[:, sm:]
            hi %= Pc
            hi <<= 16
            hi += lo
            np.remainder(hi.reshape(-1, s, m, len(e)), Pc[..., None],
                         out=X[i : i + bp, :, q : q + bq].transpose(0, 1, 3, 2))
    return X.reshape(B, s, N)


def _unity_dft(n: int, g: list[int], primes: list[int]) -> np.ndarray:
    """g(zeta^k) mod p for k = 0 .. n-1, one row per prime p = 1 (mod n),
    where zeta = _order_n_root(n, p); g may be longer than n.

    The roots zeta come from _order_n_roots, vectorized over the batch
    from _ROOTS_VEC_MIN primes up and prime by prime below; the powers
    zeta^e mod p, e < n, from _power_table by doubling; the coefficients
    of g mod x^n - 1 mod p from _residue_table; and the DFT from _dft.
    """
    n_factors = factorize(n)
    radices = [q for q, e in sorted(n_factors.items()) for _ in range(e)]
    a = [0] * n  # g mod x^n - 1, zero-padded to length n
    for i, c in enumerate(g):
        a[i % n] += c
    P = np.array(primes, dtype=np.int64)
    pw = _power_table(_order_n_roots(n, primes, n_factors), P, n)
    C = _residue_table(a, P)
    return _dft(C[:, None, :], P[:, None, None, None], pw, 1, radices)[:, 0, :]


def _all_ones_residues(n: int, g: list[int], primes: list[int]) -> list[int]:
    """Res(1 + x + ... + x^(n-1), g) mod p for each p = 1 (mod n).

    The roots are the nontrivial n-th roots of unity, all of which exist
    in F_p, so the resultant is the product of g(zeta^k), k = 1 .. n-1:
    all but the first value of a length-n DFT of g mod x^n - 1.  The DFT
    is mixed-radix over the prime factors of n, about n * (sum of those
    factors) products per prime instead of n^2, and runs as int64
    arrays over batches of primes: Horner steps for the small factors,
    one int64 matmul for each factor from _MATMUL_RADIX up (see _dft).
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

    all_ones = all(c == 1 for c in f)
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
