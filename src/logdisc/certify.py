"""Non-squareness certificates for truncated logarithm discriminants.

classify(n) returns a small, independently checkable Certificate, and
verify_certificate replays its claim from scratch.  n = 1 is trivial,
n = 2, 3 (mod 4) has a negative discriminant, and every other n gets the
local square class at one odd prime ell (see trunclog): disc F_n is not
a square if f = v_ell(n) - (n-1) floor(log_ell n) is odd or
(sign * n' * R | ell) = -1, for R = Res(psi_k, G) != 0 mod ell.
witness_search finds ell within _MAX_WITNESS_ATTEMPTS primes, with R from
trunclog.psi_g_resultant_by_powers; verify_failure checks it with
psi_g_resultant, after bounding ell: an odd prime below 2^64, where
is_prime is a proof, and above n only for n <= _EXACT_MAX_N.  The four
valuation kinds of older files check their shape and then the same rule
with f odd required; their non_residue_witness records take disc_mod,
and their exact kinds the exact kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import int_valuation, is_prime, is_rational_square, legendre_symbol, next_prime
from .poly import _NP_MAX_MOD
from .trunclog import disc_exact, disc_mod, disc_sign, frame_valuation, psi_g_resultant, psi_g_resultant_by_powers

# nothing here calls factorize, in_exceptional_set or p_n_mod; the names
# stay bound because perfbench traces them in certify
from .arith import factorize  # noqa: F401
from .trunclog import in_exceptional_set, p_n_mod  # noqa: F401

# fields that must be present (not None) for each kind; all others None
_REQUIRED_FIELDS = {
    "trivial_n1": (),
    "negative_sign": (),
    "local_square_class": ("ell",),
    "unresolved": (),
    "odd_valuation": ("ell",),
    "odd_prime_power_valuation": ("p", "e"),
    "split_theorem": ("m", "q"),
    "divisor_valuation": ("p", "e"),
    "non_residue_witness": ("ell", "residue"),
    "exact_non_square": (),
    "counterexample": (),
}
# every kind: the four classify emits, then those only older files hold
CERT_KINDS = tuple(_REQUIRED_FIELDS)
_OPTIONAL_FIELDS = {"unresolved": ("witness_attempts",)}
# every integer field a certificate may carry, in the order sweep files
# write them
CERT_INT_FIELDS = ("ell", "p", "e", "m", "q", "residue", "witness_attempts")
# largest n whose checks verify_failure runs at degree n: the exact kinds,
# and a local square class at a prime ell > n, where G = F_n
_EXACT_MAX_N = 1000
# primes witness_search tries before classify answers unresolved; no n in
# 2..10^5 needs more than 18 (n = 70,769)
_MAX_WITNESS_ATTEMPTS = 200
# is_prime is a deterministic Miller-Rabin, and so a proof, below this
_PROVEN_PRIME_TOP = 1 << 64


@dataclass(frozen=True)
class Certificate:
    kind: str
    ell: int | None = None
    p: int | None = None
    e: int | None = None
    m: int | None = None
    q: int | None = None
    residue: int | None = None
    witness_attempts: int | None = None


def _unit_symbol(n: int, ell: int, r: int) -> int:
    """(sign * n' * r | ell) for n' = n / ell^v_ell(n): the Legendre symbol of
    the unit part of disc F_n at an odd prime ell, given R = r != 0 mod ell."""
    return legendre_symbol(disc_sign(n) * (n // ell ** int_valuation(n, ell)) * r, ell)


def witness_search(n: int, max_attempts: int) -> int | None:
    """First prime ell at which the local square class shows that disc F_n
    is not a square, for n = 0, 1 (mod 4), n >= 4.

    The primes run upward from n/2, where m = 1, R = (-1)^(k-1) and an
    n = 1 (mod 4) needs (n | ell) = -1, which an odd square never has, so
    it starts from n/3, where m = 2.  Each prime is one attempt; one with
    G(1) = 0 or R = 0 says nothing.  None after max_attempts primes;
    ArithmeticError once the scan reaches 2^64, or passes n at
    n > _EXACT_MAX_N, where the verifier would refuse the record.
    """
    top = _PROVEN_PRIME_TOP if n <= _EXACT_MAX_N else min(n + 1, _PROVEN_PRIME_TOP)
    ell = max(2, n // 3 if n & 1 and math.isqrt(n) ** 2 == n else n // 2)  # odd primes only
    for _ in range(max_attempts):
        # no primality test from top up, where its cost grows with n
        ell = next_prime(ell) if ell < top else top
        if ell >= top:
            where = "reached 2^64" if ell >= _PROVEN_PRIME_TOP else f"passed n > {_EXACT_MAX_N}"
            raise ArithmeticError(f"witness search for n = {n} {where}")
        r = psi_g_resultant_by_powers(n, ell)
        if r and (frame_valuation(n, ell) & 1 or _unit_symbol(n, ell, r) == -1):
            return ell
    return None


def classify(n: int) -> Certificate:
    """Certificate that disc F_n is not a square of a rational."""
    if n < 1:
        raise ValueError(f"classify requires n >= 1, got {n}")
    if n == 1:
        return Certificate("trivial_n1")
    if n % 4 in (2, 3):
        return Certificate("negative_sign")
    ell = witness_search(n, _MAX_WITNESS_ATTEMPTS)
    if ell is None:
        return Certificate("unresolved", witness_attempts=_MAX_WITNESS_ATTEMPTS)
    return Certificate("local_square_class", ell=ell)


def verify_failure(n: int, cert: Certificate) -> str | None:
    """None if cert genuinely establishes its claim for this n, else why not.

    Recomputes every congruence and symbol from scratch; never trusts a
    field beyond its syntactic shape.
    """
    if not isinstance(n, int) or n < 1:
        return f"invalid n: {n!r}"
    kind = cert.kind
    if kind not in CERT_KINDS:
        return f"unknown certificate kind {kind!r}"
    required = _REQUIRED_FIELDS[kind]
    allowed = set(required) | set(_OPTIONAL_FIELDS.get(kind, ()))
    for name in CERT_INT_FIELDS:
        v = getattr(cert, name)
        if name in required and v is None:
            return f"{kind} certificate missing field {name}"
        if v is not None:
            if name not in allowed:
                return f"{kind} certificate carries stray field {name}"
            if not isinstance(v, int):
                return f"field {name} is not an integer"

    if kind == "trivial_n1":
        return None if n == 1 else "trivial route only covers n = 1"
    if kind == "negative_sign":
        if n % 4 not in (2, 3):
            return f"sign of disc F_{n} is positive"
        return None
    if kind == "non_residue_witness":
        ell, res = cert.ell, cert.residue
        if n < 2:
            return "witness route needs n >= 2"
        # the bound of the witness search that wrote these records: disc_mod
        # would hold above it (Euclid on lists), and is_prime is a proof to 2^64
        if ell >= _NP_MAX_MOD:
            return f"witness modulus has {ell.bit_length()} bits; it must lie below 2^31"
        if ell <= n or not is_prime(ell):
            return f"witness modulus {ell} is not a prime > n"
        if disc_mod(n, ell) != res % ell:
            return f"disc F_{n} mod {ell} is not {res}"
        if res % ell == 0 or legendre_symbol(res, ell) != -1:
            return f"{res} is not a non-residue mod {ell}"
        return None
    if kind in ("exact_non_square", "counterexample"):
        # older files hold these at n = 4 only, and the cost of disc_exact
        # grows steeply with n: bound n before any of it
        if n > _EXACT_MAX_N:
            return f"exact route is checked only up to n = {_EXACT_MAX_N}"
        square = is_rational_square(disc_exact(n).exact)
        if square != (kind == "counterexample"):
            return f"disc F_{n} is {'' if square else 'not '}a rational square"
        return None
    if kind == "unresolved":
        return "unresolved records certify nothing"

    # the local kinds name a prime r; each checks its own shape first, by
    # comparisons alone, so a tampered r costs no arithmetic
    if kind == "local_square_class":
        r = cert.ell
        if not (2 < r < _PROVEN_PRIME_TOP and r & 1):
            return f"{r} is not an odd number in (2, 2^64)"
        if r > n > _EXACT_MAX_N:
            return f"a prime above n is checked only up to n = {_EXACT_MAX_N}"
    elif kind == "odd_valuation":
        r = cert.ell
        if n % 4 or not (n // 2 < r < n - 2):
            return f"{r} is outside the interval ({n // 2}, {n - 2}) for n = 0 (mod 4)"
    elif kind == "odd_prime_power_valuation":
        r, e = cert.p, cert.e
        # r^e <= n needs 2 <= r <= n, e >= 1 and e * (bitlen(r) - 1) < bitlen(n),
        # as r^e >= 2^(e * (bitlen(r) - 1)): bound them before the power,
        # whose cost grows with e * bitlen(r)
        if not (2 <= r <= n and 1 <= e) or e * (r.bit_length() - 1) >= n.bit_length() or r**e != n:
            return f"n != {r}^{e}"
        if n % 4 != 1:
            return "prime power route needs n = 1 (mod 4)"
    elif kind == "divisor_valuation":
        r, e = cert.p, cert.e
        # the same bounds before the power; an even e fails the frame check
        if not (2 <= r <= n and 1 <= e) or e * (r.bit_length() - 1) >= n.bit_length() or n % r**e or n // r**e % r == 0:
            return f"{r}^{e} does not exactly divide n"
        if n % 4 != 1:
            return "divisor route needs n = 1 (mod 4)"
    else:  # split_theorem
        m, r = cert.m, cert.q
        if m < 2 or m * r != n or n % 4 != 1:
            return f"n != {m} * {r} with n = 1 (mod 4)"
        if r <= m:
            # r prime > m also forces gcd(r, m) = 1
            return f"split route needs {r} > {m}"
    # v_r(disc F_n) = f = frame_valuation(n, r) when P_n is a unit mod r;
    # the older kinds claim f odd, a local square class f odd or a
    # non-residue unit part
    if not is_prime(r):
        return f"{r} is not prime"
    f = frame_valuation(n, r)
    if f % 2 == 0 and kind != "local_square_class":
        return f"frame valuation at {r} is even"
    res = psi_g_resultant(n, r)
    if res == 0:
        return f"P_{n} vanishes mod {r}"
    if f % 2 == 0 and _unit_symbol(n, r, res) == 1:
        return f"disc F_{n} is a square at {r}: its valuation {f} is even and its unit part a residue"
    return None


def verify_certificate(n: int, cert: Certificate) -> bool:
    return verify_failure(n, cert) is None
