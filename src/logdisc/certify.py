"""Non-squareness certificates for truncated logarithm discriminants.

classify(n) picks the cheapest available route and returns a small,
independently checkable Certificate; verify_certificate replays the
claim from scratch.  Routes, in the order tried:

  * n = 1                     trivial (linear polynomial)
  * n = 2, 3 (mod 4)          negative discriminant
  * n = 0 (mod 4), n >= 8     odd valuation at a prime in (n/2, n-2)
  * p^e || n, e odd           odd valuation at p, if P_n mod p != 0,
                              tried over such p, largest first
  * otherwise, n = 4 too      quadratic non-residue witness search;
                              unresolved if no witness turns up within
                              max_witness_attempts primes

The producer runs no Euclid of degree n, no exact arithmetic and never
computes L: the interval route is chosen from the shape of n, the divisor
route asks by one small resultant whether P_n is a unit mod p
(trunclog.p_n_unit_at_divisor), and witnesses are primes ell = 1 (mod n),
where a DFT over the n-th roots of unity gives disc F_n mod ell straight
from the coefficients of F_n.  verify_failure checks the four valuation
kinds, among them odd_prime_power_valuation (n = p^e) and split_theorem
(n = m*q) that older files hold, by one rule (prime r, odd frame
valuation, P_n / U^(k-1) = Res(psi_k, G) mod r nonzero, trunclog's
psi_g_resultant, sharing no code with p_n_unit_at_divisor), never
consults E_m, and takes a witness at any prime n < ell < 2^31 from the
same psi_g_resultant, where G = F_n (disc_mod): by its own DFT at
ell = 1 (mod n), by Euclid at older files' ell, and older files' exact
kinds by the exact kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .arith import factorize, is_prime, is_rational_square, legendre_symbol, next_prime
from .poly import _NP_MAX_MOD
from .trunclog import disc_exact, disc_mod, disc_mod_dft, frame_valuation, p_n_unit_at_divisor, psi_g_resultant

# nothing here calls in_exceptional_set or p_n_mod; the names stay bound
# because perfbench traces certify.in_exceptional_set and certify.p_n_mod
from .trunclog import in_exceptional_set, p_n_mod  # noqa: F401

# fields that must be present (not None) for each kind; all others None
_REQUIRED_FIELDS = {
    "trivial_n1": (),
    "negative_sign": (),
    "odd_valuation": ("ell",),
    "odd_prime_power_valuation": ("p", "e"),
    "split_theorem": ("m", "q"),
    "divisor_valuation": ("p", "e"),
    "non_residue_witness": ("ell", "residue"),
    "exact_non_square": (),
    "counterexample": (),
    "unresolved": (),
}
# every kind: those classify emits, in the order it tries them, and
# the theorem and exact kinds, which only older files hold
CERT_KINDS = tuple(_REQUIRED_FIELDS)
_OPTIONAL_FIELDS = {"unresolved": ("witness_attempts",)}
# every integer field a certificate may carry, in the order sweep files
# write them
CERT_INT_FIELDS = ("ell", "p", "e", "m", "q", "residue", "witness_attempts")
_EXACT_MAX_N = 1000  # largest n whose exact claims verify_failure recomputes


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


@dataclass(frozen=True)
class ClassifyConfig:
    max_witness_attempts: int = 200


def bertrand_prime(n: int) -> int:
    """Smallest prime in the open interval (n/2, n-2), for n = 0 (mod 4), n >= 8.

    Existence is a Bertrand-type fact for this range; running off the
    end would falsify it, so that raises rather than returning junk.
    """
    if n < 8 or n % 4:
        raise ValueError(f"bertrand_prime requires n = 0 (mod 4), n >= 8, got {n}")
    ell = next_prime(n // 2)
    if ell >= n - 2:
        raise ArithmeticError(f"no prime in ({n // 2}, {n - 2})")
    return ell


def witness_search(n: int, max_attempts: int) -> tuple[int, int] | None:
    """First (ell, disc F_n mod ell) with the residue a quadratic
    non-residue, over the primes ell = 1 (mod n) above n, upward.

    Each prime is one attempt and one disc_mod_dft call; a zero residue
    says nothing.  None after max_attempts primes; ArithmeticError once
    the scan reaches 2^31, where the int64 DFT stops.
    """
    primes = (ell for ell in range(n + 1, _NP_MAX_MOD, n) if is_prime(ell))
    tried = 0
    for tried, ell in enumerate(islice(primes, max_attempts), 1):
        r = disc_mod_dft(n, ell)
        if r and legendre_symbol(r, ell) == -1:
            return ell, r
    if tried < max_attempts:
        raise ArithmeticError(f"witness search for n = {n} reached 2^31")
    return None


def classify(n: int, config: ClassifyConfig | None = None) -> Certificate:
    """Certificate that disc F_n is not a square of a rational.

    The interval route is chosen from the shape of n alone: its
    congruence keeps P_n a unit at ell, and verify_failure rechecks it.
    The divisor route evaluates P_n mod p before it claims a unit.
    """
    cfg = config or ClassifyConfig()
    if n < 1:
        raise ValueError(f"classify requires n >= 1, got {n}")
    if n == 1:
        return Certificate("trivial_n1")
    if n % 4 in (2, 3):
        return Certificate("negative_sign")

    if n % 4 == 0 and n > 4:
        return Certificate("odd_valuation", ell=bertrand_prime(n))

    # n = 1 (mod 4), or n = 4: its interval (2, 2) is empty, and 4 = 2^2 has no odd exponent
    fac = factorize(n)
    for p in sorted((p for p, e in fac.items() if e & 1), reverse=True):
        if p_n_unit_at_divisor(n, p):
            return Certificate("divisor_valuation", p=p, e=fac[p])

    found = witness_search(n, cfg.max_witness_attempts)
    if found is not None:
        return Certificate("non_residue_witness", ell=found[0], residue=found[1])
    return Certificate("unresolved", witness_attempts=cfg.max_witness_attempts)


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
        # witness_search's bound, kept to match its range: disc_mod would
        # hold above it (Euclid on lists), and is_prime is a proof to 2^64
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

    # the valuation kinds name a prime r; each checks its own shape first
    if kind == "odd_valuation":
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
    # v_r(disc F_n) = frame_valuation(n, r) + v_r(P_n) is odd when the
    # first term is odd and P_n is a unit mod r
    if not is_prime(r):
        return f"{r} is not prime"
    if frame_valuation(n, r) % 2 == 0:
        return f"frame valuation at {r} is even"
    if psi_g_resultant(n, r) == 0:
        return f"P_{n} vanishes mod {r}"
    return None


def verify_certificate(n: int, cert: Certificate) -> bool:
    return verify_failure(n, cert) is None
