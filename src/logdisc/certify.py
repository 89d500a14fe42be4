"""Non-squareness certificates for truncated logarithm discriminants.

classify(n) picks the cheapest available route and returns a small,
independently checkable Certificate; verify_certificate replays the
claim from scratch.  Routes, in the order tried:

  * n = 1                     trivial (linear polynomial)
  * n = 2, 3 (mod 4)          negative discriminant
  * n = 0 (mod 4), n > 4      odd valuation at a prime in (n/2, n-2)
  * n = p^e, e odd            odd valuation at p
  * n = m*q, prime q > m      split congruence forces odd valuation,
                              unless q lands in the exceptional set E_m
  * otherwise                 quadratic non-residue witness search,
                              then exact computation as a last resort
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import (
    factorize,
    floor_log,
    int_valuation,
    is_prime,
    is_rational_square,
    legendre_symbol,
    next_prime,
)
from .trunclog import disc_exact, disc_mod, in_exceptional_set, p_n_mod

# fields that must be present (not None) for each kind; all others None
_REQUIRED_FIELDS = {
    "trivial_n1": (),
    "negative_sign": (),
    "odd_valuation": ("ell",),
    "odd_prime_power_valuation": ("p", "e"),
    "split_theorem": ("m", "q"),
    "non_residue_witness": ("ell", "residue"),
    "exact_non_square": (),
    "counterexample": (),
    "unresolved": (),
}
# every kind, in classify order
CERT_KINDS = tuple(_REQUIRED_FIELDS)
_OPTIONAL_FIELDS = {"unresolved": ("witness_attempts",)}
# every integer field a certificate may carry, in the order sweep files
# write them
CERT_INT_FIELDS = ("ell", "p", "e", "m", "q", "residue", "witness_attempts")


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
    allow_exact_fallback: bool = True
    exact_degree_cap: int = 1000


def bertrand_prime(n: int) -> int:
    """Smallest prime in the open interval (n/2, n-2), for n = 0 (mod 4), n >= 8.

    Existence is a Bertrand-type fact for this range; running off the
    end would falsify it, so that raises rather than returning junk.
    """
    if n < 8 or n % 4:
        raise ValueError(f"bertrand_prime requires n = 0 (mod 4), n >= 8, got {n}")
    for c in range(n // 2 + 1, n - 2):
        if is_prime(c):
            return c
    raise ArithmeticError(f"no prime in ({n // 2}, {n - 2})")


def witness_search(n: int, max_attempts: int) -> tuple[int, int] | None:
    """Scan primes ell > n for disc F_n mod ell a quadratic non-residue.

    Returns (ell, residue) on success.  Zero residues are skipped: they
    say nothing about squareness.  None after max_attempts primes.
    """
    ell = next_prime(n)
    for _ in range(max_attempts):
        r = disc_mod(n, ell)
        if r and legendre_symbol(r, ell) == -1:
            return ell, r
        ell = next_prime(ell)
    return None


def _exact_route(n: int) -> Certificate:
    if is_rational_square(disc_exact(n).exact):
        return Certificate("counterexample")
    return Certificate("exact_non_square")


def classify(n: int, config: ClassifyConfig | None = None) -> Certificate:
    """Certificate that disc F_n is not a square of a rational.

    Raises ArithmeticError if a theorem-backed congruence comes out
    zero, since that would contradict the established residue formulas;
    such a route must never fall through silently.
    """
    cfg = config or ClassifyConfig()
    if n < 1:
        raise ValueError(f"classify requires n >= 1, got {n}")
    if n == 1:
        return Certificate("trivial_n1")
    if n % 4 in (2, 3):
        return Certificate("negative_sign")

    if n % 4 == 0:
        if n == 4:
            # interval (2, 2) is empty; the discriminant is cheap exactly
            return _exact_route(4)
        ell = bertrand_prime(n)
        if p_n_mod(n, ell) == 0:
            raise ArithmeticError(f"P_{n} = 0 (mod {ell}) contradicts the interval congruence")
        return Certificate("odd_valuation", ell=ell)

    # n = 1 (mod 4)
    fac = factorize(n)
    if len(fac) == 1:
        ((p, e),) = fac.items()
        if e & 1:
            if p_n_mod(n, p) == 0:
                raise ArithmeticError(f"P_{n} = 0 (mod {p}) contradicts the prime power congruence")
            return Certificate("odd_prime_power_valuation", p=p, e=e)
    else:
        q = max(fac)
        m = n // q
        if fac[q] == 1 and q > m and not in_exceptional_set(m, q):
            if p_n_mod(n, q) == 0:
                raise ArithmeticError(f"P_{n} = 0 (mod {q}) contradicts the split congruence")
            return Certificate("split_theorem", m=m, q=q)

    found = witness_search(n, cfg.max_witness_attempts)
    if found is not None:
        return Certificate("non_residue_witness", ell=found[0], residue=found[1])
    if cfg.allow_exact_fallback and n <= cfg.exact_degree_cap:
        return _exact_route(n)
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
    if kind == "odd_valuation":
        ell = cert.ell
        if n % 4 or not (n // 2 < ell < n - 2):
            return f"{ell} is outside the interval ({n // 2}, {n - 2}) for n = 0 (mod 4)"
        if not is_prime(ell):
            return f"{ell} is not prime"
        v = int_valuation(n, ell) - (n - 1) * floor_log(ell, n)
        if v % 2 == 0:
            return f"frame valuation at {ell} is even"
        if p_n_mod(n, ell) == 0:
            return f"P_{n} vanishes mod {ell}"
        return None
    if kind == "odd_prime_power_valuation":
        p, e = cert.p, cert.e
        # p^e = n needs 2 <= p <= n and 1 <= e <= log2(n); bound both
        # before the power, whose cost grows with e
        if not (2 <= p <= n and 1 <= e <= n.bit_length()) or p**e != n:
            return f"n != {p}^{e}"
        if not is_prime(p):
            return f"{p} is not prime"
        if n % 4 != 1:
            return "prime power route needs n = 1 (mod 4)"
        if (int_valuation(n, p) - (n - 1) * floor_log(p, n)) % 2 == 0:
            return f"frame valuation at {p} is even"
        if p_n_mod(n, p) == 0:
            return f"P_{n} vanishes mod {p}"
        return None
    if kind == "split_theorem":
        m, q = cert.m, cert.q
        if m < 2 or m * q != n or n % 4 != 1:
            return f"n != {m} * {q} with n = 1 (mod 4)"
        if q <= m:
            # q prime > m also forces gcd(q, m) = 1
            return f"split route needs {q} > {m}"
        if not is_prime(q):
            return f"{q} is not prime"
        if in_exceptional_set(m, q):
            return f"{q} lies in the exceptional set of m = {m}"
        if p_n_mod(n, q) == 0:
            return f"P_{n} vanishes mod {q}"
        return None
    if kind == "non_residue_witness":
        ell, res = cert.ell, cert.residue
        if n < 2:
            return "witness route needs n >= 2"
        # is_prime proves primality only below 2^64; above, it is a
        # probable-prime test, and its cost alone stalls the verifier
        if ell >= 1 << 64:
            return f"witness modulus has {ell.bit_length()} bits; it must lie below 2^64"
        if ell <= n or not is_prime(ell):
            return f"witness modulus {ell} is not a prime > n"
        if disc_mod(n, ell) != res % ell:
            return f"disc F_{n} mod {ell} is not {res}"
        if res % ell == 0 or legendre_symbol(res, ell) != -1:
            return f"{res} is not a non-residue mod {ell}"
        return None
    if kind == "exact_non_square":
        if is_rational_square(disc_exact(n).exact):
            return f"disc F_{n} is a rational square"
        return None
    if kind == "counterexample":
        if not is_rational_square(disc_exact(n).exact):
            return f"disc F_{n} is not a rational square"
        return None
    # unresolved: certifies nothing
    return "unresolved records certify nothing"


def verify_certificate(n: int, cert: Certificate) -> bool:
    return verify_failure(n, cert) is None
