"""Exact discriminant data and non-squareness certificates for
truncated logarithm polynomials."""

from .certify import Certificate, classify, verify_certificate
from .trunclog import disc_exact, disc_mod, p_n_exact, p_n_mod

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "classify",
    "disc_exact",
    "disc_mod",
    "p_n_exact",
    "p_n_mod",
    "verify_certificate",
]
