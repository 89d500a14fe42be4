"""Helpers that only the tests need: polynomial product and evaluation,
and the p-adic valuation of a rational."""

from fractions import Fraction

from logdisc.arith import int_valuation
from logdisc.poly import normalize


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return normalize(out)


def poly_eval(p: list, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def rat_valuation(r: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if r == 0:
        raise ValueError("valuation of 0 is undefined")
    if r.numerator % p == 0:
        return int_valuation(r.numerator, p)
    if r.denominator % p == 0:
        return -int_valuation(r.denominator, p)
    return 0
