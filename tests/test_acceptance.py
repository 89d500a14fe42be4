"""Acceptance gate: every pinned deliverable, one pass/fail line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines as
they complete.
"""

import random
import time
from collections import Counter
from fractions import Fraction

from helpers import (
    dense_p_n_mod,
    disc_from_definition,
    predicted_interval_residue,
    predicted_prime_power_residue,
    predicted_split_residue,
    rat_valuation,
    resultant_prs,
    theorem_route,
)
from logdisc.arith import (
    int_valuation,
    lcm_upto,
    legendre_symbol,
    next_prime,
)
from logdisc.certify import Certificate, bertrand_prime, classify, verify_certificate
from logdisc.poly import resultant_exact
from logdisc.sweep import SweepConfig, run_sweep, verify_file
from logdisc.trunclog import (
    disc_exact,
    disc_mod,
    exceptional_set,
    p_n_exact,
)

# published factorization of P_21; the 80-digit prime is verified only
# by multiplying the list back together, never by factoring
P21_FACTORS = [
    3, 3, 3, 3, 3,
    31,
    41, 41,
    335642497,
    1236257387,
    11513876767,
    1381773062083,
    3484835094151,
    2204197718654031818404984907,
    int(
        "9004989137610212635527213226585626310173203221874790587323"
        "6753813403920291816681"
    ),
]


def report(label: str, ok: bool, detail: str = "") -> bool:
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {label}{tail}")
    return ok


def test_criterion_1_exact_fixtures():
    t0 = time.perf_counter()
    ok_disc = disc_exact(4).exact == Fraction(725, 432)
    t_disc = time.perf_counter() - t0

    t0 = time.perf_counter()
    ok_p9 = p_n_exact(9) == 1531 * 3137311 * 113564970051005791
    t_p9 = time.perf_counter() - t0

    t0 = time.perf_counter()
    prod = 1
    for f in P21_FACTORS:
        prod *= f
    ok_p21 = p_n_exact(21) == prod
    t_p21 = time.perf_counter() - t0

    ok = (
        report("disc_exact(4) = 725/432", ok_disc, f"{t_disc:.2f}s")
        & report("P_9 = 1531 * 3137311 * 113564970051005791", ok_p9, f"{t_p9:.2f}s")
        & report("P_21 = product of its published factors", ok_p21, f"{t_p21:.2f}s")
        & report("each exact fixture under 5 s", max(t_disc, t_p9, t_p21) < 5.0)
    )
    assert ok


def test_criterion_2_valuation_fixtures():
    d21 = disc_exact(21)
    ok_a = rat_valuation(d21.exact, 3) == -34
    ok_b = int_valuation(d21.p_n, 3) == 5
    ok_c = int_valuation(p_n_exact(15), 4019) == 2
    t0 = time.perf_counter()
    ok_d = int_valuation(p_n_exact(333), 37) == 37
    t333 = time.perf_counter() - t0
    ok = (
        report("v_3(disc F_21) = -34", ok_a)
        & report("v_3(P_21) = 5", ok_b)
        & report("v_4019(P_15) = 2", ok_c)
        & report("v_37(P_333) = 37 via exact CRT resultant", ok_d, f"{t333:.1f}s")
        & report("P_333 under 10 min budget", t333 < 600.0)
    )
    assert ok


def test_criterion_3_xy_table():
    t0 = time.perf_counter()
    p3, p5, p7, p9 = (exceptional_set(m) for m in (3, 5, 7, 9))
    elapsed = time.perf_counter() - t0
    ok = (
        report(
            "X(3), Y(3), E_3",
            (p3.x, p3.y, p3.exceptional) == (Fraction(13, 36), Fraction(11, 6), (11,)),
        )
        & report(
            "X(5), Y(5), E_5",
            (p5.x, p5.y, p5.exceptional)
            == (Fraction(3334111, 12960000), Fraction(137, 60), (101, 137, 3001)),
        )
        & report(
            "X(7), Y(7), E_7",
            (p7.x, p7.y, p7.exceptional)
            == (
                Fraction(1170728665999621, 2**12 * 3**6 * 5**6 * 7**6),
                Fraction(363, 140),
                (11,),
            ),
        )
        & report(
            "X(9) numerator factors, Y(9), E_9",
            p9.x.numerator == 37 * 229 * 367 * 98481394090065580021
            and p9.y == Fraction(7129, 2520)
            and p9.exceptional == (37, 229, 7129, 98481394090065580021),
        )
        & report("X/Y/E table under 30 s", elapsed < 30.0, f"{elapsed:.1f}s")
    )
    assert ok


def test_criterion_4_modular_witness_fixtures():
    pinned = [(33, 37, 14), (77, 79, 39), (333, 337, 157), (505, 509, 200), (685, 709, 443)]
    ok = True
    for n, ell, want in pinned:
        t0 = time.perf_counter()
        got = disc_mod(n, ell)
        elapsed = time.perf_counter() - t0
        line_ok = got == want and legendre_symbol(got, ell) == -1
        if (n, ell) == (333, 337):
            line_ok = line_ok and elapsed < 20.0
        ok &= report(
            f"disc_mod({n},{ell}) = {want}, non-residue", line_ok, f"{elapsed:.2f}s"
        )
    assert ok


def test_criterion_4_stress_large_modulus():
    t0 = time.perf_counter()
    got = disc_mod(15005, 15017)
    elapsed = time.perf_counter() - t0
    ok = report(
        "disc_mod(15005,15017) = 13652, non-residue",
        got == 13652 and legendre_symbol(got, 15017) == -1,
        f"{elapsed:.1f}s",
    ) and report("stress under 10 min", elapsed < 600.0)
    assert ok


def test_criterion_5_oracle_equivalence():
    ok_disc = all(disc_exact(n).exact == disc_from_definition(n) for n in range(2, 31))
    rng = random.Random(5001)
    ok_res = True
    for _ in range(100):
        n = rng.randrange(2, 10)
        g = [rng.randrange(-50, 51) for _ in range(rng.randrange(1, 9))]
        g.append(rng.choice([c for c in range(-50, 51) if c]))
        ok_res &= resultant_exact(n, g) == resultant_prs([1] * n, g)
    ok = report(
        "disc_exact = disc_from_definition for 2 <= n <= 30", ok_disc
    ) & report("resultant_exact = resultant_prs on 100 random instances", ok_res)
    assert ok


def test_criterion_6_theorem_congruences():
    ok_pp = True
    for n, p in ((9, 3), (25, 5), (49, 7), (81, 3), (121, 11), (125, 5), (169, 13)):
        e = int_valuation(n, p)
        got = dense_p_n_mod(n, p)
        ok_pp &= got == predicted_prime_power_residue(p, e) and got != 0

    # valid pairs: q prime, q > m (gcd(q, m) = 1 then holds automatically)
    ok_split = True
    for m in range(2, 15):
        q = next_prime(m)
        while m * q <= 200:
            ok_split &= dense_p_n_mod(m * q, q) == predicted_split_residue(m, q)
            q = next_prime(q)

    ok_interval = True
    for n in range(8, 101, 4):
        ell = bertrand_prime(n)
        want = (-pow(lcm_upto(n) // ell, n - 1, ell)) % ell
        got = dense_p_n_mod(n, ell)
        ok_interval &= got == want and got != 0 and predicted_interval_residue(n, ell) == want

    # the closed forms on every theorem-route n of the range-sweep
    # benchmark's window, routed by the shape of n; each gives P_n a unit
    # at its prime, so classify certifies n there: odd_valuation at ell,
    # and for n = 1 (mod 4) divisor_valuation at the same prime
    routes = Counter()
    ok_routes = True
    for n in range(2, 1301):
        if (route := theorem_route(n)) is None:
            continue
        kind, ell, want = route
        routes[kind] += 1
        ok_routes &= want != 0 and dense_p_n_mod(n, ell) == want
        if kind == "odd_valuation":
            ok_routes &= classify(n) == Certificate("odd_valuation", ell=ell)
        else:
            ok_routes &= classify(n) == Certificate("divisor_valuation", p=ell, e=int_valuation(n, ell))

    ok = (
        report("prime power residues match for n in {9,...,169}", ok_pp)
        & report("split congruence matches for all valid (m,q), mq <= 200", ok_split)
        & report("interval congruence matches for n = 0 (mod 4), 8..100", ok_interval)
        & report(
            "closed-form residue = Euclid and nonzero on every theorem-route n in 2..1300",
            ok_routes
            and routes == {"odd_valuation": 324, "split_theorem": 150, "odd_prime_power_valuation": 105},
            str(dict(routes)),
        )
    )
    assert ok


def test_criterion_7_conjecture_sweep(tmp_path):
    t0 = time.perf_counter()
    main = tmp_path / "main.jsonl"
    s1 = run_sweep(SweepConfig(2, 300, out=str(main), jobs=2))
    r1 = verify_file(main)
    odd = tmp_path / "odd.jsonl"
    s2 = run_sweep(SweepConfig(2, 1000, out=str(odd), filter="odd-squares", jobs=2))
    r2 = verify_file(odd)
    elapsed = time.perf_counter() - t0
    ok = (
        report(
            "sweep 2..300: all certified, all verify",
            s1.certified == 299 and s1.clean and r1.ok and r1.total == 299,
        )
        & report(
            "odd squares 9..961: all certified, all verify",
            s2.certified == 15 and s2.clean and r2.ok and r2.total == 15,
        )
        & report("combined sweeps under 30 min", elapsed < 1800.0, f"{elapsed:.1f}s")
    )
    assert ok


def test_criterion_7_certificates_verify_individually():
    ok = all(verify_certificate(n, classify(n)) for n in range(2, 301))
    ok &= all(verify_certificate(k * k, classify(k * k)) for k in range(3, 32, 2))
    assert report("classify/verify round trip, 2..300 and odd squares", ok)
