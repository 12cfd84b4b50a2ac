"""Acceptance suite: the eleven frozen end-to-end criteria.

Each test prints exactly one PASS/FAIL line (visible under ``pytest -s``)
and asserts the corresponding exact property.  No tolerances anywhere.
Criteria 1-5 and 9 run the matching ``hecke5 selftest`` items, which hold
the frozen values, and add only the assertions those items do not make.
"""

import random
from typing import Callable

from hecke5 import (
    LAMBDA,
    ONE,
    GMatrix,
    ResidueCtx,
    RingElt,
    ShearPair,
    coset_table,
    g0_contains,
    gcd,
    is_g5_elementary,
    lambda_pow,
    normalizer_of,
    quotient_table,
    reduced_factor,
    scaling_exponent,
    shear_coset_equal,
    strongly_elementary,
)
from hecke5.cli import _TABLE_ROWS, _selftest_items
from hecke5.subgroups import schreier_generators

ints = lambda n: RingElt(n, 0)  # noqa: E731


def _criterion(number: int, title: str, fn: Callable[[], str]) -> None:
    """Run one criterion, print its single PASS/FAIL line, and assert."""
    try:
        detail = fn()
    except BaseException as exc:  # noqa: BLE001 - reported then re-raised
        print(f"FAIL criterion {number:2d} - {title}: {type(exc).__name__}: {exc}")
        raise
    print(f"PASS criterion {number:2d} - {title}: {detail}")


def _selftest(prefix: str) -> list[str]:
    """Run the ``hecke5 selftest`` items whose name starts with ``prefix``.

    Each item raises on any value that differs from its frozen expectation
    and returns its detail line.
    """
    items = [item for item in _selftest_items() if item[0].startswith(prefix)]
    assert items, f"no selftest item starts with {prefix!r}"
    return [check(*arguments) for _name, check, arguments in items]


# --- 1: the ten-row reduced-factor table ----------------------------------------------


def test_c01_reduced_factor_table():
    def check() -> str:
        for pa, _smallest_n, e_want, (a, b) in _TABLE_ROWS:
            assert RingElt(a, b) == ints(pa) * lambda_pow(e_want)
        instances = len(_selftest("table "))
        assert instances == 30
        return f"{instances}/30 instances exact"

    _criterion(1, "ten-row table of e(p**a / nL)", check)


# --- 2: the three reduced forms of (2L-1)/n -------------------------------------------


def test_c02_reduced_forms_of_2l_minus_1():
    def check() -> str:
        assert len(_selftest("forms ")) == 3
        assert ints(12) * lambda_pow(6) == RingElt(60, 96)
        assert ints(192) * lambda_pow(18) == RingElt(306624, 496128)
        return "e = 6, 6, 18 with exact reduced pairs"

    _criterion(2, "scaling exponents of (2L-1)/12, /96, /192", check)


# --- 3: shear conjugation at level 9, end to end --------------------------------------


def test_c03_level9_conjugation_end_to_end():
    def check() -> str:
        _selftest("conjugation ")
        return "corner entry exact, not divisible by 9; shear does not normalize"

    _criterion(3, "level-9 example end to end", check)


# --- 4: coset count equals the index formula ------------------------------------------


def test_c04_index_oracle_up_to_400():
    def check() -> str:
        (detail,) = _selftest("indices ")
        return f"{detail}; 0 errors"

    _criterion(4, "coset count = index formula, |norm| <= 400", check)


# --- 5: quotient groups at 4 and 16 ---------------------------------------------------


def test_c05_quotient_classifications():
    def check() -> str:
        assert len(_selftest("quotient ")) == 2
        assert quotient_table(ints(4)).order_profile == ((1, 1), (2, 3))
        assert quotient_table(ints(16)).order_profile == ((1, 1), (2, 3), (4, 12))
        return "4 -> Klein4; 16 -> order 16, profile 1:1 2:3 4:12 (Z4xZ4)"

    _criterion(5, "quotient tables at 4 and 16", check)


# --- 6: congruences satisfied by the level-2 subgroup ---------------------------------


def test_c06_level2_congruences():
    def check() -> str:
        two, four, eight = ResidueCtx(ints(2)), ResidueCtx(ints(4)), ResidueCtx(ints(8))
        # c = 0 (mod 2) on G0(2), so a -> a mod 2 is a homomorphism into
        # (O/2)^x, where -1 = 1.  The Schreier generators generate G0(2), so
        # a = 1 (mod 2) on all of them gives a = d = 1 (mod 2) on the whole
        # group (ad = 1 mod 2), hence 2 | a+d, 2 | a-d and 4 | (a-1)(a+1).
        generators = list(schreier_generators(ints(2)))
        assert len(generators) == 6
        for s in generators:
            assert two.divides(s.a - ONE), f"a is not 1 mod 2 in {s}"
        sharp = [(6, GMatrix(RingElt(5, 6), RingElt(0, -1), RingElt(0, 6), -ONE))]
        for n in (12, 96, 192):
            sharp.append((n, reduced_factor(RingElt(-1, 2), ints(n)).completed()))
        for level, m in sharp:
            assert g0_contains(m, ints(level)), f"witness not in level {level}: {m}"
            assert four.divides(m.a * m.a - ONE)
            assert not eight.divides(m.a * m.a - ONE), f"8 divides a**2-1 in {m}"
        return (
            "all 6 Schreier generators of G0(2) have a = 1 mod 2; "
            "4 witnesses show 8 never divides"
        )

    _criterion(6, "level-2 trace and corner congruences", check)


# --- 7: conjugation closure from the half-level subgroup ------------------------------


def test_c07_conjugation_closure():
    def check() -> str:
        # An element g*q, g in G0(tau), normalizes G0(tau) exactly when q
        # does.  q normalizes it when q*s*q**-1 lies in G0(tau) for every
        # Schreier generator s (these generate G0(tau), and a conjugate of
        # equal index cannot be a proper subgroup).  tau | s.c, so the
        # lower-left entry of q*s*q**-1 is q.c*q.d*(s.a-s.d) - q.c**2*s.b
        # modulo tau.
        counts = []
        for n in (4, 12, 16, 48):
            tau = ints(n)
            ctx = ResidueCtx(tau)
            result = normalizer_of(tau)
            half = ResidueCtx(result.modulus)
            entries = [(s.a - s.d, s.b) for s in schreier_generators(tau)]
            normalizing = 0
            for q in coset_table(tau).reps:
                closed = all(
                    ctx.divides(q.c * q.d * ad - q.c * q.c * b) for ad, b in entries
                )
                assert closed == half.divides(q.c), f"coset of {q} at tau = {n}"
                normalizing += closed
            assert normalizing == result.h ** 2
            counts.append(normalizing)
        return (
            "exactly the cosets in G0(tau/h) normalize, "
            + ", ".join(map(str, counts))
            + " of them at tau = 4, 12, 16, 48"
        )

    _criterion(7, "conjugation closure A B A**-1 in G0(tau)", check)


# --- 8: denominator-shift invariance of the scaling exponent -------------------------


def test_c08_denominator_shift_invariance():
    def check() -> str:
        rng = random.Random(8)
        done = 0
        while done < 1000:
            x = RingElt(rng.randint(-30, 30), rng.randint(-30, 30))
            u = RingElt(rng.randint(-30, 30), rng.randint(-30, 30))
            m = rng.randint(-5, 5)
            v = u - x * m
            if not x or not u or not v or not gcd(x, u).is_unit():
                continue
            assert scaling_exponent(x, u * LAMBDA) == scaling_exponent(
                x, v * LAMBDA
            ), f"e differs for x={x}, u={u}, m={m}"
            done += 1
        return "1000 random (x, u, m) instances agree"

    _criterion(8, "e(x/uL) = e(x/(u-xm)L)", check)


# --- 9: elementary moduli ------------------------------------------------------------


def test_c09_elementary_moduli():
    def check() -> str:
        assert len(_selftest("elementary ")) == 5
        assert not is_g5_elementary(ints(1)).found, "unexpected counterexample for 1"
        for r in (RingElt(-1, 2), ints(6)):
            assert is_g5_elementary(r).found, f"no counterexample found for {r}"
        assert strongly_elementary(ints(4)).holds
        assert not strongly_elementary(ints(8)).holds
        return "1,2,4 clean; 3,8,12L+7,2L-1,6 refuted; strong(4) holds, strong(8) fails"

    _criterion(9, "elementary and strongly elementary moduli", check)


# --- 10: key unit and gcd identities ---------------------------------------------------


def test_c10_identity_regressions():
    def check() -> str:
        w3 = 3 * lambda_pow(3)
        w9_short = 9 * lambda_pow(3)
        w9_long = 9 * lambda_pow(9)
        w5 = 5 * lambda_pow(6)
        assert w3 * w3 - ONE == 4 * RingElt(11, 18)
        assert gcd(w3 * w3 - ONE, w9_short * w9_short - ONE) == ints(4)
        assert gcd(w3 * w3 - ONE, w9_long * w9_long - ONE) == ints(4)
        assert w5 * w5 - ONE == 16 * RingElt(139, 225)
        assert abs(RingElt(139, 225).norm()) == 29
        assert RingElt(-3, 2) == lambda_pow(-3)
        return "all six identities hold exactly"

    _criterion(10, "unit and gcd identity regressions", check)


# --- 11: shear-pair coset criterion ----------------------------------------------------


def test_c11_shear_coset_criterion():
    def check() -> str:
        for m in (1, 2):
            q = 3**m
            modulus = ints(q)
            pairs = [
                ShearPair.from_level(x, y, ONE)
                for x in range(q)
                for y in range(q)
                if y % 3 != 0
            ]
            assert len(pairs) == 2 * 3 ** (2 * m - 1)
            matrices = [p.matrix() for p in pairs]
            for i, e1 in enumerate(pairs):
                for j, e2 in enumerate(pairs):
                    claimed = shear_coset_equal(e1, e2, m, ONE)
                    direct = g0_contains(
                        matrices[j].inverse() * matrices[i], modulus
                    )
                    assert claimed == direct, f"disagreement at m={m}: {e1}, {e2}"
            distinct = 0
            representatives: list[ShearPair] = []
            for e in pairs:
                if not any(
                    shear_coset_equal(e, rep, m, ONE) for rep in representatives
                ):
                    representatives.append(e)
                    distinct += 1
            assert distinct == 2 * 3 ** (2 * m - 1), f"distinct count at m={m}"
        return "verdicts match membership; distinct counts 6 and 54"

    _criterion(11, "shear-pair coset criterion at 3 and 9", check)
