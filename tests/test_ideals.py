"""Ideal-layer tests.

The ideal-count oracle below is computed independently from residues mod 5
(split / inert / ramified behaviour of rational primes), so it exercises the
whole enumeration pipeline without sharing code with it.
"""

from __future__ import annotations

import random
import time
from collections import Counter

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.polys.numberfields.primes import prime_decomp

from hecke5 import ideals
from hecke5.cli import main
from hecke5.errors import (
    FactorCapError,
    NotADivisorError,
    ZeroInputError,
)
from hecke5.ideals import (
    Factorization,
    ResidueCtx,
    factor,
    h_of,
    half_power_part,
    ideals_up_to_norm,
    index_in_g5,
    primes_above,
    relative_index,
    smallest_rational_integer,
)
from hecke5.ring import (
    ONE,
    ROOT5,
    RingElt,
    UnitRep,
    canonical_associate,
    exact_divide,
    is_canonical_associate,
)


def elem(a: int, b: int = 0) -> RingElt:
    return RingElt(a, b)


# --- independent oracle --------------------------------------------------------


def _oracle_prime_power_count(p: int, k: int) -> int:
    """Ideals of norm p**k, from the splitting type of p alone."""
    if p == 5:
        return 1
    if p % 5 in (1, 4):
        return k + 1
    return 1 if k % 2 == 0 else 0


def _oracle_ideal_count(n: int) -> int:
    total = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            total *= _oracle_prime_power_count(p, k)
        p += 1
    if m > 1:
        total *= _oracle_prime_power_count(m, 1)
    return total


def test_ideal_counts_match_oracle():
    by_norm = Counter(x.abs_norm() for x in ideals_up_to_norm(200))
    for n in range(2, 201):
        assert by_norm.get(n, 0) == _oracle_ideal_count(n), f"norm {n}"


def _zeta_ideal_count(bound: int) -> int:
    """Non-unit ideals of norm at most ``bound``, from zeta_K = zeta * L(chi_5):
    the sum over n <= bound of sum over d | n of (d/5), less n = 1."""
    chi = (0, 1, -1, -1, 1)
    return sum(chi[d % 5] * (bound // d) for d in range(1, bound + 1)) - 1


def test_ideal_totals_match_zeta_sum():
    for bound, total in ((50, 21), (400, 171), (700, 298), (990, 426), (10_000, 4303)):
        assert _zeta_ideal_count(bound) == total
        assert len(ideals_up_to_norm(bound)) == total


def test_ideal_enumeration_shape():
    ideals = ideals_up_to_norm(40)
    assert all(is_canonical_associate(x) for x in ideals)
    assert len(ideals) == len(set(ideals))
    norms = [x.abs_norm() for x in ideals]
    assert norms == sorted(norms)
    assert ideals_up_to_norm(1) == []
    assert ideals_up_to_norm(4) == [elem(2, 0)]


# --- splitting of rational primes ------------------------------------------------


def test_primes_above_shapes():
    assert primes_above(5) == (ROOT5,)
    assert primes_above(2) == (elem(2, 0),)
    assert primes_above(3) == (elem(3, 0),)
    eleven = primes_above(11)
    assert eleven == (elem(-1, 3), elem(3, 1))
    for p in (11, 19, 29, 31, 41):
        pair = primes_above(p)
        assert len(pair) == 2
        assert all(q.abs_norm() == p for q in pair)
        assert all(is_canonical_associate(q) for q in pair)
        assert canonical_associate(pair[0] * pair[1]) == canonical_associate(
            elem(p, 0)
        )


def test_primes_above_match_sympy_prime_decomp():
    x = sympy.symbols("x")
    minimal_polynomial = sympy.Poly(x**2 - x - 1)  # of L
    for p in sympy.primerange(2, 10**4):
        ours = primes_above(p)
        pattern = []
        for prime in ours:
            f = 1 if prime.abs_norm() == p else 2
            assert prime.abs_norm() == p**f, (p, prime)
            e, rest = 0, RingElt(p, 0)
            while (quotient := exact_divide(rest, prime)) is not None:
                e, rest = e + 1, quotient
            pattern.append((e, f))
        theirs = prime_decomp(p, T=minimal_polynomial)
        assert sorted(pattern) == sorted((q.e, q.f) for q in theirs), p
        expected = p**2 * sympy.prod(
            sympy.Rational(p**q.f + 1, p**q.f) for q in theirs
        )
        assert index_in_g5(RingElt(p, 0)) == expected, p


# --- factorization ----------------------------------------------------------------


def test_factor_frozen_examples():
    f11 = factor(elem(11, 0))
    assert f11.unit == UnitRep(1, -1)
    assert f11.factors == (((elem(-1, 3)), 1), ((elem(3, 1)), 1))

    f20 = factor(elem(20, 0))
    assert f20.unit == UnitRep(1, 0)
    assert f20.factors == ((elem(2, 0), 2), (ROOT5, 2))

    f = factor(elem(7, 12))  # 12L+7 = L**4 * (3L-1)
    assert f.unit == UnitRep(1, 4)
    assert f.factors == ((elem(-1, 3), 1),)

    assert factor(ONE).factors == ()
    assert str(f20) == "(2)**2 * (2*L-1)**2"


def test_factor_rejects_zero_and_caps():
    with pytest.raises(ZeroInputError):
        factor(elem(0, 0))
    # norm (10000019 * 10000079)**2 is past PRIMALITY_LIMIT with no small factor
    with pytest.raises(FactorCapError):
        factor(elem(10000019, 0) * elem(10000079, 0))


def test_factor_splits_cofactors_past_trial_division():
    # norm 1000003**2 * 1000033**2: both primes are inert and above the cap
    f = factor(elem(1000003, 0) * elem(1000033, 0))
    assert f.unit == UnitRep(1, 0)
    assert f.factors == ((elem(1000003, 0), 1), (elem(1000033, 0), 1))


def test_factor_cap_names_a_long_cofactor_by_its_bit_length(monkeypatch):
    monkeypatch.setattr(ideals, "TRIAL_DIVISION_CAP", 100)
    short = (10000019 * 10000079) ** 2  # 29 digits
    message = rf"^no prime divisor of {short} below 100$"
    with pytest.raises(FactorCapError, match=message):
        ideals._factor_int(short)
    long = 10000019**6  # 43 digits
    with pytest.raises(
        FactorCapError, match=r"^no prime divisor of <140-bit integer> below 100$"
    ):
        ideals._factor_int(long)


def test_factor_int_rho_budget_is_a_cap(monkeypatch):
    monkeypatch.setattr(ideals, "RHO_STEP_BUDGET", 4)
    with pytest.raises(FactorCapError):
        ideals._factor_int(1000003 * 1000033)


def test_factor_int_matches_sympy():
    rng = random.Random(7)

    def prime_between(lo, hi):
        return sympy.nextprime(rng.randint(lo, hi))

    cases = [rng.randint(2, 10**18) for _ in range(10)]
    for count, hi in ((2, 10**9), (3, 10**7)) * 6:  # cofactors past the cap
        big = [prime_between(10**6, hi) for _ in range(count)]
        cases.append(rng.randint(1, 10**3) * sympy.prod(big))
    cases.append(prime_between(10**11, 10**12) * prime_between(10**11, 10**12))
    cases.append(prime_between(10**6, 10**7) ** 3)
    cases.append(prime_between(10**18, 10**24))
    for n in cases:
        assert n < ideals.PRIMALITY_LIMIT
        assert ideals._factor_int(n) == sympy.factorint(n), n


def test_factor_int_certifies_a_prime_cofactor_without_rho(monkeypatch):
    def no_rho(n):
        raise AssertionError(f"rho called on {n}")

    monkeypatch.setattr(ideals, "_split_cofactor", no_rho)
    # 10**13 + 37 is past the square of the first wheel divisor above the
    # cap, so trial division alone would hand it to rho
    for p in (sympy.nextprime(10**12), sympy.nextprime(10**13)):
        assert ideals._factor_int(p) == {p: 1}
        assert ideals._factor_int(12 * p) == {2: 2, 3: 1, p: 1}


def test_factor_int_around_the_certification_gate():
    cap = ideals.TRIAL_DIVISION_CAP
    q = sympy.nextprime(10**11)
    cases = [cap + k for k in range(-20, 21)]
    cases += [1000003, 1000003**2, sympy.prevprime(cap), sympy.nextprime(cap)]
    cases += [7**k * q for k in range(1, 5)]
    cases += [2 * 3 * 5 * 7 * q, 2**3 * 3**2 * 5 * 7**2 * q]
    cases += [p * r for p in (7, 997, sympy.prevprime(cap)) for r in (1000003, q)]
    cases += [sympy.nextprime(10**12), sympy.nextprime(10**20)]
    for n in cases:
        assert ideals._factor_int(n) == sympy.factorint(n), n


def test_factor_int_falls_back_to_trial_division_when_rho_runs_out(monkeypatch):
    monkeypatch.setattr(ideals, "RHO_STEP_BUDGET", 4)
    rho_divisor = ideals._rho_divisor
    splits = []

    def counted(n):
        splits.append(n)
        return rho_divisor(n)

    monkeypatch.setattr(ideals, "_rho_divisor", counted)
    # 1009 is found before rho is tried; 4099 only after rho gives up
    assert ideals._factor_int(1009 * 1000003) == {1009: 1, 1000003: 1}
    assert splits == []
    assert ideals._factor_int(4099 * 1000003) == {4099: 1, 1000003: 1}
    assert splits == [4099 * 1000003]
    splits.clear()
    with pytest.raises(FactorCapError, match=r"^no split of 1000036000099 within 4 "):
        ideals._factor_int(1000003 * 1000033)
    assert splits == [1000003 * 1000033] * 2  # before and after the wheel


def test_factor_int_below_a_million_never_reaches_rho(monkeypatch):
    def no_rho(n):
        raise AssertionError(f"rho called on {n}")

    monkeypatch.setattr(ideals, "_split_cofactor", no_rho)
    rng = random.Random(23)
    cases = [rng.randint(2, 10**6) for _ in range(3000)]
    cases += [991 * 997, 997 * 1003, 999983, 2**19, 3**12, 10**6]
    for n in cases:
        assert ideals._factor_int(n) == sympy.factorint(n), n


def test_factor_int_matches_sympy_on_semiprimes():
    rng = random.Random(29)
    primes = [sympy.nextprime(rng.randint(10**3, 999_000)) for _ in range(60)]
    primes += [1009, 1013, 1019, 1021, 1031, 1033, 999983]
    cases = [p * q for p, q in zip(primes, reversed(primes))]
    cases += [p * p for p in primes[::7]]
    for n in cases:
        assert ideals._factor_int(n) == sympy.factorint(n), n


def _factor_int_by_trial_division(n: int) -> dict[int, int]:
    """``_factor_int`` as it was before the cap stage stripped the smooth
    part by a gcd: a cofactor at or above PRIMALITY_LIMIT is trial-divided
    up to TRIAL_DIVISION_CAP, one wheel step at a time."""
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            out[p] = e
    d, step = 7, 4
    prime = ideals._certified_prime(n)
    cap = ideals.TRIAL_DIVISION_CAP
    stop = ideals._RHO_FROM if ideals._RHO_FROM < cap else cap
    while True:
        limit = n if n < stop * stop else stop * stop
        while not prime and d * d <= limit:
            if n % d == 0:
                e = 0
                while n % d == 0:
                    n, e = n // d, e + 1
                out[d] = e
                prime = ideals._certified_prime(n)
                limit = n if n < stop * stop else stop * stop
            d += step
            step = 6 - step
        if prime or d * d > n:
            break
        if n < ideals.PRIMALITY_LIMIT:
            try:
                parts = ideals._split_cofactor(n)
            except FactorCapError:
                if stop == cap:
                    raise
            else:
                for p in parts:
                    out[p] = out.get(p, 0) + 1
                return out
        elif stop == cap:
            shown = str(n) if n < 10**40 else f"<{n.bit_length()}-bit integer>"
            raise FactorCapError(f"no prime divisor of {shown} below {cap}")
        stop = cap
    if n > 1:
        out[n] = 1
    return out


def _factor_outcome(factorer, n):
    try:
        return factorer(n)
    except FactorCapError as e:
        return FactorCapError, str(e)


def test_factor_int_cap_stage_matches_trial_division():
    # seeded n: a 10**6-smooth part times a cofactor with no prime divisor
    # up to 10**6, below or at least PRIMALITY_LIMIT
    rng = random.Random(24)
    limit = ideals.PRIMALITY_LIMIT
    small = [sympy.prevprime(rng.randint(3, 10**6)) for _ in range(12)]
    small += [7, 1021, 999983]

    def big_prime(lo, hi):
        return sympy.nextprime(rng.randint(lo, hi))

    cofactors = [
        1,
        big_prime(10**6, 10**12),
        big_prime(10**6, 10**9) * big_prime(10**6, 10**9),
        big_prime(10**20, limit // 2),
        big_prime(limit, 2 * limit),  # a prime past the limit
        big_prime(10**9, 10**10) ** 2,
        big_prime(10**8, 10**9) ** 3,
        big_prime(10**6, 10**7) * big_prime(10**30, 10**31),
    ]
    cases = []
    for cofactor in cofactors:
        smooth = 1
        for p in rng.sample(small, rng.randint(1, 5)):
            smooth *= p ** rng.randint(1, 4)
        cases.append(smooth * cofactor)
    cases.append(2**90 * 999983**3)  # smooth and past the limit
    cases.append(1000003 * 1000033 * 999983 * 1021)  # rest below the limit
    assert sum(n >= limit for n in cases) > len(cases) // 2
    for n in cases:
        want = _factor_outcome(_factor_int_by_trial_division, n)
        assert _factor_outcome(ideals._factor_int, n) == want, n


def test_factor_int_below_the_limit_never_builds_the_prime_product(monkeypatch):
    def unbuilt(bound):
        raise AssertionError("the prime product was built")

    monkeypatch.setattr(ideals, "_prime_product", unbuilt)
    limit = ideals.PRIMALITY_LIMIT
    p = sympy.prevprime(limit)
    for n in (p, 1000003 * 1000033, 2**81, 12 * sympy.prevprime(limit // 12)):
        assert ideals._factor_int(n) == sympy.factorint(n), n
    monkeypatch.setattr(ideals, "RHO_STEP_BUDGET", 4)  # into the cap stage
    assert ideals._factor_int(4099 * 1000003) == {4099: 1, 1000003: 1}
    with pytest.raises(AssertionError, match="built"):
        ideals._factor_int(limit * 1000003)


def test_factor_of_a_4299_digit_literal_names_its_rough_part_quickly(capsys):
    rng = random.Random(4299)
    literal = str(rng.randint(1, 9)) + "".join(
        rng.choice("0123456789") for _ in range(4298)
    )
    ideals._prime_product.cache_clear()
    start = time.perf_counter()
    assert main(["factor", literal]) == 1
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (out, err) == (
        "",
        "error[FactorCap]: no prime divisor of <28559-bit integer> below 1000000\n",
    )
    assert elapsed < 1.0, elapsed


@given(st.integers(min_value=-60, max_value=60), st.integers(min_value=-60, max_value=60))
def test_factor_round_trip(a, b):
    x = RingElt(a, b)
    if not x:
        return
    fac = factor(x)
    assert fac.value() == x
    assert all(is_canonical_associate(p) for p, _ in fac.factors)
    norms = [p.abs_norm() for p, _ in fac.factors]
    assert norms == sorted(norms)


# --- derived quantities ------------------------------------------------------------


def test_h_of_values():
    assert h_of(elem(2, 0)) == 1
    assert h_of(elem(4, 0)) == 2
    assert h_of(elem(8, 0)) == 2
    assert h_of(elem(12, 0)) == 2
    assert h_of(elem(16, 0)) == 4
    assert h_of(elem(48, 0)) == 4
    assert h_of(elem(0, 2)) == 1  # 2L is a unit multiple of 2
    assert h_of(elem(9, 0)) == 1
    with pytest.raises(ZeroInputError):
        h_of(elem(0, 0))


def test_h_of_matches_the_factored_2_part():
    two = elem(2, 0)
    for x in ideals_up_to_norm(2000):
        for scale in (1, 4, 16):
            y = x * scale
            assert h_of(y) == min(2 ** (factor(y).exponent_of(two) // 2), 4), y


def test_half_power_part_values():
    assert half_power_part(elem(16, 0)) == elem(4, 0)
    assert half_power_part(elem(48, 0)) == elem(12, 0)
    assert half_power_part(elem(9, 0)) == elem(3, 0)
    assert half_power_part(elem(50, 0)) == elem(10, 0)
    assert half_power_part(elem(7, 12)) == elem(-1, 3)
    assert half_power_part(ONE) == ONE


def test_index_values():
    assert index_in_g5(elem(2, 0)) == 5
    assert index_in_g5(elem(3, 0)) == 10
    assert index_in_g5(elem(4, 0)) == 20
    assert index_in_g5(elem(9, 0)) == 90
    assert index_in_g5(elem(12, 0)) == 200
    assert index_in_g5(elem(16, 0)) == 320
    assert index_in_g5(elem(48, 0)) == 3200
    assert index_in_g5(ROOT5) == 6
    assert index_in_g5(elem(7, 12)) == 12
    assert index_in_g5(ONE) == 1


def test_relative_index():
    assert relative_index(elem(16, 0), elem(8, 0)) == 4
    assert relative_index(elem(16, 0), elem(4, 0)) == 16
    assert relative_index(elem(48, 0), elem(12, 0)) == 16
    assert relative_index(elem(6, 0), elem(6, 0)) == 1
    with pytest.raises(NotADivisorError):
        relative_index(elem(3, 0), elem(2, 0))


# --- residue systems ----------------------------------------------------------------


def test_smallest_rational_integer_frozen():
    assert smallest_rational_integer(elem(3, 0)) == 3
    assert smallest_rational_integer(ROOT5) == 5
    assert smallest_rational_integer(elem(7, 12)) == 11
    assert smallest_rational_integer(elem(7, 0)) == 7
    assert smallest_rational_integer(elem(0, 2)) == 2
    assert smallest_rational_integer(elem(0, 3)) == 3
    assert smallest_rational_integer(ONE) == 1


@given(st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8))
def test_smallest_rational_integer_brute_force(a, b):
    x = RingElt(a, b)
    if not x:
        return
    expected = next(
        k
        for k in range(1, x.abs_norm() + 1)
        if exact_divide(RingElt(k, 0), x) is not None
    )
    assert smallest_rational_integer(x) == expected


def test_residue_ctx_frozen():
    ctx = ResidueCtx(elem(7, 12))
    assert (ctx.n, ctx.g) == (11, 1)
    assert ctx.reduce(elem(44, 72)) == elem(2, 0)
    assert ctx.red(44, 72) == (2, 0)
    assert repr(ctx) == "ResidueCtx('12*L+7')"
    ctx2 = ResidueCtx(elem(2, 0))
    assert (ctx2.n, ctx2.g) == (2, 2)
    assert ctx2.reduce(elem(11, 18)) == elem(1, 0)
    with pytest.raises(ZeroInputError):
        ResidueCtx(elem(0, 0))


@given(st.integers(min_value=-9, max_value=9), st.integers(min_value=-9, max_value=9))
def test_residue_ctx_is_complete_system(a, b):
    x = RingElt(a, b)
    if not x:
        return
    ctx = ResidueCtx(x)
    assert ctx.size == x.abs_norm()
    reps = list(ctx.residues())
    assert len(reps) == ctx.size
    assert all(ctx.reduce(r) == r for r in reps)


@given(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
)
def test_residue_reduce_is_mod_map(a, b, xa, xb, ya, yb):
    mod = RingElt(a, b)
    if not mod:
        return
    ctx = ResidueCtx(mod)
    x, y = RingElt(xa, xb), RingElt(ya, yb)
    assert ctx.reduce(x + mod * y) == ctx.reduce(x)
    assert ctx.divides(mod * y)


def test_factorization_is_a_record_value():
    fac = factor(elem(44, 72))  # 4 * (18L + 11), and 18L+11 = (2L-1) L**6
    assert isinstance(fac, Factorization)
    assert fac.unit == UnitRep(1, 6)
    assert fac.exponent_of(elem(2, 0)) == 2
    assert fac.exponent_of(ROOT5) == 1
    assert fac.exponent_of(elem(3, 0)) == 0
    assert fac.value() == elem(44, 72)
