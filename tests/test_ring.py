"""Ring-level tests.

Expected values are frozen literals: products and norms were expanded by hand
from L**2 = L + 1, and the real-embedding predicate is cross-checked against
an independent high-precision rational bracketing of sqrt(5).
"""

from __future__ import annotations

import copy
import hashlib
import pickle
import random
import re
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hecke5
from hecke5.errors import BothZeroError, NotAUnitError, ParseError, ZeroInputError
from hecke5.reduction import GMatrix
from hecke5.ring import (
    LAMBDA,
    LAMBDA_INV,
    ONE,
    ROOT5,
    ZERO,
    RingElt,
    UnitRep,
    _cmp_int_sqrt5,
    _floor_quad,
    canonical_associate,
    divmod_nearest,
    exact_divide,
    format_element,
    gcd,
    inverse_unit,
    is_canonical_associate,
    lambda_pow,
    parse_element,
    sign_real,
    unit_decompose,
)

L = LAMBDA


def elem(a: int, b: int = 0) -> RingElt:
    return RingElt(a, b)


coeffs = st.integers(min_value=-10**6, max_value=10**6)
big_coeffs = st.integers(min_value=-10**30, max_value=10**30)
elements = st.builds(RingElt, coeffs, coeffs)
nonzero_elements = elements.filter(bool)
# coefficients up to 10**30 as well, for the gcd and associate laws
wide_nonzero_elements = st.one_of(
    nonzero_elements, st.builds(RingElt, big_coeffs, big_coeffs).filter(bool)
)


def sign_oracle(x: RingElt) -> int:
    """Independent sign of a + b*(1+sqrt5)/2 via an 80-digit sqrt5 bracket."""
    scale = 10**80
    lo = Fraction(isqrt(5 * scale * scale), scale)
    hi = lo + Fraction(1, scale)
    cands = [x.a + x.b * (1 + r) / 2 for r in (lo, hi)]
    vlo, vhi = min(cands), max(cands)
    if vlo > 0:
        return 1
    if vhi < 0:
        return -1
    assert x.a == 0 and x.b == 0, "bracket too coarse"
    return 0


# --- multiplication and norms -------------------------------------------------


def test_mul_table():
    assert L * L == elem(1, 1)
    assert ROOT5 * ROOT5 == elem(5, 0)
    assert elem(2, 3) * elem(-1, 4) == elem(10, 17)  # by hand: (2+3L)(4L-1)
    assert ONE * elem(7, -5) == elem(7, -5)
    assert 3 - elem(1, 2) == elem(2, -2)  # int - RingElt, by __rsub__
    with pytest.raises(TypeError):
        RingElt(1.5)
    # a str is no ring element: each operator returns NotImplemented
    assert elem(1, 2) != "1"
    for op in (
        lambda x: x + "1", lambda x: "1" + x, lambda x: x - "1",
        lambda x: "1" - x, lambda x: x * "1", lambda x: x ** "1",
    ):
        with pytest.raises(TypeError):
            op(elem(1, 2))


def test_lambda_power_table():
    # L**k = F(k-1) + F(k) L
    assert lambda_pow(3) == elem(1, 2)
    assert lambda_pow(6) == elem(5, 8)
    assert lambda_pow(9) == elem(21, 34)
    assert lambda_pow(12) == elem(89, 144)
    assert lambda_pow(18) == elem(1597, 2584)
    assert lambda_pow(-1) == elem(-1, 1)
    assert lambda_pow(-3) == elem(-3, 2)  # 2L - 3
    assert lambda_pow(0) == ONE


def test_lambda_pow_matches_pow():
    for k in range(-2000, 2001):
        assert lambda_pow(k) == L**k
        assert lambda_pow(k) * lambda_pow(-k) == ONE


def test_norm_values():
    assert elem(139, 225).norm() == -29
    assert elem(7, 12).norm() == -11
    assert elem(11, 18).norm() == -5
    assert L.norm() == -1
    assert elem(5, 0).norm() == 25
    assert ROOT5.norm() == -5


@given(elements, elements)
def test_norm_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(elements)
def test_conj_gives_norm(x):
    assert x * x.conj() == RingElt(x.norm(), 0)
    assert x.conj().conj() == x


@given(elements, elements)
def test_ring_axioms_sampled(x, y):
    assert x * y == y * x
    assert x + y == y + x
    assert x * (y + ONE) == x * y + x


# --- exact sign predicate -----------------------------------------------------


def test_sign_real_examples():
    assert sign_real(elem(-3, 2)) == 1  # 2L - 3 = L**-3 > 0
    assert sign_real(elem(1, -1)) == -1  # 1 - L < 0
    assert sign_real(ZERO) == 0
    assert sign_real(elem(0, -1)) == -1
    assert sign_real(elem(2, -1)) == 1  # 2 - L
    assert sign_real(elem(-2, 1)) == -1


# s*L**-k + t with |coefficients| up to about 10**29 and a real value that
# nearly cancels: the hardest case for an exact sign
near_zero = st.builds(
    lambda s, k, t: lambda_pow(-k) * s + t,
    st.sampled_from((1, -1)),
    st.integers(min_value=1, max_value=140),
    st.integers(min_value=-2, max_value=2),
)


@given(st.one_of(st.builds(RingElt, big_coeffs, big_coeffs), near_zero))
def test_sign_real_against_oracle(x):
    assert sign_real(x) == sign_oracle(x)


@given(st.integers(min_value=-80, max_value=80))
def test_units_are_positive_powers(k):
    assert sign_real(lambda_pow(k)) == 1
    assert sign_real(-lambda_pow(k)) == -1


def floor_quad_brackets(p: int, q: int, r: int, k: int) -> bool:
    """r*k <= p + q*sqrt(5) < r*(k + 1) after making r positive, decided by
    the exact sign of (p - r*k) - (-q)*sqrt(5)."""
    if r < 0:
        p, q, r = -p, -q, -r
    return (
        _cmp_int_sqrt5(p - r * k, -q) >= 0
        and _cmp_int_sqrt5(p - r * (k + 1), -q) < 0
    )


def sqrt5_convergents(count: int) -> list[tuple[int, int]]:
    """(p, q) with p/q the convergents 2/1, 9/4, 38/17, 161/72, 682/305, ...
    of sqrt(5), so that p - q*sqrt(5) = +-1/(p + q*sqrt(5)) is nearly 0."""
    pairs = [(2, 1), (9, 4)]
    while len(pairs) < count:
        (p0, q0), (p1, q1) = pairs[-2], pairs[-1]
        pairs.append((4 * p1 + p0, 4 * q1 + q0))
    return pairs


def test_floor_quad_rational_and_negative_divisor():
    for p in range(-12, 13):
        for r in (1, 2, 3, 7, -1, -2, -5):
            assert _floor_quad(p, 0, r) == p // r
            for q in (-3, -1, 1, 3):
                assert floor_quad_brackets(p, q, r, _floor_quad(p, q, r))
    assert _floor_quad(0, 1, 1) == 2  # sqrt(5) = 2.236...
    assert _floor_quad(0, -1, 1) == -3
    assert _floor_quad(0, 1, -1) == -3
    assert _floor_quad(1, 1, 2) == 1  # L = 1.618...


def test_floor_quad_near_integers():
    # p - q*sqrt(5) and q*sqrt(5) - p are both within 1/(2p) of 0, from
    # either side, for the convergents p/q of sqrt(5)
    for p, q in sqrt5_convergents(60):
        for sign in (1, -1):
            for r in (1, 2, 3, -1, -4, 7 * q):
                for shift in (-1, 0, 1):
                    a, b = sign * p + shift * r, -sign * q
                    assert floor_quad_brackets(a, b, r, _floor_quad(a, b, r))


@given(big_coeffs, big_coeffs, big_coeffs.filter(bool))
def test_floor_quad_brackets_at_large_coefficients(p, q, r):
    assert floor_quad_brackets(p, q, r, _floor_quad(p, q, r))


# --- units ----------------------------------------------------------------------


def test_unit_decompose_examples():
    assert unit_decompose(elem(-3, 2)) == UnitRep(1, -3)
    assert unit_decompose(elem(1, 1)) == UnitRep(1, 2)
    assert unit_decompose(-ONE) == UnitRep(-1, 0)
    assert unit_decompose(ONE) == UnitRep(1, 0)


def test_unit_decompose_rejects_nonunits():
    with pytest.raises(NotAUnitError):
        unit_decompose(elem(2, 0))
    with pytest.raises(NotAUnitError):
        unit_decompose(ZERO)
    with pytest.raises(NotAUnitError, match=r"is not a unit$"):
        elem(2, 0) ** -1


@given(st.integers(min_value=-80, max_value=80), st.sampled_from([1, -1]))
def test_unit_decompose_round_trip(k, s):
    u = lambda_pow(k) if s > 0 else -lambda_pow(k)
    rep = unit_decompose(u)
    assert rep == UnitRep(s, k)
    assert rep.value() == u


def unit_walk_oracle(u: RingElt) -> UnitRep:
    """The linear unit_decompose it replaced: one L-step at a time towards 1."""
    sgn = sign_real(u)
    a, b = sgn * u.a, sgn * u.b
    k = 0
    while (a, b) != (1, 0):
        if sign_real(elem(a - 1, b)) > 0:
            a, b = b - a, a  # times L**-1
            k += 1
        else:
            a, b = b, a + b  # times L
            k -= 1
    return UnitRep(sgn, k)


def test_unit_decompose_matches_walk_oracle():
    # both sides of the lookup table's edge (|k| = 64, 65) and far beyond it
    for k in range(-700, 701):
        u = lambda_pow(k)
        for s in (1, -1):
            unit = u if s > 0 else -u
            assert unit_decompose(unit) == unit_walk_oracle(unit) == UnitRep(s, k)


@given(big_coeffs, big_coeffs)
def test_unit_decompose_rejects_large_nonunits(a, b):
    x = elem(a, b)
    if x.abs_norm() == 1:
        assert unit_decompose(x).value() == x
        return
    with pytest.raises(NotAUnitError, match=r"not 1$"):
        unit_decompose(x)


@given(st.integers(min_value=-40, max_value=40), st.sampled_from([1, -1]))
def test_inverse_unit(k, s):
    u = lambda_pow(k) * s
    assert u * inverse_unit(u) == ONE


# --- division -------------------------------------------------------------------


def test_divmod_examples():
    q, r = divmod_nearest(elem(3, 0), L)
    assert q == elem(-3, 3) and r == ZERO  # (3L - 3) * L = 3
    q, r = divmod_nearest(elem(5, 0), ROOT5)
    assert q == ROOT5 and r == ZERO
    q, r = divmod_nearest(ONE, ONE)
    assert q == ONE and r == ZERO


def test_divmod_rounds_halves_up():
    # x * conj(d) / norm(d) is 1/2, L/2 and -1/2: each coefficient rounds up
    assert divmod_nearest(ONE, elem(2)) == (ONE, -ONE)
    assert divmod_nearest(L, elem(2)) == (L, -L)
    assert divmod_nearest(-ONE, elem(2)) == (ZERO, -ONE)


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod_nearest(ONE, ZERO)
    with pytest.raises(ZeroDivisionError):
        exact_divide(ONE, ZERO)


@given(elements, nonzero_elements)
def test_divmod_contract(x, d):
    q, r = divmod_nearest(x, d)
    assert x == q * d + r
    assert r.abs_norm() < d.abs_norm()


# --- gcd and exact division -------------------------------------------------------


def test_gcd_frozen_values():
    w3 = elem(3, 6)  # 3 L**3
    w9 = elem(9, 18)  # 9 L**3
    assert w3 * w3 - ONE == elem(44, 72)  # 4 (18L + 11)
    assert w9 * w9 - ONE == elem(404, 648)  # 4 (162L + 101)
    assert gcd(w3 * w3 - ONE, w9 * w9 - ONE) == elem(4, 0)
    assert gcd(elem(11, 18), elem(2, 0)) == ONE
    assert gcd(elem(4, 0), ZERO) == elem(4, 0)


def test_gcd_both_zero():
    with pytest.raises(BothZeroError):
        gcd(ZERO, ZERO)


@given(
    wide_nonzero_elements,
    wide_nonzero_elements,
    st.integers(min_value=-12, max_value=12),
    st.sampled_from([1, -1]),
)
def test_gcd_divides_both(x, y, k, s):
    g = gcd(x, y)
    assert exact_divide(x, g) is not None
    assert exact_divide(y, g) is not None
    assert is_canonical_associate(g)
    assert gcd(x * lambda_pow(k) * s, y) == g


@given(wide_nonzero_elements, wide_nonzero_elements, wide_nonzero_elements)
def test_gcd_scales(c, x, y):
    g1 = gcd(c * x, c * y)
    g2 = canonical_associate(c * gcd(x, y))
    assert g1 == g2


def euclid_oracle(x: RingElt, y: RingElt) -> RingElt:
    """gcd as Euclid's loop on divmod_nearest remainders."""
    while y:
        x, y = y, divmod_nearest(x, y).remainder
    return canonical_associate(x)


huge_coeffs = st.integers(min_value=-(2**300), max_value=2**300)
huge_nonzero_elements = st.builds(RingElt, huge_coeffs, huge_coeffs).filter(bool)
# pairs up to 300-bit coefficients: unrelated, with a common factor of up
# to 300 bits, or with one zero argument
gcd_pairs = st.one_of(
    st.tuples(huge_nonzero_elements, huge_nonzero_elements),
    st.builds(
        lambda c, x, y: (c * x, c * y),
        huge_nonzero_elements,
        wide_nonzero_elements,
        wide_nonzero_elements,
    ),
    st.tuples(huge_nonzero_elements, st.just(ZERO)),
    st.tuples(st.just(ZERO), huge_nonzero_elements),
)


@given(gcd_pairs)
@example((elem(2**300, 1 - 2**299), ZERO))
@example((ZERO, elem(-(2**300), 3**180)))
def test_gcd_matches_euclid_on_divmod_nearest(pair):
    assert gcd(*pair) == euclid_oracle(*pair)


def test_exact_divide_examples():
    assert exact_divide(elem(2224, 3600), elem(16, 0)) == elem(139, 225)
    assert exact_divide(elem(5, 0), ROOT5) == ROOT5
    assert exact_divide(elem(3, 0), elem(2, 0)) is None
    assert exact_divide(ZERO, elem(7, 3)) == ZERO
    assert exact_divide(elem(7, 12), elem(-1, 3)) == elem(2, 3)  # 12L+7 = (3L-1) L**4


def test_exact_divide_refuses_a_non_ring_argument():
    assert exact_divide(6, 3) == 2
    for x, d in ((elem(6, 0), "3"), ("6", elem(3, 0))):
        with pytest.raises(TypeError, match="must be RingElt or int"):
            exact_divide(x, d)


@given(elements, nonzero_elements)
def test_exact_divide_round_trip(x, d):
    q = exact_divide(x * d, d)
    assert q == x


# --- canonical associates -----------------------------------------------------------


def test_canonical_examples():
    assert canonical_associate(elem(7, 12)) == elem(-1, 3)  # the norm -11 prime
    assert canonical_associate(elem(-3, 2)) == ONE  # units collapse to 1
    assert canonical_associate(elem(-5, 0)) == elem(5, 0)
    assert canonical_associate(ROOT5) == ROOT5
    assert is_canonical_associate(elem(4, 0))
    assert not is_canonical_associate(elem(0, 4))  # 4L is not canonical
    with pytest.raises(ZeroInputError):
        canonical_associate(ZERO)


@given(
    wide_nonzero_elements,
    st.integers(min_value=-12, max_value=12),
    st.sampled_from([1, -1]),
)
def test_canonical_constant_on_associates(x, k, s):
    c = canonical_associate(x)
    assert is_canonical_associate(c)
    assert canonical_associate(c) == c
    assert canonical_associate(x * lambda_pow(k) * s) == c
    u = exact_divide(x, c)
    assert u is not None and u.is_unit()


@pytest.mark.parametrize("k", (19000, -19000))
def test_canonical_associate_of_a_far_associate_is_quick(k):
    """x = L**k * y is brought back near the window in one product, not k
    steps: at |k| = 19000 (about 13 200-bit coefficients) stepping one power
    of L at a time took over 3 s."""
    y = elem(7, 3)  # 3*L+7, canonical, of norm 61
    for x in (lambda_pow(k) * y, -(lambda_pow(k) * y)):
        start = time.perf_counter()
        c = canonical_associate(x)
        elapsed = time.perf_counter() - start
        assert c == y
        assert elapsed < 0.5, elapsed


# --- text form ---------------------------------------------------------------------


def test_parse_examples():
    assert parse_element("2*L-1") == elem(-1, 2)
    assert parse_element("225*L+139") == elem(139, 225)
    assert parse_element("5") == elem(5, 0)
    assert parse_element("-3") == elem(-3, 0)
    assert parse_element("L") == elem(0, 1)
    assert parse_element("-L+2") == elem(2, -1)
    assert parse_element(" 18 * L + 11 ") == elem(11, 18)
    assert parse_element("L*4-7") == elem(-7, 4)
    assert parse_element("1+1") == elem(2, 0)


#: (message, position) of the ParseError for each malformed text: every one of
#: the seven messages, each at the position where the text stops being valid.
PARSE_ERRORS = {
    "": ("empty element", 0),
    " \t": ("empty element", 2),
    "3.5": ("expected '+' or '-' between terms", 1),
    "L L": ("expected '+' or '-' between terms", 2),
    "L+": ("dangling sign", 2),
    "1- \t": ("dangling sign", 4),
    "x": ("unexpected character 'x'", 0),
    "--1": ("unexpected character '-'", 1),
    "²": ("unexpected character '²'", 0),
    "L*": ("expected integer after '*'", 2),
    "L * x": ("expected integer after '*'", 4),
    "1" * 4301: ("integer literal of 4301 digits is too long", 0),
    "L*" + "9" * 4301: ("integer literal of 4301 digits is too long", 2),
    "1" * 4301 + "*x": ("integer literal of 4301 digits is too long", 0),
    "2*": ("expected L after '*'", 2),
    "2**L": ("expected L after '*'", 2),
    "2 * x": ("expected L after '*'", 4),
}


def test_parse_errors_carry_position():
    for bad, (message, position) in PARSE_ERRORS.items():
        with pytest.raises(ParseError) as info:
            parse_element(bad)
        assert str(info.value) == f"{message} (at position {position})", bad
        assert info.value.position == position, bad


#: Tokens of the seeded parse corpus: the grammar's characters, blanks that
#: str.isspace accepts (U+3000, U+001C), decimal and non-decimal digits (Arabic
#: three, superscript two, one half, Roman twelve), stray characters, and digit
#: runs just past and at the int-to-str limit of 4300 digits.
_PARSE_TOKENS = (
    *"0123456789L*+- \t\nx_",
    "٣", "²", "½", "Ⅻ", "\u3000", "\x1c",
    "1" * 4301, "9" * 4300,
)


def parse_corpus() -> list:
    """About 20 000 random token strings of length 0-10, then 10 000 sums of
    signed terms n, L, n*L and L*n joined by optional blanks."""
    rng = random.Random(35)
    texts = [
        "".join(rng.choice(_PARSE_TOKENS) for _ in range(rng.randrange(11)))
        for _ in range(20_000)
    ]
    blanks = ["", "", " ", "\t", " \u3000"]
    numbers = ["0", "1", "7", "42", "٣", "1" * 4301, "9" * 4300]
    for _ in range(10_000):
        terms = []
        for _ in range(rng.randrange(1, 5)):
            n, b = rng.choice(numbers), rng.choice(blanks)
            term = rng.choice([n, "L", f"{n}{b}*{b}L", f"L{b}*{b}{n}"])
            terms.append(rng.choice(["", "+", "-"]) + rng.choice(blanks) + term)
        texts.append(rng.choice(blanks).join(terms))
    return texts


def parse_outcome(text: str) -> tuple:
    """The hex coefficients of parse_element(text), or its error and position;
    hex because a sum of two 4300-digit literals is past the int-to-str limit."""
    try:
        x = parse_element(text)
    except ParseError as e:
        return str(e), str(e.position)
    return hex(x.a), hex(x.b)


#: sha256 over every corpus text and its outcome, each field ended by NUL, as
#: the character-by-character scanner that the pattern replaced read them.
PARSE_GOLDEN = "e962f90b4961163855195f5ee01771cd81d4e251d51a0e1e52d89801eaffffd1"


def test_parse_golden():
    digest = hashlib.sha256()
    for text in parse_corpus():
        for field in (text, *parse_outcome(text)):
            digest.update(field.encode() + b"\0")
    assert digest.hexdigest() == PARSE_GOLDEN


def test_re_classes_match_str_predicates():
    """The element grammar's blanks and digits are re's \\s and \\d; both must
    stay exactly str.isspace and str.isdecimal on every code point."""
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
    assert re.findall(r"\d", every) == [c for c in every if c.isdecimal()]


def test_format_examples():
    assert format_element(elem(-1, 2)) == "2*L-1"
    assert format_element(elem(11, 18)) == "18*L+11"
    assert format_element(elem(5, 0)) == "5"
    assert format_element(elem(0, 1)) == "L"
    assert format_element(elem(0, -1)) == "-L"
    assert format_element(elem(3, -2)) == "-2*L+3"
    assert format_element(ZERO) == "0"


@given(elements)
def test_parse_format_round_trip(x):
    assert parse_element(format_element(x)) == x


def one_record_of_each_type() -> tuple:
    """One value of every public record type, each from the call that returns it."""
    report = hecke5.supergroup_chain(elem(48))
    return (
        divmod_nearest(elem(7, 3), elem(2, 1)),
        unit_decompose(lambda_pow(6)),
        hecke5.factor(elem(44, 72)),
        hecke5.pseudo_divide(elem(7, 3), elem(2, 1)),
        hecke5.reduced_factor(elem(3, 1), elem(2)),
        hecke5.ShearPair.from_level(1, 2, elem(2)),
        report,
        report.steps[0],
        hecke5.is_g5_elementary(elem(3)),
        hecke5.normalizer_of(elem(16)),
        hecke5.quotient_table(elem(4)),
        hecke5.strongly_elementary(elem(8)),
    )


def test_immutability_and_hash():
    records = one_record_of_each_type()
    public = {
        obj
        for name in hecke5.__all__
        if isinstance(obj := getattr(hecke5, name), type) and issubclass(obj, tuple)
    }
    assert {type(rec) for rec in records} == public
    for rec in records:
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], None)
        with pytest.raises(AttributeError):
            rec.extra = 5  # type: ignore[attr-defined]
        # a record hashes as the tuple of its fields
        assert hash(rec) == hash(tuple(rec))
    assert repr(records[1]) == "UnitRep(sign=1, exponent=6)"
    x = elem(1, 2)
    with pytest.raises(AttributeError):
        x.a = 5  # type: ignore[misc]
    with pytest.raises(AttributeError):
        x.coeffs = (5, 0)  # type: ignore[misc]
    with pytest.raises(AttributeError):
        x.extra = 5  # type: ignore[attr-defined]
    m = GMatrix(1, L, 0, 1)
    with pytest.raises(AttributeError):
        m.c = ONE  # type: ignore[misc]
    with pytest.raises(AttributeError):
        m.entries = (ONE, ZERO, ZERO, ONE)  # type: ignore[misc]
    assert m == GMatrix(1, L, 0, 1)
    assert hash(elem(1, 2)) == hash(RingElt(1, 2))
    assert elem(3, 0) == 3 and elem(3, 1) != 3
    assert LAMBDA_INV * LAMBDA == ONE


def test_copy_and_pickle_give_equal_objects():
    x = elem(-12345678901234567890, 7)
    m = GMatrix(elem(1, 1), L, 1, 1)  # det (L+1) - L = 1
    for obj in (x, m, *one_record_of_each_type()):
        for clone in (
            copy.copy(obj),
            copy.deepcopy(obj),
            pickle.loads(pickle.dumps(obj)),
        ):
            assert type(clone) is type(obj)
            assert clone == obj and hash(clone) == hash(obj)
    assert pickle.loads(pickle.dumps(m)).entries == m.entries


def exact_divide_oracle(x, d):
    """exact_divide by its definition, x*conj(d)/N(d) on RingElts with no
    rounding: the reference for the kernel that reads _divmod_step."""
    d = RingElt(d) if isinstance(d, int) else d
    x = RingElt(x) if isinstance(x, int) else x
    if not d:
        raise ZeroDivisionError("division by zero in Z[L]")
    if not x:
        return ZERO
    w = x * d.conj()
    n = d.norm()
    if w.a % n or w.b % n:
        return None
    return RingElt(w.a // n, w.b // n)


huge_ints = huge_coeffs.filter(bool)
# a numerator and a nonzero divisor up to 300-bit coefficients: unrelated
# (almost never divisible), a multiple of the divisor, a multiple plus one,
# a zero numerator, and ints on either side
divide_pairs = st.one_of(
    st.tuples(huge_nonzero_elements, huge_nonzero_elements),
    st.builds(lambda q, d: (q * d, d), huge_nonzero_elements, huge_nonzero_elements),
    st.builds(
        lambda q, d: (q * d + 1, d), huge_nonzero_elements, huge_nonzero_elements
    ),
    st.tuples(st.just(ZERO), huge_nonzero_elements),
    st.tuples(huge_ints, huge_nonzero_elements),
    st.tuples(huge_nonzero_elements, huge_ints),
    st.builds(lambda q, d: (q * d, d), huge_ints, huge_ints),
    st.tuples(st.just(0), huge_ints),
)


@given(divide_pairs)
@example((elem(2**300 * 5, 0), ROOT5))
@example((elem(2**299 + 1, -(2**300)), elem(2**150, -(2**150))))
@example((7, elem(2, 3)))
@example((elem(0, 2**300), -(2**40)))
def test_exact_divide_matches_the_conjugate_definition(pair):
    x, d = pair
    assert exact_divide(x, d) == exact_divide_oracle(x, d)


@pytest.mark.parametrize("x", (ZERO, ONE, elem(2**300, -(3**150)), 0, 5))
@pytest.mark.parametrize("d", (ZERO, 0))
def test_exact_divide_by_zero_raises(x, d):
    with pytest.raises(ZeroDivisionError, match=r"^division by zero in Z\[L\]$"):
        exact_divide(x, d)
