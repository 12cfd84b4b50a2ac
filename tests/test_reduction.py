"""Reduction-chain tests.

Frozen values were computed by hand from the real embedding: L is the larger
root of x**2 = x + 1, and each pseudo-division quotient below was checked
against the decimal value of the ratio before being frozen.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hecke5.reduction as reduction
from hecke5.errors import (
    BadDeterminantError,
    BothZeroError,
    IterationCapError,
    NotAUnitError,
    NotCoprimeError,
    ParseError,
)
from hecke5.reduction import (
    GEN_S,
    GEN_T,
    IDENTITY,
    GMatrix,
    PseudoStep,
    ReducedFormResult,
    _chain,
    _exponent_or_none,
    eval_word,
    g5_decompose,
    is_reduced_form,
    parse_word,
    pseudo_divide,
    reduced_factor,
    scaling_exponent,
    t_power,
    word_string,
)
from hecke5.ring import (
    LAMBDA,
    ONE,
    ZERO,
    RingElt,
    _floor_quad,
    _unit_log,
    gcd,
    lambda_pow,
    unit_decompose,
)

L = LAMBDA


def elem(a: int, b: int = 0) -> RingElt:
    return RingElt(a, b)


coeffs = st.integers(min_value=-10**4, max_value=10**4)
elements = st.builds(RingElt, coeffs, coeffs)


def coprime_pairs():
    return (
        st.tuples(elements, elements)
        .filter(lambda p: bool(p[0]) or bool(p[1]))
        .filter(lambda p: gcd(p[0], p[1]) == ONE if (p[0] or p[1]) else False)
    )


def words_of(t_exponents):
    return st.lists(
        st.one_of(
            st.tuples(st.just("S"), st.just(1)),
            st.tuples(st.just("T"), t_exponents.filter(bool)),
        ),
        max_size=12,
    ).map(tuple)


small_exponents = st.integers(min_value=-6, max_value=6)
words = words_of(small_exponents)
# T-exponents up to 10**30 as well, for the round trip through g5_decompose
wide_words = words_of(
    st.one_of(small_exponents, st.integers(min_value=-10**30, max_value=10**30))
)


# --- matrices -------------------------------------------------------------------


def test_matrix_construction_and_determinant():
    m = GMatrix(elem(0, 1), elem(0, 1), ONE, elem(0, 1))  # [[L, L], [1, L]]
    assert m.entries == (elem(0, 1), elem(0, 1), elem(1, 0), elem(0, 1))
    with pytest.raises(BadDeterminantError):
        GMatrix(1, 0, 0, 2)
    with pytest.raises(BadDeterminantError):
        GMatrix(elem(0, 1), 0, 0, elem(0, 1))  # det L**2 is a unit but not 1
    with pytest.raises(TypeError):
        GMatrix(1, 0, 0, 1.0)
    with pytest.raises(TypeError):
        GMatrix("1", 0, 0, 1)


def test_matrix_sign_semantics():
    m = GEN_S * GEN_T
    assert m == -m
    assert hash(m) == hash(-m)
    assert m != IDENTITY
    assert GEN_S * GEN_S == IDENTITY  # S**2 = -I, identity modulo sign
    assert (GEN_S * GEN_S).entries == (-ONE, ZERO, ZERO, -ONE)
    assert repr(m) == "[[0, -1], [1, L]]"
    assert m != "[[0, -1], [1, L]]"
    with pytest.raises(TypeError):
        m * "1"


def test_matrix_hash_ignores_global_sign():
    # L**-1 = L - 1 is positive with a negative first coefficient, so the
    # coefficient sign and the real sign of the leading entry disagree
    for m in (
        GMatrix(elem(-1, 1), 0, 0, L),
        GMatrix(elem(1, -1), 0, 0, -L),
        GMatrix(0, elem(-1, 1), -L, elem(2, -3)),
        GEN_S,
        GEN_S * GEN_T,
    ):
        assert hash(m) == hash(-m)
        assert {m: True}[-m]


def test_matrix_algebra():
    assert GEN_T**3 == t_power(3)
    assert t_power(-2).b == elem(0, -2)
    assert GEN_S.inverse() * GEN_S == IDENTITY
    m = GEN_T * GEN_S * t_power(2)
    assert m * m.inverse() == IDENTITY
    assert (m**4) == m * m * m * m
    assert m**0 == IDENTITY
    assert m**-2 == m.inverse() * m.inverse()
    assert GEN_S.trace() == ZERO


# --- words -----------------------------------------------------------------------


def test_word_basics():
    tst = (("T", 1), ("S", 1), ("T", 1))
    assert eval_word(tst) == GMatrix(elem(0, 1), elem(0, 1), 1, elem(0, 1))
    assert word_string(tst) == "TST"
    assert word_string((("T", -3), ("S", 1))) == "tttS"
    assert parse_word("TST") == tst
    assert parse_word(" tt S ") == (("T", -2), ("S", 1))
    assert parse_word("Tt") == ()
    assert eval_word(()) == IDENTITY
    with pytest.raises(ParseError):
        parse_word("TSX")


@given(words)
def test_word_round_trip(word):
    text = word_string(word)
    back = parse_word(text)
    assert eval_word(back) == eval_word(word)
    # after one parse (which merges and cancels runs of T) the pair is stable
    assert parse_word(word_string(back)) == back


# --- pseudo-division -------------------------------------------------------------


def test_pseudo_divide_frozen():
    assert pseudo_divide(elem(3, 0), L) == PseudoStep(1, elem(2, -1))
    assert pseudo_divide(L, elem(2, -1)) == PseudoStep(3, elem(3, -2))
    assert pseudo_divide(ZERO, ONE) == PseudoStep(0, ZERO)
    with pytest.raises(ZeroDivisionError):
        pseudo_divide(ONE, ZERO)


@given(elements, elements.filter(bool))
@example(elem(480, 960), elem(960, 960))  # remainder/(y*L) = +1/2, N(y*L) < 0
@example(elem(1, 1), elem(0, 2))  # remainder/(y*L) = +1/2, N(y*L) > 0
def test_pseudo_divide_contract(x, y):
    step = pseudo_divide(x, y)
    den = y * L
    assert x == den * step.quotient + step.remainder
    # remainder / (y*L) in (-1/2, 1/2] in the real embedding: it equals w/n
    # with w = remainder*conj(den)*sign(N(den)) and n = |N(den)|, compared
    # through the sign predicate.
    from hecke5.ring import sign_real

    n = den.norm()
    w = step.remainder * den.conj() * elem(1 if n > 0 else -1, 0)
    n = abs(n)
    two_w = w + w
    assert sign_real(two_w - elem(n, 0)) <= 0
    assert sign_real(two_w + elem(n, 0)) > 0


# --- the reduction chain ----------------------------------------------------------


def test_reduce_one_over_one():
    res = reduced_factor(ONE, ONE)
    assert res.e == 1
    assert (res.reduced_num, res.reduced_den) == (L, L)
    assert word_string(res.word) == "TST"
    assert word_string(res.full_word) == "TSTS"
    assert res.witness() == GMatrix(elem(0, 1), elem(0, 1), 1, elem(0, 1))
    witness = res.witness()
    assert (witness.b, witness.d) == (L, L)
    assert res.completed().first_column == (L, L)


def test_reduce_known_fractions():
    res = reduced_factor(elem(-1, 2), elem(12, 0))
    assert res.e == 6
    assert res.reduced_num == elem(11, 18)
    assert res.reduced_den == elem(60, 96)

    res = reduced_factor(elem(-1, 2), elem(96, 0))
    assert res.e == 6
    assert res.reduced_den == elem(480, 768)

    res = reduced_factor(elem(-1, 2), elem(192, 0))
    assert res.e == 18
    assert res.reduced_num == elem(3571, 5778)
    assert res.reduced_den == elem(306624, 496128)


def test_reduce_degenerate_inputs():
    res = reduced_factor(lambda_pow(3), ZERO)
    assert res.e == -3 and res.reduced_num == ONE and res.full_word == ()
    assert res.completed() == IDENTITY
    res = reduced_factor(ZERO, ONE)
    assert res.reduced_num == ZERO
    with pytest.raises(BothZeroError):
        reduced_factor(ZERO, ZERO)
    with pytest.raises(NotCoprimeError):
        reduced_factor(elem(2, 0), elem(0, 2))


ERROR_PAIRS = (
    (ZERO, ZERO),
    (elem(2, 0), elem(0, 2)),
    (elem(6, 3), elem(9, 0)),
    (elem(-1, 2) * elem(7, 12), elem(5, 0) * lambda_pow(40)),
    (elem(3 * 2**200, 0), elem(0, 3**130)),
)


@pytest.mark.parametrize("num, den", ERROR_PAIRS, ids=str)
def test_exponent_queries_raise_as_reduced_factor_does(num, den):
    with pytest.raises((BothZeroError, NotCoprimeError)) as want:
        reduced_factor(num, den)
    for query in (scaling_exponent, is_reduced_form):
        with pytest.raises(want.type) as got:
            query(num, den)
        assert type(got.value) is want.type
        assert str(got.value) == str(want.value)


def test_exponent_queries_run_one_chain_and_build_no_word(monkeypatch):
    chains = []
    run_chain = reduction._chain

    def counted(*args):
        chains.append(args)
        return run_chain(*args)

    def unused(num, den):
        raise AssertionError("reduced_factor was called")

    monkeypatch.setattr(reduction, "_chain", counted)
    monkeypatch.setattr(reduction, "reduced_factor", unused)
    num, den = elem(-1, 2), elem(192, 0)
    assert not is_reduced_form(num, den)
    assert is_reduced_form(elem(3571, 5778), elem(306624, 496128))
    assert scaling_exponent(num, den) == 18
    # two arguments each: no quotient list, so no word is built
    assert [len(args) for args in chains] == [2, 2, 2]
    with pytest.raises(NotCoprimeError):
        is_reduced_form(elem(2, 0), elem(0, 2))
    assert len(chains) == 4


@pytest.mark.parametrize("num", (ONE, -L, lambda_pow(-7), -lambda_pow(40)), ids=str)
def test_witness_of_a_unit_over_zero_carries_the_reduced_pair(num):
    # the chain takes no step, so completed() is +-1 and the witness S
    res = reduced_factor(num, ZERO)
    assert res.full_word == () and word_string(res.word) == "S"
    witness = res.witness()
    assert (witness.b, witness.d) in (
        (res.reduced_num, ZERO), (-res.reduced_num, ZERO)
    )


def test_conjugation_seed_column():
    res = reduced_factor(elem(4, 0), elem(0, 9))
    assert res.e == 2
    seed = res.completed()
    assert seed.first_column == (elem(4, 0) * lambda_pow(2), elem(0, 9) * lambda_pow(2))
    assert seed.first_column == (elem(4, 4), elem(9, 18))


@settings(max_examples=60)
@given(coprime_pairs())
def test_reduction_contract(pair):
    num, den = pair
    res = reduced_factor(num, den)
    scale = lambda_pow(res.e)
    assert res.reduced_num == num * scale
    assert res.reduced_den == den * scale
    assert res.completed().first_column == (res.reduced_num, res.reduced_den)
    witness = res.witness()
    wit_col = (witness.b, witness.d)
    assert wit_col == (res.reduced_num, res.reduced_den) or wit_col == (
        -res.reduced_num,
        -res.reduced_den,
    )
    # reducing an already reduced pair is idempotent
    again = reduced_factor(res.reduced_num, res.reduced_den)
    assert again.e == 0
    assert is_reduced_form(res.reduced_num, res.reduced_den)
    assert scaling_exponent(num, den) == res.e


# --- membership -------------------------------------------------------------------


def test_membership_frozen():
    assert g5_decompose(GEN_T) == (("T", 1),)
    assert g5_decompose(GEN_S) == (("S", 1),)
    assert g5_decompose(IDENTITY) == ()
    assert g5_decompose(-IDENTITY) == ()
    outsider = GMatrix(elem(-1, 3), L, elem(0, 2), L)
    assert g5_decompose(outsider) is None
    shear = GMatrix(1, 1, 0, 1)  # translation by 1 instead of L
    assert g5_decompose(shear) is None


@given(wide_words)
def test_membership_round_trip(word):
    m = eval_word(word)
    dec = g5_decompose(m)
    assert dec is not None
    assert eval_word(dec) == m


@given(words, st.integers(min_value=-3, max_value=3))
def test_membership_rejects_shears(word, k):
    m = eval_word(word) * GMatrix(1, k, 0, 1)
    if k == 0:
        assert g5_decompose(m) is not None
    else:
        assert g5_decompose(m) is None


def fold_oracle(word):
    """eval_word as a left fold of GMatrix products of GEN_S and t_power(q)."""
    acc = IDENTITY
    for kind, q in word:
        acc = acc * (GEN_S if kind == "S" else t_power(q))
    return acc


def decompose_oracle(m):
    """g5_decompose as the completed matrix's inverse times m, with the
    completed matrix folded by fold_oracle."""
    result = reduced_factor(m.a, m.c)
    if result.e:
        return None
    flips = sum(1 for kind, _ in result.full_word if kind == "S")
    completed = fold_oracle(result.full_word)
    if result.unit_sign * (-1) ** flips < 0:
        completed = -completed
    x = (completed.inverse() * m).b
    if x.a:
        return None
    return result.full_word + ((("T", x.b),) if x.b else ())


def _seeded_words(rng, count, max_tokens, max_bits):
    """Words of 0..max_tokens tokens, T exponents up to 2**max_bits in size
    (log-uniform, never 0), S and T drawn alike."""
    for _ in range(count):
        word = []
        for _ in range(rng.randint(0, max_tokens)):
            if rng.random() < 0.5:
                word.append(("S", 1))
            else:
                q = rng.randint(1, 2 ** rng.randint(1, max_bits))
                word.append(("T", rng.choice((-1, 1)) * q))
        yield tuple(word)


def test_eval_word_matches_gmatrix_fold():
    rng = random.Random(20261019)
    for word in _seeded_words(rng, 60, 80, 70):
        assert eval_word(word).entries == fold_oracle(word).entries, word
    with pytest.raises(ValueError, match="bad token"):
        eval_word((("T", 2), ("S", 2)))
    with pytest.raises(ValueError, match="bad token"):
        eval_word((("T", 1.5),))


def test_g5_decompose_matches_its_definition():
    rng = random.Random(20261020)
    shear_one = (GMatrix(1, 1, 0, 1), GMatrix(1, 0, 1, 1))
    mutated_t = GMatrix(1, elem(1, 1), 0, 1)  # translation by L**2 = L + 1
    members = non_members = 0
    for left, right in zip(
        _seeded_words(rng, 40, 40, 70), _seeded_words(rng, 40, 40, 70)
    ):
        m = eval_word(left + right)
        dec = g5_decompose(m)
        assert dec == decompose_oracle(m) and eval_word(dec) == m
        members += 1
        # b + (L + 1)*a in place of b, and shears by 1: never in G5
        for u in (mutated_t, *shear_one):
            m = eval_word(left) * u * eval_word(right)
            assert g5_decompose(m) is None and decompose_oracle(m) is None
            non_members += 1
    # words in T and the lower shear by tau generate G0(tau): some of their
    # products are in G5, others not
    found = {True: 0, False: 0}
    for tau in (elem(2, 4), elem(3), elem(-1, 2), elem(7), elem(0, 3)):
        lower = GMatrix(1, 0, tau, 1)
        for _ in range(20):
            m = IDENTITY
            for _ in range(rng.randint(1, 8)):
                k = rng.choice((-3, -2, -1, 1, 2, 3))
                m = m * (t_power(k) if rng.random() < 0.5 else lower**k)
            dec = g5_decompose(m)
            assert dec == decompose_oracle(m)
            found[dec is not None] += 1
    assert members == 40 and non_members == 120
    assert found[True] > 10 and found[False] > 10


def test_result_is_a_record():
    res = reduced_factor(ONE, ONE)
    assert isinstance(res, ReducedFormResult)
    assert res.unit_sign in (1, -1)


def _large_pairs(count=2000, low=0, high=30, seed=20261018):
    """Seeded pairs with coefficients log-uniform from 10**low to 10**high;
    every third pair gets a common factor."""
    rng = random.Random(seed)

    def draw():
        bound = 10 ** rng.randint(low, high)
        return elem(rng.randint(-bound, bound), rng.randint(-bound, bound))

    for i in range(count):
        num, den = draw(), draw()
        if i % 3 == 0:
            common = elem(rng.randint(-50, 50), rng.randint(-50, 50))
            num, den = num * common, den * common
        if num or den:
            yield num, den


def _tie_pairs():
    """x = ((2k+1)*z + s)*L and y = 2*z, so x/(y*L) = k + 1/2 + s/(2z): an
    exact tie for s = 0 and within 1/(2|z|) of one for s = +-1, with |z|
    up to 2**400."""
    rng = random.Random(20261019)
    for i in range(300):
        size = 2 ** rng.randint(1, 400)
        z = elem(rng.randint(-size, size), rng.randint(-size, size)) or ONE
        k = rng.randint(-10**4, 10**4)
        yield (z * (2 * k + 1) + (i % 3 - 1)) * L, z * 2


def _divisible_pairs():
    """x = y*c with y up to 10**90, so the last quotient leaves y = 0 on
    large operands."""
    rng = random.Random(20261020)
    for _ in range(200):
        size = 10 ** rng.randint(8, 90)
        y = elem(rng.randint(-size, size), rng.randint(-size, size)) or ONE
        c = elem(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        yield y * c, y


def _huge_quotient_pairs():
    """x = y*L*k + r over y = L, 2 + L and small denominators of both norm
    signs, with k a 1000-digit integer and r small, once coprime to y and
    once a multiple of it.  The first quotient, k, is past any float step,
    and the chain then runs on small elements.  The refresh's n = N(y*L) is
    small: over L it is N(L**2) = 1, which the shift takes to 0."""
    rng = random.Random(20261021)
    for den in (L, L + 2, elem(3), elem(1, 3), elem(2, -3), elem(4, 1), elem(-7, 2)):
        k = rng.randint(-(10**1000), 10**1000)
        r = elem(rng.randint(-9, 9), rng.randint(-9, 9))
        yield den * L * k + r, den
        yield den * (L * k + r), den


#: Pairs where the float path ends, must not decide, or decides on scaled
#: operands.  The refresh's products w = x*conj(y*L) and n = N(y*L) reach
#: 2**960, where the refresh shifts them, once coefficients pass about
#: 10**144: chains of the first band cross that size part way, as their
#: coefficients grow, and the bands from 1e300 on start past it.  The
#: 1e4000 band is checked on a seeded sample of its steps (see
#: check_against_oracle).
FLOAT_EDGE_FAMILIES = {
    "1e140-1e170": lambda: _large_pairs(count=12, low=140, high=170, seed=140),
    "1e300-1e400": lambda: _large_pairs(count=8, low=300, high=400, seed=300),
    "1e1000": lambda: _large_pairs(count=1, low=1000, high=1000, seed=1000),
    "1e4000": lambda: _large_pairs(count=1, low=4000, high=4000, seed=4000),
    "huge-quotients": _huge_quotient_pairs,
    "ties": _tie_pairs,
    "y-divides-x": _divisible_pairs,
}


def test_exponent_or_none_matches_reduced_factor_large():
    seen = {True: 0, False: 0}
    for num, den in _large_pairs():
        try:
            expected = reduced_factor(num, den).e
        except NotCoprimeError:
            expected = None
        assert _exponent_or_none(num, den) == expected
        seen[expected is None] += 1
    assert seen[True] > 100 and seen[False] > 100


# --- the RingElt chain as an oracle for the raw-integer kernel ----------------------


def _ceil_quad(p: int, q: int, r: int) -> int:
    return -_floor_quad(-p, -q, r)


def oracle_pseudo_divide(x: RingElt, y: RingElt) -> PseudoStep:
    """pseudo_divide as RingElt arithmetic: w = x*conj(y*L), q = ceil(t - 1/2)."""
    den = y * L
    w = x * den.conj()
    n = den.norm()
    if n < 0:
        w, n = -w, -n
    q = _ceil_quad(2 * w.a + w.b - n, w.b, 2 * n)
    return PseudoStep(q, x - den * q)


def oracle_chain(num: RingElt, den: RingElt):
    """The reduction chain as a RingElt loop over oracle_pseudo_divide.

    Returns the divisions made, as ((x, y), step) pairs, the final x, and
    either (e, reduced_num, reduced_den, unit_sign, full_word) or None when
    the final x is not a unit.
    """
    x, y = num, den
    word, divisions = [], []
    while y:
        step = oracle_pseudo_divide(x, y)
        divisions.append(((x, y), step))
        if step.quotient:
            word.append(("T", step.quotient))
        word.append(("S", 1))
        x, y = -y, step.remainder
    try:
        rep = unit_decompose(x)
    except NotAUnitError:
        return divisions, x, None
    e = -rep.exponent
    scale = lambda_pow(e)
    return divisions, x, (e, num * scale, den * scale, rep.sign, tuple(word))


def chain_run(num: RingElt, den: RingElt):
    """_chain's quotients and final x, as RingElt."""
    quotients = []
    final = _chain(num, den, quotients)
    return quotients, elem(*final)


#: Coefficient size past which check_against_oracle replays a pair's chain
#: and checks a sample of its steps: the RingElt oracle takes about 3 s on a
#: 1000-digit pair and would take minutes on a 4000-digit one.
_ORACLE_BITS = 7000


def check_sampled_steps(num: RingElt, den: RingElt):
    """Replay (x, y) on raw integers from _chain's quotients and check the
    first, the last and a seeded sample of 40 steps against
    _pseudo_quotient; the replay ends on y = 0 at the chain's final x."""
    quotients, final = chain_run(num, den)
    last = len(quotients) - 1
    rng = random.Random(last)
    picked = {0, last, *rng.sample(range(last + 1), min(40, last + 1))}
    xa, xb, ya, yb = num.a, num.b, den.a, den.b
    for i, q in enumerate(quotients):
        assert ya or yb
        if i in picked:
            assert reduction._pseudo_quotient(xa, xb, ya, yb) == q
        xa, xb, ya, yb = -ya, -yb, xa - yb * q, xb - (ya + yb) * q
    assert not (ya or yb) and elem(xa, xb) == final


def check_against_oracle(pairs):
    """Every quotient of the chain, float-decided or exact, is the one
    pseudo_divide (that is, _pseudo_quotient) gives at that step, and the
    results agree with the oracle's.  Pairs with a coefficient past
    _ORACLE_BITS go to check_sampled_steps instead.  Returns how many pairs
    were coprime (True) and not (False); sampled pairs are not counted."""
    seen = {True: 0, False: 0}
    for num, den in pairs:
        if max(abs(c).bit_length() for c in (*num.coeffs, *den.coeffs)) > _ORACLE_BITS:
            check_sampled_steps(num, den)
            continue
        divisions, final, want = oracle_chain(num, den)
        for (x, y), step in divisions:
            assert pseudo_divide(x, y) == step
        assert chain_run(num, den) == ([s.quotient for _, s in divisions], final)
        if want is None:
            with pytest.raises(NotCoprimeError):
                reduced_factor(num, den)
            assert _exponent_or_none(num, den) is None
        else:
            res = reduced_factor(num, den)
            got = (res.e, res.reduced_num, res.reduced_den, res.unit_sign)
            assert got + (res.full_word,) == want
            assert _exponent_or_none(num, den) == res.e
        seen[want is None] += 1
    return seen


def test_chain_matches_ringelt_oracle():
    seen = check_against_oracle(_large_pairs())
    assert seen[True] > 100 and seen[False] > 100


@pytest.mark.parametrize("family", FLOAT_EDGE_FAMILIES)
def test_chain_matches_ringelt_oracle_at_float_edges(family):
    check_against_oracle(FLOAT_EDGE_FAMILIES[family]())


def test_oracle_check_rejects_an_inexact_golden_ratio(monkeypatch):
    # L off by one part in 10**9 in the float path: the error bound no
    # longer covers the image of x/(y*L), and some float-decided quotient
    # differs from the oracle's
    for name in ("_PHI", "_PHI2"):
        monkeypatch.setattr(reduction, name, getattr(reduction, name) * (1 + 1e-9))
    assert any(
        chain_run(num, den)[0] != [s.quotient for _, s in oracle_chain(num, den)[0]]
        for num, den in _large_pairs(count=60)
    )


def test_step_cap_counts_float_steps(monkeypatch):
    # With L off in its fifth digit the float quotients never bring y to 0,
    # so the chain runs into its cap, which exact steps alone do not reach.
    exact = []

    def counted(*args):
        exact.append(args)
        return real(*args)

    real = reduction._pseudo_quotient
    monkeypatch.setattr(reduction, "_pseudo_quotient", counted)
    monkeypatch.setattr(reduction, "_PHI", 1.618)
    monkeypatch.setattr(reduction, "_PHI2", 2.618)
    num, den = elem(3**60, -(5**40)), elem(7**30, 2**100 + 1)
    cap = 64 * (sum(abs(c).bit_length() for c in (*num.coeffs, *den.coeffs)) + 4)
    quotients = []
    with pytest.raises(IterationCapError, match=f"in {cap} steps"):
        _chain(num, den, quotients)
    assert len(quotients) > cap
    assert len(exact) < cap


def test_chain_far_past_the_double_range_stays_on_floats(monkeypatch):
    # a 1000-digit coprime pair: with an exact step wherever the refresh's
    # products passed the double range, 4 256 of its 5 043 steps ran exact
    exact = []

    def counted(*args):
        exact.append(args)
        return real(*args)

    real = reduction._pseudo_quotient
    monkeypatch.setattr(reduction, "_pseudo_quotient", counted)
    rng = random.Random(20261023)
    big = 10**1000
    num, den = (elem(rng.randint(-big, big), rng.randint(-big, big)) for _ in range(2))
    quotients = []
    assert _unit_log(*_chain(num, den, quotients)) is not None
    assert len(quotients) > 4000
    assert len(exact) <= 4
