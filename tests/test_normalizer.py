"""Tests for the normalizer module: normalizer levels, chain, quotients, searches."""

import hashlib
import math
from collections import Counter
from itertools import islice

import pytest
from hypothesis import example, given

import hecke5.normalizer as normalizer_module
from hecke5.errors import (
    BadRangeError,
    BoundExceededError,
    NotADivisorError,
    NotAUnitError,
    NotCoprimeError,
    NotReducedError,
    UnitModulusError,
    ZeroInputError,
)
from hecke5.ideals import (
    ResidueCtx,
    factor,
    h_of,
    half_power_part,
    ideals_up_to_norm,
    index_in_g5,
    primes_above,
)
from hecke5.normalizer import (
    COUNTEREXAMPLE_FOUND,
    NO_COUNTEREXAMPLE,
    QUOTIENT_KLEIN4,
    QUOTIENT_TRIVIAL,
    QUOTIENT_Z4XZ4,
    ElementaryVerdict,
    _box_pairs,
    _box_sweep,
    is_g5_elementary,
    normalizer_of,
    normalizes,
    quotient_table,
    reduced_witness_bound,
    strongly_elementary,
    supergroup_chain,
)
from hecke5.reduction import (
    GMatrix,
    _exponent_or_none,
    eval_word,
    g5_decompose,
    is_reduced_form,
    reduced_factor,
)
from hecke5.ring import (
    LAMBDA,
    ONE,
    RingElt,
    _divmod_step,
    exact_divide,
    gcd,
    lambda_pow,
    parse_element,
)
from hecke5.subgroups import (
    CosetTable,
    conjugate,
    coset_table,
    g0_contains,
    sample_words,
    schreier_generators,
)
from test_ring import wide_nonzero_elements
from test_subgroups import (
    UPPER_LEFT_IMAGE_GOLDEN,
    upper_left_image,
    walked_upper_left_image,
)


def elt(text: str) -> RingElt:
    return parse_element(text)


def ints(n: int) -> RingElt:
    return RingElt(n, 0)


# --- normalizer_of ------------------------------------------------------------------


def test_normalizer_of_frozen_cases():
    cases = {
        4: (ints(2), 2, QUOTIENT_KLEIN4),
        16: (ints(4), 4, QUOTIENT_Z4XZ4),
        9: (ints(9), 1, QUOTIENT_TRIVIAL),
        12: (ints(6), 2, QUOTIENT_KLEIN4),
    }
    for tau, (modulus, h, quotient) in cases.items():
        result = normalizer_of(ints(tau))
        assert result.modulus == modulus
        assert result.h == h
        assert result.quotient == quotient


def test_normalizer_of_rejects_degenerate_moduli():
    with pytest.raises(ZeroInputError):
        normalizer_of(RingElt(0, 0))
    with pytest.raises(UnitModulusError):
        normalizer_of(LAMBDA)


# --- normalizes ---------------------------------------------------------------------


def test_lower_shear_by_3_lambda_does_not_normalize_9():
    shear = GMatrix(1, 0, RingElt(0, 3), 1)
    assert not normalizes(shear, ints(9))


def test_lower_shear_by_2_lambda_normalizes_4():
    shear = GMatrix(1, 0, RingElt(0, 2), 1)
    assert normalizes(shear, ints(4))


def test_group_members_normalize_their_own_group():
    for tau in (ints(4), ints(9), elt("12*L+7")):
        for m in sample_words(list(schreier_generators(tau)), 10, seed=5):
            assert normalizes(m, tau)


def test_non_normalizing_shears_move_a_schreier_generator():
    # The Schreier generators generate G0(tau), so a conjugate of one of
    # them outside G0(tau) proves that the shear does not normalize.
    shears = (
        (GMatrix(1, 0, LAMBDA, 1), ints(4)),
        (GMatrix(1, 0, RingElt(0, 3), 1), ints(9)),
    )
    for shear, tau in shears:
        assert not normalizes(shear, tau)
        assert any(
            not g0_contains(conjugate(shear, s), tau)
            for s in schreier_generators(tau)
        )


def test_normalizing_matrices_lie_in_half_power_group():
    for tau in (ints(4), ints(16), ints(12)):
        half = half_power_part(tau)
        generators = list(schreier_generators(normalizer_of(tau).modulus))
        for m in sample_words(generators, 15, seed=11):
            assert normalizes(m, tau)
            assert g0_contains(m, half)


# --- quotient tables ----------------------------------------------------------------


def test_quotient_table_klein4_for_4():
    q = quotient_table(ints(4))
    assert q.order == 4
    assert q.order_profile == ((1, 1), (2, 3))
    assert q.classification == QUOTIENT_KLEIN4
    assert q.locate(GMatrix(1, 0, 0, 1)) == 0
    assert q.table[0] == tuple(range(4))


def test_quotient_table_klein4_for_8():
    q = quotient_table(ints(8))
    assert q.order == 4
    assert q.classification == QUOTIENT_KLEIN4


def test_quotient_table_z4xz4_for_16():
    q = quotient_table(ints(16))
    assert q.order == 16
    assert q.order_profile == ((1, 1), (2, 3), (4, 12))
    assert q.classification == QUOTIENT_Z4XZ4


def test_quotient_table_trivial_for_9():
    q = quotient_table(ints(9))
    assert q.order == 1
    assert q.classification == QUOTIENT_TRIVIAL


def test_quotient_table_trivial_builds_no_coset_table(monkeypatch):
    # 103 is inert, so G0(103) has index 103**2 + 1 = 10610, past the coset
    # table's cap: h = 1 must answer without building the table
    with pytest.raises(BoundExceededError):
        coset_table(ints(103))

    def unbuilt(*args, **kwargs):
        raise AssertionError("a CosetTable was built")

    monkeypatch.setattr(CosetTable, "__init__", unbuilt)
    q = quotient_table(ints(103))
    assert (q.order, q.table, q.order_profile) == (1, ((0,),), ((1, 1),))
    assert q.classification == QUOTIENT_TRIVIAL


def test_quotient_table_builds_no_coset_table(monkeypatch):
    # 404 and 4000 (h = 2, 4) have index 208080 and 24000000 in G5, both
    # past the coset table's cap
    def unbuilt(*args, **kwargs):
        raise AssertionError("a CosetTable was built")

    monkeypatch.setattr(CosetTable, "__init__", unbuilt)
    with pytest.raises(AssertionError):
        coset_table(ints(16))
    assert quotient_table(ints(404)).classification == QUOTIENT_KLEIN4
    q = quotient_table(ints(4000))
    assert q.classification == QUOTIENT_Z4XZ4
    assert q.element_orders[q.locate(GMatrix(1, 0, RingElt(0, 1000), 1))] == 4


def test_quotient_table_klein4_for_36():
    q = quotient_table(ints(36))
    assert q.order == 4
    assert q.classification == QUOTIENT_KLEIN4


def test_quarter_shear_has_order_4_in_16_quotient():
    q = quotient_table(ints(16))
    shear = GMatrix(1, 0, RingElt(0, 4), 1)  # [[1, 0], [(16/4)L, 1]]
    assert q.element_orders[q.locate(shear)] == 4


def test_quotient_locate_rejects_matrices_outside_the_normalizer():
    q = quotient_table(ints(16))
    with pytest.raises(ValueError):
        q.locate(GMatrix(1, 0, ints(2), 1))


def test_quotient_locate_raises_a_coded_error():
    with pytest.raises(NotADivisorError, match=r"not in G0\(4\)"):
        quotient_table(ints(16)).locate(GMatrix(1, 0, ints(2), 1))


QUOTIENT_ORACLE_MODULI = (
    *(t for t in ideals_up_to_norm(2000) if h_of(t) > 1),
    *(-t * LAMBDA for t in ideals_up_to_norm(400) if h_of(t) > 1),
    ints(16) * LAMBDA,
    *(ints(4) * p for p in primes_above(11)),
)


@pytest.mark.parametrize("tau", QUOTIENT_ORACLE_MODULI, ids=lambda t: str(t.coeffs))
def test_quotient_table_matches_the_matrix_filter(tau):
    # the enumeration that the closed form replaced: the coset
    # representatives of G0(tau) with tau/h | c are the quotient's elements,
    # and their products, located in the coset table, multiply them
    q = quotient_table(tau)
    base = coset_table(q.modulus)
    sub = ResidueCtx(q.normalizer_modulus)
    reps = [rep for rep in base.reps if sub.divides(rep.c)]
    images = [q.locate(rep) for rep in reps]
    assert sorted(images) == list(range(q.order))
    for left, i in zip(reps, images):
        for right, j in zip(reps, images):
            product = left * right
            assert q.locate(product) == q.table[i][j]
            assert q.locate(base.reps[base.locate(product)]) == q.table[i][j]


def centralizer(table: CosetTable) -> dict[int, list[int]]:
    """Each class j for which 0 -> j extends to a permutation of the classes
    commuting with S and T, mapped to that permutation.

    The action is transitive, so the image of 0 fixes the permutation: it is
    grown along S and T edges and rejected on the first clash.  A commuting
    permutation fixes what T fixes and keeps T-cycle lengths, so j must be
    T-fixed like 0, and the T-cycle through j*S must be as long as the one
    through 0*S.
    """
    s, t = table.action["S"], table.action["T"]

    def t_cycle(i: int) -> int:
        length, j = 1, t[i]
        while j != i:
            length, j = length + 1, t[j]
        return length

    width = t_cycle(s[0])
    found = {}
    for j in range(len(s)):
        if t[j] != j or t_cycle(s[j]) != width:
            continue
        perm = [-1] * len(s)
        perm[0], stack, clash = j, [0], False
        while stack and not clash:
            i = stack.pop()
            for act in (s, t):
                a, b = act[i], act[perm[i]]
                if perm[a] < 0:
                    perm[a] = b
                    stack.append(a)
                elif perm[a] != b:
                    clash = True
        if not clash:
            found[j] = perm
    return found


#: Element orders of 1, Z2 x Z2 and Z4 x Z4, by h: among abelian groups of
#: order h**2 they fix the type.
CENTRALIZER_ORDERS = {1: {1: 1}, 2: {1: 1, 2: 3}, 4: {1: 1, 2: 3, 4: 12}}


def test_centralizer_of_the_coset_action_is_the_quotient_up_to_norm_400():
    # [N(G0(tau)) : G0(tau)] counts the classes j for which 0 -> j commutes
    # with the action (Dixon and Mortimer, Thm 4.2A): the centralizer reads
    # only the coset table's S and T permutations, no matrix
    moduli = ideals_up_to_norm(400)
    assert len(moduli) == 171
    for tau in moduli:
        table, q = coset_table(tau), quotient_table(tau)
        h, sub = h_of(tau), ResidueCtx(q.normalizer_modulus)
        found = centralizer(table)
        assert len(found) == h * h
        assert sorted(found) == [
            i for i, (ca, cb, _, _) in enumerate(table.points)
            if sub.divides(RingElt(ca, cb))
        ]
        # the kernel cosets of phi: one class per quotient element, and
        # composing the permutations adds their elements
        image = {j: q.locate(eval_word(table.rep_words[j])) for j in found}
        assert sorted(image.values()) == list(range(h * h))
        # a permutation is fixed by its image of 0, and perm_a o perm_b sends
        # 0 to perm_a[b]: the group is abelian when perm_a[b] == perm_b[a]
        orders = Counter()
        for a, perm in found.items():
            for b in found:
                assert perm[b] == found[b][a]
                assert image[perm[b]] == q.table[image[a]][image[b]]
            order, j = 1, a
            while j != 0:
                order, j = order + 1, perm[j]
            orders[order] += 1
        assert orders == CENTRALIZER_ORDERS[h]


def exact_divisors(tau: RingElt):
    """The exact divisors e != 1 of tau (e | tau, gcd(e, tau/e) = 1): the
    products of a nonempty set of tau's prime powers."""
    powers = [p**k for p, k in factor(tau).factors]
    for mask in range(1, 2 ** len(powers)):
        e = ONE
        for i, power in enumerate(powers):
            if mask >> i & 1:
                e = e * power
        yield e


def _inverse_mod(xa: int, xb: int, ya: int, yb: int) -> tuple[int, int]:
    """Coefficients of an inverse of xa + xb*L modulo ya + yb*L, unreduced,
    by ``_euclid``'s steps with a cofactor s kept so that s*x is congruent
    to the current remainder.  Raises NotAUnitError unless x and y are
    coprime."""
    sa, sb, ta, tb = 1, 0, 0, 0
    while ya or yb:
        qa, qb, ra, rb = _divmod_step(xa, xb, ya, yb)
        xa, xb, ya, yb = ya, yb, ra, rb
        sa, sb, ta, tb = (
            ta, tb, sa - qa * ta - qb * tb, sb - qa * tb - qb * (ta + tb)
        )
    # s*x = u for the gcd u, and u**-1 = norm(u) * conj(u) for a unit u
    n = xa * xa + xa * xb - xb * xb
    if n not in (1, -1):
        raise NotAUnitError(f"gcd {xa} + {xb}*L is not a unit")
    ua, ub = n * (xa + xb), -n * xb
    return sa * ua + sb * ub, sa * ub + sb * (ua + ub)


@given(wide_nonzero_elements, wide_nonzero_elements)
@example(RingElt(3, 0), RingElt(-1, 2))
@example(RingElt(6, 18), ONE)
@example(RingElt(6, 0), RingElt(4, 0))
def test_inverse_mod_inverts_exactly_the_coprime_elements(x, y):
    if gcd(x, y) != ONE:
        with pytest.raises(NotAUnitError):
            _inverse_mod(*x.coeffs, *y.coeffs)
        return
    inverse = RingElt(*_inverse_mod(*x.coeffs, *y.coeffs))
    assert exact_divide(x * inverse - ONE, y) is not None


def atkin_lehner(tau: RingElt, e: RingElt) -> tuple[RingElt, ...]:
    """The entries of W_e = [[e, y], [tau, e*w]], det W_e = e, with
    w = e**-1 mod tau/e and y = (e*w - 1)/(tau/e)."""
    m = exact_divide(tau, e)
    w = RingElt(*_inverse_mod(e.a, e.b, m.a, m.b))
    return e, exact_divide(e * w - ONE, m), tau, e * w


def conjugate_in_sl2(entries: tuple[RingElt, ...], g: GMatrix):
    """W*g*adj(W)/det W for W with the given entries, or None when some
    entry is not divisible by det W (the conjugate is not over Z[L])."""
    a, b, c, d = entries
    pa, pb = a * g.a + b * g.c, a * g.b + b * g.d
    pc, pd = c * g.a + d * g.c, c * g.b + d * g.d
    det = a * d - b * c
    out = [
        exact_divide(x, det)
        for x in (pa * d - pb * c, pb * a - pa * b, pc * d - pd * c, pd * a - pc * b)
    ]
    return None if None in out else GMatrix(*out)


def test_atkin_lehner_elements_leave_g5_up_to_norm_400():
    # For Gamma0(N) the Atkin-Lehner involutions W_e normalize it; here each
    # W_e conjugates some generator of G0(tau) to a matrix of SL2(Z[L])
    # outside G5, a finite certificate that W_e does not normalize G0(tau)
    pairs = 0
    for tau in ideals_up_to_norm(400):
        for e in exact_divisors(tau):
            w_e = atkin_lehner(tau, e)
            assert w_e[0] * w_e[3] - w_e[1] * w_e[2] == e
            assert any(
                (conj := conjugate_in_sl2(w_e, g)) is not None
                and g5_decompose(conj) is None
                for g in schreier_generators(tau)
            )
            pairs += 1
    assert pairs == 373


@pytest.mark.parametrize("n", [4, 12, 16, 48])
def test_normalizer_generators_keep_g0_conjugates_inside(n):
    # the control: G0(tau/h) normalizes G0(tau), so conjugating by its
    # generators that lie outside G0(tau) keeps every conjugate in G0(tau)
    tau = ints(n)
    level = exact_divide(tau, ints(h_of(tau)))
    outside = [m for m in schreier_generators(level) if not g0_contains(m, tau)]
    assert outside
    for m in outside[:3]:
        for g in islice(schreier_generators(tau), 100):
            assert g0_contains(conjugate(m, g), tau)


# --- reduced_witness_bound ----------------------------------------------------------


def test_witness_bound_for_4_via_3_lambda_cubed():
    u = ints(3) * lambda_pow(3)
    assert reduced_witness_bound(ints(4), u, lambda_pow(4)) == ints(2)


def test_witness_bound_square_free_modulus_is_itself():
    u = ints(5) * lambda_pow(6)
    assert reduced_witness_bound(ints(6), u, lambda_pow(7)) == ints(6)


def test_witness_bound_for_16_via_5_lambda_sixth():
    u = ints(5) * lambda_pow(6)
    assert reduced_witness_bound(ints(16), u, lambda_pow(7)) == ints(4)


def test_witness_bound_rejects_unreduced_fraction():
    with pytest.raises(NotReducedError):
        reduced_witness_bound(ints(4), ints(3), lambda_pow(1))


# --- supergroup chain ---------------------------------------------------------------


def test_chain_for_48_strips_3_then_bounds_by_12():
    report = supergroup_chain(ints(48))
    assert report.half_power_bound == ints(12)
    assert report.final == ints(12)
    step3, step5 = report.steps
    assert step3.part == "3-part"
    assert step3.removed == ints(3)
    assert step3.remaining == ints(16)
    assert step3.witnesses == (ints(3) * lambda_pow(3), ints(9) * lambda_pow(9))
    assert step3.gcds == (ints(4), ints(4))
    assert step3.bound == ints(4)
    assert step5.part == "root5-part"
    assert step5.remaining == ints(48)
    assert step5.gcds == (ints(4),)
    assert step5.bound == ints(12)


def test_chain_for_9_is_trivial_after_stripping():
    report = supergroup_chain(ints(9))
    assert report.half_power_bound == ints(3)
    assert report.final == ints(9)
    step3, step5 = report.steps
    assert step3.removed == ints(9)
    assert step3.remaining == ONE
    assert step3.witnesses == ()
    assert step5.bound == ints(9)


def test_chain_for_5_strips_the_ramified_part():
    report = supergroup_chain(ints(5))
    assert report.half_power_bound == elt("2*L-1")
    assert report.final == ints(5)
    step3, step5 = report.steps
    assert step3.bound == ints(5)
    assert step5.remaining == ONE


def test_chain_agrees_with_closed_form_up_to_norm_400():
    for tau in ideals_up_to_norm(400):
        assert supergroup_chain(tau).final == normalizer_of(tau).modulus


def test_chain_factors_tau_once(monkeypatch):
    from hecke5 import ideals

    calls = []

    def counted(x):
        calls.append(x)
        return factor(x)

    factor = ideals.factor
    monkeypatch.setattr(ideals, "factor", counted)
    monkeypatch.setattr(normalizer_module, "factor", counted)
    for tau in ideals_up_to_norm(100) + [ints(48), ints(225), ints(45) * LAMBDA]:
        del calls[:]
        supergroup_chain(tau)
        assert len(calls) == 1, tau


def test_chain_rejects_unit_modulus():
    with pytest.raises(UnitModulusError):
        supergroup_chain(ONE)


# --- elementary elements ------------------------------------------------------------


def test_elementary_counterexamples_for_ten_non_divisors():
    expected = {
        "3": ("2*L+2", "2*L+1"),
        "2*L-1": ("2*L+2", "4*L+3"),
        "12*L+7": ("6*L+3", "3*L-2"),
        "6": ("40*L+25", "13*L+8"),
        "8": ("6*L+3", "3*L+2"),
        "16": ("6*L+3", "3*L+2"),
        "9": ("2*L+2", "2*L+1"),
        "5": ("2*L+2", "2*L+1"),
        "7": ("2*L+2", "2*L+1"),
        "3*L": ("2*L+2", "L+1"),
    }
    for text, (x_text, y_text) in expected.items():
        r = elt(text)
        verdict = is_g5_elementary(r)
        assert verdict.verdict == COUNTEREXAMPLE_FOUND, text
        x, y = verdict.witness
        assert x == elt(x_text), text
        assert y == elt(y_text), text
        # the defining invariant of a counterexample
        assert is_reduced_form(x, r * y)
        assert not ResidueCtx(r).divides(x * x - ONE)


def test_12_lambda_7_counterexample_has_residue_2():
    r = elt("12*L+7")
    verdict = is_g5_elementary(r)
    x = verdict.witness[0]
    assert x == ints(3) * lambda_pow(3)
    assert ResidueCtx(r).reduce(x * x - ONE) == ints(2)


def test_no_counterexample_for_divisors_of_4():
    for n in (1, 2, 4):
        verdict = is_g5_elementary(ints(n))
        assert verdict.verdict == NO_COUNTEREXAMPLE
        assert verdict.witness is None


def test_elementary_verdict_for_unit_is_immediate():
    assert is_g5_elementary(LAMBDA).verdict == NO_COUNTEREXAMPLE


def test_elementary_rejects_bad_inputs():
    with pytest.raises(ZeroInputError):
        is_g5_elementary(RingElt(0, 0))
    with pytest.raises(BadRangeError):
        is_g5_elementary(ints(3), bound=0)
    with pytest.raises(ZeroInputError):
        strongly_elementary(RingElt(0, 0))


def test_strongly_elementary_4_holds_8_fails():
    strong4 = strongly_elementary(ints(4))
    assert strong4.holds
    assert strong4.divisors == (ONE, ints(2), ints(4))
    strong8 = strongly_elementary(ints(8))
    assert not strong8.holds
    assert strong8.failing_divisor == ints(8)
    assert strong8.failure.witness[0] == ints(3) * lambda_pow(3)
    assert strongly_elementary(ONE).holds


def test_exact_check_settles_divisors_of_4_without_the_box(monkeypatch):
    from hecke5 import normalizer

    calls = []

    def counted(r, ctx, bound):
        calls.append(r)
        return _box_sweep(r, ctx, bound)

    monkeypatch.setattr(normalizer, "_box_sweep", counted)
    for bound in (1, 12):
        for r in (ints(2), ints(4), LAMBDA * ints(2)):
            verdict = is_g5_elementary(r, bound)
            assert verdict.verdict == NO_COUNTEREXAMPLE
            assert verdict.witness is None
    assert calls == []


def test_box_sweep_runs_unless_r_divides_4(monkeypatch):
    # 4 and 2L are proved with no sweep; no targeted witness settles 30 or
    # 36L-18, so the sweep gives their verdict at every bound, and 36L-18
    # first meets a witness at bound 6
    from hecke5 import normalizer

    swept, box_sweep = [], normalizer._box_sweep

    def recorded_sweep(r, ctx, bound):
        swept.append((r, bound))
        return box_sweep(r, ctx, bound)

    monkeypatch.setattr(normalizer, "_box_sweep", recorded_sweep)
    for r, bound, sweeps, verdict in (
        (ints(4), 1, False, NO_COUNTEREXAMPLE),
        (LAMBDA * ints(2), 1, False, NO_COUNTEREXAMPLE),
        (ints(30), 1, True, NO_COUNTEREXAMPLE),
        (ints(30), 4, True, NO_COUNTEREXAMPLE),
        (elt("36*L-18"), 1, True, NO_COUNTEREXAMPLE),
        (elt("36*L-18"), 4, True, NO_COUNTEREXAMPLE),
        (elt("36*L-18"), 6, True, COUNTEREXAMPLE_FOUND),
    ):
        assert is_g5_elementary(r, bound).verdict == verdict
        assert swept == ([(r, bound)] if sweeps else [])
        swept.clear()


def test_elementary_search_walks_and_factors_nothing(monkeypatch):
    # no search factors r or walks a coset graph, and none needs a walk
    # cached first: not the box misses 120 and 18L+126 at the default
    # bound, nor the divisors of 4, nor r of norm 13680 or 9.0e28 (whose
    # factoring would raise FactorCapError)
    from hecke5 import ideals, normalizer, subgroups

    def refuse(x, *args):
        raise AssertionError(f"factored or walked {x}")

    for module, name in (
        (ideals, "factor"),
        (normalizer, "factor"),
        (subgroups, "_Orbit"),
    ):
        monkeypatch.setattr(module, name, refuse)
    for r, bound in (
        (ints(120), 12),
        (elt("18*L+126"), 12),
        (ints(2) * LAMBDA, 12),
        (ints(4), 12),
        (elt("84*L-192"), 3),
        (ints(30) * RingElt(10**13, 1), 1),
    ):
        verdict = is_g5_elementary(r, bound)
        assert verdict.verdict == NO_COUNTEREXAMPLE, r
        assert verdict.witness is None


def _admitted(r):
    """The residues x modulo r, as reduced pairs, that ``_box_sweep``
    admits: the units, found by their primes, that pass the filter mod
    m = gcd(a, b, 6), r = a + b*L."""
    ctx = ResidueCtx(r)
    primes = [ResidueCtx(p) for p in factor(r).distinct_primes()]
    m = math.gcd(*r.coeffs, 6)
    admitted = normalizer_module._ADMITTED[m]
    return {
        (a, b)
        for a in range(ctx.n)
        for b in range(ctx.g)
        if (a % m, b % m) in admitted
        and all(p.red(a, b) != (0, 0) for p in primes)
    }


def test_residue_filter_matches_the_walk_of_g0_r():
    # the residues that the filter admits hash as the single walk of G0(r)
    # does in test_subgroups: they are A on every ideal of norm <= 600
    digest = hashlib.sha256()
    for tau in ideals_up_to_norm(600):
        image = _admitted(tau)
        digest.update(repr((tau.coeffs, sorted(image))).encode() + b"\n")
    assert digest.hexdigest() == UPPER_LEFT_IMAGE_GOLDEN


def test_residue_filter_admits_exactly_the_walk_of_g0_r():
    # F(r) = A(r) on every composite and prime-power r of norm <= 1500 and
    # index <= 10000, 402 moduli, with A(r) read from the coset table
    moduli = [
        r for r in ideals_up_to_norm(1500)
        if [e for _, e in factor(r).factors] != [1] and index_in_g5(r) <= 10_000
    ]
    assert len(moduli) == 402
    for r in moduli:
        assert _admitted(r) == walked_upper_left_image(r), r


def test_upper_left_constants_are_the_images_of_g0_2_and_g0_3():
    # A(2) and A(3) are written out in the module; here they are closed
    # from the Schreier generators of G0(2) and G0(3) (index 5 and 10)
    for p in (2, 3):
        assert normalizer_module._UPPER_LEFT_MOD[p] == upper_left_image(ints(p)), p


def test_residue_filter_uses_2_and_3():
    # at the box modulus 18L+6 = 2 * 3 * (2L-1) * unit the filter admits
    # exactly the image A of G0(r), 16 of its 96 units, and dropping the
    # test mod 2 or mod 3 admits a strictly larger set
    r = elt("18*L+6")
    filters = normalizer_module._ADMITTED
    assert filters[2] == {(1, 0)}
    assert filters[3] == {(1, 0), (2, 0), (1, 1), (2, 2)}
    admitted = _admitted(r)
    assert admitted == upper_left_image(r)
    assert len(admitted) == 16
    units = {
        x.coeffs for x in ResidueCtx(r).residues() if gcd(x, r).is_unit()
    }
    assert len(units) == 96
    for p in (2, 3):
        larger = {(a, b) for a, b in units if (a % p, b % p) in filters[p]}
        assert larger > admitted, p


def test_box_sweep_finds_nothing_for_associates_of_2_and_4():
    for r in (ints(2), -LAMBDA * ints(2), ints(4), -ints(4) * lambda_pow(-1)):
        verdict = _box_sweep(r, ResidueCtx(r), 6)
        assert verdict.verdict == NO_COUNTEREXAMPLE, r
        assert verdict.witness is None


def test_pruned_box_sweep_matches_the_full_sweep():
    # skipping every x that the filter rejects keeps verdict and witness
    cases = [(tau, 4) for tau in ideals_up_to_norm(400)]
    box_modulus = elt("12*L-6") * lambda_pow(2)
    cases += [(box_modulus, bound) for bound in range(4, 9)]
    for r, bound in cases:
        ctx = ResidueCtx(r)
        assert _box_sweep(r, ctx, bound) == _eager_box_sweep(r, ctx, bound), r


def _box_coefficients(bound):
    """The eager sweep's box: every element with coefficients in
    [-bound, bound], sorted by (max(|a|, |b|), a, b)."""
    elements = [
        RingElt(a, b)
        for a in range(-bound, bound + 1)
        for b in range(-bound, bound + 1)
    ]
    elements.sort(key=lambda e: (max(abs(e.a), abs(e.b)), e.a, e.b))
    return elements


def _eager_box_sweep(r, ctx, bound, parts=None):
    """Reference for ``_box_sweep``: the whole box sorted up front, every
    r*y built before the first x, every test on ``RingElt``s and a gcd for
    every x; chains run through the module's ``_exponent_or_none``."""
    box = _box_coefficients(bound)
    denominators = [(r * y, y) for y in box if y]
    for x in box:
        if (x.a, x.b) <= (0, 0):
            continue
        if parts is not None and any(
            q.red(*x.coeffs) not in image for q, image in parts
        ):
            continue
        if ctx.divides(x * x - ONE) or not gcd(x, r).is_unit():
            continue
        for denominator, y in denominators:
            if normalizer_module._exponent_or_none(x, denominator) == 0:
                return ElementaryVerdict(r, COUNTEREXAMPLE_FOUND, (x, y), bound)
    return ElementaryVerdict(r, NO_COUNTEREXAMPLE, None, bound)


def test_box_pairs_run_in_sorted_order():
    for bound in range(13):
        assert list(_box_pairs(bound)) == [
            e.coeffs for e in _box_coefficients(bound)
        ]


def test_lazy_box_sweep_matches_the_eager_sweep(monkeypatch):
    # same verdict, same witness and the same chains in the same order as
    # the eager sweep given the image A of G0(r); the chains' answers are
    # kept per modulus, since the box of a bound leads the box of the next
    # in sweep order
    chains, answers = [], {}

    def recorded(num, den):
        args = (*num.coeffs, *den.coeffs)
        chains.append(args)
        if args not in answers:
            answers[args] = _exponent_or_none(num, den)
        return answers[args]

    monkeypatch.setattr(normalizer_module, "_exponent_or_none", recorded)
    moduli = [(r, range(1, 7)) for tau in ideals_up_to_norm(400)
              for r in (tau, -tau * LAMBDA)]
    moduli.append((elt("12*L-6") * lambda_pow(2), range(4, 9)))
    for r, bounds in moduli:
        ctx = ResidueCtx(r)
        answers.clear()
        parts = [(ctx, upper_left_image(r))]
        for bound in bounds:
            expected = _eager_box_sweep(r, ctx, bound, parts)
            expected_chains = chains[:]
            chains.clear()
            assert _box_sweep(r, ctx, bound) == expected, (r, bound)
            assert chains == expected_chains, (r, bound)
            chains.clear()


#: sha256 of the (verdict, witness) of ``is_g5_elementary`` on every ideal of
#: norm at most 1000 and its -L associate at bounds 3 and 4, as computed by
#: the search before the box sweep was pruned.
ELEMENTARY_SWEEP_GOLDEN = (
    "bee35552e19cb1ae54d7b21caf0df80064af2bb1bfc7248d00b24b2b21c24c56"
)


def test_elementary_verdicts_match_the_golden():
    moduli = [r for tau in ideals_up_to_norm(1000) for r in (tau, -tau * LAMBDA)]
    assert len(moduli) == 860
    digest = hashlib.sha256()
    for r in moduli:
        for bound in (3, 4):
            verdict = is_g5_elementary(r, bound)
            w = verdict.witness
            cells = (
                r.coeffs,
                bound,
                verdict.verdict,
                None if w is None else (w[0].coeffs, w[1].coeffs),
            )
            digest.update(repr(cells).encode() + b"\n")
    assert digest.hexdigest() == ELEMENTARY_SWEEP_GOLDEN


# --- fast exponent chain ------------------------------------------------------------


def test_fast_exponent_matches_full_reduction():
    box = range(-4, 5)
    for xa in box:
        for xb in box:
            num = RingElt(xa, xb)
            for ya in box:
                for yb in box:
                    den = RingElt(ya, yb)
                    if not num and not den:
                        continue
                    try:
                        expected = reduced_factor(num, den).e
                    except NotCoprimeError:
                        expected = None
                    assert _exponent_or_none(num, den) == expected
