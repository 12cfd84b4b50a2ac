"""Subgroup-layer tests: membership, coset tables, shear families, sampling."""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import deque
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke5.errors import BadRangeError, BoundExceededError, IntegrityError
from hecke5.ideals import ResidueCtx, factor, ideals_up_to_norm, primes_above
from hecke5.reduction import (
    GEN_S,
    GEN_T,
    IDENTITY,
    GMatrix,
    eval_word,
    is_reduced_form,
    t_power,
)
from hecke5.normalizer import quotient_table
from hecke5.ring import LAMBDA, ONE, ZERO, RingElt, exact_divide, gcd, lambda_pow
from hecke5 import subgroups
from hecke5.subgroups import (
    CosetTable,
    ShearPair,
    conjugate,
    coset_table,
    g0_contains,
    sample_subgroup,
    sample_words,
    schreier_generators,
    shear_coset_equal,
)


def elem(a: int, b: int = 0) -> RingElt:
    return RingElt(a, b)


# --- membership -------------------------------------------------------------------


def test_g0_contains_examples():
    third_gen = GMatrix(elem(1, 2), elem(0, -1), elem(0, 2), elem(-1, 0))
    assert g0_contains(third_gen, elem(2, 0))
    assert g0_contains(GEN_T, elem(2, 0))
    assert g0_contains(GEN_T, elem(7, 12))
    assert not g0_contains(GEN_S, elem(2, 0))
    # in SL2 over the ring, lower-left even, but not in the group itself
    outsider = GMatrix(elem(-1, 3), LAMBDA, elem(0, 2), LAMBDA)
    assert not g0_contains(outsider, elem(2, 0))


def test_conjugate():
    assert conjugate(IDENTITY, GEN_T) == GEN_T
    lower = conjugate(GEN_S, GEN_T)
    assert lower.entries == (ONE, elem(0, 0), elem(0, -1), ONE)
    a = GEN_T * GEN_S
    b1, b2 = GEN_S, GEN_T * GEN_T
    assert conjugate(a, b1 * b2) == conjugate(a, b1) * conjugate(a, b2)


@given(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
)
def test_conjugation_entry_identity(k1, k2, k3):
    # closed form for the lower-left entry of a*b*a**-1 in terms of entries
    a = t_power(k1) * GEN_S * t_power(k2)
    b = GEN_S * t_power(k3) * GEN_S
    got = conjugate(a, b).c
    expected = a.c * a.d * (b.a - b.d) + b.c * a.d * a.d - a.c * a.c * b.b
    assert got == expected


# --- coset tables -----------------------------------------------------------------


def test_coset_table_sizes():
    for tau, want in [
        (elem(1, 0), 1),
        (elem(2, 0), 5),
        (elem(3, 0), 10),
        (elem(-1, 2), 6),
        (elem(7, 12), 12),
        (elem(16, 0), 320),
    ]:
        assert CosetTable(tau).size == want


def test_coset_table_structure():
    table = coset_table(elem(2, 0))
    assert len(table) == 5
    assert table.locate(IDENTITY) == 0
    assert table.locate(GEN_T) == 0  # T is in the subgroup for every level
    assert table.locate(GEN_S) != 0
    for i in range(table.size):
        assert table.locate(table.reps[i]) == i
        assert eval_word(table.rep_words[i]) == table.reps[i]
    for name in "ST":
        act = table.action[name]
        assert sorted(act) == list(range(table.size))
    s = table.action["S"]
    assert all(s[s[i]] == i for i in range(table.size))


def test_coset_table_action_matches_matrices():
    table = coset_table(elem(3, 0))
    for i in range(table.size):
        for name, gen in (("S", GEN_S), ("T", GEN_T)):
            j = table.action[name][i]
            assert table.locate(table.reps[i] * gen) == j


def test_coset_table_membership_via_class_zero():
    table = coset_table(elem(2, 0))
    for m in sample_words(list(schreier_generators(elem(2))), 25, seed=3):
        assert table.locate(m) == 0
    assert table.locate(GEN_S * GEN_T) != 0


def test_coset_table_bound():
    with pytest.raises(BoundExceededError):
        CosetTable(elem(16, 0), max_points=100)


@pytest.mark.parametrize("max_points", [0, -3])
def test_coset_table_bound_below_one_is_a_bad_range(monkeypatch, max_points):
    def unfactored(modulus):
        raise AssertionError("the modulus was factored")

    monkeypatch.setattr(subgroups, "_index_and_primes", unfactored)
    with pytest.raises(BadRangeError, match=f"^bound must be >= 1, got {max_points}$"):
        CosetTable(elem(6), max_points=max_points)


def test_coset_table_at_the_default_bound():
    # a split prime of norm 9949: index 9950, just under max_points=10_000
    tau = primes_above(9949)[0]
    with pytest.raises(BoundExceededError):
        CosetTable(tau, max_points=9949)
    table = CosetTable(tau)
    assert table.size == 9950
    s, t = table.action["S"], table.action["T"]
    assert all(s[s[i]] == i for i in range(table.size))
    for i in range(table.size):
        j = i
        for _ in range(5):
            j = t[s[j]]
        assert j == i  # (ST)**5 acts trivially
    assert table.locate(IDENTITY) == 0
    assert all(table.locate(table.reps[i]) == i for i in range(0, table.size, 97))


def test_coset_table_evaluates_words_only_when_reps_are_read(monkeypatch):
    evaluated, products = [], []
    evaluate, multiply = subgroups.eval_word, GMatrix.__mul__

    def counted_eval(word):
        evaluated.append(word)
        return evaluate(word)

    def counted_mul(a, b):
        products.append(None)
        return multiply(a, b)

    monkeypatch.setattr(subgroups, "eval_word", counted_eval)
    monkeypatch.setattr(GMatrix, "__mul__", counted_mul)
    table = coset_table(primes_above(1009)[0])
    assert table.size == 1010
    assert vars(table)["_rep_words"] is None  # no word before the first read
    assert not evaluated
    reps = table.reps
    assert evaluated == table.rep_words
    assert table.reps is reps
    assert len(evaluated) == table.size
    assert not products


def test_coset_table_reads_add_no_attribute():
    # both caches are set in __init__, so reading them keeps the instance
    # layout that locate runs on
    table = coset_table(elem(16))
    names = set(vars(table))
    words, reps = table.rep_words, table.reps
    assert set(vars(table)) == names
    assert table.rep_words is words
    assert table.reps is reps


def test_quotient_table_never_reads_coset_reps(monkeypatch):
    def unread(table):
        raise AssertionError("CosetTable.reps was read")

    monkeypatch.setattr(CosetTable, "reps", property(unread))
    with pytest.raises(AssertionError):
        coset_table(elem(16)).reps
    assert quotient_table(elem(16)).order == 16


def test_product_of_all_unit_residues_is_its_own_inverse():
    # _Orbit inverts this product by reusing it: in a finite abelian
    # group the product of all elements has order 1 or 2
    orders = set()
    for tau in ideals_up_to_norm(600):
        ctx = ResidueCtx(tau)
        primes = [ResidueCtx(p) for p in factor(tau).distinct_primes()]
        product = ONE
        for x in ctx.residues():  # x is invertible when no prime over tau divides it
            if not any(p.divides(x) for p in primes):
                product = ctx.reduce(product * x)
        assert ctx.reduce(product * product) == ctx.reduce(ONE), tau
        orders.add(1 if product == ctx.reduce(ONE) else 2)
    assert orders == {1, 2}


def test_unit_orbit_sizes_sum_to_the_norm():
    # _Orbit stops filling the orbit of c0 at phi(tau / gcd(c0, tau))
    # residues; the orbits partition O/tau, so these sizes must sum to
    # N(tau) over the divisors of tau
    for tau in ideals_up_to_norm(2000):
        factors = factor(tau).factors
        primes = [ResidueCtx(p) for p, _ in factors]
        total = 0
        for exponents in itertools.product(*(range(e + 1) for _, e in factors)):
            mu = ONE
            for (p, _), k in zip(factors, exponents):
                mu = mu * p**k
            total += subgroups._unit_count(mu.coeffs, primes)
        assert total == tau.abs_norm(), tau


def test_projective_line_raises_when_the_units_leave_an_orbit_short(monkeypatch):
    def one_too_many(mu, primes):
        return unit_count(mu, primes) + 1

    unit_count = subgroups._unit_count
    monkeypatch.setattr(subgroups, "_unit_count", one_too_many)
    with pytest.raises(IntegrityError, match="unreached"):
        CosetTable(elem(12))


def test_coset_table_raises_when_the_orbit_misses_the_index_formula(monkeypatch):
    def one_more(modulus):
        expected, primes = index_and_primes(modulus)
        return expected + 1, primes

    index_and_primes = subgroups._index_and_primes
    monkeypatch.setattr(subgroups, "_index_and_primes", one_more)
    with pytest.raises(IntegrityError) as info:
        CosetTable(elem(6))
    assert str(info.value) == "orbit has 50 classes but the index formula gives 51"


def _orbit_with_blocks(monkeypatch, mus):
    """Patch the coset walker so its block of each least residue c0 in
    ``mus`` reads that modulus mu instead of its own."""

    class Patched(subgroups._Orbit):
        def __init__(self, modulus, max_points):
            super().__init__(modulus, max_points)
            self.blocks = [(c0, mus.get(c0, mu)) for c0, mu in self.blocks]

    monkeypatch.setattr(subgroups, "_Orbit", Patched)


def test_class_numbering_skips_pairs_that_are_not_points(monkeypatch):
    # modulo 4 the least residue 2L of its orbit has mu = 2, and (2L, 0) has
    # a key like any point's; but 2 holds both entries, so (2L, 0) is no
    # point, and the rank scan must not place a class by it
    table = CosetTable(elem(4))
    non_point = table._key(0, 2, 0, 0)
    assert non_point == 2 * 16
    assert non_point not in table._index_of
    # class 0 and the 16 classes of the unit block L come first; then (2L, L)
    # ranks 2 * 16 + 1, before (2L, 1) at 2 * 16 + 4 and (2L, 1 + L)
    ranked = [table._index_of[table._key(0, 2, *d)] for d in ((0, 1), (1, 0), (1, 1))]
    assert ranked == [17, 18, 19] and table.size == 20
    # with mu = 4 the block of 2L would hold 12 classes, but only three keys
    # (2L, d) are points
    _orbit_with_blocks(monkeypatch, {2: (4, 0)})
    with pytest.raises(IntegrityError, match="9 classes of residue 2 have no point"):
        CosetTable(elem(4))
    # the unit residue L has one class per residue d, so a block of N(2)
    # classes is short
    _orbit_with_blocks(monkeypatch, {1: (2, 0)})
    with pytest.raises(IntegrityError, match="unit residue 1 has 4 of its 16 classes"):
        CosetTable(elem(4))


def test_coset_action_is_the_key_of_each_move():
    # S and T in closed form on the unit block, and through the key of each
    # move elsewhere, against the key of every point's moves reduced by
    # ResidueCtx.red: S sends (c, d) to (d, -c) and T sends it to (c, c L + d)
    moduli = [r for tau in ideals_up_to_norm(1000) for r in (tau, -tau * LAMBDA)]
    for r in moduli:
        table = CosetTable(r)
        red, key, index_of = table.ctx.red, table._key, table._index_of
        s, t = table.action["S"], table.action["T"]
        for i, (ca, cb, da, db) in enumerate(table.points):
            assert s[i] == index_of[key(*red(da, db), -ca, -cb)], (r, i)
            assert t[i] == index_of[key(ca, cb, cb + da, ca + cb + db)], (r, i)


def test_coset_table_raises_when_the_action_leaves_a_class_unreached(monkeypatch):
    class Fixed(subgroups._Orbit):
        def __init__(self, modulus, max_points):
            super().__init__(modulus, max_points)
            # each row outside the unit block moves to itself, so S and T
            # both fix class 0 and the pass from it stops there
            self.moves = lambda *row: (row, row)

    monkeypatch.setattr(subgroups, "_Orbit", Fixed)
    with pytest.raises(IntegrityError, match="reaches 1 of 50 classes"):
        CosetTable(elem(6))


def test_coset_table_never_walks(monkeypatch):
    def walk(self):
        raise AssertionError("CosetTable walked the orbit")

    monkeypatch.setattr(subgroups._Orbit, "walk", walk)
    table = coset_table(elem(72))
    assert table.size == 7200
    assert len(table._index_of) == len(table.points) == 7200


#: sha256 of the points, words and action of the coset table of every ideal
#: of norm at most 600 and its -L associate, as computed when the classes
#: were numbered from their stabilisers.
COSET_TABLE_GOLDEN = (
    "2cc25d1503cfdddbc020113922996028de37948bd6555101071b2343b4fd6d04"
)


def test_coset_tables_match_the_golden():
    moduli = [r for tau in ideals_up_to_norm(600) for r in (tau, -tau * LAMBDA)]
    assert len(moduli) == 514
    digest = hashlib.sha256()
    for r in moduli:
        table = CosetTable(r)
        cells = (r.coeffs, table.points, table.rep_words, table.action)
        digest.update(repr(cells).encode() + b"\n")
    assert digest.hexdigest() == COSET_TABLE_GOLDEN


#: sha256 of the same cells for both split primes of norm 1009, their -L
#: associates and 30 (norm 900, g = 30), all above the norm-600 pin.
LARGE_COSET_TABLE_GOLDEN = (
    "11708fa5ac4fe5c0c3aef35742dd930d4d5f5fcba95ca9ffedd3ed6580461563"
)


def test_large_coset_tables_match_the_golden():
    moduli = [r for p in primes_above(1009) for r in (p, -p * LAMBDA)]
    moduli.append(elem(30))
    digest = hashlib.sha256()
    for r in moduli:
        table = CosetTable(r)
        cells = (r.coeffs, table.points, table.rep_words, table.action)
        digest.update(repr(cells).encode() + b"\n")
    assert digest.hexdigest() == LARGE_COSET_TABLE_GOLDEN


# --- the residue line against ResidueCtx ----------------------------------------------


def reference_key(r: RingElt, units, c: tuple[int, int], d: tuple[int, int]) -> int:
    """Class key c0 * N(r) + (w*d mod mu) of the point (c, d), built by
    brute force with every reduction done by ``ResidueCtx.red``: c0 is the
    least residue w*c over the ``units`` w, and mu = r / gcd(c0, r).  Any w
    with w*c = c0 gives the same key, since the units fixing c0 are those
    congruent to 1 modulo mu."""
    ctx = ResidueCtx(r)
    (ca, cb), (da, db) = c, d
    c0, (wa, wb) = min(
        (ctx.red(wa * ca + wb * cb, wa * cb + wb * (ca + cb)), (wa, wb))
        for wa, wb in units
    )
    mu = ResidueCtx(exact_divide(r, gcd(elem(*c0), r)))
    ea, eb = mu.red(wa * da + wb * db, wa * db + wb * (da + db))
    return (c0[0] * ctx.g + c0[1]) * ctx.size + ea * mu.g + eb


def test_residue_line_matches_residue_ctx():
    # bit i of _held against ResidueCtx.divides for the i-th prime, and key
    # against a key built through ResidueCtx.red, on seeded points with d
    # unreduced and coefficients up to 2**70 of either sign
    rng = random.Random(24)
    spans = (3, 1000, 1 << 70)
    moduli = [r for tau in ideals_up_to_norm(600) for r in (tau, -tau * LAMBDA)]
    for r in moduli:
        primes = [ResidueCtx(p) for p in factor(r).distinct_primes()]
        orbit = subgroups._Orbit(r, subgroups._MAX_POINTS)
        residues = [x.coeffs for x in ResidueCtx(r).residues()]
        held = [
            sum(1 << i for i, p in enumerate(primes) if p.divides(elem(*x)))
            for x in residues
        ]
        assert orbit._held == held, r
        units = [x for x, h in zip(residues, held) if not h]
        for _ in range(6):
            c = rng.choice(residues)
            span = rng.choice(spans)
            d = (rng.randint(-span, span), rng.randint(-span, span))
            assert orbit.key(*c, *d) == reference_key(r, units, c, d), (r, c, d)


# --- coset tables against a brute-force oracle --------------------------------------


def oracle_table(tau: RingElt):
    """Coset table from every unit multiple of every point, least key first.

    Returns (points, reps, rep_words, action, locate).
    """
    ctx = ResidueCtx(tau)
    units = [r for r in ctx.residues() if r and gcd(r, tau).is_unit()]
    units = units or [ctx.reduce(ONE)]  # the zero ring when tau is a unit

    def key(c: RingElt, d: RingElt) -> tuple[int, int, int, int]:
        return (*ctx.reduce(c).coeffs, *ctx.reduce(d).coeffs)

    class_of: dict = {}
    points, reps, words, least = [], [], [], []

    def register(c, d, rep, word):
        multiples = [key(u * c, u * d) for u in units]
        class_of.update((k, len(points)) for k in multiples)
        least.append(min(multiples))
        points.append(key(c, d))
        reps.append(rep)
        words.append(word)

    register(ZERO, ONE, IDENTITY, ())
    i = 0
    while i < len(points):
        c, d = RingElt(*points[i][:2]), RingElt(*points[i][2:])
        for name, gen, (c2, d2) in (
            ("S", GEN_S, (d, -c)),
            ("T", GEN_T, (c, c * LAMBDA + d)),
        ):
            if key(c2, d2) not in class_of:
                register(c2, d2, reps[i] * gen, words[i] + ((name, 1),))
        i += 1
    order = sorted(range(len(points)), key=least.__getitem__)
    position = {old: new for new, old in enumerate(order)}

    def locate(m: GMatrix) -> int:
        return position[class_of[key(m.c, m.d)]]

    action = {
        name: [locate(reps[i] * gen) for i in order]
        for name, gen in (("S", GEN_S), ("T", GEN_T))
    }
    points, reps, words = ([xs[i] for i in order] for xs in (points, reps, words))
    return points, reps, words, action, locate


ORACLE_EXTRA_MODULI = (
    elem(16),
    elem(4) * (elem(3) + LAMBDA),
    ONE,
    -elem(8) * LAMBDA * LAMBDA,
)


@pytest.mark.parametrize(
    "tau",
    [*ideals_up_to_norm(150), *ORACLE_EXTRA_MODULI],
    ids=lambda t: str(t.coeffs),
)
def test_coset_table_matches_oracle(tau):
    table = CosetTable(tau)
    points, reps, words, action, _ = oracle_table(tau)
    assert table.points == points
    assert [r.entries for r in table.reps] == [r.entries for r in reps]
    assert table.rep_words == words
    assert table.action == action
    assert all(table.locate(table.reps[i]) == i for i in range(table.size))


@pytest.mark.parametrize("tau", ORACLE_EXTRA_MODULI, ids=lambda t: str(t.coeffs))
def test_coset_locate_matches_oracle(tau):
    table = CosetTable(tau)
    locate = oracle_table(tau)[4]
    for m in sample_words((GEN_S, GEN_T), 200, seed=5, max_len=20):
        assert table.locate(m) == locate(m)


# bottom rows whose c has a coefficient past 2**64 or below zero: S T**q S
# has bottom row (q*L, -1), and the long words are hyperbolic powers
FAR_FACTORS = (
    GEN_S * t_power(10**20) * GEN_S,
    GEN_S * t_power(-(10**20)) * GEN_S * t_power(3) * GEN_S,
    (GEN_S * t_power(2)) ** 61,
    (GEN_S * t_power(-3)) ** 61,
)


def test_far_factors_have_raw_bottom_rows():
    # the premise of the next test: locate must reduce these c itself
    for m in FAR_FACTORS:
        assert min(m.c.coeffs) < 0 or max(m.c.coeffs) > 2**64, m.c


@pytest.mark.parametrize(
    "tau",
    [*ideals_up_to_norm(150), *ORACLE_EXTRA_MODULI],
    ids=lambda t: str(t.coeffs),
)
def test_coset_locate_reduces_any_bottom_row(tau):
    table, ctx = CosetTable(tau), ResidueCtx(tau)
    assert table.locate(GMatrix(1, 0, 0, 1)) == 0
    reps = table.reps
    for i in range(0, table.size, max(1, table.size // 8)):
        for far in FAR_FACTORS:
            m = reps[i] * far
            j = table.locate(m)
            assert table.locate(-m) == j  # M and -M are one element
            assert ctx.divides((m * reps[j].inverse()).c), (i, j)


def test_coset_action_genus_is_a_non_negative_integer():
    # Riemann-Hurwitz for a subgroup of index mu in G5, of signature
    # (2, 5, oo): g = 1 + 3 mu/20 - e2/4 - 2 e5/5 - c/2, with e2 and e5 the
    # fixed points of S and ST and c the cycles of T.  An oracle for the
    # action that shares nothing with the walk but the permutations.
    for tau in ideals_up_to_norm(400):
        table = CosetTable(tau)
        s, t = table.action["S"], table.action["T"]
        mu = table.size
        e2 = sum(s[i] == i for i in range(mu))
        e5 = sum(t[s[i]] == i for i in range(mu))
        seen, cycles = [False] * mu, 0
        for i in range(mu):
            if not seen[i]:
                cycles += 1
                while not seen[i]:
                    seen[i], i = True, t[i]
        genus = 1 + Fraction(3 * mu, 20) - Fraction(e2, 4) - Fraction(2 * e5, 5)
        genus -= Fraction(cycles, 2)
        assert genus.denominator == 1 and genus >= 0, (tau, genus)


# --- Schreier generators -------------------------------------------------------------


def test_schreier_generators_lie_in_the_subgroup():
    for tau in ideals_up_to_norm(60):
        generators = list(schreier_generators(tau))
        assert generators
        assert all(g0_contains(s, tau) for s in generators), tau


def test_schreier_generators_decide_elementary_up_to_norm_400():
    # r is elementary exactly when every generator has a**2 = 1 (mod r); the
    # first generator that fails is a counterexample x/(r*y) of its own
    elementary = []
    for tau in ideals_up_to_norm(400):
        ctx = ResidueCtx(tau)
        failing = next(
            (s for s in schreier_generators(tau) if not ctx.divides(s.a * s.a - ONE)),
            None,
        )
        if failing is None:
            elementary.append(tau)
            continue
        a, c = failing.first_column
        assert ctx.divides(c)
        assert is_reduced_form(a, c)
        assert not ctx.divides(a * a - ONE)
    assert elementary == [elem(2), elem(4)]


def test_coset_table_and_schreier_generators_read_one_tree():
    # the breadth-first tree of the action, S before T, is the walk's: its
    # non-tree edges i -> j by g give the Schreier generators in walk order
    for tau in ideals_up_to_norm(400):
        table = coset_table(tau)
        reps, reached, generators = table.reps, {0}, []
        queue = deque([0])
        while queue:
            i = queue.popleft()
            for name, gen in (("S", GEN_S), ("T", GEN_T)):
                j = table.action[name][i]
                if j not in reached:
                    reached.add(j)
                    queue.append(j)
                else:
                    generators.append(reps[i] * gen * reps[j].inverse())
        walked = list(schreier_generators(tau))
        assert [g.entries for g in generators] == [g.entries for g in walked], tau


def test_schreier_walk_stops_at_the_first_failing_generator(monkeypatch):
    orbits = []

    class Recorded(subgroups._Orbit):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            orbits.append(self)

    monkeypatch.setattr(subgroups, "_Orbit", Recorded)
    tau = elem(-6, 12) * lambda_pow(2)
    ctx = ResidueCtx(tau)
    assert any(not ctx.divides(s.a * s.a - ONE) for s in schreier_generators(tau))
    (orbit,) = orbits
    assert orbit.expected == 300
    assert len(orbit.points) < orbit.expected / 2


def test_schreier_generators_bound():
    tau = primes_above(10009)[0]  # index 10010
    with pytest.raises(BoundExceededError):
        next(schreier_generators(tau))


def residue_closure(ctx: ResidueCtx, generators: set[tuple[int, int]]) -> frozenset:
    """The group that ``generators``, reduced coefficient pairs, span under
    products reduced by ``ctx``: a breadth-first closure, extended by each
    generator not yet reached."""
    red = ctx.red
    group, spanning = {red(1, 0)}, []
    for g in generators:
        if g in group:
            continue
        spanning.append(g)
        frontier = list(group)
        while frontier:
            reached = []
            for xa, xb in frontier:
                for sa, sb in spanning:
                    # (xa + xb*L)(sa + sb*L), with L**2 = L + 1
                    y = red(xa * sa + xb * sb, xa * sb + xb * sa + xb * sb)
                    if y not in group:
                        group.add(y)
                        reached.append(y)
            frontier = reached
    return frozenset(group)


@cache
def upper_left_image(r: RingElt) -> frozenset:
    """The upper-left entries of G0(r) modulo r, as reduced pairs: on G0(r)
    c = 0 modulo r, so a -> a mod r is a homomorphism, and its image is the
    group spanned by -1 (the matrices are taken up to sign) and the
    upper-left entries of the Schreier generators.  Cached per modulus."""
    ctx = ResidueCtx(r)
    generators = {ctx.red(*s.a.coeffs) for s in schreier_generators(r)}
    return residue_closure(ctx, generators | {ctx.red(-1, 0)})


def walked_upper_left_image(r: RingElt) -> frozenset:
    """``upper_left_image`` read from ``coset_table(r).action`` alone: a
    breadth-first walk from class 0 keeps each representative's entries as
    residue pairs modulo r, and each edge i -> j by g that does not reach j
    first gives the upper-left entry a*d' - b*c' of rep_i * g * rep_j**-1,
    with rep_i * g = (a, b, c, d) and rep_j = (a', b', c', d'); the edges
    that do give 1.  -1 joins them, as in ``upper_left_image``."""
    ctx = ResidueCtx(r)
    red = ctx.red

    def cross(x, w, y, z):
        """x*w - y*z on coefficient pairs."""
        (xa, xb), (wa, wb), (ya, yb), (za, zb) = x, w, y, z
        return (
            xa * wa + xb * wb - ya * za - yb * zb,
            xa * wb + xb * wa + xb * wb - ya * zb - yb * za - yb * zb,
        )

    action = coset_table(r).action
    edges = tuple(zip(action["S"], action["T"]))
    one, zero = red(1, 0), red(0, 0)
    reps, queue, entries = {0: (one, zero, zero, one)}, deque([0]), set()
    while queue:
        i = queue.popleft()
        (aa, ab), b, (ca, cb), d = reps[i]
        # rep_i * S = (b, -a, d, -c) and rep_i * T = (a, a*L + b, c, c*L + d)
        moved = (
            (b, (-aa, -ab), d, (-ca, -cb)),
            ((aa, ab), (ab + b[0], aa + ab + b[1]),
             (ca, cb), (cb + d[0], ca + cb + d[1])),
        )
        for j, (ta, tb, tc, td) in zip(edges[i], moved):
            if j not in reps:
                reps[j] = (red(*ta), red(*tb), red(*tc), red(*td))
                queue.append(j)
            else:
                _, _, jc, jd = reps[j]
                entries.add(red(*cross(ta, jd, tb, jc)))
    return residue_closure(ctx, entries | {red(-1, 0)})


def test_upper_left_image_oracles_agree():
    for tau in ideals_up_to_norm(150):
        assert walked_upper_left_image(tau) == upper_left_image(tau), tau


def test_upper_left_image_squares_to_one_only_for_2_and_4():
    elementary = [
        tau
        for tau in ideals_up_to_norm(400)
        if all(
            ResidueCtx(tau).divides(elem(*a) * elem(*a) - ONE)
            for a in upper_left_image(tau)
        )
    ]
    assert elementary == [elem(2), elem(4)]
    # the bench's box modulus L**2 * (12L - 6) = 18L + 6: 16 of its 96 units
    assert len(upper_left_image(elem(6, 18))) == 16


def test_upper_left_image_bound():
    assert len(upper_left_image(elem(30))) == 80  # index 1500


#: sha256 of the entries of every Schreier generator in yield order, for
#: every ideal of norm at most 150: this pins the walk order.
SCHREIER_GOLDEN = "6eb5b21e982402a8ead2f212a10aea1ec3abf373a3c1fd8fc1dc82f56addbbdc"

#: sha256 of the sorted upper-left image of every ideal of norm at most 600.
UPPER_LEFT_IMAGE_GOLDEN = (
    "b6df0943371b98349b8d6b6ff6380d183ab5ac93051a8f80a83ecc7b2f61852c"
)


def test_schreier_generators_match_the_golden():
    digest = hashlib.sha256()
    for tau in ideals_up_to_norm(150):
        entries = [tuple(e.coeffs for e in s.entries) for s in schreier_generators(tau)]
        digest.update(repr((tau.coeffs, entries)).encode() + b"\n")
    assert digest.hexdigest() == SCHREIER_GOLDEN


def test_upper_left_images_match_the_golden():
    digest = hashlib.sha256()
    for tau in ideals_up_to_norm(600):
        image = sorted(upper_left_image(tau))
        digest.update(repr((tau.coeffs, image)).encode() + b"\n")
    assert digest.hexdigest() == UPPER_LEFT_IMAGE_GOLDEN


# --- shear families ----------------------------------------------------------------


def test_shear_pair_matrix():
    pair = ShearPair.from_level(1, 1, ONE)
    assert pair.n == 1
    assert pair.matrix().entries == (elem(2, 1), elem(0, 1), elem(0, 1), ONE)
    scaled = ShearPair.from_level(0, 2, elem(0, 2))  # n(2L) = 2
    assert scaled.n == 2
    assert scaled.matrix().entries == (ONE, elem(0, 0), elem(0, 4), ONE)


def test_shear_coset_equal_matches_direct_membership():
    level = ONE
    m, q = 1, 3
    family = [
        ShearPair.from_level(x, y, level)
        for x in range(q)
        for y in range(q)
        if y % 3
    ]
    assert len(family) == 6
    tau = elem(q, 0)
    for a, b in itertools.product(family, repeat=2):
        pred = shear_coset_equal(a, b, m, level)
        direct = g0_contains(b.matrix().inverse() * a.matrix(), tau)
        assert pred == direct
    # distinct classes = family size: all members represent different cosets
    reps: list[ShearPair] = []
    for c in family:
        if not any(shear_coset_equal(c, r, m, level) for r in reps):
            reps.append(c)
    assert len(reps) == 6


def test_shear_coset_equal_validation():
    level = ONE
    good = ShearPair.from_level(1, 1, level)
    with pytest.raises(BadRangeError):
        shear_coset_equal(good, ShearPair.from_level(1, 3, level), 1, level)
    with pytest.raises(BadRangeError):  # y = 0 is divisible by 3
        shear_coset_equal(good, ShearPair.from_level(1, 0, level), 1, level)
    with pytest.raises(BadRangeError):
        shear_coset_equal(good, good, 0, level)
    with pytest.raises(BadRangeError):
        shear_coset_equal(good, good, 1, elem(3, 0))
    with pytest.raises(BadRangeError):
        shear_coset_equal(good, ShearPair(1, 1, 7), 1, level)


# --- sampling ------------------------------------------------------------------------


def test_sample_subgroup_postcondition():
    four = elem(4, 0)
    sample = sample_subgroup(four, 100, seed=7)
    assert len(sample) == 100
    from hecke5.ideals import ResidueCtx

    ctx = ResidueCtx(four)
    assert all(ctx.divides(m.c) for m in sample)
    assert all(g0_contains(m, four) for m in sample[:10])


def test_sample_determinism():
    a = sample_subgroup(elem(2, 0), 5, seed=0)
    b = sample_subgroup(elem(2, 0), 5, seed=0)
    assert all(x.entries == y.entries for x, y in zip(a, b))
    c = sample_subgroup(elem(2, 0), 5, seed=1)
    assert any(x.entries != y.entries for x, y in zip(a, c))
    with pytest.raises(BadRangeError):
        sample_subgroup(elem(2, 0), 0, seed=0)
