"""The theorem inside G5, and the CLI's answers, re-checked by ``bench/zl.py``.

``bench/zl.py`` is a Z[L] arithmetic written apart from hecke5, with its own
division chain and word evaluation.  It re-checks the finite facts that
N(G0(tau)) = G0(tau/h) and the elementary filter rest on: the G0(4) coset
action with a**2 = 1 (mod 4) on its Schreier generators, the images A(2)
and A(3) of the upper-left entry on G0(2) and G0(3) that ``hecke5.normalizer``
writes out as constants, and the upper bound's witness fractions
u/(n*L**k) in every step of ``supergroup_chain``.
It also checks seeded ``reduce``, ``member`` and ``index`` answers of the
CLI from their JSON text alone.  The module is loaded from its file and
never edited.
"""

import importlib.util
import json
import random
from functools import cache
from pathlib import Path

from hecke5 import coset_table, supergroup_chain
from hecke5.cli import main
from hecke5.ideals import ideals_up_to_norm
from hecke5.normalizer import _UPPER_LEFT_MOD
from hecke5.reduction import word_string
from hecke5.ring import LAMBDA, RingElt

_spec = importlib.util.spec_from_file_location(
    "zl", Path(__file__).resolve().parent.parent / "bench" / "zl.py"
)
zl = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(zl)

FOUR = (4, 0)

#: The lambda-exponents k tried for a witness denominator n*L**k.
WITNESS_EXPONENTS = range(16)


def _action_holds(level, words, action):
    """The Schreier generators rep_i * g * rep_j**-1 of the edges i -> j by
    g that are not the walk's first path to j, when the classes are the
    cosets of G0(level) (rep_i * rep_j**-1 is in G0(level) only for i = j)
    and the action is right (every edge's rep_i * g * rep_j**-1 is in
    G0(level)); otherwise None."""

    def inside(m):
        return zl.divides(level, m[2])

    reps = [zl.eval_word(word_string(w)) for w in words]
    for i, left in enumerate(reps):
        for j, right in enumerate(reps):
            if inside(zl.mat_mul(left, zl.mat_inv(right))) != (i == j):
                return None
    generators = []
    for name, gen in (("S", zl.S), ("T", zl.T)):
        for i, j in enumerate(action[name]):
            m = zl.mat_mul(zl.mat_mul(reps[i], gen), zl.mat_inv(reps[j]))
            if not inside(m):
                return None
            if words[j] != words[i] + ((name, 1),):
                generators.append(m)
    return generators


def test_g0_4_action_and_generators_square_to_one_outside():
    table = coset_table(RingElt(4, 0))
    assert table.size == zl.index(FOUR) == 20
    generators = _action_holds(FOUR, table.rep_words, table.action)
    assert generators is not None and len(generators) == 21
    for a, _, c, _ in generators:
        assert zl.divides(FOUR, c)
        assert zl.divides(FOUR, zl.sub(zl.mul(a, a), zl.ONE))


def test_g0_4_action_check_rejects_a_wrong_action():
    table = coset_table(RingElt(4, 0))
    t_action = list(table.action["T"])
    t_action[1], t_action[2] = t_action[2], t_action[1]
    assert _action_holds(FOUR, table.rep_words, {**table.action, "T": t_action}) is None


def _closure_mod(p, values):
    """The group that ``values`` span in (Z[L]/p)^x, p an inert rational
    prime, as pairs (a mod p, b mod p)."""
    group, frontier = {(1, 0)}, [(1, 0)]
    while frontier:
        reached = {
            (c % p, d % p)
            for x in frontier
            for c, d in (zl.mul(x, v) for v in values)
        } - group
        group |= reached
        frontier = list(reached)
    return group


def test_upper_left_images_mod_2_and_3_hold_outside():
    # -1 and the upper-left entries of the Schreier generators span the image
    # of a -> a mod p on G0(p); it is the module's constant A(p)
    for p, size, count in ((2, 5, 6), (3, 10, 11)):
        table = coset_table(RingElt(p, 0))
        assert table.size == zl.index((p, 0)) == size
        generators = _action_holds((p, 0), table.rep_words, table.action)
        assert generators is not None and len(generators) == count
        values = [(-1, 0)] + [m[0] for m in generators]
        assert _closure_mod(p, values) == _UPPER_LEFT_MOD[p], p


def _step_holds(step):
    """The witness lemma's premises and arithmetic for one chain step: n is
    the smallest rational integer of nu = ``remaining`` and nu | n; each
    witness u has some k with u/(n*L**k) reduced; each gcd x divides nu and
    u**2 - 1; and bound * combined = nu with combined dividing every x."""
    nu = step.remaining.coeffs
    n = zl.smallest_integer(nu)
    combined = zl.exact_div(nu, step.bound.coeffs)
    if not zl.divides(nu, (n, 0)) or combined is None:
        return False
    for u, x in zip(step.witnesses, step.gcds):
        u, x = u.coeffs, x.coeffs
        if not any(
            zl.is_reduced_pair(u, zl.scale(zl.lam_pow(k), n))
            for k in WITNESS_EXPONENTS
        ):
            return False
        square_less_one = zl.sub(zl.mul(u, u), zl.ONE)
        if not (
            zl.divides(x, nu)
            and zl.divides(x, square_less_one)
            and zl.divides(combined, x)
        ):
            return False
    return True


@cache
def _chain_steps(bound):
    return tuple(
        step
        for tau in ideals_up_to_norm(bound)
        for step in supergroup_chain(tau).steps
        if step.witnesses
    )


def test_chain_witnesses_hold_outside():
    steps = _chain_steps(2000)
    assert sum(len(step.witnesses) for step in steps) == 2579
    assert all(_step_holds(step) for step in steps)


def test_chain_check_rejects_a_witness_times_lambda():
    # a witness u*L that is reduced for some other k and has a unit gcd is a
    # valid witness too, so the mutation is made where the gcd is not a unit
    mutants = [
        step._replace(
            witnesses=tuple(
                u * LAMBDA if i == at else u for i, u in enumerate(step.witnesses)
            ),
        )
        for step in _chain_steps(2000)
        for at, x in enumerate(step.gcds)
        if not x.is_unit()
    ]
    assert len(mutants) == 204
    assert not any(_step_holds(step) for step in mutants)


# --- reduce, member and index through the CLI -----------------------------------

#: Digit bands of the reduce pairs: the benchmark's six, then pairs whose
#: chains leave the float path (products past about 1.8e308) and pairs past
#: it from the start.
REDUCE_BANDS = (
    (3, 10), (11, 20), (21, 30), (31, 40), (41, 50), (51, 60), (61, 160), (300, 400),
)

#: Largest chain quotient of a reduce pair: word_string writes T**q as q letters.
MAX_QUOTIENT = 10**4


def _cli(capsys, *argv):
    code = main(["--json", *argv])
    return code, json.loads(capsys.readouterr().out)


def _coefficient(rng, digits):
    return rng.choice((1, -1)) * rng.randint(10 ** (digits - 1), 10**digits - 1)


def _reduce_pairs():
    """Three seeded coprime pairs per band, drawn as the benchmark draws them."""
    rng = random.Random(2610)
    for lo, hi in REDUCE_BANDS:
        count = 0
        while count < 3:
            d = rng.randint(lo, hi)
            e = max(1, d - rng.randint(0, 2))
            num = (_coefficient(rng, d), _coefficient(rng, d))
            den = (_coefficient(rng, e), _coefficient(rng, e))
            final, big, _ = zl.chain(num, den)
            if zl.is_unit(final) and big <= MAX_QUOTIENT:
                count += 1
                yield num, den


def _scaled(pair, k):
    scale = zl.lam_pow(k)
    return tuple(zl.mul(x, scale) for x in pair)


def _reduce_holds(num, den, e, reduced, word):
    """The reduced pair is the input times L**e, reduced for that e alone,
    and the second column of the word's matrix up to sign."""
    pair = tuple(zl.parse(x) for x in reduced)
    m = zl.eval_word(word)
    return (
        pair == _scaled((num, den), e)
        and zl.is_reduced_pair(*pair)
        and not any(zl.is_reduced_pair(*_scaled(pair, k)) for k in (-1, 1))
        and (m[1], m[3]) in (pair, tuple(map(zl.neg, pair)))
    )


def test_reduce_holds_outside(capsys):
    for num, den in _reduce_pairs():
        code, obj = _cli(capsys, "reduce", "--", zl.fmt(num), zl.fmt(den))
        assert code == 0
        assert _reduce_holds(num, den, obj["e"], obj["reduced"], obj["word"])


def test_reduce_check_rejects_a_wrong_exponent_or_word(capsys):
    num, den = next(_reduce_pairs())
    _, obj = _cli(capsys, "reduce", "--", zl.fmt(num), zl.fmt(den))
    e, word = obj["e"], obj["word"]
    for shift in (-1, 1):
        rescaled = [zl.fmt(x) for x in _scaled((num, den), e + shift)]
        assert not _reduce_holds(num, den, e + shift, rescaled, word)
    assert not _reduce_holds(num, den, e, obj["reduced"], word + "T")


def _element_of_norm(rng, lo, hi):
    box = int(hi**0.5) + 2
    while True:
        x = (rng.randint(-box, box), rng.randint(-box, box))
        if lo <= abs(zl.norm(x)) <= hi:
            return x


def _member(capsys, m, *tau):
    code, obj = _cli(capsys, "member", "--", *map(zl.fmt, m), *map(zl.fmt, tau))
    assert code == (0 if obj["member"] else 2)
    if obj["member"]:
        assert zl.eval_word(obj["word"]) in (m, zl.mat_neg(m))
    return obj["member"]


def test_member_holds_outside(capsys):
    """Words in S and T are members and come back as words for +-m; a shear
    by 1 is not (the stabiliser of infinity in G5 is +-T**k); with a level,
    membership is tau | c, and words in T and the lower shear by the least
    integer n of (tau) lie in G0(tau)."""
    rng = random.Random(2611)
    for _ in range(12):
        m = zl.eval_word("".join(rng.choice("STt") for _ in range(rng.randint(20, 60))))
        assert _member(capsys, m)
        assert not _member(capsys, zl.mat_mul(m, (zl.ONE, zl.ONE, zl.ZERO, zl.ONE)))
        tau = _element_of_norm(rng, 2, 200)
        assert _member(capsys, m, tau) == zl.divides(tau, m[2])
        shear = "S" + "t" * zl.smallest_integer(tau) + "S"
        level = zl.eval_word("".join(rng.choice(("T", "t", shear)) for _ in range(8)))
        assert zl.divides(tau, level[2]) and _member(capsys, level, tau)


def test_index_holds_outside(capsys):
    rng = random.Random(2612)
    for _ in range(12):
        tau = _element_of_norm(rng, 2, 10**5)
        code, obj = _cli(capsys, "index", "--", zl.fmt(tau))
        assert code == 0 and obj["index"] == zl.index(tau)
