"""Normalizer of G0(tau) inside the Hecke group G5, and related searches.

The central fact implemented here: the normalizer of G0(tau) in PSL2(R) is
exactly G0(tau/h), where h is the largest divisor of 4 whose square divides
tau.  ``normalizer_of`` states the answer, ``supergroup_chain`` re-derives the
containment N(G0(tau)) <= G0(tau/h) from first principles (witness fractions
and gcd bounds), and ``quotient_table`` gives the quotient group (trivial,
Klein four, or Z4 x Z4) in closed form, as the additive group of O/h.

The module also decides whether a ring element r is "G5-elementary": every
reduced fraction x/(r*y) must satisfy x**2 = 1 (mod r).  Such an x is the
upper-left entry of an element of G0(r), which lies in G0(2) when 2 | r and
in G0(3) when 3 | r; so x mod 2 lies in A(2) = {1} and x mod 3 in
A(3) = {+-1, +-L**2}, the images of a -> a mod p on G0(p).  These two
images are constants of the group, written out in ``_UPPER_LEFT_MOD`` and
checked against G0(2) and G0(3) by the tests.  For r dividing 4 that makes
x = 1 + 2z and x**2 = 1 (mod 4), so ``is_g5_elementary``'s
NoCounterexampleUpTo verdict is a proof.  Every other r has a unit of order
above 2 that passes both residue tests, so it is searched in a coefficient
box whose sweep skips every x that fails them.  A witness disproves the
property, but NoCounterexampleUpTo from the sweep clears only the box:
r = 60 gets it at the default bound, though the image of G0(60) holds
residues whose square is not 1.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from math import gcd as _gcd_int, isqrt
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import (
    BadRangeError,
    IntegrityError,
    NotADivisorError,
    NotAGroupError,
    NotReducedError,
    UnitModulusError,
    ZeroInputError,
)
from .ideals import (
    ResidueCtx,
    _ideal_key,
    _product,
    factor,
    h_of,
    smallest_rational_integer,
)
from .reduction import GMatrix, _exponent_or_none, is_reduced_form
from .ring import (
    ONE,
    RingElt,
    _euclid,
    canonical_associate,
    exact_divide,
    gcd,
    lambda_pow,
)
from .subgroups import g0_contains

#: Names of the three possible quotient groups N(G0(tau))/G0(tau), keyed by h.
QUOTIENT_TRIVIAL = "Trivial"
QUOTIENT_KLEIN4 = "Klein4"
QUOTIENT_Z4XZ4 = "Z4xZ4"

_QUOTIENT_BY_H = {1: QUOTIENT_TRIVIAL, 2: QUOTIENT_KLEIN4, 4: QUOTIENT_Z4XZ4}

#: Element-order histograms that identify each quotient group.  Order
#: statistics suffice: among abelian groups of order 16 with exponent 4, only
#: Z4 x Z4 has exactly three involutions.
_PROFILE_TO_NAME = {
    ((1, 1),): QUOTIENT_TRIVIAL,
    ((1, 1), (2, 3)): QUOTIENT_KLEIN4,
    ((1, 1), (2, 3), (4, 12)): QUOTIENT_Z4XZ4,
}


def _require_modulus(tau: RingElt) -> RingElt:
    """Validate tau as a nonzero non-unit modulus, returning it unchanged."""
    if not tau:
        raise ZeroInputError("modulus must be nonzero")
    if tau.is_unit():
        raise UnitModulusError(f"modulus {tau} is a unit")
    return tau


def _lcm(x: RingElt, y: RingElt) -> RingElt:
    """Canonical least common multiple of two nonzero elements."""
    quotient = exact_divide(x, gcd(x, y))
    assert quotient is not None
    return canonical_associate(quotient * y)


# --- the normalizer level --------------------------------------------------------------


class NormalizerResult(NamedTuple):
    """The normalizer of G0(tau): it equals G0(modulus) with modulus = tau/h."""

    modulus: RingElt
    h: int
    quotient: str


def normalizer_of(tau: RingElt) -> NormalizerResult:
    """Normalizer of G0(tau) in PSL2(R), as a congruence subgroup G0(tau/h).

    h is the largest divisor of 4 with h**2 | tau, and the quotient
    N(G0(tau))/G0(tau) is trivial, Klein four, or Z4 x Z4 according to
    h = 1, 2, 4.
    """
    _require_modulus(tau)
    h = h_of(tau)
    modulus = exact_divide(tau, RingElt(h, 0))
    assert modulus is not None
    return NormalizerResult(
        modulus=canonical_associate(modulus), h=h, quotient=_QUOTIENT_BY_H[h]
    )


def normalizes(m: GMatrix, tau: RingElt) -> bool:
    """True when conjugation by ``m`` preserves G0(tau).

    Decided through the closed form N(G0(tau)) = G0(tau/h): the answer is
    exactly membership of ``m`` in G0(tau/h).
    """
    return g0_contains(m, normalizer_of(tau).modulus)


# --- quotient group table ----------------------------------------------------------


class QuotientTable(NamedTuple):
    """Group table of N(G0(tau))/G0(tau) = G0(tau/h)/G0(tau), read as (O/h, +).

    ``modulus`` is the level tau of the subgroup being quotiented by;
    ``normalizer_modulus`` is tau/h, the level of the normalizer.  Element
    i is the residue a + b*L modulo h with i = a*h + b, so index 0 is the
    identity coset G0(tau) itself; ``table[i][j]`` gives k with
    element_i + element_j = element_k.
    """

    modulus: RingElt
    normalizer_modulus: RingElt
    order: int
    table: tuple[tuple[int, ...], ...]
    element_orders: tuple[int, ...]
    order_profile: tuple[tuple[int, int], ...]
    classification: str

    def locate(self, m: GMatrix) -> int:
        """Index of the quotient element holding ``m`` (assumed in the group):
        the residue of y*a modulo h, where c = (tau/h)*y.  Raises
        NotADivisorError when tau/h does not divide c: ``m`` is not in G0(tau/h).
        """
        y = exact_divide(m.c, self.normalizer_modulus)
        if y is None:
            raise NotADivisorError(f"matrix is not in G0({self.normalizer_modulus})")
        image, h = y * m.a, isqrt(self.order)
        return image.a % h * h + image.b % h


def _element_orders(table: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Order of each element in a finite group table whose identity is 0."""
    orders = []
    size = len(table)
    for i in range(size):
        current, order = i, 1
        while current != 0:
            current = table[current][i]
            order += 1
            if order > size:
                raise NotAGroupError("element power walk never reached identity")
        orders.append(order)
    return tuple(orders)


def _is_involution(ctx: ResidueCtx, a: int, b: int) -> bool:
    """True when (a + b*L)**2 = 1 modulo ctx, on raw coefficients."""
    return ctx.red(a * a + b * b - 1, (2 * a + b) * b) == (0, 0)


#: The image A(p) of a -> a mod p on G0(p), for p = 2 and 3, as the reduced
#: pairs (a mod p, b mod p) of a + b*L (p is inert, so O/p is F4 or F9):
#: A(2) = {1} and A(3) = {+-1, +-L**2}, the squares of F9^x.  Modulo 2 the
#: group maps onto the dihedral group of order 10 (T of order 2, ST of
#: order 5), modulo 3 onto A5, and the stabiliser of infinity in each has
#: these upper-left entries.  Constants of the group: the tests close -1
#: and the upper-left entries of the Schreier generators of G0(2) and G0(3)
#: into a group, both with hecke5 and with ``bench/zl.py``, and compare.
_UPPER_LEFT_MOD = {
    2: frozenset({(1, 0)}),
    3: frozenset({(1, 0), (2, 0), (1, 1), (2, 2)}),
}

#: For each m dividing 6, the residue pairs (a, b) modulo m of the x = a + b*L
#: with x mod p in A(p) for each prime p | m: modulo the inert rational
#: prime p the reduced pair of a + b*L is (a mod p, b mod p), so the sweep
#: tests raw coefficients.
_ADMITTED = {
    m: frozenset(
        (a, b)
        for a in range(m)
        for b in range(m)
        if all((a % p, b % p) in _UPPER_LEFT_MOD[p] for p in (2, 3) if m % p == 0)
    )
    for m in (1, 2, 3, 6)
}


def quotient_table(tau: RingElt) -> QuotientTable:
    """The group N(G0(tau))/G0(tau) in closed form, as (O/h, +).

    For M in G0(tau/h) with lower-left entry c = (tau/h)*y, phi(M) = y*a
    mod h is an isomorphism G0(tau/h)/G0(tau) -> (O/h, +).  As h | tau/h,
    a*d = 1 (mod h) and phi(M1*M2) = y1*a1*a2**2 + y2*a2, so phi is additive
    once a**2 = 1 (mod h) on G0(tau/h); its kernel, tau | c, is G0(tau); and
    the index formula gives [G0(tau/h) : G0(tau)] = h**2, so phi is onto.
    For h > 1 that premise follows from A(2) = {1}, a constant of the group
    (``_UPPER_LEFT_MOD``, checked by the tests): G0(tau/h) lies in G0(2),
    so a = 1 + 2z and a**2 = 1 + 4z(1 + z) = 1 (mod 4).  No coset table is
    built and no walk runs.  The element orders, their histogram and the
    classification are read from the table.  This certifies the quotient
    inside G5; the step to PSL2(R) rests on G5 being non-arithmetic
    (Takeuchi 1977; Margulis).
    """
    result = normalizer_of(tau)
    h = result.h
    residues = [(a, b) for a in range(h) for b in range(h)]
    table = tuple(
        tuple((a + c) % h * h + (b + d) % h for c, d in residues)
        for a, b in residues
    )

    orders = _element_orders(table)
    profile = tuple(sorted(Counter(orders).items()))
    name = _PROFILE_TO_NAME.get(profile)
    if name is None:
        raise NotAGroupError(f"unrecognized element-order profile {profile}")
    if name != result.quotient:
        raise IntegrityError(
            f"quotient table {name} disagrees with h={h} "
            f"prediction {result.quotient}"
        )
    return QuotientTable(
        modulus=canonical_associate(tau),
        normalizer_modulus=result.modulus,
        order=len(table),
        table=table,
        element_orders=orders,
        order_profile=profile,
        classification=name,
    )


# --- witness bounds and the derivation chain ---------------------------------------

def _witness_gcd(
    u: RingElt,
    denominator: RingElt,
    factors: Callable[[], Iterable[tuple[RingElt, int]]],
) -> Optional[RingElt]:
    """x = gcd(nu/[nu], u**2 - 1) of ``reduced_witness_bound``'s lemma, or None
    when u/denominator is not reduced.  ``factors()`` gives the prime powers
    of nu; it is called only for a reduced fraction."""
    if not is_reduced_form(u, denominator):
        return None
    return gcd(_product((p, e // 2) for p, e in factors()), u * u - ONE)


def reduced_witness_bound(tau: RingElt, u: RingElt, w: RingElt) -> RingElt:
    """Supergroup bound extracted from one reduced fraction u/(w*tau).

    If u/(w*tau) is a reduced form, then G0(tau) contains a matrix with first
    column (u, w*tau), and conjugating it shows every normalizing matrix has
    lower-left entry divisible by tau/x where x = gcd(tau/[tau], u**2 - 1)
    ([tau] being the half-power part of tau, so tau/[tau] is the product of
    p**(e // 2) over the prime powers p**e of tau).  Returns tau/x as a canonical
    generator.  Raises NotReducedError when the fraction is not reduced.
    """
    _require_modulus(tau)
    x = _witness_gcd(u, w * tau, lambda: factor(tau).factors)
    if x is None:
        raise NotReducedError(f"{u}/({w})*({tau}) is not a reduced form")
    bound = exact_divide(tau, x)
    assert bound is not None
    return canonical_associate(bound)


class ChainStep(NamedTuple):
    """One stripping step of the supergroup derivation.

    ``removed`` is the prime power stripped from the modulus, ``remaining``
    the cofactor nu the witnesses apply to, ``witnesses`` the reduced-form
    numerators used, ``gcds`` the corresponding gcd(nu/[nu], w**2 - 1)
    values, and ``bound`` the resulting containment G0(bound).
    """

    part: str
    removed: RingElt
    remaining: RingElt
    witnesses: tuple[RingElt, ...]
    gcds: tuple[RingElt, ...]
    bound: RingElt


class ChainReport(NamedTuple):
    """Derivation of N(G0(tau)) <= G0(tau/h) from witness fractions."""

    input: RingElt
    half_power_bound: RingElt
    steps: tuple[ChainStep, ...]
    final: RingElt


_THREE = RingElt(3, 0)
_ROOT5_PRIME = canonical_associate(RingElt(-1, 2))

#: Witnesses (u, L**k): u/(n*L**k) is p/(n*L) for p = 2, 3, 9, 5, scaled to
#: its reduced form, n being the smallest rational integer of a modulus;
#: for p = 9 the scale depends on n: k = 4 when n = +-1 (mod 9), else 10.
_W2 = (RingElt(2, 0) * lambda_pow(2), lambda_pow(3))
_W3 = (_THREE * lambda_pow(3), lambda_pow(4))
_W9_SHORT = (RingElt(9, 0) * lambda_pow(3), lambda_pow(4))
_W9_LONG = (RingElt(9, 0) * lambda_pow(9), lambda_pow(10))
_W5 = (RingElt(5, 0) * lambda_pow(6), lambda_pow(7))


def _strip_step(
    part: str,
    factors: tuple[tuple[RingElt, int], ...],
    prime: RingElt,
    witnesses: Callable[[int], tuple[tuple[RingElt, RingElt], ...]],
) -> ChainStep:
    """Strip the prime's power from the factored tau and bound the cofactor
    by the witness lemma, applied to the witnesses that ``witnesses`` picks
    for its n."""
    removed = _product((p, e) for p, e in factors if p == prime)
    rest = [(p, e) for p, e in factors if p != prime]
    remaining = _product(rest)
    if remaining.is_unit():
        return ChainStep(part, removed, ONE, (), (), ONE)

    n = smallest_rational_integer(remaining)
    pairs = witnesses(n)
    gcds = []
    for u, scale in pairs:
        denominator = n * scale
        g = _witness_gcd(u, denominator, lambda: rest)
        if g is None:
            raise IntegrityError(f"witness {u}/{denominator} failed to be reduced")
        gcds.append(g)
    bound = exact_divide(remaining, reduce(gcd, gcds))
    assert bound is not None
    return ChainStep(
        part, removed, remaining, tuple(u for u, _ in pairs), tuple(gcds),
        canonical_associate(bound),
    )


def supergroup_chain(tau: RingElt) -> ChainReport:
    """Derive N(G0(tau)) <= G0(tau/h) from scratch and cross-check it.

    Starts from the half-power containment N(G0(tau)) <= G0([tau]), strips
    the inert-3 part (witness fractions 3/nL and 9/nL, whose reduced
    numerators are 3L^3 and 9L^3 or 9L^9 according to n mod 9), strips the
    ramified-5 part (witness 5/nL with numerator 5L^6), and intersects the
    bounds via lcm.  tau is factored once.  Raises IntegrityError if the
    combined bound differs from the closed-form answer tau/h.
    """
    result = normalizer_of(tau)
    tau_c = canonical_associate(tau)
    factors = factor(tau_c).factors
    half_power = _product((p, (e + 1) // 2) for p, e in factors)
    steps = (
        _strip_step(
            "3-part", factors, _THREE,
            lambda n: (_W3, _W9_SHORT if n % 9 in (1, 8) else _W9_LONG),
        ),
        _strip_step("root5-part", factors, _ROOT5_PRIME, lambda n: (_W5,)),
    )
    final = half_power
    for step in steps:
        if not step.bound.is_unit():
            final = _lcm(final, step.bound)
    if final != result.modulus:
        raise IntegrityError(
            f"chain bound {final} differs from closed form {result.modulus}"
        )
    return ChainReport(
        input=tau_c, half_power_bound=half_power, steps=steps, final=final
    )


# --- elementary elements (counterexample search) -----------------------------------------

#: Verdict labels for the elementary-element search.
COUNTEREXAMPLE_FOUND = "CounterexampleFound"
NO_COUNTEREXAMPLE = "NoCounterexampleUpTo"

#: Default half-width of the coefficient box searched for counterexamples.
DEFAULT_ELEMENTARY_BOUND = 12


class ElementaryVerdict(NamedTuple):
    """Outcome of searching for a reduced form x/(r*y) with x**2 != 1 mod r.

    ``verdict`` is COUNTEREXAMPLE_FOUND with ``witness = (x, y)`` — so the
    offending reduced fraction is x/(r*y) — or NO_COUNTEREXAMPLE.  The
    latter says that the coefficient box [-bound, bound] holds no
    counterexample; it rests either on a scan of the box, which skips only
    x that no reduced fraction has, or, for the r dividing 4, on the exact
    proof that no counterexample exists at all (every x of a reduced
    x/(r*y) is 1 mod 2, so x**2 = 1 mod 4), which covers the box too.
    """

    r: RingElt
    verdict: str
    witness: Optional[tuple[RingElt, RingElt]]
    bound: int

    @property
    def found(self) -> bool:
        return self.verdict == COUNTEREXAMPLE_FOUND


def is_g5_elementary(
    r: RingElt, bound: int = DEFAULT_ELEMENTARY_BOUND
) -> ElementaryVerdict:
    """Search for a reduced form x/(r*y) violating x**2 = 1 (mod r).

    A reduced x/(r*y) is the first column of an element of G0(r), so when
    2 | r, x lies in the image A(2) = {1} of a -> a mod 2 on G0(2), a
    constant of the group that the tests check: then x = 1 + 2z and
    x**2 = 1 + 4z(1 + z) = 1 (mod 4).  So for r dividing 4 no
    counterexample exists anywhere and NO_COUNTEREXAMPLE is exact, with no
    search.  Every other r is searched: first the targeted witness
    numerators (2L^2, 3L^3, 9L^3, 9L^9, 5L^6 over denominators n(r)*L^k),
    then all coefficient pairs (x, y) in the box [-bound, bound]^2 in a
    fixed deterministic order, skipping every x that no reduced fraction
    has (see ``_box_sweep``), so the reported witness depends on the box
    alone.  No r is factored and no coset walk of r runs.  At the box
    modulus 18L+6 a search at bounds 4 to 8 takes about 0.15 ms, and one on
    a divisor of 4 about 3 us (CPython 3.11, shared 2-vCPU host).  Because
    x/(r*y) and (-x)/(r*(-y)) are the same fraction, x ranges over one sign
    class only.  A unit r divides everything, so the verdict is immediate.
    """
    if not r:
        raise ZeroInputError("r must be nonzero")
    if bound < 1:
        raise BadRangeError(f"bound must be >= 1, got {bound}")
    if r.is_unit():
        return ElementaryVerdict(r, NO_COUNTEREXAMPLE, None, bound)

    ctx = ResidueCtx(r)
    # r | 4 exactly when 4 lies in (r), whose least positive integer is n
    if 4 % ctx.n == 0:
        return ElementaryVerdict(r, NO_COUNTEREXAMPLE, None, bound)
    for numerator, scale in (_W2, _W3, _W9_SHORT, _W9_LONG, _W5):
        denominator = ctx.n * scale
        y = exact_divide(denominator, r)
        if y is None or _is_involution(ctx, *numerator.coeffs):
            continue
        if _exponent_or_none(numerator, denominator) == 0:
            return ElementaryVerdict(
                r, COUNTEREXAMPLE_FOUND, (numerator, y), bound
            )
    return _box_sweep(r, ctx, bound)


def _box_pairs(bound: int) -> Iterator[tuple[int, int]]:
    """All coefficient pairs (a, b) in [-bound, bound]**2, shell by shell,
    in the order of (max(|a|, |b|), a, b).

    That order fixes the total order in which box counterexamples are
    reported.  Shell s holds the whole columns a = -s and a = s and, for
    each a between them, the two pairs (a, -s) and (a, s).
    """
    yield 0, 0
    for s in range(1, bound + 1):
        yield from ((-s, b) for b in range(-s, s + 1))
        for a in range(1 - s, s):
            yield a, -s
            yield a, s
        yield from ((s, b) for b in range(-s, s + 1))


def _box_sweep(r: RingElt, ctx: ResidueCtx, bound: int) -> ElementaryVerdict:
    """The first counterexample x/(r*y) with x and y in the coefficient box,
    in the order of ``_box_pairs``, or NO_COUNTEREXAMPLE; ``ctx`` is the
    residue context of r.

    A reduced x/(r*y) is the first column of an element of G0(r), which
    lies in G0(2) when 2 | r and in G0(3) when 3 | r.  So x mod 2 lies in
    A(2) when 2 | r, and x mod 3 in A(3) = {+-1, +-L**2} when 3 | r; with
    m = gcd(a, b, 6) for r = a + b*L, one lookup of ``_ADMITTED``, built
    at import from the constants A(2) and A(3), tests both on raw
    coefficients.  Every x that fails is skipped unread, and so are the x
    with x**2 = 1 (mod r) and, by the raw Euclid kernel, those not coprime
    to r; the first witness in box order is the same.
    Each denominator r*y is built the first time the y-loop reaches it and
    kept for later x, so a witness found in the first shells costs no more
    than those shells: at the box modulus 18L+6 the sweep finds (1 + 4L, -L)
    in shell 4 after 4 chains and 4 denominators at every bound from 4 to 8.
    """
    ra, rb = r.coeffs
    m = _gcd_int(ra, rb, 6)
    admitted = _ADMITTED[m]
    made: list[tuple[RingElt, RingElt]] = []
    ys = _box_pairs(bound)
    next(ys)  # y = 0

    def denominators() -> Iterator[tuple[RingElt, RingElt]]:
        """(r*y, y) in box order: those built so far, then the rest,
        each kept as it is built."""
        yield from made
        for y in ys:
            y = RingElt(*y)
            made.append((r * y, y))
            yield made[-1]

    for a, b in _box_pairs(bound):
        if (a, b) <= (0, 0) or (a % m, b % m) not in admitted:
            continue
        if _is_involution(ctx, a, b):
            continue
        if not RingElt(*_euclid(a, b, ra, rb)).is_unit():
            continue
        x = RingElt(a, b)
        for denominator, y in denominators():
            if _exponent_or_none(x, denominator) == 0:
                return ElementaryVerdict(r, COUNTEREXAMPLE_FOUND, (x, y), bound)
    return ElementaryVerdict(r, NO_COUNTEREXAMPLE, None, bound)


class StrongVerdict(NamedTuple):
    """Whether every divisor of r (up to associates) is G5-elementary."""

    r: RingElt
    holds: bool
    divisors: tuple[RingElt, ...]
    failing_divisor: Optional[RingElt]
    failure: Optional[ElementaryVerdict]
    bound: int


def _divisors_up_to_associates(r: RingElt) -> list[RingElt]:
    """Canonical divisors of r, sorted by absolute norm then coefficients."""
    factorization = factor(r)
    divisors = [ONE]
    for prime, exponent in factorization.factors:
        divisors = [
            d * prime ** k for d in divisors for k in range(exponent + 1)
        ]
    canon = {canonical_associate(d) for d in divisors}
    return sorted(canon, key=_ideal_key)


def strongly_elementary(
    r: RingElt, bound: int = DEFAULT_ELEMENTARY_BOUND
) -> StrongVerdict:
    """Check that every divisor of r is G5-elementary (up to the box bound).

    Divisors are enumerated from the factorization of r up to associates and
    tested in order of increasing norm; the first failing divisor (if any)
    is reported together with its counterexample.
    """
    if not r:
        raise ZeroInputError("r must be nonzero")
    divisors = tuple(_divisors_up_to_associates(r))
    for divisor in divisors:
        verdict = is_g5_elementary(divisor, bound)
        if verdict.found:
            return StrongVerdict(r, False, divisors, divisor, verdict, bound)
    return StrongVerdict(r, True, divisors, None, None, bound)
