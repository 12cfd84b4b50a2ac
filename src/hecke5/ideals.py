"""Ideal arithmetic in Z[L]: prime factorization, residue systems, indexes.

The ring is norm-Euclidean, hence a principal ideal domain, so ideals are
represented throughout by canonical generators (``ring.canonical_associate``).
Rational primes behave in one of three ways: 5 ramifies as the square of
``2*L-1``, primes congruent to +-1 mod 5 split into two conjugate primes of
norm p, and primes congruent to +-2 mod 5 stay inert with norm p**2.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd as _gcd_int, prod
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    FactorCapError,
    IntegrityError,
    NotADivisorError,
    ZeroInputError,
)
from .ring import (
    ONE,
    ROOT5,
    RingElt,
    UnitRep,
    _divmod_step,
    canonical_associate,
    exact_divide,
    format_element,
    gcd,
    unit_decompose,
)

#: Largest trial divisor attempted when factoring norms over Z.
TRIAL_DIVISION_CAP = 10**6

#: Miller-Rabin with the prime bases 2..41 is exact below this bound
#: (Sorenson and Webster, 2017); larger cofactors raise FactorCapError.
PRIMALITY_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: Pollard-Brent steps allowed for one split before FactorCapError.
RHO_STEP_BUDGET = 1 << 22

#: Trial division stops here to try Pollard-Brent on a composite cofactor.
_RHO_FROM = 1 << 10


def _factor_int(n: int) -> dict[int, int]:
    """Factor ``n >= 1`` by trial division with a 6k+-1 wheel, Pollard-Brent
    rho and Miller-Rabin.

    A cofactor above TRIAL_DIVISION_CAP and below PRIMALITY_LIMIT is
    certified prime by Miller-Rabin before any further trial division: it
    is tested once 2, 3 and 5 are removed and again after each divisor
    found.  Trial division first runs up to _RHO_FROM (the cap, if that is
    lower), which finishes every n below _RHO_FROM**2.  A composite
    cofactor left below PRIMALITY_LIMIT is then split by Pollard-Brent rho
    and each part certified by Miller-Rabin.  When rho spends
    RHO_STEP_BUDGET steps without a split, or the cofactor is at least
    PRIMALITY_LIMIT, trial division goes on up to TRIAL_DIVISION_CAP, and
    a cofactor with no prime divisor up to there is handed to rho again.
    Raises FactorCapError when that last cofactor is at least
    PRIMALITY_LIMIT or its split needs more than RHO_STEP_BUDGET steps.
    A cofactor at least PRIMALITY_LIMIT is first stripped of its primes up
    to the cap by gcds with their product, and when what is left is still
    at least PRIMALITY_LIMIT the error names it without trial division,
    which costs seconds on a norm of thousands of digits.
    """
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            out[p] = e
    d, step = 7, 4
    prime = _certified_prime(n)
    cap = TRIAL_DIVISION_CAP
    stop = _RHO_FROM if _RHO_FROM < cap else cap
    while True:
        limit = n if n < stop * stop else stop * stop
        while not prime and d * d <= limit:
            if n % d == 0:
                e = 0
                while n % d == 0:
                    n, e = n // d, e + 1
                out[d] = e
                prime = _certified_prime(n)
                limit = n if n < stop * stop else stop * stop
            d += step
            step = 6 - step
        if prime or d * d > n:
            break
        if n < PRIMALITY_LIMIT:
            try:
                parts = _split_cofactor(n)
            except FactorCapError:
                if stop == cap:
                    raise
            else:
                for p in parts:
                    out[p] = out.get(p, 0) + 1
                return out
        elif stop == cap:
            raise _cap_error(n, cap)
        elif (rest := _rough_part(n, cap)) >= PRIMALITY_LIMIT:
            # trial division up to the cap would leave rest and end here
            raise _cap_error(rest, cap)
        stop = cap
    if n > 1:
        out[n] = 1
    return out


def _cap_error(n: int, cap: int) -> FactorCapError:
    # past 40 digits the cofactor is named by its size, as int_text names an
    # integer past the interpreter's digit limit
    shown = str(n) if n < 10**40 else f"<{n.bit_length()}-bit integer>"
    return FactorCapError(f"no prime divisor of {shown} below {cap}")


@lru_cache(maxsize=1)
def _prime_product(bound: int) -> int:
    """The product of the primes up to ``bound``, by a product tree, built
    on first use."""
    level = _rational_primes_up_to(bound)
    while len(level) > 1:
        level = [prod(level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0] if level else 1


def _rough_part(n: int, bound: int) -> int:
    """``n`` stripped of its prime factors up to ``bound``: each gcd with
    the primes left divides out one power of each."""
    g = _gcd_int(n, _prime_product(bound))
    while g > 1:
        n //= g
        g = _gcd_int(n, g)
    return n


def _certified_prime(n: int) -> bool:
    """True for a prime ``n`` in (TRIAL_DIVISION_CAP, PRIMALITY_LIMIT).

    Below the cap trial division is cheaper than Miller-Rabin, so such
    ``n`` is never tested.
    """
    return TRIAL_DIVISION_CAP < n < PRIMALITY_LIMIT and _is_prime(n)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd ``n`` in (41, PRIMALITY_LIMIT)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split_cofactor(n: int) -> list[int]:
    """Prime factors of ``n``, with multiplicity, by rho and Miller-Rabin."""
    if _is_prime(n):
        return [n]
    d = _rho_divisor(n)
    return _split_cofactor(d) + _split_cofactor(n // d)


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite ``n`` by Pollard-Brent rho.

    Iterates x -> x**2 + c from a fixed start, taking one gcd per 128
    steps, for c = 1, 2, ... until RHO_STEP_BUDGET steps are spent.
    """
    budget, c = RHO_STEP_BUDGET, 0
    while budget > 0:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and budget > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = _gcd_int(q, n)
                k += 128
            budget -= 2 * r
            r *= 2
        if g == n:  # the batch overshot: redo it one gcd per step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = _gcd_int(abs(x - ys), n)
        if 1 < g < n:
            return g
    raise FactorCapError(f"no split of {n} within {RHO_STEP_BUDGET} rho steps")


def _sqrt_mod_prime(a: int, p: int) -> int:
    """Square root of a quadratic residue ``a`` modulo an odd prime ``p``."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square modulo {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks.
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def primes_above(p: int) -> tuple[RingElt, ...]:
    """Canonical ring primes dividing the rational prime ``p``."""
    if p == 5:
        return (ROOT5,)
    if p % 5 in (1, 4):
        s = _sqrt_mod_prime(5, p)
        r = (1 + s) * pow(2, -1, p) % p  # root of x**2 - x - 1 mod p
        first = gcd(RingElt(p, 0), RingElt(-r, 1))
        second = gcd(RingElt(p, 0), RingElt(r - 1, 1))  # the other root is 1 - r
        pair = sorted({first, second}, key=lambda e: e.coeffs)
        if len(pair) != 2 or any(e.abs_norm() != p for e in pair):
            raise IntegrityError(f"splitting of {p} produced bad primes")
        return tuple(pair)
    return (RingElt(p, 0),)


class Factorization(NamedTuple):
    """Unit times a sorted product of canonical prime powers."""

    unit: UnitRep
    factors: tuple[tuple[RingElt, int], ...]

    def value(self) -> RingElt:
        acc = self.unit.value()
        for prime, exp in self.factors:
            acc = acc * prime**exp
        return acc

    def distinct_primes(self) -> tuple[RingElt, ...]:
        return tuple(prime for prime, _ in self.factors)

    def __str__(self) -> str:
        parts = []
        if self.unit.value() != ONE:
            parts.append(format_element(self.unit.value()))
        for prime, exp in self.factors:
            text = f"({format_element(prime)})"
            parts.append(text if exp == 1 else f"{text}**{exp}")
        return " * ".join(parts) if parts else "1"


def _ideal_key(x: RingElt) -> tuple[int, int, int]:
    """Order of ideals: absolute norm of the generator, then coefficients."""
    return (x.abs_norm(), x.a, x.b)


def factor(x: RingElt) -> Factorization:
    """Factor a nonzero element into canonical primes and a unit."""
    if not x:
        raise ZeroInputError("cannot factor zero")
    a, b = x.coeffs
    found: list[tuple[RingElt, int]] = []
    for p in sorted(_factor_int(x.abs_norm())):
        for prime in primes_above(p):
            e = 0
            while True:  # divide prime out while the remainder is zero
                qa, qb, ra, rb = _divmod_step(a, b, *prime.coeffs)
                if ra or rb:
                    break
                a, b, e = qa, qb, e + 1
            if e:
                found.append((prime, e))
    found.sort(key=lambda t: _ideal_key(t[0]))
    return Factorization(unit=unit_decompose(RingElt(a, b)), factors=tuple(found))


def _product(factors: Iterable[tuple[RingElt, int]]) -> RingElt:
    """Canonical product of the given prime powers."""
    acc = ONE
    for prime, exponent in factors:
        acc = acc * prime ** exponent
    return canonical_associate(acc)


def half_power_part(x: RingElt) -> RingElt:
    """Canonical product of primes of ``x`` raised to ceil(multiplicity / 2)."""
    return _product((p, (e + 1) // 2) for p, e in factor(x).factors)


def h_of(x: RingElt) -> int:
    """Size parameter of the normalizer quotient: depends on the 2-part.

    Returns 4 when 16 divides x, 2 when 4 divides x, and 1 otherwise.  Since
    Z[L] = Z + Z*L, an integer divides a + b*L exactly when it divides a and
    b, so h is read from the gcd of x's coefficients.
    """
    if not x:
        raise ZeroInputError("cannot factor zero")
    content = _gcd_int(*x.coeffs)
    return 4 if content % 16 == 0 else 2 if content % 4 == 0 else 1


def index_in_g5(x: RingElt) -> int:
    """Index of the congruence subgroup of level ``x`` in the full group.

    Multiplicative formula: |norm(x)| times the product of 1 + 1/|norm(P)|
    over the distinct primes P dividing x.
    """
    return _index_and_primes(x)[0]


def _index_and_primes(x: RingElt) -> tuple[int, tuple[RingElt, ...]]:
    """``index_in_g5(x)`` and the distinct primes of x, from one factoring."""
    primes = factor(x).distinct_primes()
    num, den = x.abs_norm(), 1
    for prime in primes:
        np = prime.abs_norm()
        num, den = num * (np + 1), den * np
    if num % den:
        raise IntegrityError("index formula did not produce an integer")
    return num // den, primes


def relative_index(x: RingElt, divisor: RingElt) -> int:
    """Index of the level-``x`` subgroup inside the level-``divisor`` one."""
    if exact_divide(x, divisor) is None:
        raise NotADivisorError(
            f"{format_element(divisor)} does not divide {format_element(x)}"
        )
    big, small = index_in_g5(x), index_in_g5(divisor)
    if big % small:
        raise IntegrityError("relative index did not produce an integer")
    return big // small


def _ext_gcd(u: int, v: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*u + t*v == g == gcd(u, v) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while v:
        q = u // v
        u, v = v, u - q * v
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if u < 0:
        u, s0, t0 = -u, -s0, -t0
    return u, s0, t0


def _hnf(a: int, b: int) -> tuple[int, int, int]:
    """(n, g, m) for the column Hermite normal form [[n, m], [0, g]] of the
    coefficient lattice of the nonzero ideal (a + b*L), spanned by the
    columns (a, b) and (b, a+b)."""
    g, s, t = _ext_gcd(b, a + b)
    n = abs(a * a + a * b - b * b) // g
    return n, g, (s * a + t * b) % n


class ResidueCtx:
    """Canonical representatives modulo a nonzero element.

    The coefficient lattice of the ideal (modulus) is spanned by the columns
    (a, b) and (b, a+b); its column Hermite normal form is [[n, m], [0, g]],
    so every residue has a unique representative in the box [0, n) x [0, g)
    and n is the smallest positive rational integer in the ideal.
    """

    __slots__ = ("modulus", "n", "g", "m")

    def __init__(self, modulus: RingElt) -> None:
        if not modulus:
            raise ZeroInputError("modulus must be nonzero")
        self.modulus = modulus
        self.n, self.g, self.m = _hnf(*modulus.coeffs)

    @property
    def size(self) -> int:
        """Number of residue classes, which equals |norm(modulus)|."""
        return self.n * self.g

    def red(self, a: int, b: int) -> tuple[int, int]:
        """Coefficients of the representative of a + b*L in the HNF box."""
        k = b // self.g
        return (a - k * self.m) % self.n, b - k * self.g

    def reduce(self, x: RingElt) -> RingElt:
        """The unique representative of ``x`` in the HNF box."""
        return RingElt(*self.red(*x.coeffs))

    def divides(self, x: RingElt) -> bool:
        return self.red(*x.coeffs) == (0, 0)

    def residues(self) -> Iterator[RingElt]:
        """All canonical representatives, row-major over the box."""
        for i in range(self.n):
            for j in range(self.g):
                yield RingElt(i, j)

    def __repr__(self) -> str:
        return f"ResidueCtx({format_element(self.modulus)!r})"


def smallest_rational_integer(x: RingElt) -> int:
    """Smallest positive rational integer divisible by ``x``."""
    return ResidueCtx(x).n


def _rational_primes_up_to(bound: int) -> list[int]:
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(bound**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [p for p in range(2, bound + 1) if sieve[p]]


def ideals_up_to_norm(bound: int) -> list[RingElt]:
    """Canonical generators of all proper ideals with norm at most ``bound``.

    Sorted by (norm, coefficients); the unit ideal is excluded.
    """
    primes = [
        (prime, prime.abs_norm())
        for p in _rational_primes_up_to(bound)
        for prime in primes_above(p)
        if prime.abs_norm() <= bound
    ]
    # each ideal is a product of primes taken in order of norm, found once
    # from the product of its smaller primes
    primes.sort(key=lambda t: t[1])
    out: list[RingElt] = []
    stack = [(0, ONE, 1)]
    while stack:
        start, val, nrm = stack.pop()
        for i in range(start, len(primes)):
            prime, np = primes[i]
            if nrm * np > bound:
                break
            product = val * prime
            out.append(canonical_associate(product))
            stack.append((i, product, nrm * np))
    out.sort(key=_ideal_key)
    return out
