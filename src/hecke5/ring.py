"""Exact arithmetic in Z[L], where L = (1 + sqrt(5))/2 satisfies L**2 = L + 1.

Elements are written a + b*L with arbitrary-precision integer coefficients.
The ring is the full ring of integers of Q(sqrt(5)): its units are +-L**k,
its norm form is a**2 + a*b - b**2, and it is norm-Euclidean, so gcds exist.
Every order comparison against the real embedding is an exact integer
predicate.  Floats only propose: ``_unit_log`` estimates an exponent from
float logs and confirms it with integers, and the reduction chain takes a
quotient from a double-precision image only where a proved error bound makes
it the exact one (see ``hecke5.reduction._chain``).
"""

from __future__ import annotations

import re
from math import isqrt
from typing import NamedTuple, Optional

from .errors import (
    BothZeroError,
    BoundExceededError,
    NotAUnitError,
    ParseError,
    ZeroInputError,
)


class RingElt:
    """An element a + b*L of Z[L], hashable and read-only: ``a``, ``b`` and
    ``coeffs`` are properties with no setter, ``__slots__`` admits no new
    attribute, and copy, deepcopy and pickle work."""

    __slots__ = ("_a", "_b")

    def __init__(self, a: int, b: int = 0) -> None:
        if not isinstance(a, int) or not isinstance(b, int):
            raise TypeError("coefficients must be int")
        self._a = a
        self._b = b

    @property
    def a(self) -> int:
        return self._a

    @property
    def b(self) -> int:
        return self._b

    @property
    def coeffs(self) -> tuple[int, int]:
        return (self._a, self._b)

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._a == other and self._b == 0
        if isinstance(other, RingElt):
            return self._a == other._a and self._b == other._b
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._a, self._b))

    def __neg__(self) -> "RingElt":
        return RingElt(-self._a, -self._b)

    def __add__(self, other: "RingElt | int") -> "RingElt":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return RingElt(self._a + other._a, self._b + other._b)

    __radd__ = __add__

    def __sub__(self, other: "RingElt | int") -> "RingElt":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return RingElt(self._a - other._a, self._b - other._b)

    def __rsub__(self, other: "RingElt | int") -> "RingElt":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: "RingElt | int") -> "RingElt":
        if isinstance(other, int):
            return RingElt(self._a * other, self._b * other)
        if not isinstance(other, RingElt):
            return NotImplemented
        a1, b1 = self._a, self._b
        a2, b2 = other._a, other._b
        # (a1 + b1 L)(a2 + b2 L) with L**2 = L + 1
        return RingElt(a1 * a2 + b1 * b2, a1 * b2 + a2 * b1 + b1 * b2)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RingElt":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return _power(inverse_unit(self), -k, ONE)
        return _power(self, k, ONE)

    def conj(self) -> "RingElt":
        """Galois conjugate: L maps to 1 - L."""
        return RingElt(self._a + self._b, -self._b)

    def norm(self) -> int:
        """Field norm a**2 + a*b - b**2 (can be negative)."""
        return self._a * self._a + self._a * self._b - self._b * self._b

    def abs_norm(self) -> int:
        return abs(self.norm())

    def is_unit(self) -> bool:
        return self.abs_norm() == 1

    def __repr__(self) -> str:
        return f"RingElt({self._a}, {self._b})"

    def __str__(self) -> str:
        return format_element(self)


def _power(base, k: int, one):
    """base**k for k >= 0 by square-and-multiply, starting from ``one``."""
    result = one
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def _coerce(x: "RingElt | int") -> Optional[RingElt]:
    if isinstance(x, RingElt):
        return x
    if isinstance(x, int):
        return RingElt(x, 0)
    return None


ZERO = RingElt(0, 0)
ONE = RingElt(1, 0)
LAMBDA = RingElt(0, 1)
LAMBDA_INV = RingElt(-1, 1)
ROOT5 = RingElt(-1, 2)  # 2L - 1, with (2L - 1)**2 = 5


def _fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) by fast doubling, n >= 0."""
    if n == 0:
        return (0, 1)
    a, b = _fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    if n & 1:
        return (d, c + d)
    return (c, d)


def lambda_pow(k: int) -> RingElt:
    """L**k for any integer k: L**k = F(k-1) + F(k) L, which for k = -n
    reads L**-n = (-1)**n (F(n+1) - F(n) L)."""
    f, f1 = _fib_pair(abs(k))
    if k >= 0:
        return RingElt(f1 - f, f)
    s = -1 if k & 1 else 1
    return RingElt(s * f1, -s * f)


# --- exact real-embedding predicates ---------------------------------------


def sign_real(x: RingElt) -> int:
    """Sign of the real value a + b*(1+sqrt(5))/2, computed exactly.

    Twice the value is s + b*sqrt(5) with s = 2a + b.
    """
    return _cmp_int_sqrt5(2 * x.a + x.b, -x.b)


def _cmp_int_sqrt5(m: int, q: int) -> int:
    """Sign of m - q*sqrt(5), exactly."""
    if q == 0:
        return 0 if m == 0 else (1 if m > 0 else -1)
    if m <= 0 and q > 0:
        return -1
    if m >= 0 and q < 0:
        return 1
    # m and q share a sign and are nonzero
    d = m * m - 5 * q * q
    if m > 0:
        return 1 if d > 0 else -1
    return -1 if d > 0 else 1


def _floor_quad(p: int, q: int, r: int) -> int:
    """floor((p + q*sqrt(5)) / r) for integers with r != 0, exactly.

    floor(floor(x) / r) = floor(x / r) for r > 0, and q*sqrt(5) is
    irrational unless q = 0, so floor(q*sqrt(5)) is isqrt(5*q*q) for q >= 0
    and -isqrt(5*q*q) - 1 for q < 0.
    """
    if r < 0:
        p, q, r = -p, -q, -r
    s = isqrt(5 * q * q)
    return (p + s if q >= 0 else p - s - 1) // r


# --- units ------------------------------------------------------------------


class UnitRep(NamedTuple):
    """A unit written as sign * L**exponent."""

    sign: int
    exponent: int

    def value(self) -> RingElt:
        u = lambda_pow(self.exponent)
        return u if self.sign > 0 else -u


#: Units +-L**k with |k| up to this span are resolved by one dict lookup.
_UNIT_LOG_SPAN = 64


#: Coefficient pairs of +-L**k for |k| <= _UNIT_LOG_SPAN, mapped to (sign, k).
_UNIT_LOGS = {
    (sign * a, sign * b): (sign, k)
    for k in range(-_UNIT_LOG_SPAN, _UNIT_LOG_SPAN + 1)
    for a, b in [lambda_pow(k).coeffs]
    for sign in (1, -1)
}

#: log2 of the golden ratio and of sqrt(5): F(n) is about L**n / sqrt(5).
_LOG2_L = 0.6942419136306174
_LOG2_ROOT5 = 1.1609640474436813


def _unit_log(a: int, b: int) -> Optional[tuple[int, int]]:
    """(sign, k) with a + b L = sign * L**k, or None when it is not a unit.

    Small exponents come from a table; beyond it |b| = F(|k|), so the index
    is estimated from the bit length of b, corrected on exact Fibonacci
    numbers and confirmed against lambda_pow.
    """
    hit = _UNIT_LOGS.get((a, b))
    if hit is not None:
        return hit
    if abs(a * a + a * b - b * b) != 1:
        return None
    sgn = _cmp_int_sqrt5(2 * a + b, -b)
    a, b = sgn * a, sgn * b
    target = abs(b)
    n = max(2, int((target.bit_length() - 1 + _LOG2_ROOT5) / _LOG2_L))
    f, f1 = _fib_pair(n)
    while f < target:
        n, f, f1 = n + 1, f1, f + f1
    while f > target:
        n, f, f1 = n - 1, f1 - f, f
    # L**n has both coefficients >= 0; L**-n has coefficients of opposite sign
    k = n if a >= 0 and b >= 0 else -n
    if f != target or lambda_pow(k).coeffs != (a, b):
        return None
    return (sgn, k)


def unit_decompose(u: RingElt) -> UnitRep:
    """Write a unit as +-L**k; raises NotAUnitError otherwise."""
    rep = _unit_log(u.a, u.b)
    if rep is None:
        raise NotAUnitError(f"{u!r} has |norm| {u.abs_norm()}, not 1")
    return UnitRep(*rep)


def inverse_unit(u: RingElt) -> RingElt:
    """Multiplicative inverse of a unit: conj(u) * norm(u)."""
    n = u.norm()
    if n == 1:
        return u.conj()
    if n == -1:
        return -u.conj()
    raise NotAUnitError(f"{u!r} is not a unit")


# --- division, gcd, associates ----------------------------------------------


class DivResult(NamedTuple):
    quotient: RingElt
    remainder: RingElt


def _divmod_step(xa: int, xb: int, da: int, db: int) -> tuple[int, int, int, int]:
    """(qa, qb, ra, rb) for x = xa + xb*L divided by the nonzero d = da + db*L.

    The quotient's coefficients are those of x*conj(d)/norm(d), each rounded
    to the nearest integer with halves up, and the remainder is x - q*d.
    """
    wa = xa * (da + db) - xb * db  # x * conj(d), conj(d) = (da + db) - db*L
    wb = xb * da - xa * db
    n = da * da + da * db - db * db
    if n < 0:
        wa, wb, n = -wa, -wb, -n
    qa = (2 * wa + n) // (2 * n)
    qb = (2 * wb + n) // (2 * n)
    return qa, qb, xa - qa * da - qb * db, xb - qa * db - qb * (da + db)


def divmod_nearest(x: RingElt, d: RingElt) -> DivResult:
    """Nearest-integer division: |norm(remainder)| < |norm(d)| always."""
    if not d:
        raise ZeroDivisionError("division by zero in Z[L]")
    qa, qb, ra, rb = _divmod_step(x.a, x.b, d.a, d.b)
    return DivResult(RingElt(qa, qb), RingElt(ra, rb))


def _euclid(xa: int, xb: int, ya: int, yb: int) -> tuple[int, int]:
    """Coefficients of a gcd of xa + xb*L and ya + yb*L, up to a unit, by
    divmod_nearest's step; (0, 0) when both are zero."""
    while ya or yb:
        ra, rb = _divmod_step(xa, xb, ya, yb)[2:]
        xa, xb, ya, yb = ya, yb, ra, rb
    return xa, xb


def gcd(x: RingElt, y: RingElt) -> RingElt:
    """Euclidean gcd by divmod_nearest's step, returned as the canonical
    associate."""
    if not x and not y:
        raise BothZeroError("gcd(0, 0) is undefined")
    return _canonical(*_euclid(x.a, x.b, y.a, y.b))


def exact_divide(x: RingElt, d: RingElt) -> Optional[RingElt]:
    """x / d when d divides x exactly, else None: the quotient of
    _divmod_step, whose remainder is zero exactly when d divides x."""
    x, d = _coerce(x), _coerce(d)
    if x is None or d is None:
        raise TypeError("exact_divide arguments must be RingElt or int")
    if not d:
        raise ZeroDivisionError("division by zero in Z[L]")
    qa, qb, ra, rb = _divmod_step(x.a, x.b, d.a, d.b)
    return None if ra or rb else RingElt(qa, qb)


def canonical_associate(x: RingElt) -> RingElt:
    """The associate of x that is positive with real value v in
    [sqrt(|norm|), L*sqrt(|norm|)), picked with exact squared comparisons."""
    if not x:
        raise ZeroInputError("zero has no canonical associate")
    return _canonical(x.a, x.b)


#: _canonical jumps only when its estimate is more than this many steps.
_CANONICAL_JUMP = 4


def _canonical(a: int, b: int) -> RingElt:
    """canonical_associate of the nonzero a + b*L, on raw coefficients.

    The value v and its conjugate v' satisfy |v*v'| = n and v - v' =
    b*sqrt(5).  Far from the window, the larger of |v| and |v'| is about
    sqrt(5) times the larger coefficient, so the distance k in powers of L
    is estimated from bit lengths, as in _unit_log, and crossed with one
    product by lambda_pow(-+k); the exact steps that follow then move about
    two times at most.  L*(a + bL) = b + (a + b)L and
    L**-1*(a + bL) = (b - a) + aL.
    """
    if _cmp_int_sqrt5(2 * a + b, -b) < 0:
        a, b = -a, -b
    n = abs(a * a + a * b - b * b)
    k = round(
        (max(abs(a), abs(b)).bit_length() + _LOG2_ROOT5 - n.bit_length() / 2) / _LOG2_L
    )
    if k > _CANONICAL_JUMP:
        # v is the larger when a and b share a sign, v' when they differ
        c, d = lambda_pow(-k if (a < 0) == (b < 0) else k).coeffs
        a, b = a * c + b * d, a * d + b * c + b * d
    # v**2 = (a*a + b*b) + (2ab + b*b)L, compared as sign_real compares
    while True:  # step down while v**2 >= n*L**2 = n + nL
        sa, sb = a * a + b * b - n, 2 * a * b + b * b - n
        if _cmp_int_sqrt5(2 * sa + sb, -sb) < 0:
            break
        a, b = b - a, a
    while True:  # step up while v**2 < n
        sa, sb = a * a + b * b - n, 2 * a * b + b * b
        if _cmp_int_sqrt5(2 * sa + sb, -sb) >= 0:
            break
        a, b = b, a + b
    return RingElt(a, b)


def is_canonical_associate(x: RingElt) -> bool:
    return bool(x) and canonical_associate(x) == x


# --- text form ----------------------------------------------------------------


def int_text(n: int) -> str:
    """str(n) for an error message, or "<B-bit integer>" when n has more
    digits than the interpreter converts to text."""
    try:
        return str(n)
    except ValueError:
        return f"<{n.bit_length()}-bit integer>"


def format_element(x: RingElt) -> str:
    """Render a + b*L in the CLI grammar, e.g. 2*L-1, L, -3, 18*L+11.

    Raises BoundExceededError when a coefficient has more digits than the
    interpreter converts to text (``sys.get_int_max_str_digits``).
    """
    a, b = x.a, x.b
    try:
        if b == 0:
            return str(a)
        if b == 1:
            s = "L"
        elif b == -1:
            s = "-L"
        else:
            s = f"{b}*L"
        if a > 0:
            s += f"+{a}"
        elif a < 0:
            s += str(a)
        return s
    except ValueError as exc:
        bits = max(abs(a).bit_length(), abs(b).bit_length())
        raise BoundExceededError(
            f"a {bits}-bit integer is past the int-to-str digit limit"
        ) from exc


#: One term of the element grammar and the blanks around it: a sign, then n,
#: n*L, L or L*n.  \s and \d are exactly str.isspace and str.isdecimal.  The
#: parts are optional so that a malformed term matches too, and the group
#: that comes out empty or missing gives the position of the fault.
_TERM = re.compile(r"\s*([+-]?)\s*(?:(\d+)\s*(?:\*\s*(L?))?|(L)\s*(?:\*\s*(\d*))?)?\s*")


def parse_element(text: str) -> RingElt:
    """Parse the CLI grammar: integers, L, + and -, * for scalar products.

    Examples: "2*L-1" -> RingElt(-1, 2); "5" -> RingElt(5, 0); "-L+3".
    Digits are the Unicode decimal digits that ``int`` reads.  Raises
    ParseError with the offending position, also for an integer literal
    longer than the interpreter converts (``sys.get_int_max_str_digits``).
    """
    if not text or text.isspace():
        raise ParseError("empty element", len(text))
    coeffs = [0, 0]  # a and b of a + b*L
    i = 0
    while i < len(text):
        m = _TERM.match(text, i)
        sign, digits, times_l, lam, lam_digits = m.groups()
        if i and not sign:
            raise ParseError("expected '+' or '-' between terms", m.start(1))
        if digits is None and lam is None:
            if m.end() == len(text):
                raise ParseError("dangling sign", m.end())
            raise ParseError(f"unexpected character {text[m.end()]!r}", m.end())
        if lam_digits == "":
            raise ParseError("expected integer after '*'", m.start(5))
        group = 2 if digits else 5
        try:
            coeff = int(m[group] or 1)
        except ValueError:
            raise ParseError(
                f"integer literal of {len(m[group])} digits is too long",
                m.start(group),
            ) from None
        if times_l == "":
            raise ParseError("expected L after '*'", m.start(3))
        coeffs[bool(lam or times_l)] += -coeff if sign == "-" else coeff
        i = m.end()
    return RingElt(*coeffs)
