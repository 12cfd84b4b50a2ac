"""Matrices, generator words, and continued-fraction reduction over Z[L].

The group under study is generated by S = [[0,-1],[1,0]] and T = [[1,L],[0,1]]
inside SL(2, Z[L]), taken modulo global sign: only +-M is meaningful, and that
convention is baked into GMatrix equality and hashing while the raw entries
are preserved exactly as constructed.

The reduction chain expands a fraction over Z[L] as a nearest-multiple
continued fraction in powers of L.  It yields a canonical scaling exponent
``e`` (the fraction times L**e is "reduced"), a witness matrix carrying the
scaled pair in a column, and — applied to a first column — an exact membership
test with a generator-word certificate.
"""

from __future__ import annotations

from math import ceil
from typing import NamedTuple, Optional

from .errors import (
    BadDeterminantError,
    BothZeroError,
    IterationCapError,
    NotCoprimeError,
    ParseError,
)
from .ring import (
    LAMBDA,
    ONE,
    ZERO,
    RingElt,
    _coerce,
    _floor_quad,
    _power,
    _unit_log,
    format_element,
    lambda_pow,
)

Token = tuple[str, int]
Word = tuple[Token, ...]


class GMatrix:
    """A determinant-one 2x2 matrix over Z[L], compared modulo global sign;
    read-only (properties with no setter, ``__slots__``) and copyable and
    picklable, as RingElt is."""

    __slots__ = ("_a", "_b", "_c", "_d")

    def __init__(
        self,
        a: "RingElt | int",
        b: "RingElt | int",
        c: "RingElt | int",
        d: "RingElt | int",
    ) -> None:
        a, b, c, d = _coerce(a), _coerce(b), _coerce(c), _coerce(d)
        if a is None or b is None or c is None or d is None:
            raise TypeError("matrix entries must be RingElt or int")
        if a * d - b * c != ONE:
            raise BadDeterminantError("matrix determinant must be 1")
        self._a = a
        self._b = b
        self._c = c
        self._d = d

    @property
    def a(self) -> RingElt:
        return self._a

    @property
    def b(self) -> RingElt:
        return self._b

    @property
    def c(self) -> RingElt:
        return self._c

    @property
    def d(self) -> RingElt:
        return self._d

    @property
    def entries(self) -> tuple[RingElt, RingElt, RingElt, RingElt]:
        return (self._a, self._b, self._c, self._d)

    @property
    def first_column(self) -> tuple[RingElt, RingElt]:
        return (self._a, self._c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GMatrix):
            return NotImplemented
        mine, theirs = self.entries, other.entries
        return mine == theirs or mine == tuple(-e for e in theirs)

    def __hash__(self) -> int:
        # M and -M are equal: hash the one whose first nonzero coefficient is > 0
        coeffs = (*self._a.coeffs, *self._b.coeffs, *self._c.coeffs, *self._d.coeffs)
        lead = next(x for x in coeffs if x)
        return hash(coeffs if lead > 0 else tuple(-x for x in coeffs))

    def __neg__(self) -> "GMatrix":
        return GMatrix(-self._a, -self._b, -self._c, -self._d)

    def __mul__(self, other: "GMatrix") -> "GMatrix":
        if not isinstance(other, GMatrix):
            return NotImplemented
        return GMatrix(
            self._a * other._a + self._b * other._c,
            self._a * other._b + self._b * other._d,
            self._c * other._a + self._d * other._c,
            self._c * other._b + self._d * other._d,
        )

    def inverse(self) -> "GMatrix":
        return GMatrix(self._d, -self._b, -self._c, self._a)

    def __pow__(self, k: int) -> "GMatrix":
        if k < 0:
            return _power(self.inverse(), -k, IDENTITY)
        return _power(self, k, IDENTITY)

    def trace(self) -> RingElt:
        return self._a + self._d

    def __repr__(self) -> str:
        rows = [[self._a, self._b], [self._c, self._d]]
        body = ", ".join(
            "[" + ", ".join(format_element(e) for e in row) + "]" for row in rows
        )
        return f"[{body}]"


IDENTITY = GMatrix(1, 0, 0, 1)
GEN_S = GMatrix(0, -1, 1, 0)
GEN_T = GMatrix(1, LAMBDA, 0, 1)


def t_power(q: int) -> GMatrix:
    """T**q = [[1, q*L], [0, 1]] in closed form."""
    return GMatrix(ONE, RingElt(0, q), ZERO, ONE)


# --- generator words ----------------------------------------------------------


def _check_word(word: Word) -> None:
    for token in word:
        kind, arg = token
        if kind == "S":
            if arg != 1:
                raise ValueError(f"bad token {token!r}")
        elif kind != "T" or not isinstance(arg, int):
            raise ValueError(f"bad token {token!r}")


def eval_word(word: Word) -> GMatrix:
    """Product of the word's tokens, S first-to-last on the left."""
    a0, a1, b0, b1, c0, c1, d0, d1 = _fold_word(word)
    return GMatrix(RingElt(a0, a1), RingElt(b0, b1), RingElt(c0, c1), RingElt(d0, d1))


def _fold_word(word: Word) -> tuple[int, int, int, int, int, int, int, int]:
    """The coefficients (a0, a1, b0, b1, c0, c1, d0, d1) of eval_word's matrix
    [[a0 + a1*L, b0 + b1*L], [c0 + c1*L, d0 + d1*L]], folded left to right
    on raw integers: S maps (a, b; c, d) to (b, -a; d, -c), and T**q adds
    q*L*a to b and q*L*c to d, where q*L*(x + y*L) = q*y + q*(x + y)*L.
    """
    _check_word(word)
    a0, a1, b0, b1, c0, c1, d0, d1 = 1, 0, 0, 0, 0, 0, 1, 0
    for kind, q in word:
        if kind == "S":
            a0, a1, b0, b1 = b0, b1, -a0, -a1
            c0, c1, d0, d1 = d0, d1, -c0, -c1
        else:
            b0, b1 = b0 + q * a1, b1 + q * (a0 + a1)
            d0, d1 = d0 + q * c1, d1 + q * (c0 + c1)
    return a0, a1, b0, b1, c0, c1, d0, d1


def word_string(word: Word) -> str:
    """Serialize over the alphabet {S, T, t} with t meaning T**-1."""
    _check_word(word)
    parts = []
    for kind, arg in word:
        parts.append("S" if kind == "S" else ("T" * arg if arg > 0 else "t" * -arg))
    return "".join(parts)


def parse_word(text: str) -> Word:
    """Inverse of word_string; adjacent T-runs merge into one token."""
    out: list[Token] = []
    for pos, ch in enumerate(text):
        if ch.isspace():
            continue
        if ch == "S":
            out.append(("S", 1))
        elif ch in "Tt":
            step = 1 if ch == "T" else -1
            if out and out[-1][0] == "T":
                out[-1] = ("T", out[-1][1] + step)
            else:
                out.append(("T", step))
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
    return tuple(tok for tok in out if tok != ("T", 0))


# --- pseudo-division ------------------------------------------------------------


class PseudoStep(NamedTuple):
    """One division step: x = quotient * (y*L) + remainder."""

    quotient: int
    remainder: RingElt


def _pseudo_quotient(xa: int, xb: int, ya: int, yb: int) -> int:
    """The quotient q of x = xa + xb*L by y*L, y = ya + yb*L nonzero.

    q is the unique integer with x/(y*L) - q in (-1/2, 1/2], decided exactly
    from the real embedding as ceil(t - 1/2) = -floor(1/2 - t), where
    t = x/(y*L) = w/n with w = x*conj(y*L) and n = N(y*L).
    """
    ma, mb = yb, ya + yb  # y*L
    wa = xa * (ma + mb) - xb * mb
    wb = xb * ma - xa * mb
    n = ma * ma + ma * mb - mb * mb
    # 1/2 - t = (n - 2*wa - wb - wb*sqrt5) / (2n); _floor_quad takes any sign of n
    return -_floor_quad(n - 2 * wa - wb, -wb, 2 * n)


def pseudo_divide(x: RingElt, y: RingElt) -> PseudoStep:
    """Divide ``x`` by ``y*L``, rounding the real ratio to the nearest integer.

    The quotient q is the unique integer with x/(y*L) - q in (-1/2, 1/2],
    decided exactly from the real embedding; the remainder is x - q*y*L.
    """
    if not y:
        raise ZeroDivisionError("pseudo-division by zero")
    q = _pseudo_quotient(x.a, x.b, y.a, y.b)
    return PseudoStep(q, x - y * LAMBDA * q)


# --- the reduction chain ----------------------------------------------------------


class ReducedFormResult(NamedTuple):
    """Outcome of reducing the fraction num/den.

    ``e`` is the canonical scaling exponent: (num*L**e, den*L**e) is the
    reduced pair, recorded in reduced_num / reduced_den.  ``word`` is the
    witness word: modulo sign, its matrix carries the reduced pair as its
    second column. ``full_word`` keeps the trailing S of the chain, and
    completed() turns it into the exact matrix with the reduced pair as its
    first column.
    """

    e: int
    reduced_num: RingElt
    reduced_den: RingElt
    unit_sign: int
    word: Word
    full_word: Word

    def witness(self) -> GMatrix:
        return eval_word(self.word)

    def completed(self) -> GMatrix:
        m = eval_word(self.full_word)
        return m if self._completed_sign() > 0 else -m

    def _completed_sign(self) -> int:
        """The sign s with completed() == s * eval_word(full_word)."""
        flips = sum(1 for kind, _ in self.full_word if kind == "S")
        return -self.unit_sign if flips % 2 else self.unit_sign


#: L and L**2 = L + 1 rounded to the nearest double (relative error <= 2**-53).
_PHI = 1.618033988749895
_PHI2 = 2.618033988749895
#: Fewest input bits (the four coefficients' bit lengths summed) for which
#: a chain tries float steps.  A chain on smaller pairs is short, and the
#: elementary search runs many such chains (under 40 bits) whose ties cost
#: a refresh and an exact step: with float steps on every chain its median
#: search was about 24% slower (six A/B pairs of the benchmark).
_FLOAT_BITS = 64
#: Float steps continue only while the ratio's error bound stays below this.
_MAX_ERROR = 0.25
#: Smallest gap |d| - e a float step goes on from.  The bound never drops
#: below 2**-48, so below this gap the next one, e/(L**2 * gap**2), would
#: exceed _MAX_ERROR anyway; the cut also keeps gap**2 from underflowing.
_MIN_GAP = 2.0**-24
#: A refresh where one of wa, wb and n reaches _TOP = 2**_KEEP_BITS shifts
#: all three right by one s that leaves the largest this many bits, so
#: their images, and |wa| + 2|wb| in the bound, are finite.
_KEEP_BITS = 960
_TOP = 2**_KEEP_BITS


def _chain(
    num: RingElt, den: RingElt, quotients: Optional[list[int]] = None
) -> tuple[int, int]:
    """Run the division chain from (num, den) and return the final x.

    Each step replaces (x, y) by (-y, x - q*y*L) with q = ceil(t - 1/2) for
    t = x/(y*L), until y = 0; the final x is a unit exactly when
    gcd(num, den) is one.  Works on raw coefficients; each quotient is
    appended to ``quotients`` when a list is given.  Raises
    IterationCapError past a step cap linear in the input's bit length;
    every step counts toward it.

    The quotients are those of _pseudo_quotient, the exact definition, but
    most are decided on a double-precision image of t, as Lehmer (1938) did
    for Euclid's algorithm: floats propose, and a quotient is taken from
    them only where an error bound proves it.  With u = 2**-53 the unit
    roundoff:

    * Refresh.  With w = x*conj(y*L) and n = N(y*L) exact, t = (wa + wb*L)/n.
      Once one of wa, wb and n reaches 2**960, all three are shifted right
      by one s that leaves the largest 960 bits, and t_s = (wa_s + wb_s*L)/n_s
      on the shifted integers stands in for t (unshifted, t_s = t).  Each
      floor shift is below its exact quotient by less than 1, so
      n_s (t_s - t) = (wa_s - wa/2**s) + (wb_s - wb/2**s) L + t (n/2**s - n_s)
      gives |t_s - t| < (|t| + 3)/|n_s|.  The image t^ of t_s in doubles
      carries seven roundings (three conversions, L itself and three
      operations), so |t^ - t_s| <= 6.01u (|wa_s| + L|wb_s|)/|n_s|.  The
      bound is e = 2**-48 ((|wa_s| + 2|wb_s|)/|n_s| + 1), which keeps the
      invariant |t^ - t| + 2**-50 (|t^| + 1) <= e; the second term pays for
      the rounding of the test.  The shift adds no term to e.  With
      A = (|wa_s| + L|wb_s|)/|n_s| >= |t_s| and |n_s| >= 2**60, the shift's
      share is at most 2**-59 (A + 3), the whole left side stays below
      2**-48 (0.44 A + 0.26), and the computed e is above
      2**-48 (0.99 A + 0.99).  A shifted refresh with |n_s| < 2**60 has
      wa_s or wb_s of at least 2**959, so e > 2**851 and it proves nothing;
      n_s = 0 skips the floats.
    * Test.  q = ceil(t^ - 1/2 - e) is t's quotient when t^ - 1/2 + e <= q,
      since t - 1/2 then lies in (q - 1, q].  A tie t = k + 1/2 puts k
      inside the interval and never passes.  e <= 1/4 gives |t^| < 2**48,
      so q and d^ = t^ - q are exact (Sterbenz), and |d^ - d| < e for
      d = t - q.
    * Step.  The next ratio is t' = -y/((x - q*y*L)*L) = -1/(L**2 d).  With
      gap = |d^| - e > 0, |1/d^ - 1/d| <= e/gap**2, so
      e' = e/(L**2 gap**2) + 2**-48 (|t'^| + 1) keeps the invariant; the
      second term also covers the three roundings of t'^.

    A float run ends when the test fails (every tie ends one), when
    gap < _MIN_GAP, when e > _MAX_ERROR, or when y = 0.  Since gap <= 1/2,
    e grows by at least 4/L**2 per step, so a run makes at most 76 steps
    and the cap is checked after it.  A refresh that proves no quotient is
    followed by one exact step through _pseudo_quotient, as is every step
    of a chain on fewer than _FLOAT_BITS input bits.
    The argument rests on IEEE doubles and on CPython's correctly rounded
    int -> float conversion.
    """
    xa, xb, ya, yb = num.a, num.b, den.a, den.b
    bits = (
        abs(xa).bit_length()
        + abs(xb).bit_length()
        + abs(ya).bit_length()
        + abs(yb).bit_length()
    )
    cap = 64 * (bits + 4)
    floats = bits >= _FLOAT_BITS
    steps = 0
    while (ya or yb) and steps <= cap:
        if floats:
            start = steps
            ma, mb = yb, ya + yb  # y*L
            mc = ma + mb
            wa = xa * mc - xb * mb
            wb = xb * ma - xa * mb
            n = ma * mc - mb * mb
            if not (-_TOP < wa < _TOP and -_TOP < wb < _TOP and -_TOP < n < _TOP):
                # near the double range: keep the leading _KEEP_BITS bits
                s = max(wa.bit_length(), wb.bit_length(), n.bit_length()) - _KEEP_BITS
                wa, wb, n = wa >> s, wb >> s, n >> s
            if n:  # a shifted n may be 0; such a refresh proves nothing
                wa, wb, n = float(wa), float(wb), float(n)
                t = (wa + wb * _PHI) / n
                e = 2.0**-48 * ((abs(wa) + 2 * abs(wb)) / abs(n) + 1)
                while e <= _MAX_ERROR:
                    h = t - 0.5
                    q = ceil(h - e)
                    if h + e > q:
                        break
                    if quotients is not None:
                        quotients.append(q)
                    xa, xb, ya, yb = -ya, -yb, xa - yb * q, xb - (ya + yb) * q
                    steps += 1
                    if not (ya or yb):
                        break
                    d = t - q
                    gap = abs(d) - e
                    if gap < _MIN_GAP:
                        break
                    t = -1.0 / (_PHI2 * d)
                    e = e / (_PHI2 * gap * gap) + 2.0**-48 * (abs(t) + 1)
                if steps > start:
                    continue
        q = _pseudo_quotient(xa, xb, ya, yb)
        if quotients is not None:
            quotients.append(q)
        xa, xb, ya, yb = -ya, -yb, xa - yb * q, xb - (ya + yb) * q
        steps += 1
    if steps > cap:
        raise IterationCapError(f"reduction did not terminate in {cap} steps")
    return xa, xb


def reduced_factor(num: RingElt, den: RingElt) -> ReducedFormResult:
    """Reduce the fraction num/den by the continued-fraction chain.

    Requires gcd(num, den) to be a unit (NotCoprimeError otherwise, and
    BothZeroError for 0/0).  Each chain quotient q adds T**q S to the word;
    the leftover unit fixes the scaling exponent.
    """
    quotients: list[int] = []
    rep = _unit_log(*_chain(num, den, quotients))
    if rep is None:
        raise _irreducible(num, den)
    sign, k = rep
    word: list[Token] = []
    for q in quotients:
        if q:
            word.append(("T", q))
        word.append(("S", 1))
    scale = lambda_pow(-k)
    full_word = tuple(word)
    return ReducedFormResult(
        e=-k,
        reduced_num=num * scale,
        reduced_den=den * scale,
        unit_sign=sign,
        word=full_word[:-1] if full_word else (("S", 1),),
        full_word=full_word,
    )


def _irreducible(num: RingElt, den: RingElt) -> Exception:
    """The error for a pair whose chain ends on no unit: 0/0, or a pair
    whose gcd is not a unit."""
    if not num and not den:
        return BothZeroError("cannot reduce 0/0")
    return NotCoprimeError(
        f"gcd of {format_element(num)} and {format_element(den)} is not a unit"
    )


def is_reduced_form(num: RingElt, den: RingElt) -> bool:
    """True when the fraction num/den already has scaling exponent zero."""
    return scaling_exponent(num, den) == 0


def scaling_exponent(num: RingElt, den: RingElt) -> int:
    """The exponent e with (num*L**e, den*L**e) reduced, from one chain that
    builds no word; raises as reduced_factor does."""
    e = _exponent_or_none(num, den)
    if e is None:
        raise _irreducible(num, den)
    return e


def _exponent_or_none(num: RingElt, den: RingElt) -> Optional[int]:
    """Scaling exponent of num/den, or None when the pair is not coprime
    (or is 0/0): the chain without the witness word."""
    rep = _unit_log(*_chain(num, den))
    return None if rep is None else -rep[1]


# --- membership -------------------------------------------------------------------


def g5_decompose(m: GMatrix) -> Optional[Word]:
    """Write +-m as a word in S and T, or return None when impossible.

    Runs the reduction chain on the first column.  Membership needs e = 0;
    then completed() has the first column of m, so completed()**-1 * m is
    [[1, x], [0, 1]], and membership holds exactly when x = k*L (T**k).
    With completed() = s * [[a', b'], [c', d']] folded by _fold_word,
    x = s * (d'*B - b'*D) for m = [[A, B], [C, D]], read on raw integers.
    """
    result = reduced_factor(m.a, m.c)
    if result.e:
        return None
    _, _, b0, b1, _, _, d0, d1 = _fold_word(result.full_word)
    (mb0, mb1), (md0, md1) = m.b.coeffs, m.d.coeffs
    if d0 * mb0 + d1 * mb1 - b0 * md0 - b1 * md1:
        return None
    k = result._completed_sign() * (
        d0 * mb1 + d1 * (mb0 + mb1) - b0 * md1 - b1 * (md0 + md1)
    )
    return result.full_word + ((("T", k),) if k else ())
