"""Reference arithmetic in Z[L], L**2 = L + 1, used to generate inputs and to
check outputs.

It is written apart from ``hecke5`` on purpose: a check that reused the code
it checks would pass whenever that code is wrong in a self-consistent way.
Elements are pairs ``(a, b)`` meaning ``a + b*L``; matrices are 4-tuples of
elements ``(a, b, c, d)`` for ``[[a, b], [c, d]]``.
"""

from __future__ import annotations

from math import gcd as igcd
from math import isqrt
import re

ZERO = (0, 0)
ONE = (1, 0)
L = (0, 1)

S = (ZERO, (-1, 0), ONE, ZERO)
T = (ONE, L, ZERO, ONE)
T_INV = (ONE, (0, -1), ZERO, ONE)
IDENTITY = (ONE, ZERO, ZERO, ONE)

_LETTER_RUN = re.compile(r"S|T+|t+")


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def neg(x):
    return (-x[0], -x[1])


def mul(x, y):
    a1, b1 = x
    a2, b2 = y
    return (a1 * a2 + b1 * b2, a1 * b2 + a2 * b1 + b1 * b2)


def scale(x, n):
    return (x[0] * n, x[1] * n)


def norm(x):
    a, b = x
    return a * a + a * b - b * b


def conj(x):
    a, b = x
    return (a + b, -b)


def exact_div(x, d):
    """x / d when d divides x, else None."""
    n = norm(d)
    wa, wb = mul(x, conj(d))
    if wa % n or wb % n:
        return None
    return (wa // n, wb // n)


def divides(d, x):
    return exact_div(x, d) is not None


def is_unit(x):
    return abs(norm(x)) == 1


def associated(x, y):
    q = exact_div(x, y)
    return q is not None and is_unit(q)


def lam_pow(k):
    """L**k for any integer k."""
    base = L if k >= 0 else (-1, 1)  # L**-1 = L - 1
    acc = ONE
    for _ in range(abs(k)):
        acc = mul(acc, base)
    return acc


def smallest_integer(x):
    """Smallest positive rational integer in the ideal generated by x."""
    return abs(norm(x)) // igcd(x[0], x[1])


# --- real embedding, fixed point ---------------------------------------------

_PHI: dict[int, int] = {}


def _phi(bits):
    if bits not in _PHI:
        _PHI[bits] = ((1 << bits) + isqrt(5 << (2 * bits))) >> 1
    return _PHI[bits]


def _bits_for(*elts):
    size = max(max(abs(a).bit_length(), abs(b).bit_length()) for a, b in elts)
    return 64 * ((2 * size + 128) // 64 + 1)


def real(x, bits):
    """floor-ish of (a + b*phi) * 2**bits; the error is below |b| + 1."""
    return (x[0] << bits) + x[1] * _phi(bits)


def is_canonical(x):
    """True for the associate with 0 < x and N <= x**2 < N*L**2 (real values)."""
    n = abs(norm(x))
    sq = mul(x, x)
    bits = _bits_for(x, sq, (n, n))
    v = real(x, bits)
    return v > 0 and real(sq, bits) >= n << bits and real(sq, bits) < real((n, n), bits)


# --- the lambda continued fraction ------------------------------------------


def chain(x, y, cap=100_000):
    """Run x, y -> -y, x - q*y*L with q the nearest integer to x/(y*L).

    Returns (final x, largest |q|, steps).  The final x is a unit exactly when
    x and y are coprime; it is +-1 exactly when the pair (x, y) is a column of
    a matrix in G5, because the stabiliser of (1, 0) in G5 is +-T**k.
    """
    big, steps = 0, 0
    while y != ZERO:
        yl = mul(y, L)
        bits = _bits_for(x, yl)
        num, den = real(x, bits), real(yl, bits)
        if den < 0:
            num, den = -num, -den
        q = (2 * num + den) // (2 * den)
        big = max(big, abs(q))
        x, y = neg(y), sub(x, scale(yl, q))
        steps += 1
        if steps > cap:
            raise RuntimeError("reference chain did not terminate")
    return x, big, steps


def is_reduced_pair(x, y):
    final, _, _ = chain(x, y)
    return final in (ONE, (-1, 0))


# --- matrices and words ------------------------------------------------------


def mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (
        add(mul(a, e), mul(b, g)),
        add(mul(a, f), mul(b, h)),
        add(mul(c, e), mul(d, g)),
        add(mul(c, f), mul(d, h)),
    )


def mat_inv(m):
    a, b, c, d = m
    return (d, neg(b), neg(c), a)


def mat_neg(m):
    return tuple(neg(e) for e in m)


def eval_word(text):
    """Evaluate a word over {S, T, t} (t = T**-1) by plain 2x2 products."""
    acc = IDENTITY
    pos = 0
    for m in _LETTER_RUN.finditer(text):
        if m.start() != pos:
            break
        run = m.group()
        if run == "S":
            acc = mat_mul(acc, S)
        else:
            k = len(run) if run[0] == "T" else -len(run)
            acc = mat_mul(acc, (ONE, (0, k), ZERO, ONE))
        pos = m.end()
    if pos != len(text):
        raise ValueError(f"unexpected letter at {pos} in word")
    return acc


# --- text form ------------------------------------------------------------------


def fmt(x):
    """The CLI element grammar: b*L+a, L, -L, a."""
    a, b = x
    if b == 0:
        return str(a)
    s = "L" if b == 1 else "-L" if b == -1 else f"{b}*L"
    if a > 0:
        s += f"+{a}"
    elif a < 0:
        s += str(a)
    return s


def parse(text):
    """Inverse of fmt (only the forms fmt produces)."""
    if "L" not in text:
        return (int(text), 0)
    head, _, tail = text.partition("L")
    if head in ("", "-"):
        b = -1 if head == "-" else 1
    elif head.endswith("*"):
        b = int(head[:-1])
    else:
        raise ValueError(f"cannot parse {text!r}")
    a = int(tail) if tail else 0
    return (a, b)


# --- ideals, by the multiplicative formulas -----------------------------------------


def _rational_factors(n):
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_ideal_norms(x):
    """Norms of the distinct prime ideals dividing x (x of modest norm).

    p = 5 ramifies, p = +-2 mod 5 is inert (norm p**2), p = +-1 mod 5 splits
    into two conjugate primes of norm p; both divide x exactly when p does.
    """
    out = []
    for p in _rational_factors(abs(norm(x))):
        if p == 5:
            out.append(5)
        elif p % 5 in (2, 3):
            out.append(p * p)
        else:
            out.extend([p, p] if divides((p, 0), x) else [p])
    return out


def index(x):
    """[G5 : G0(x)] = N(x) * prod(1 + 1/N(P))."""
    num, den = abs(norm(x)), 1
    for q in prime_ideal_norms(x):
        num, den = num * (q + 1), den * q
    return num // den


def orbit_keys(x):
    """Index times the number of unit residues: N(x)**2 * prod(1 - 1/N(P)**2)."""
    num, den = abs(norm(x)) ** 2, 1
    for q in prime_ideal_norms(x):
        num, den = num * (q * q - 1), den * q * q
    return num // den


def h_of(x):
    """Largest h in {1, 2, 4} with h**2 dividing x."""
    if divides((16, 0), x):
        return 4
    return 2 if divides((4, 0), x) else 1
