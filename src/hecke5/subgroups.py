"""Congruence subgroups: membership, coset tables, shear families, sampling.

G0(tau) is the set of group elements whose lower-left entry is divisible by
tau.  Right cosets of G0(tau) correspond to bottom rows (c, d) modulo tau up
to scaling by invertible residues — points of the projective line over the
residue ring — and the coset table enumerates them as the orbit of (0, 1)
under the right action of the generators S and T.  The same walk yields the
Schreier generators of G0(tau), one per edge that closes a cycle.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence

from .errors import BadRangeError, BoundExceededError, IntegrityError
from .ideals import (
    ResidueCtx,
    _hnf,
    _index_and_primes,
    smallest_rational_integer,
)
from .reduction import (
    GEN_T,
    IDENTITY,
    GMatrix,
    Word,
    eval_word,
    g5_decompose,
    t_power,
)
from .ring import LAMBDA, ONE, ZERO, RingElt, _divmod_step, _euclid, gcd, int_text


def g0_contains(m: GMatrix, modulus: RingElt) -> bool:
    """Membership in the level-``modulus`` congruence subgroup."""
    if not ResidueCtx(modulus).divides(m.c):
        return False
    return g5_decompose(m) is not None


def conjugate(a: GMatrix, b: GMatrix) -> GMatrix:
    """a * b * a**-1."""
    return a * b * a.inverse()


# --- coset enumeration ----------------------------------------------------------


def _unit_count(mu: tuple[int, int], primes: Sequence[ResidueCtx]) -> int:
    """phi(mu) = N(mu) * prod(1 - 1/N(P)), the number of invertible residues
    modulo the element whose coefficients are ``mu``, the product over those
    of ``primes`` that divide it (they must include every prime of mu)."""
    a, b = mu
    count = abs(a * a + a * b - b * b)
    for p in primes:
        if p.red(a, b) == (0, 0):
            count = count // p.size * (p.size - 1)
    return count


class _ProjectiveLine:
    """Class keys of the projective line over the residue ring of ``modulus``.

    Points are normalised directly, as Manin symbols are in P^1(Z/N): every
    residue c is u*c0 for a unit u and the least residue c0 of its unit
    orbit, and with w = u**-1 and mu = modulus / gcd(c0, modulus) the pair
    (c0, w*d mod mu) is a complete invariant of the class of (c, d), because
    the units fixing c0 are exactly those congruent to 1 modulo mu.  The
    line keeps one (c0, w, mu) entry and one mask of the primes holding it
    per residue, so its memory is O(N(modulus)).  ``primes`` are the
    distinct primes dividing the level.

    Everything runs on raw coefficient pairs, and each product and row
    move reduces as ResidueCtx.red does, written out in place.  The mask of
    a prime is set by stepping through its multiples in the box, read off
    its Hermite normal form, so no residue is reduced to fill the masks.
    One prefix-product pass pairs each unit u with x = e * u**-1, e the
    least unit, in three products per unit.  The orbit of e, the units, is
    filled from these pairs with no product, since x * u = e.  Any other
    orbit holds phi(mu) residues, one per unit modulo mu: its pass takes c
    = u**-1 * c0 with w = u and stops once it holds them all.  Over the
    levels of norm up to 3000 these passes take at most 0.95 N(modulus)
    products, where filling every orbit took up to 1.64 N(modulus).
    ``ranks`` numbers the classes in about one key per class.
    """

    def __init__(self, modulus: RingElt, primes: Sequence[RingElt]) -> None:
        ctx = ResidueCtx(modulus)
        self.ctx = ctx

        # every residue product and row move below reduces a + b*L as
        # ResidueCtx.red does, written out to spare a call per product
        n, g, m = ctx.n, ctx.g, ctx.m
        size = n * g

        def mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
            """The product of two residues."""
            (xa, xb), (ya, yb) = x, y
            b = xa * yb + xb * ya + xb * yb
            k = b // g
            return (xa * ya + xb * yb - k * m) % n, b - k * g

        def moves(xa: int, xb: int, ya: int, yb: int) -> tuple[tuple[int, ...], ...]:
            """A row (x, y) times S, giving (y, -x), and times T, giving
            (x, x L + y)."""
            k, b = -xb // g, xa + xb + yb
            j = b // g
            return (
                (ya, yb, (-xa - k * m) % n, -xb - k * g),
                (xa, xb, (ya + xb - j * m) % n, b - j * g),
            )

        self.moves = moves

        # bit i of held[r] is set when the i-th prime over the level holds
        # residue r; the invertible residues are those that no prime holds.
        # The multiples a + b*L of a prime with column HNF [[pn, pm], [0, pg]]
        # are the b divisible by pg with a = (b / pg) * pm modulo pn, and pn
        # and pg divide n and g, so each column b of the box holds them at a
        # stride of pn rows.
        primes = [ResidueCtx(p) for p in primes]
        self._held = held = [0] * size
        for i, p in enumerate(primes):
            bit, stride = 1 << i, p.n * g
            for b in range(0, g, p.g):
                start = b // p.g * p.m % p.n * g + b
                held[start::stride] = [h | bit for h in held[start::stride]]
        units = [divmod(r, g) for r in range(size) if not held[r]]
        # x = e * u**-1 for each unit u, with e the least unit, by three
        # products per unit: prefix[i] is the product of the units before
        # u_i, and tails yields e over the product of the units up to u_i,
        # from the last unit down.  The product of all elements of a finite
        # abelian group has order 1 or 2 (Miller 1903, after Wilson), so it
        # is its own inverse.
        prefix = list(accumulate(units, mul, initial=ctx.red(1, 0)))
        start = mul(prefix.pop(), units[0])
        tails = accumulate(reversed(units[1:]), mul, initial=start)
        scaled = list(map(mul, tails, reversed(prefix)))
        scaled.reverse()
        # e is L when g > 1 and 1 otherwise, and L**-1 = L - 1
        e_inverse = ctx.red(-1, 1) if g > 1 else ctx.red(1, 0)

        # one pass over the units per unit orbit of residues, i.e. per ideal
        # divisor of the level, until the orbit is full; row-major order
        # meets each orbit at its least residue c0 first
        canon: list = [None] * size
        ra, rb = modulus.coeffs
        for c0 in range(size):
            if canon[c0] is not None:
                continue
            base = c0 * size
            if not held[c0]:
                # the orbit of the units, met at c0 = e: x * u = e, and mu is
                # the modulus itself
                for (ua, ub), (wa, wb) in zip(units, scaled):
                    canon[ua * g + ub] = (base, wa, wb, n, g, m)
                continue
            least = divmod(c0, g)
            # mu = modulus / gcd(c0, modulus), an exact division; the HNF
            # depends on the ideal alone, so any associate of the gcd serves
            mu = _divmod_step(ra, rb, *_euclid(*least, ra, rb))[:2]
            mn, mg, mm = _hnf(*mu)
            # u * c = c0 for c = x * e**-1 * c0, which is u**-1 * c0
            shifted = mul(e_inverse, least)
            missing = _unit_count(mu, primes)
            for (wa, wb), x in zip(units, scaled):
                ca, cb = mul(x, shifted)
                c = ca * g + cb
                if canon[c] is None:
                    canon[c] = (base, wa, wb, mn, mg, mm)
                    missing -= 1
                    if not missing:
                        break
            else:
                raise IntegrityError(
                    f"the units leave {missing} residues of the unit orbit "
                    f"of residue {c0} unreached"
                )

        def key(ca: int, cb: int, da: int, db: int) -> int:
            """Class key c0 * N(modulus) + (w*d mod mu) of a point (c, d) with
            c reduced; d may be any representative."""
            base, wa, wb, mn, mg, mm = canon[ca * g + cb]
            ea, eb = wa * da + wb * db, wa * db + wb * (da + db)
            k = eb // mg
            return base + (ea - k * mm) % mn * mg + eb - k * mg

        self.key = key

    def ranks(self, index_of: dict[int, int]) -> list[int]:
        """Rank c0 * N(modulus) + d of the least unit multiple (c0, d) of
        each class, d compared coefficient by coefficient, listed by the
        class index that ``index_of`` gives each class key.

        A class with c0 a unit has a trivial stabiliser, so its key is that
        rank.  For any other c0 the residues d are read in rank order, and
        each class is ranked by the first point (c0, d) with its key; a d in
        a prime that also holds c0 is skipped, since (c0, d) is then no
        point, although its key may be that of a class.  Raises
        IntegrityError if a class is left unranked.
        """
        size, g, key, held = self.ctx.size, self.ctx.g, self.key, self._held
        ranks: list = [None] * len(index_of)
        pending: dict[int, int] = {}
        for k, i in index_of.items():
            c0 = k // size
            if held[c0]:
                pending[c0] = pending.get(c0, 0) + 1
            else:
                ranks[i] = k
        for c0, left in pending.items():
            ca, cb = divmod(c0, g)
            for d in range(size):
                if held[d] & held[c0]:
                    continue
                da, db = divmod(d, g)
                i = index_of.get(key(ca, cb, da, db))
                if i is not None and ranks[i] is None:
                    ranks[i] = c0 * size + d
                    left -= 1
                    if not left:
                        break
            else:
                raise IntegrityError(
                    f"{left} classes of residue {c0} have no point (c0, d)"
                )
        return ranks


#: Default bound on the index of a coset table, and the bound of every walk
#: of Schreier generators.
_MAX_POINTS = 10_000


class _Orbit:
    """The orbit of the point (0, 1) under the right action of S and T,
    walked breadth-first and lazily by ``walk``.

    Class i stands for the coset of the representative reached by the walk's
    first path to it; ``points[i]`` is that matrix's bottom row modulo the
    level, as reduced residue pairs, and ``index_of`` maps each class key to
    its position.  Edge 2i goes from class i by S and edge 2i + 1 by T, to
    the class ``successors`` lists under that number.  Classes are numbered
    in the order reached, so edge e first reaches class j exactly when
    ``successors[e] == j`` and j classes were reached before it.  Raises
    BoundExceededError when the index exceeds ``max_points``.
    """

    def __init__(self, modulus: RingElt, max_points: int) -> None:
        self.expected, primes = _index_and_primes(modulus)
        if self.expected > max_points:
            raise BoundExceededError(
                f"index {int_text(self.expected)} exceeds the configured bound "
                f"{max_points}"
            )
        self.line = line = _ProjectiveLine(modulus, primes)
        red = line.ctx.red
        self.points = [(*red(0, 0), *red(1, 0))]
        self.index_of = {line.key(*self.points[0]): 0}
        self.successors: list[int] = []

    def walk(self) -> Iterator[int]:
        """Visit the classes in the order reached, and yield each class i
        once its two edges are recorded."""
        key, moves, points = self.line.key, self.line.moves, self.points
        index_of, find, add_point = self.index_of, self.index_of.get, points.append
        add_successor = self.successors.append
        # the loop reads the points appended while it runs
        for i, row in enumerate(points):
            for pt in moves(*row):
                k = key(*pt)
                j = find(k)
                if j is None:
                    index_of[k] = j = len(points)
                    add_point(pt)
                add_successor(j)
            yield i


class CosetTable:
    """Right cosets of the level-``modulus`` subgroup in the full group.

    Each coset is a projective point: a bottom row modulo the level, up to
    scaling by invertible residues; class 0 is the subgroup itself.  The
    table stores one reduced point and one generator word per class, and
    the permutation action of S and T on classes; ``reps`` is built on first
    read.  It drains the walk of ``_Orbit``, cross-checks the class count
    against the multiplicative index formula and raises IntegrityError on
    any mismatch.  Classes are numbered in the order of their least unit
    multiple (c, d), compared coefficient by coefficient.
    """

    def __init__(self, modulus: RingElt, max_points: int = _MAX_POINTS) -> None:
        orbit = _Orbit(modulus, max_points)
        self.modulus = modulus
        self.ctx = orbit.line.ctx
        self._key = orbit.line.key

        deque(orbit.walk(), maxlen=0)
        points, successors = orbit.points, orbit.successors
        words: list[Word] = [()]
        for e, j in enumerate(successors):
            if j == len(words):  # the edge that reaches j first
                words.append(words[e // 2] + (("ST"[e % 2], 1),))
        if len(points) != orbit.expected:
            raise IntegrityError(
                f"orbit has {len(points)} classes but the index formula "
                f"gives {orbit.expected}"
            )

        ranks = orbit.line.ranks(orbit.index_of)
        order = sorted(range(len(points)), key=ranks.__getitem__)
        perm = [0] * len(order)
        for rank, old in enumerate(order):
            perm[old] = rank
        self.points = [points[i] for i in order]
        self._reps: list[GMatrix] | None = None
        self.rep_words = [words[i] for i in order]
        self._index_of = index_of = orbit.index_of
        for k, v in index_of.items():
            index_of[k] = perm[v]
        self.action = {
            name: [perm[succ[i]] for i in order]
            for name, succ in zip("ST", (successors[0::2], successors[1::2]))
        }

    @property
    def reps(self) -> list[GMatrix]:
        """The matrix of each class's word in ``rep_words``, built on first
        read by ``eval_word``."""
        if self._reps is None:
            self._reps = [eval_word(word) for word in self.rep_words]
        return self._reps

    @property
    def size(self) -> int:
        return len(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def locate(self, m: GMatrix) -> int:
        """Class index of the coset containing ``m`` (assumed in the group)."""
        ctx = self.ctx
        (ca, cb), (da, db) = m.c.coeffs, m.d.coeffs
        # c reduced here, not by ctx.red: that call costs ~12% of a locate;
        # d needs no reduction, since the key reduces w*d modulo mu
        k = cb // ctx.g
        try:
            return self._index_of[
                self._key((ca - k * ctx.m) % ctx.n, cb - k * ctx.g, da, db)
            ]
        except KeyError:
            raise ValueError("bottom row is not in the coset orbit") from None


def coset_table(modulus: RingElt, max_points: int = _MAX_POINTS) -> CosetTable:
    return CosetTable(modulus, max_points=max_points)


def schreier_generators(modulus: RingElt) -> Iterator[GMatrix]:
    """Generators of the level-``modulus`` subgroup, yielded as the coset
    walk reaches them.

    Schreier's lemma (Magnus, Karrass and Solitar, Combinatorial Group
    Theory, section 2.3): for every edge i -> j = i*g of the coset walk,
    g = S or T, rep_i * g * rep_j**-1 lies in the subgroup, and together
    these elements generate it.  Edges by which the walk first reaches a
    class give the identity and are skipped; every other edge is yielded
    in walk order, so a consumer that stops early never walks the rest of
    the table.  Raises BoundExceededError when the index exceeds the
    default bound of ``coset_table``.
    """
    orbit = _Orbit(modulus, _MAX_POINTS)
    # each representative is kept as its entries (a, b, c, d); rep_i * S is
    # (b, -a, d, -c), rep_i * T is (a, a*L + b, c, c*L + d), and the inverse
    # of rep_j is (d_j, -b_j, -c_j, a_j)
    successors, reps = orbit.successors, [IDENTITY.entries]
    for i in orbit.walk():
        a, b, c, d = reps[i]
        moved = ((b, -a, d, -c), (a, a * LAMBDA + b, c, c * LAMBDA + d))
        for e, (ta, tb, tc, td) in enumerate(moved, 2 * i):
            j = successors[e]
            if j == len(reps):  # the edge that reaches j first
                reps.append((ta, tb, tc, td))
            else:
                ja, jb, jc, jd = reps[j]
                yield GMatrix(
                    ta * jd - tb * jc, tb * ja - ta * jb,
                    tc * jd - td * jc, td * ja - tc * jb,
                )


# --- shear families ----------------------------------------------------------------


class ShearPair(NamedTuple):
    """The element T**x * Low**y with Low = [[1, 0], [n*L, 1]].

    ``n`` is the smallest positive rational integer divisible by the level.
    """

    x: int
    y: int
    n: int

    @classmethod
    def from_level(cls, x: int, y: int, level: RingElt) -> "ShearPair":
        return cls(x, y, smallest_rational_integer(level))

    def matrix(self) -> GMatrix:
        low = GMatrix(ONE, ZERO, RingElt(0, self.n * self.y), ONE)
        return t_power(self.x) * low


def shear_coset_equal(
    e1: ShearPair, e2: ShearPair, m: int, level: RingElt
) -> bool:
    """Left-coset equality of two shear elements modulo 3**m times the level.

    Exact criterion: y1 == y2 and y**2 (x1 - x2) == 0 modulo 3**m.  Defined
    for levels coprime to 3 and indices 0 <= x, y < 3**m with y coprime to 3;
    equality means inverse(e2) * e1 lies in the level-(3**m * level) subgroup.
    """
    if m < 1:
        raise BadRangeError("exponent m must be at least 1")
    if gcd(level, RingElt(3, 0)) != ONE:
        raise BadRangeError("level must be coprime to 3")
    n = smallest_rational_integer(level)
    if e1.n != n or e2.n != n:
        raise BadRangeError("shear pairs do not match the level")
    q = 3**m
    for e in (e1, e2):
        if not (0 <= e.x < q and 0 <= e.y < q):
            raise BadRangeError("indices must lie in [0, 3**m)")
        if e.y % 3 == 0:
            raise BadRangeError("y must be coprime to 3")
    return (e1.y - e2.y) % q == 0 and (e1.y * e1.y * (e1.x - e2.x)) % q == 0


# --- sampling ------------------------------------------------------------------------


def sample_words(
    generators: Sequence[GMatrix],
    count: int,
    seed: int,
    max_len: int = 12,
) -> list[GMatrix]:
    """Reproducible random products of the generators and their inverses."""
    if count < 1:
        raise BadRangeError("count must be at least 1")
    rng = random.Random(seed)
    pool = list(generators) + [g.inverse() for g in generators]
    out = []
    for _ in range(count):
        m = IDENTITY
        for _ in range(rng.randint(1, max_len)):
            m = m * rng.choice(pool)
        out.append(m)
    return out


def sample_subgroup(modulus: RingElt, count: int, seed: int) -> list[GMatrix]:
    """Random elements of the level-``modulus`` subgroup.

    Words in T and the lower shear [[1, 0], [n*L, 1]] (n the smallest rational
    integer of the level), so every output lies in the subgroup by
    construction.  The sample spans the subgroup these two elements generate,
    which need not be all of it.
    """
    low = GMatrix(ONE, ZERO, RingElt(0, smallest_rational_integer(modulus)), ONE)
    return sample_words((GEN_T, low), count, seed)
