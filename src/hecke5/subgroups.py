"""Congruence subgroups: membership, coset tables, shear families, sampling.

G0(tau) is the set of group elements whose lower-left entry is divisible by
tau.  Right cosets of G0(tau) correspond to bottom rows (c, d) modulo tau up
to scaling by invertible residues — points of the projective line over the
residue ring — and the coset table lists them in rank order with the right
action of the generators S and T on them.  The breadth-first walk of that
action from (0, 1) yields the Schreier generators of G0(tau), one per edge
that closes a cycle.
"""

from __future__ import annotations

import random
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


#: Default bound on the index of a coset table, and the bound of every walk
#: of Schreier generators.
_MAX_POINTS = 10_000


class _Orbit:
    """The projective line over the residue ring of ``modulus``, keyed by
    unit orbits, and the orbit of the point (0, 1) under the right action
    of S and T on it, walked lazily by ``walk``: breadth-first, S before T.
    ``schreier_generators`` reads the walk; ``CosetTable`` reads only the
    residue line (``key``, ``moves``, ``blocks`` and the per-residue
    tables) and never walks.

    Class i stands for the coset of the representative reached by the walk's
    first path to it; ``points[i]`` is that matrix's bottom row modulo the
    level, as reduced residue pairs, and ``index_of`` maps each class key to
    its position.  Edge 2i goes from class i by S and edge 2i + 1 by T, to
    the class ``successors`` lists under that number.  Classes are numbered
    in the order reached, so edge e first reaches class j exactly when
    ``successors[e] == j`` and j classes were reached before it.  Raises
    BadRangeError when ``max_points`` is below 1, before the modulus is
    factored, and BoundExceededError when the index exceeds it.

    Points are keyed directly, as Manin symbols are in P^1(Z/N): every
    residue c is u*c0 for a unit u and the least residue c0 of its unit
    orbit, and with w = u**-1 and mu = modulus / gcd(c0, modulus) the pair
    (c0, w*d mod mu) is a complete invariant of the class of (c, d), because
    the units fixing c0 are exactly those congruent to 1 modulo mu.  The
    walker keeps one (c0, w, mu) entry and one mask of the primes holding
    it per residue, so its memory is O(N(modulus)) beside the classes.

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
    ``blocks`` lists each orbit's least residue c0 with its mu as a
    coefficient pair, in ascending c0; ``_canon[r]`` is the key's entry
    (c0 * N(modulus), w, mu's HNF) of residue r and ``_held[r]`` its mask.
    """

    def __init__(self, modulus: RingElt, max_points: int) -> None:
        if max_points < 1:
            raise BadRangeError(f"bound must be >= 1, got {max_points}")
        self.expected, primes = _index_and_primes(modulus)
        if self.expected > max_points:
            raise BoundExceededError(
                f"index {int_text(self.expected)} exceeds the configured bound "
                f"{max_points}"
            )
        self.ctx = ctx = ResidueCtx(modulus)

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
        self._primes = primes = [ResidueCtx(p) for p in primes]
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
        self._canon = canon = [None] * size
        self.blocks = blocks = []
        ra, rb = modulus.coeffs
        for c0 in range(size):
            if canon[c0] is not None:
                continue
            base = c0 * size
            if not held[c0]:
                # the orbit of the units, met at c0 = e: x * u = e, and mu is
                # the modulus itself
                blocks.append((c0, (ra, rb)))
                for (ua, ub), (wa, wb) in zip(units, scaled):
                    canon[ua * g + ub] = (base, wa, wb, n, g, m)
                continue
            least = divmod(c0, g)
            # mu = modulus / gcd(c0, modulus), an exact division; the HNF
            # depends on the ideal alone, so any associate of the gcd serves
            mu = _divmod_step(ra, rb, *_euclid(*least, ra, rb))[:2]
            blocks.append((c0, mu))
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
        self.points = [(*ctx.red(0, 0), *ctx.red(1, 0))]
        self.index_of = {key(*self.points[0]): 0}
        self.successors: list[int] = []

    def walk(self) -> Iterator[int]:
        """Visit the classes in the order reached, and yield each class i
        once its two edges are recorded."""
        key, moves, points = self.key, self.moves, self.points
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
    table stores one reduced point per class and the permutation action of
    S and T on classes; ``rep_words`` is read from the action and ``reps``
    from the words, each on first read.

    Classes are numbered in rank order, by their least unit multiple (c0, d)
    compared coefficient by coefficient, with no walk: the blocks of
    ``_Orbit.blocks`` are read in ascending c0.  A block whose c0 is a unit
    is that of the least unit e; its stabiliser is trivial, so it holds one
    class per residue d, and its keys c0 * N(modulus) + d are its ranks.
    Any other block reads d in rank order, skipping each d in a prime that
    also holds c0, since (c0, d) is then no point although its key may be a
    class's, and places a class at the first d with each new key until it
    holds its N(mu) * prod(1 - 1/N(P)) classes, over the primes P holding
    both c0 and mu.

    On the unit block T is d -> d + e*L and S is d -> -e*w(d), w the key
    multiplier the residue line holds for a unit d, so neither makes a key
    call unless d is no unit; every other class maps by the key of a move
    of its point.  One breadth-first pass over the action from class 0, S
    before T, then records each class's point as the bottom row of the
    pass's first path to it.  Raises IntegrityError when a block runs out
    of points, when the class count misses the multiplicative index
    formula, and when that pass leaves a class unreached.
    """

    def __init__(self, modulus: RingElt, max_points: int = _MAX_POINTS) -> None:
        orbit = _Orbit(modulus, max_points)
        self.modulus = modulus
        self.ctx = ctx = orbit.ctx
        self._hnf = n, g, m = ctx.n, ctx.g, ctx.m
        self._key = key = orbit.key
        size, held, canon, primes = ctx.size, orbit._held, orbit._canon, orbit._primes

        # the classes in rank order; rows[i] is the point (c0, d) that placed
        # class i, for the classes outside the unit block alone
        self._index_of = index_of = {}
        rows = []
        for c0, mu in orbit.blocks:
            mask, base = held[c0], c0 * size
            left = _unit_count(mu, [p for i, p in enumerate(primes) if mask >> i & 1])
            if not mask:
                if left != size:
                    raise IntegrityError(
                        f"unit residue {c0} has {left} of its {size} classes"
                    )
                first, (ea, eb) = len(index_of), divmod(c0, g)
                index_of.update(zip(range(base, base + size), range(first, first + size)))
                continue
            ca, cb = divmod(c0, g)
            for d in range(size):
                if not held[d] & mask:
                    row = (ca, cb, *divmod(d, g))
                    k = key(*row)
                    if k not in index_of:
                        index_of[k] = len(index_of)
                        rows.append(row)
                        left -= 1
                        if not left:
                            break
            else:
                raise IntegrityError(
                    f"{left} classes of residue {c0} have no point (c0, d)"
                )
        total = len(index_of)
        if total != orbit.expected:
            raise IntegrityError(
                f"orbit has {total} classes but the index formula "
                f"gives {orbit.expected}"
            )

        # the unit block: T adds e*L = t to d, a shift by t of the residue
        # index d = a*g + b, less g + m*g in the columns b where the sum
        # carries; S sends (e, d) to (d, -e), whose key for a unit d with
        # multiplier w is that of (e, -e*w).  unit[d] is class first + d as
        # the int object index_of holds, so the action keeps no int of its own
        unit = [*index_of.values()][first : first + size]
        ta, tb = ctx.red(eb, ea + eb)
        t = ta * g + tb
        t_unit = unit[t:] + unit[:t]
        carried = (t - g - m * g) % size
        for b in range(g - tb, g):
            t_unit[b::g] = [unit[(r + carried) % size] for r in range(b, size, g)]

        moves = orbit.moves
        s_unit, s_rest, t_rest = [], [], []
        try:
            for d, (h, (_, wa, wb, _, _, _)) in enumerate(zip(held, canon)):
                if h:
                    s_unit.append(index_of[key(*divmod(d, g), -ea, -eb)])
                else:
                    xb = -ea * wb - eb * (wa + wb)
                    k = xb // g
                    s_unit.append(unit[(-ea * wa - eb * wb - k * m) % n * g + xb - k * g])
            for row in rows:
                s_row, t_row = moves(*row)
                s_rest.append(index_of[key(*s_row)])
                t_rest.append(index_of[key(*t_row)])
        except KeyError:
            raise IntegrityError("a move leaves the classes of the table") from None
        self.action = action = {
            "S": [*s_rest[:first], *s_unit, *s_rest[first:]],
            "T": [*t_rest[:first], *t_unit, *t_rest[first:]],
        }

        # the points, each the bottom row of the first path reaching it; a
        # move is made, as ``moves`` makes it, only along the edge that
        # first reaches a class
        self.points = points = [None] * total
        points[0] = (*ctx.red(0, 0), *ctx.red(1, 0))
        s_act, t_act = action["S"], action["T"]
        reached = [0]
        # the loop reads the classes appended while it runs
        for i in reached:
            xa, xb, ya, yb = points[i]
            j = s_act[i]
            if points[j] is None:
                k = -xb // g
                points[j] = (ya, yb, (-xa - k * m) % n, -xb - k * g)
                reached.append(j)
            j = t_act[i]
            if points[j] is None:
                b = xa + xb + yb
                k = b // g
                points[j] = (xa, xb, (ya + xb - k * m) % n, b - k * g)
                reached.append(j)
        if len(reached) != total:
            raise IntegrityError(
                f"the action reaches {len(reached)} of {total} classes from class 0"
            )
        self._rep_words: list[Word] | None = None
        self._reps: list[GMatrix] | None = None

    @property
    def rep_words(self) -> list[Word]:
        """The word of each class's representative, built on first read.

        One breadth-first pass over ``action`` from class 0, S before T,
        meets the edges in the order of the walk of ``_Orbit``, so each
        class gets the word of the walk's first path to it.
        """
        if self._rep_words is None:
            words: list = [None] * len(self.points)
            words[0] = ()
            steps = ((("S", 1),), self.action["S"]), ((("T", 1),), self.action["T"])
            reached = [0]
            # the loop reads the classes appended while it runs
            for i in reached:
                for step, successor in steps:
                    j = successor[i]
                    if words[j] is None:
                        words[j] = words[i] + step
                        reached.append(j)
            self._rep_words = words
        return self._rep_words

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
        n, g, hm = self._hnf
        # GMatrix coerces every entry to RingElt and both have fixed
        # __slots__, so the bottom row is read from the slots: the property
        # calls, tuples and context reads this spares were over a third of
        # a lookup
        c, d = m._c, m._d
        cb = c._b
        # c reduced as ResidueCtx.red does; d needs no reduction, since the
        # key reduces w*d modulo mu
        k = cb // g
        try:
            return self._index_of[
                self._key((c._a - k * hm) % n, cb - k * g, d._a, d._b)
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
