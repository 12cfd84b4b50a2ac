"""The four workloads: seeded inputs, the timed call, and the output check.

A workload hands out one *pass*: a fixed list of units that depends only on
the seed.  The runner runs the same pass several times, each in a fresh
process, and keeps the fastest time of each op over the passes.  A unit is
one timed call: ``setup()`` runs untimed before it, ``run()`` is timed, and
``finish(raw, t0, t1)`` returns one ``(latency_s, failure)`` pair per op,
where ``failure`` is None for a checked, correct result.  Failures caused by
a known defect are tagged ``known:<cause>``; anything else is
``unexpected:<what>`` and makes the run incorrect.  Inputs that hit a known
defect are not drawn into a pass: they form a fixed probe set, the same for
every seed, that ``probes()`` hands out and the runner runs once per run,
untimed, so the number of failed ops is the same on every run.

Every check uses ``zl``, the benchmark's own arithmetic, never hecke5.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
from math import isqrt
from time import perf_counter

import zl

QUOTIENT_BY_H = {1: "Trivial", 2: "Klein4", 4: "Z4xZ4"}
KNOWN_CODES = {"FactorCap": "known:factor_cap"}
FOUR = (4, 0)


def coeffs(elt):
    return (elt.a, elt.b)


def mat_coeffs(m):
    return tuple(coeffs(e) for e in m.entries)


def random_element(rng, lo_norm, hi_norm, box=None):
    """a + b*L with lo_norm <= |norm| <= hi_norm, by rejection."""
    box = box or isqrt(hi_norm) + 2
    while True:
        x = (rng.randint(-box, box), rng.randint(-box, box))
        if lo_norm <= abs(zl.norm(x)) <= hi_norm:
            return x


def element_with_keys(rng, lo_keys, hi_keys):
    """A modulus whose coset table has between lo_keys and hi_keys orbit keys."""
    box = isqrt(isqrt(2 * hi_keys)) + 2
    while True:
        x = random_element(rng, isqrt(lo_keys), isqrt(2 * hi_keys), box)
        if lo_keys <= zl.orbit_keys(x) <= hi_keys:
            return x


def elements_of_norm(n, box=40):
    """Every a + b*L with |norm| = n and |a|, |b| <= box."""
    span = range(-box, box + 1)
    return [(a, b) for a in span for b in span if abs(zl.norm((a, b))) == n]


def random_unit(rng, spread=3):
    return zl.scale(zl.lam_pow(rng.randint(-spread, spread)), rng.choice((1, -1)))


def random_word_matrix(rng, pool, lo, hi):
    m = zl.IDENTITY
    for _ in range(rng.randint(lo, hi)):
        m = zl.mat_mul(m, rng.choice(pool))
    return m


WORD_POOL = (zl.S, zl.T, zl.mat_inv(zl.S), zl.T_INV)


def shear_pool(tau):
    n = zl.smallest_integer(tau)
    return (zl.T, zl.T_INV, (zl.ONE, zl.ZERO, (0, n), zl.ONE), (zl.ONE, zl.ZERO, (0, -n), zl.ONE))


def witness_failure(r, x, y):
    """None when x/(r*y) is a reduced form with x**2 != 1 (mod r)."""
    if zl.divides(r, zl.sub(zl.mul(x, x), zl.ONE)):
        return "unexpected:witness_square_is_one"
    if not zl.is_reduced_pair(x, zl.mul(r, y)):
        return "unexpected:witness_not_reduced"
    return None


def check_level(tau, h, modulus, classification):
    """Shared normalizer facts: h, tau/h up to units, and the quotient name."""
    if h != zl.h_of(tau):
        return "unexpected:wrong_h"
    if not zl.associated(modulus, zl.exact_div(tau, (h, 0))):
        return "unexpected:wrong_normalizer_modulus"
    if classification != QUOTIENT_BY_H[h]:
        return "unexpected:wrong_classification"
    return None


def check_table(table, tau):
    """Size equals the index, S is an involution and (S*T)**5 fixes every class."""
    size = table.size
    if size != zl.index(tau):
        return "unexpected:table_size"
    act_s, act_t = table.action["S"], table.action["T"]
    for i in range(size):
        if act_s[act_s[i]] != i:
            return "unexpected:S_not_involution"
        j = i
        for _ in range(5):
            j = act_t[act_s[j]]
        if j != i:
            return "unexpected:ST5_not_identity"
    return None


def check_quotient(q, tau):
    h = zl.h_of(tau)
    if q.order != h * h:
        return "unexpected:quotient_order"
    if not zl.associated(coeffs(q.modulus), tau):
        return "unexpected:quotient_modulus"
    return check_level(tau, h, coeffs(q.normalizer_modulus), q.classification)


class Workload:
    """A pass of seeded units.

    ``PASS_S`` is the wall time of one pass, its process included, on the
    reference machine; the runner makes about ``--seconds / PASS_S`` passes.
    Each pass runs in a fresh process, unless ``SHARED_PROCESS`` is set:
    then every pass of a run shares one process and its ``prepare()``.
    """

    PASS_S = 1.0
    SHARED_PROCESS = False

    def __init__(self, h5, rng, workdir):
        self.h5, self.rng = h5, rng

    def prepare(self):
        """Untimed work done once per process before the pass."""

    def units(self):
        raise NotImplementedError

    def probes(self):
        """Units that hit a known defect, run once per run and never timed."""
        return []


class LibCall:
    """One library call timed as one op."""

    def __init__(self, fn, args, check):
        self.fn, self.args, self.check = fn, args, check

    def setup(self):
        pass

    def run(self):
        try:
            return self.fn(*self.args)
        except Exception as exc:  # a raised error is a failed op, not a crash
            return exc

    def finish(self, raw, t0, t1):
        if isinstance(raw, Exception):
            return [(t1 - t0, f"unexpected:{type(raw).__name__}")]
        return [(t1 - t0, self.check(raw))]


# --- cosets --------------------------------------------------------------------


class Cosets(Workload):
    """coset_table and quotient_table calls, norm about 50 to about 1000.

    Slots of a pass: one split prime of norm 1009; tables in four narrow
    bands of orbit-key count (2, 2, 5 and 5 of them); tau = 16*unit as table
    and quotient (h = 4); tau = 4*pi, pi of norm 11, as table and quotient
    (h = 2); and one quotient with h = 1 at a split prime of norm 101.  The
    seed picks units, associates and conjugates; each band is narrow and
    every other slot has a fixed norm, so per-op cost hardly depends on the
    seed.  With 20 ops, p50 falls in the middle of the seven ops of 25k to
    29k keys (the 24k-28k band and both 4*pi slots) and p90 on the
    290k-310k band.
    """

    PASS_S = 3.9

    BANDS = ((290_000, 310_000, 2), (95_000, 105_000, 2), (24_000, 28_000, 5), (5_000, 6_000, 5))

    def __init__(self, h5, rng, workdir):
        super().__init__(h5, rng, workdir)
        self.split_primes = elements_of_norm(1009)
        self.primes_11 = elements_of_norm(11)
        self.primes_101 = elements_of_norm(101)

    def _table(self, tau):
        h5 = self.h5
        return LibCall(
            lambda t: h5.subgroups.coset_table(t),
            (h5.ring.RingElt(*tau),),
            lambda table: check_table(table, tau),
        )

    def _quotient(self, tau):
        h5 = self.h5
        return LibCall(
            lambda t: h5.normalizer.quotient_table(t),
            (h5.ring.RingElt(*tau),),
            lambda q: check_quotient(q, tau),
        )

    def units(self):
        rng = self.rng
        units = [self._table(rng.choice(self.split_primes))]
        for lo, hi, count in self.BANDS:
            units += [self._table(element_with_keys(rng, lo, hi)) for _ in range(count)]
        units.append(self._table(zl.mul((16, 0), random_unit(rng))))
        units.append(self._quotient(zl.mul((16, 0), random_unit(rng))))
        for make in (self._table, self._quotient):
            units.append(make(zl.mul(FOUR, rng.choice(self.primes_11))))
        units.append(self._quotient(rng.choice(self.primes_101)))
        rng.shuffle(units)
        return units


# --- coset_locate ----------------------------------------------------------------


class LocateBatch:
    """CosetTable.locate on one slice of matrices from each table, one op.

    Every op covers all three tables, so ops cost the same and the latency
    percentiles do not depend on which table an op happened to use.
    """

    def __init__(self, owner, lo):
        self.owner, self.lo = owner, lo

    def setup(self):
        pass

    def run(self):
        owner, lo, hi = self.owner, self.lo, self.lo + CosetLocate.SLICE
        try:
            return [
                [table.locate(m) for m in mats[lo:hi]]
                for table, mats in zip(owner.tables, owner.matrices)
            ]
        except Exception as exc:  # a raised error is a failed op, not a crash
            return exc

    def finish(self, raw, t0, t1):
        if isinstance(raw, Exception):
            return [(t1 - t0, f"unexpected:{type(raw).__name__}")]
        for slot, located in enumerate(raw):
            failure = self.owner.check(slot, self.lo, located)
            if failure:
                return [(t1 - t0, failure)]
        return [(t1 - t0, None)]


class CosetLocate(Workload):
    """Lookups in three tables built before timing; an op is 3 x 333 matrices.

    The tables are for split primes of norm 149, 311 and 541 (about 22k, 97k
    and 293k orbit keys); the seed picks the prime and its associate.  A
    fixed norm fixes the table's size, so peak memory does not depend on
    the seed.  A pass runs the six slices of matrices ``REPEATS`` times.
    Building the tables costs more than a pass, and a pass already repeats
    each lookup, so all passes of a run share one process.
    """

    NORMS = (149, 311, 541)
    SLICE = 333
    SLICES = 6
    REPEATS = 100
    PASS_S = 1.9
    SHARED_PROCESS = True

    def prepare(self):
        h5, rng = self.h5, self.rng
        self.moduli = [rng.choice(elements_of_norm(n)) for n in self.NORMS]
        self.tables = [h5.subgroups.coset_table(h5.ring.RingElt(*tau)) for tau in self.moduli]
        self.reps = [[mat_coeffs(rep) for rep in table.reps] for table in self.tables]
        self.plain = [
            [random_word_matrix(rng, WORD_POOL, 1, 24) for _ in range(self.SLICE * self.SLICES)]
            for _ in self.moduli
        ]
        elt = h5.ring.RingElt
        self.matrices = [
            [h5.reduction.GMatrix(*(elt(*e) for e in m)) for m in mats] for mats in self.plain
        ]
        self.verified = [dict() for _ in self.moduli]

    def check(self, slot, lo, located):
        """locate(m) = i exactly when m * rep_i**-1 has lower-left entry in (tau)."""
        tau, known = self.moduli[slot], self.verified[slot]
        for offset, i in enumerate(located):
            k = lo + offset
            if k in known:
                if known[k] != i:
                    return "unexpected:locate_changed"
                continue
            if not 0 <= i < len(self.reps[slot]):
                return "unexpected:locate_out_of_range"
            prod = zl.mat_mul(self.plain[slot][k], zl.mat_inv(self.reps[slot][i]))
            if not zl.divides(tau, prod[2]):
                return "unexpected:locate_wrong_class"
            known[k] = i
        return None

    def units(self):
        return [
            LocateBatch(self, k * self.SLICE)
            for _ in range(self.REPEATS)
            for k in range(self.SLICES)
        ]


# --- elementary --------------------------------------------------------------------


class Elementary(Workload):
    """is_g5_elementary and strongly_elementary on seeded (r, bound) pairs.

    A pass has, for every bound 4..8, one exhaustive r, one box r and
    thirteen targeted r:
      exhaustive  a non-canonical associate +-L**k * 2, k in [-1, 2]: no
                  counterexample exists, so the whole box is scanned; these
                  associates scan within 8% of each other's time, while
                  those of 4 and k = -2 take up to twice as long;
      box         L**2 * (12*L-6), the same on every seed: no targeted
                  witness applies, but the box holds one at every bound 4..8.
                  Its associates cost up to twice as much as each other,
                  enough to move p90 from seed to seed, so one is fixed;
      targeted    a non-divisor of 4 of norm 1000 to 1500 that the first
                  targeted witness, 2*L**2 / (n*L**3), settles; later
                  witnesses cost up to 30 times more, and a mix of both would
                  put p50 on the edge between the two costs.
    It adds one strongly_elementary(pi * pi') call for each bound 4..8; each
    visits 1 and then fails at the smaller prime.  With 80 ops a pass, p90
    falls on the box slot of bound 4 (a tenth of the way to the box slot of
    bound 5) and p50 well inside the targeted ones, never on the edge
    between two slots.

    No (r, bound) pair, divisors visited by strongly_elementary included, is
    searched twice in a pass, and every pass runs in a fresh process, so
    every search misses the search cache.  Direct calls use non-canonical r
    only and strongly_elementary visits canonical divisors only, so the two
    never meet.
    """

    PASS_S = 2.8

    BOUNDS = (4, 5, 6, 7, 8)
    FIRST_WITNESS = zl.mul((2, 0), zl.lam_pow(2))
    #: Not canonical, like every r searched directly.
    BOX_R = zl.mul((-6, 12), zl.lam_pow(2))
    #: Norm band of targeted r.  The search's cost grows with the least
    #: integer in (r), so a narrow band keeps p50 from moving with the seed.
    TARGETED_NORMS = (1000, 1500)
    #: Targeted searches take 0.1 ms each and vary by up to 2x with r, so
    #: p50, their median, needs many of them to hold still from seed to seed.
    TARGETED_PER_BOUND = 13
    #: Small primes, all settled by a targeted witness.
    PRIMES = ((-1, 2), (3, 0), (3, 1), (4, 1), (5, 1), (5, 2), (6, 1))

    def __init__(self, h5, rng, workdir):
        super().__init__(h5, rng, workdir)
        self.seen = set()

    def prepare(self):
        rng = self.rng

        def pool(bases, ks):
            out = [
                zl.scale(zl.mul(base, zl.lam_pow(k)), s)
                for base in bases
                for s in (1, -1)
                for k in ks
            ]
            out = [r for r in out if not zl.is_canonical(r)]
            rng.shuffle(out)
            return out

        self.exhaustive = {b: pool(((2, 0),), range(-1, 3)) for b in self.BOUNDS}
        self.strong_bounds = list(self.BOUNDS)
        rng.shuffle(self.strong_bounds)

    def _targeted(self, bound):
        while True:
            r = random_element(self.rng, *self.TARGETED_NORMS, 40)
            if (
                zl.divides(r, FOUR)
                or zl.is_canonical(r)
                or (r, bound) in self.seen
                or not self._first_witness_settles(r)
            ):
                continue
            return r

    def _first_witness_settles(self, r):
        """True when 2*L**2 / (n*L**3), n the least integer in (r), refutes r."""
        x, n = self.FIRST_WITNESS, zl.smallest_integer(r)
        return (
            n % 2 == 1
            and zl.is_reduced_pair(x, zl.mul((n, 0), zl.lam_pow(3)))
            and not zl.divides(r, zl.sub(zl.mul(x, x), zl.ONE))
        )

    def _search(self, r, bound):
        h5 = self.h5
        self.seen.add((r, bound))
        return LibCall(
            lambda x, b: h5.normalizer.is_g5_elementary(x, b),
            (h5.ring.RingElt(*r), bound),
            lambda v: self._check_search(r, bound, v),
        )

    def _check_search(self, r, bound, verdict):
        if verdict.found:
            return witness_failure(r, coeffs(verdict.witness[0]), coeffs(verdict.witness[1]))
        if not zl.divides(r, FOUR):
            return "unexpected:no_counterexample_for_non_divisor"
        return None

    def _strong(self, r, bound):
        h5 = self.h5
        return LibCall(
            lambda x, b: h5.normalizer.strongly_elementary(x, b),
            (h5.ring.RingElt(*r), bound),
            lambda v: self._check_strong(r, bound, v),
        )

    def _check_strong(self, r, bound, verdict):
        divisors = [coeffs(d) for d in verdict.divisors]
        if verdict.holds:
            visited = divisors
            if not zl.divides(r, FOUR):
                return "unexpected:strong_holds_for_non_divisor"
        else:
            d = coeffs(verdict.failing_divisor)
            visited = divisors[: divisors.index(d) + 1]
            if not zl.divides(d, r) or zl.divides(d, FOUR):
                return "unexpected:bad_failing_divisor"
            x, y = verdict.failure.witness
            failure = witness_failure(d, coeffs(x), coeffs(y))
            if failure:
                return failure
        for d in visited:
            if (d, bound) in self.seen:
                return "unexpected:search_repeated"
            self.seen.add((d, bound))
        return None

    def units(self):
        units = []
        for b in self.BOUNDS:
            units.append(self._search(self.exhaustive[b].pop(), b))
            units.append(self._search(self.BOX_R, b))
            units += [
                self._search(self._targeted(b), b) for _ in range(self.TARGETED_PER_BOUND)
            ]
        for b in self.strong_bounds:
            r = zl.mul(self.rng.choice(self.PRIMES), self.rng.choice(self.PRIMES))
            units.append(self._strong(zl.mul(r, random_unit(self.rng, 2)), b))
        self.rng.shuffle(units)
        return units


# --- cli_batch -------------------------------------------------------------------------


class _LineSink(io.TextIOBase):
    """Stands in for stdout; stamps the time each result line is complete."""

    def __init__(self):
        self.parts, self.stamps = [], []

    def writable(self):
        return True

    def write(self, text):
        self.parts.append(text)
        for _ in range(text.count("\n")):
            self.stamps.append(perf_counter())
        return len(text)


def _line(verb, *elements):
    args = [e if isinstance(e, str) else zl.fmt(e) for e in elements]
    if any(a.startswith("-") for a in args):
        args.insert(0, "--")
    return " ".join([verb, *args])


class CliJob:
    """One ``hecke5 --json --batch FILE`` run, in process; each line is an op."""

    def __init__(self, h5, path, lines, known=None):
        self.h5, self.path, self.lines = h5, path, lines
        #: (exception name, failure tag) when the job probes a known defect
        self.known = known
        self.output = ""

    def setup(self):
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write("".join(text + "\n" for text, _ in self.lines))

    def run(self):
        sink = _LineSink()
        saved, sys.stdout = sys.stdout, sink
        try:
            self.h5.cli.main(["--json", "--batch", self.path])
            error = None
        except Exception as exc:  # an uncaught error aborts the whole batch
            error = exc
        finally:
            sys.stdout = saved
        return sink, error

    def finish(self, raw, t0, t1):
        sink, error = raw
        self.output = "".join(sink.parts)
        results = self.output.split("\n")[:-1]
        out, last = [], t0
        for (text, expect), line, stamp in zip(self.lines, results, sink.stamps):
            out.append((stamp - last, check_cli(expect, json.loads(line))))
            last = stamp
        missing = len(self.lines) - len(results)
        if missing:
            name = type(error).__name__ if error is not None else "missing_line"
            why = self.known[1] if self.known and self.known[0] == name else f"unexpected:{name}"
            out.append((t1 - last, why))
            out.extend((None, why) for _ in range(missing - 1))
        return out


def check_cli(expect, obj):
    verb = expect[0]
    schema = obj.get("schema")
    if schema == "hecke5.error/1":
        if verb == "factor" and obj["code"] in KNOWN_CODES:
            return KNOWN_CODES[obj["code"]]
        return f"unexpected:error_{obj['code']}"
    if schema != f"hecke5.{verb}/1":
        return "unexpected:schema"
    p = zl.parse
    if verb == "factor":
        acc = p(obj["unit"])
        if not zl.is_unit(acc):
            return "unexpected:factor_unit"
        for prime, k in obj["factors"]:
            for _ in range(k):
                acc = zl.mul(acc, p(prime))
        return None if acc == expect[1] else "unexpected:factor_product"
    if verb == "reduce":
        num, den = expect[1], expect[2]
        scale = zl.lam_pow(obj["e"])
        pair = (p(obj["reduced"][0]), p(obj["reduced"][1]))
        if pair != (zl.mul(num, scale), zl.mul(den, scale)):
            return "unexpected:reduced_pair"
        m = zl.eval_word(obj["word"])
        if (m[1], m[3]) not in (pair, (zl.neg(pair[0]), zl.neg(pair[1]))):
            return "unexpected:reduce_word"
        return None
    if verb == "member":
        m, tau, expected = expect[1], expect[2], expect[3]
        if obj["member"] != expected:
            return "unexpected:membership"
        if expected and zl.eval_word(obj["word"]) not in (m, zl.mat_neg(m)):
            return "unexpected:member_word"
        return None
    tau = expect[1]
    if verb == "index":
        return None if obj["index"] == zl.index(tau) else "unexpected:index"
    if verb == "normalizer":
        return check_level(tau, obj["h"], p(obj["modulus"]), obj["quotient"])
    if verb == "explain":
        final = zl.exact_div(tau, (zl.h_of(tau), 0))
        return None if zl.associated(p(obj["final"]), final) else "unexpected:explain_final"
    if verb == "quotient":
        h = zl.h_of(tau)
        if obj["order"] != h * h or not zl.associated(p(obj["modulus"]), tau):
            return "unexpected:quotient_order"
        return check_level(tau, h, p(obj["normalizer_modulus"]), obj["classification"])
    if verb == "cosets":
        points = {tuple(point) for point in (rep["point"] for rep in obj["reps"])}
        ok = obj["size"] == zl.index(tau) == len(obj["reps"]) == len(points)
        return None if ok else "unexpected:cosets_size"
    return "unexpected:verb"


class CliBatch(Workload):
    """Seeded batch jobs of 29 lines, each run through ``cli.main``.

    Per job: 6 factor lines (one per coefficient size 1..6 digits, norm at
    most 10**12), 6 reduce lines (3..60 digits in six bands), 8 member lines
    (3 G5 words of length 20..60, 3 words in G0(tau), 2 G5 words tested
    against tau), 3 index, 2 normalizer, 2 explain, 1 small quotient and 1
    small cosets.  A pass is ``JOBS`` jobs.

    The probe set, the same for every seed, holds the inputs that hit a known
    defect: one job of factor lines with 7 and 8 digit coefficients, where
    trial division stops short, and three one-line jobs whose reduce
    quotient exceeds 2**63, the OverflowError in word_string.
    """

    JOBS = 30
    PASS_S = 2.0
    #: |num/den| >= 2**63; each aborts its batch with an uncaught OverflowError.
    OVERFLOW = (
        "reduce 100000000000000000000 1",
        "reduce 9*L+300000000000000000000 7",
        "reduce -- -70000000000000000000*L+1 L+2",
    )
    #: Factor probes per coefficient size; about 40% of the 8 digit ones hit
    #: FactorCapError on the seed.
    FACTOR_PROBES = {7: 8, 8: 8}
    #: Largest |norm| of a drawn factor line: trial division up to
    #: TRIAL_DIVISION_CAP = 10**6 factors every norm up to 10**12.
    MAX_FACTOR_NORM = 10**12
    REDUCE_BANDS = ((3, 10), (11, 20), (21, 30), (31, 40), (41, 50), (51, 60))
    #: Largest chain quotient a drawn reduce line may have.  word_string
    #: writes T**q as q letters: between about 10**7 and 10**10 that allocates
    #: gigabytes instead of failing, and even 10**6 makes megabyte lines whose
    #: size, not the program, would set peak memory.
    MAX_QUOTIENT = 10**4

    def __init__(self, h5, rng, workdir):
        super().__init__(h5, rng, workdir)
        self.path = os.path.join(workdir, "job.txt")

    @staticmethod
    def _element(rng, d):
        def digits():
            return rng.choice((1, -1)) * rng.randint(10 ** (d - 1) if d > 1 else 1, 10**d - 1)

        return (digits(), digits())

    def _factor_operand(self, d):
        while True:
            x = self._element(self.rng, d)
            if abs(zl.norm(x)) <= self.MAX_FACTOR_NORM:
                return x

    def _reduce_pair(self, lo, hi):
        rng = self.rng
        while True:
            d = rng.randint(lo, hi)
            num = self._element(rng, d)
            den = self._element(rng, max(1, d - rng.randint(0, 2)))
            final, big, _ = zl.chain(num, den)
            if zl.is_unit(final) and big <= self.MAX_QUOTIENT:
                return num, den

    def _lines(self):
        rng = self.rng
        lines = []
        for d in range(1, 7):
            x = self._factor_operand(d)
            lines.append((_line("factor", x), ("factor", x)))
        for lo, hi in self.REDUCE_BANDS:
            num, den = self._reduce_pair(lo, hi)
            lines.append((_line("reduce", num, den), ("reduce", num, den)))
        for _ in range(3):
            m = random_word_matrix(rng, WORD_POOL, 20, 60)
            lines.append((_line("member", *m), ("member", m, None, True)))
        for _ in range(3):
            tau = random_element(rng, 2, 200)
            m = random_word_matrix(rng, shear_pool(tau), 6, 20)
            lines.append((_line("member", *m, tau), ("member", m, tau, True)))
        for _ in range(2):
            tau = random_element(rng, 2, 200)
            m = random_word_matrix(rng, WORD_POOL, 20, 60)
            lines.append((_line("member", *m, tau), ("member", m, tau, zl.divides(tau, m[2]))))
        for _ in range(3):
            tau = random_element(rng, 2, 100_000)
            lines.append((_line("index", tau), ("index", tau)))
        for verb in ("normalizer", "normalizer", "explain", "explain"):
            tau = zl.mul(zl.scale((1, 0), 4 ** rng.randint(0, 2)), random_element(rng, 2, 2000))
            lines.append((_line(verb, tau), (verb, tau)))
        tau = zl.mul(rng.choice((FOUR, (8, 0), (-4, 8))), random_unit(rng))
        lines.append((_line("quotient", tau), ("quotient", tau)))
        tau = random_element(rng, 2, 40)
        lines.append((_line("cosets", tau), ("cosets", tau)))
        rng.shuffle(lines)
        return lines

    def units(self):
        return [CliJob(self.h5, self.path, self._lines()) for _ in range(self.JOBS)]

    def probes(self):
        rng = random.Random("cli_batch:probes")
        factor = [
            self._element(rng, d) for d, count in self.FACTOR_PROBES.items() for _ in range(count)
        ]
        jobs = [CliJob(self.h5, self.path, [(_line("factor", x), ("factor", x)) for x in factor])]
        for text in self.OVERFLOW:
            known = ("OverflowError", "known:reduce_overflow")
            jobs.append(CliJob(self.h5, self.path, [(text, ("reduce",))], known))
        return jobs


WORKLOADS = {
    "cli_batch": CliBatch,
    "cosets": Cosets,
    "coset_locate": CosetLocate,
    "elementary": Elementary,
}
