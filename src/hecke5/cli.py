"""Command-line interface to the exact Hecke-group computations.

Verbs
-----
factor ELT                prime factorization in the golden-ratio ring
reduce NUM DEN            scaling exponent and reduced form of NUM/DEN
index TAU                 index of the level-TAU subgroup in the full group
cosets TAU                coset table: size, projective points, witness words
member A B C D [TAU]      group membership (level-TAU subgroup when TAU given)
normalizer TAU            normalizer level, h, and quotient classification
explain TAU               witness-by-witness derivation of the normalizer
elementary R [--strong]   search for reduced x/(R*y) with x**2 != 1 (mod R)
quotient TAU              order and classification of normalizer modulo subgroup
selftest [--only TEXT]    run the built-in reproduction suite

Contract
--------
* ``--json`` prints exactly one JSON object per command, each carrying a
  ``schema`` field naming its payload shape (``hecke5.error/1`` for every
  error, usage errors included); text mode prints readable lines.
* ``--batch FILE`` runs one command per non-blank, non-``#`` line of FILE
  (verb first, then arguments) and emits one result per command in input
  order; output is byte-identical across runs of the same input.  In batch
  mode errors are emitted in-stream so results stay aligned with commands.
* exit 0: computed, affirmative or neutral answer.  exit 2: computed, and
  the answer is a refutation (``member`` false, ``elementary`` counterexample
  found, ``--strong`` violated).  exit 1: the command could not be computed;
  the error carries a machine-readable ``code`` (exception class name minus
  the ``Error`` suffix).  exit 1 also, with no traceback, when stdout closes
  early, as under ``| head -1``.
* arguments that begin with a minus sign (``-3``, ``-L-2``) must follow a
  ``--`` separator, or the matrix/element can be globally negated first.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import shlex
import shutil
import sys
from typing import Callable, NamedTuple, Optional, Sequence

from . import __version__
from . import errors as _errors
from .errors import UsageError
from .ideals import ResidueCtx, factor, ideals_up_to_norm, index_in_g5
from .normalizer import (
    DEFAULT_ELEMENTARY_BOUND,
    is_g5_elementary,
    normalizer_of,
    normalizes,
    quotient_table,
    strongly_elementary,
    supergroup_chain,
)
from .reduction import (
    GMatrix,
    g5_decompose,
    is_reduced_form,
    reduced_factor,
    word_string,
)
from .ring import (
    LAMBDA,
    ONE,
    ZERO,
    RingElt,
    format_element,
    lambda_pow,
    parse_element,
)
from .subgroups import coset_table


#: Every package exception type, for uniform error rendering.
_ERROR_TYPES = tuple(
    obj
    for name, obj in vars(_errors).items()
    if isinstance(obj, type) and issubclass(obj, Exception) and name.endswith("Error")
)


#: A quote, a backslash, or whitespace that shlex does not split on.  A line
#: with none of these splits under shlex exactly as under ``str.split``.
_NEEDS_SHLEX = re.compile(r"['\"\\]|[^\S \t\r\n]")


def parse_command(line: str) -> list[str]:
    """Split one batch line into its words (verb first, then arguments)."""
    if _NEEDS_SHLEX.search(line) is None:
        words = line.split()
    else:
        try:
            words = shlex.split(line, comments=False)
        except ValueError as exc:
            raise UsageError(f"unbalanced quoting: {exc}") from exc
    if not words:
        raise UsageError("empty command")
    if words[0].startswith("-"):
        raise UsageError(f"batch lines start with a verb, got {words[0]!r}")
    return words


class _Outcome(NamedTuple):
    """One command's result: JSON payload, text lines, and exit semantics."""

    schema: str
    payload: dict
    text: tuple[str, ...]
    exit_code: int = 0


_fmt = format_element


def _scaled(base: str, e: int) -> str:
    """Render a formatted element times L**e without expanding, e.g.
    (2*L-1)*L**6."""
    if e == 0:
        return base
    if any(ch in base[1:] for ch in "+-"):
        base = f"({base})"
    power = "L" if e == 1 else (f"L**{e}" if e > 1 else f"L**({e})")
    return f"{base}*{power}"


def _line(name: str, value: object) -> str:
    """``name = value`` as a text line shows a payload field; a list of
    formatted elements shows as [a, b]."""
    if isinstance(value, list):
        value = "[" + ", ".join(value) + "]"
    return f"{name} = {value}"


def _profile(histogram: Sequence[tuple[int, int]]) -> str:
    """An element-order histogram as order:count pairs, e.g. 1:1, 2:3."""
    return ", ".join(f"{k}:{v}" for k, v in histogram)


# --- verb handlers -------------------------------------------------------------------


def _cmd_factor(ns: argparse.Namespace) -> _Outcome:
    x = parse_element(ns.element)
    f = factor(x)
    payload = {
        "input": _fmt(x),
        "unit": _fmt(f.unit.value()),
        "factors": [[_fmt(p), k] for p, k in f.factors],
    }
    return _Outcome("hecke5.factor/1", payload, (f"{payload['input']} = {f}",))


def _cmd_reduce(ns: argparse.Namespace) -> _Outcome:
    num, den = parse_element(ns.num), parse_element(ns.den)
    r = reduced_factor(num, den)
    given = [_fmt(num), _fmt(den)]
    payload = {
        "input": given,
        "e": r.e,
        "reduced": [_fmt(r.reduced_num), _fmt(r.reduced_den)],
        "factored": [_scaled(s, r.e) for s in given],
        "word": word_string(r.word),
    }
    text = (
        f"e = {r.e}",
        f"reduced = {' / '.join(payload['reduced'])}",
        f"factored = {' / '.join(payload['factored'])}",
        f"word = {payload['word'] or '1'}",
    )
    return _Outcome("hecke5.reduce/1", payload, text)


def _cmd_index(ns: argparse.Namespace) -> _Outcome:
    tau = parse_element(ns.modulus)
    n = index_in_g5(tau)
    # formatted before the outcome, so an index past the int-to-str digit
    # limit is a coded error in text and JSON alike
    text = _fmt(RingElt(n, 0))
    payload = {"input": _fmt(tau), "index": n}
    return _Outcome("hecke5.index/1", payload, (text,))


def _cmd_cosets(ns: argparse.Namespace) -> _Outcome:
    tau = parse_element(ns.modulus)
    table = coset_table(tau) if ns.bound is None else coset_table(tau, ns.bound)
    reps = []
    text = [f"size = {table.size}"]
    for i, (point, word) in enumerate(zip(table.points, table.rep_words)):
        c, d = _fmt(RingElt(point[0], point[1])), _fmt(RingElt(point[2], point[3]))
        word_text = word_string(word)
        reps.append({"point": [c, d], "word": word_text})
        text.append(f"{i}: ({c}, {d}) {word_text or '1'}")
    payload = {"input": _fmt(tau), "size": table.size, "reps": reps}
    return _Outcome("hecke5.cosets/1", payload, tuple(text))


def _cmd_member(ns: argparse.Namespace) -> _Outcome:
    entries = [parse_element(s) for s in ns.entry]
    m = GMatrix(*entries)
    modulus = parse_element(ns.modulus) if ns.modulus is not None else None
    in_level = modulus is None or ResidueCtx(modulus).divides(m.c)
    decomposed = g5_decompose(m) if in_level else None
    member = decomposed is not None
    word = word_string(decomposed) if member else None
    payload = {
        "matrix": [_fmt(x) for x in entries],
        "modulus": _fmt(modulus) if modulus is not None else None,
        "member": member,
        "word": word,
    }
    text = [f"member = {'true' if member else 'false'}"]
    if member:
        text.append(f"word = {word or '1'}")
    return _Outcome(
        "hecke5.member/1", payload, tuple(text), exit_code=0 if member else 2
    )


def _cmd_normalizer(ns: argparse.Namespace) -> _Outcome:
    tau = parse_element(ns.modulus)
    r = normalizer_of(tau)
    payload = {
        "input": _fmt(tau),
        "modulus": _fmt(r.modulus),
        "h": r.h,
        "quotient": r.quotient,
    }
    text = tuple(_line(name, payload[name]) for name in ("modulus", "h", "quotient"))
    return _Outcome("hecke5.normalizer/1", payload, text)


def _cmd_explain(ns: argparse.Namespace) -> _Outcome:
    tau = parse_element(ns.modulus)
    report = supergroup_chain(tau)
    steps = [
        {
            "part": step.part,
            "removed": _fmt(step.removed),
            "remaining": _fmt(step.remaining),
            "witnesses": [_fmt(w) for w in step.witnesses],
            "gcds": [_fmt(g) for g in step.gcds],
            "bound": _fmt(step.bound),
        }
        for step in report.steps
    ]
    payload = {
        "input": _fmt(report.input),
        "half_power_bound": _fmt(report.half_power_bound),
        "steps": steps,
        "final": _fmt(report.final),
    }
    text = [
        _line("input", payload["input"]),
        _line("half-power bound", payload["half_power_bound"]),
    ]
    for step in steps:
        fields = (_line(name, value) for name, value in step.items() if name != "part")
        text.append(f"{step['part']}: {', '.join(fields)}")
    text.append(_line("final", payload["final"]))
    return _Outcome("hecke5.explain/1", payload, tuple(text))


def _cmd_elementary(ns: argparse.Namespace) -> _Outcome:
    r = parse_element(ns.r)
    bound = ns.bound if ns.bound is not None else DEFAULT_ELEMENTARY_BOUND
    if ns.strong:
        verdict = strongly_elementary(r, bound)
        payload = {
            "input": _fmt(r),
            "mode": "strong",
            "holds": verdict.holds,
            "divisors": [_fmt(d) for d in verdict.divisors],
            "failing_divisor": (
                _fmt(verdict.failing_divisor)
                if verdict.failing_divisor is not None
                else None
            ),
            "witness": (
                [_fmt(x) for x in verdict.failure.witness]
                if verdict.failure is not None and verdict.failure.witness
                else None
            ),
            "bound": verdict.bound,
        }
        text = [
            f"strong = {'true' if verdict.holds else 'false'}",
            _line("divisors", payload["divisors"]),
        ]
        if not verdict.holds:
            y = verdict.failure.witness[1]
            text.append(_line("failing divisor", payload["failing_divisor"]))
            text.append(_line("x", payload["witness"][0]))
            text.append(_line("denominator", _fmt(verdict.failing_divisor * y)))
        return _Outcome(
            "hecke5.elementary/1",
            payload,
            tuple(text),
            exit_code=0 if verdict.holds else 2,
        )
    verdict = is_g5_elementary(r, bound)
    payload = {
        "input": _fmt(r),
        "mode": "search",
        "verdict": verdict.verdict,
        "witness": [_fmt(x) for x in verdict.witness] if verdict.witness else None,
        "denominator": _fmt(r * verdict.witness[1]) if verdict.witness else None,
        "bound": verdict.bound,
    }
    text = [f"verdict = {verdict.verdict}"]
    if verdict.found:
        x, y = payload["witness"]
        text += [f"x = {x}", f"y = {y}", f"denominator = {payload['denominator']}"]
    text.append(f"bound = {verdict.bound}")
    return _Outcome(
        "hecke5.elementary/1", payload, tuple(text), exit_code=2 if verdict.found else 0
    )


def _cmd_quotient(ns: argparse.Namespace) -> _Outcome:
    tau = parse_element(ns.modulus)
    q = quotient_table(tau)
    payload = {
        "input": _fmt(tau),
        "modulus": _fmt(q.modulus),
        "normalizer_modulus": _fmt(q.normalizer_modulus),
        "order": q.order,
        "classification": q.classification,
        "profile": [[k, v] for k, v in q.order_profile],
    }
    text = (
        f"group = G0({payload['normalizer_modulus']})",
        f"subgroup = G0({payload['modulus']})",
        f"order = {q.order}",
        f"classification = {q.classification}",
        f"profile = {_profile(q.order_profile)}",
    )
    return _Outcome("hecke5.quotient/1", payload, text)


# --- selftest ------------------------------------------------------------------------


class _CheckFailure(Exception):
    """A selftest item's observed values differ from the frozen expectation."""


#: Frozen reduced-factor table: (numerator, three smallest admissible n,
#: exponent e, reduced numerator coefficients (a, b)).
_TABLE_ROWS: tuple[tuple[int, tuple[int, int, int], int, tuple[int, int]], ...] = (
    (2, (1, 3, 5), 2, (2, 2)),
    (4, (1, 3, 5), 2, (4, 4)),
    (3, (1, 2, 4), 3, (3, 6)),
    (9, (1, 8, 10), 3, (9, 18)),
    (9, (2, 4, 5), 9, (189, 306)),
    (5, (1, 2, 3), 6, (25, 40)),
    (25, (1, 2, 23), 6, (125, 200)),
    (25, (3, 6, 19), 12, (2225, 3600)),
    (7, (1, 2, 3), 6, (35, 56)),
    (11, (1, 10, 12), 6, (55, 88)),
)

#: Frozen reduced forms of (2L-1)/n for n = 12, 96, 192.
_FORM_ROWS: tuple[tuple[int, int, RingElt, RingElt], ...] = (
    (12, 6, RingElt(11, 18), RingElt(60, 96)),
    (96, 6, RingElt(11, 18), RingElt(480, 768)),
    (192, 18, RingElt(3571, 5778), RingElt(306624, 496128)),
)


def _check_reduced(
    num: RingElt, den: RingElt, e_want: int, num_want: RingElt, den_want: RingElt
) -> None:
    """Raise _CheckFailure unless num/den reduces to num_want/den_want at e_want."""
    r = reduced_factor(num, den)
    if (r.e, r.reduced_num, r.reduced_den) != (e_want, num_want, den_want):
        raise _CheckFailure(
            f"got e={r.e}, {_fmt(r.reduced_num)}/{_fmt(r.reduced_den)}; "
            f"want e={e_want}, {_fmt(num_want)}/{_fmt(den_want)}"
        )


def _check_table_row(pa: int, n: int, e_want: int, num_want: RingElt) -> str:
    den = RingElt(0, n)
    _check_reduced(RingElt(pa, 0), den, e_want, num_want, den * lambda_pow(e_want))
    return f"e = {e_want}, reduced numerator = {_fmt(num_want)}"


def _check_form(den: int, e_want: int, num_want: RingElt, den_want: RingElt) -> str:
    _check_reduced(RingElt(-1, 2), RingElt(den, 0), e_want, num_want, den_want)
    return f"e = {e_want}, reduced = {_fmt(num_want)} / {_fmt(den_want)}"


def _check_conjugation() -> str:
    r = reduced_factor(RingElt(4, 0), RingElt(0, 9))
    want = (2, RingElt(4, 4), RingElt(9, 18))  # 4*L**2 over 9*L**3
    if (r.e, r.reduced_num, r.reduced_den) != want:
        raise _CheckFailure(f"reduced form of 4/9L is not 4*L**2/9*L**3 (e={r.e})")
    sigma = r.completed()
    if sigma.first_column != (want[1], want[2]):
        raise _CheckFailure("witness matrix does not carry the reduced pair")
    shear = GMatrix(ONE, ZERO, RingElt(0, 3), ONE)
    conj = shear * sigma * shear.inverse()
    expect = 21 * lambda_pow(3) - 9 * sigma.b * lambda_pow(2) - 3 * sigma.d * LAMBDA
    if conj.c != expect:
        raise _CheckFailure("conjugated corner entry has the wrong closed form")
    nine = ResidueCtx(RingElt(9, 0))
    if nine.divides(conj.c):
        raise _CheckFailure("conjugated corner entry is divisible by 9")
    if normalizes(shear, RingElt(9, 0)):
        raise _CheckFailure("lower shear by 3L must not normalize level 9")
    return f"corner = {_fmt(conj.c)}, not divisible by 9; shear does not normalize"


def _check_indices() -> str:
    moduli = ideals_up_to_norm(400)
    for tau in moduli:
        size = coset_table(tau).size
        want = index_in_g5(tau)
        if size != want:
            raise _CheckFailure(f"coset count {size} != index {want} at {_fmt(tau)}")
    for n, want in ((3, 10), (2, 5), (16, 320)):
        got = coset_table(RingElt(n, 0)).size
        if got != want:
            raise _CheckFailure(f"anchor {n}: got {got}, want {want}")
    return f"{len(moduli)} moduli agree; anchors 3:10 2:5 16:320"


def _check_quotient(n: int, order: int, name: str) -> str:
    q = quotient_table(RingElt(n, 0))
    if (q.order, q.classification) != (order, name):
        raise _CheckFailure(
            f"got order {q.order} {q.classification}; want order {order} {name}"
        )
    return f"order {order}, {name}, profile {_profile(q.order_profile)}"


def _check_elementary(text: str, expect_found: bool) -> str:
    r = parse_element(text)
    verdict = is_g5_elementary(r)
    if verdict.found != expect_found:
        raise _CheckFailure(f"verdict {verdict.verdict}")
    if not expect_found:
        return f"no counterexample up to bound {verdict.bound}"
    x, y = verdict.witness
    residue = ResidueCtx(r).reduce(x * x - ONE)
    if text == "12*L+7":
        if x != 3 * lambda_pow(3):
            raise _CheckFailure(f"witness x = {_fmt(x)}, want 3*L**3 = 6*L+3")
        if residue != RingElt(2, 0):
            raise _CheckFailure(f"x**2 - 1 = {_fmt(residue)} (mod r), want 2")
    # a non-unit gcd raises NotCoprimeError, which fails the item as well
    if not is_reduced_form(x, r * y):
        raise _CheckFailure(f"{_fmt(x)}/{_fmt(r * y)} is not a reduced form")
    if not residue:
        raise _CheckFailure(f"x**2 = 1 (mod r) for x = {_fmt(x)}")
    return f"counterexample {_fmt(x)} over {_fmt(r * y)}"


def _selftest_items() -> list[tuple[str, Callable[..., str], tuple]]:
    """Every selftest item as (name, check, arguments): ``check(*arguments)``
    returns the item's detail line, or raises if a value differs."""
    return [
        *(
            (f"table {pa}/{n}L", _check_table_row, (pa, n, e, RingElt(a, b)))
            for pa, ns, e, (a, b) in _TABLE_ROWS
            for n in ns
        ),
        *((f"forms (2*L-1)/{row[0]}", _check_form, row) for row in _FORM_ROWS),
        ("conjugation level 9", _check_conjugation, ()),
        ("indices up to norm 400", _check_indices, ()),
        ("quotient 4", _check_quotient, (4, 4, "Klein4")),
        ("quotient 16", _check_quotient, (16, 16, "Z4xZ4")),
        ("elementary 2", _check_elementary, ("2", False)),
        ("elementary 4", _check_elementary, ("4", False)),
        ("elementary 3", _check_elementary, ("3", True)),
        ("elementary 8", _check_elementary, ("8", True)),
        ("elementary 12*L+7", _check_elementary, ("12*L+7", True)),
    ]


def _cmd_selftest(ns: argparse.Namespace) -> _Outcome:
    items = _selftest_items()
    if ns.only is not None:
        items = [item for item in items if ns.only in item[0]]
        if not items:
            raise UsageError(f"no selftest item matches {ns.only!r}")
    results = []
    for name, check, arguments in items:
        try:
            results.append({"name": name, "ok": True, "detail": check(*arguments)})
        except _CheckFailure as exc:
            results.append({"name": name, "ok": False, "detail": str(exc)})
        except _ERROR_TYPES + (ArithmeticError, AssertionError) as exc:
            detail = f"{type(exc).__name__}: {exc}"
            results.append({"name": name, "ok": False, "detail": detail})
    passed = sum(1 for r in results if r["ok"])
    failed = len(results) - passed
    text = [
        f"{'PASS' if r['ok'] else 'FAIL'} {r['name']}: {r['detail']}" for r in results
    ]
    text.append(f"{passed}/{len(results)} passed")
    payload = {
        "items": results,
        "passed": passed,
        "failed": failed,
        "total": len(results),
    }
    return _Outcome(
        "hecke5.selftest/1",
        payload,
        tuple(text),
        exit_code=0 if failed == 0 else 1,
    )


# --- parser and dispatch -------------------------------------------------------------


_MODULUS = (("modulus", {}),)

#: Each verb of the command line, in the order ``--help`` lists them: name,
#: help line, handler, and the arguments it adds to the common options, each
#: as (name or flag, keyword options of ``add_argument``).
_VERBS: tuple[tuple[str, str, Callable[[argparse.Namespace], _Outcome], tuple], ...] = (
    ("factor", "factor a ring element", _cmd_factor, (
        ("element", dict(help="ring element, e.g. 5 or 12*L+7")),
    )),
    ("reduce", "reduced form of NUM/DEN", _cmd_reduce, (("num", {}), ("den", {}))),
    ("index", "subgroup index in G5", _cmd_index, _MODULUS),
    ("cosets", "coset table of G0(TAU)", _cmd_cosets, _MODULUS),
    ("member", "membership of [[A,B],[C,D]] in G5 or G0(TAU)", _cmd_member, (
        ("entry", dict(nargs=4, metavar="E", help="matrix entries, row-major")),
        ("modulus", dict(nargs="?")),
    )),
    ("normalizer", "normalizer of G0(TAU) as G0(TAU/h)", _cmd_normalizer, _MODULUS),
    ("explain", "derivation of the normalizer bound", _cmd_explain, _MODULUS),
    ("elementary", "search for reduced x/(R*y) with x**2 != 1 mod R", _cmd_elementary, (
        ("r", dict(help="the modulus R")),
        ("--strong", dict(
            action="store_true", help="require every divisor of R to pass"
        )),
    )),
    ("quotient", "normalizer/subgroup quotient table", _cmd_quotient, _MODULUS),
    ("selftest", "run the built-in reproduction suite", _cmd_selftest, (
        ("--only", dict(
            metavar="TEXT",
            help="run only items whose name contains TEXT (e.g. 'table', 'quotient')",
        )),
    )),
)


#: The options that the top-level parser and every verb accept, each as
#: (flag, keyword options of ``add_argument``).  They default to SUPPRESS, so
#: a batch line that leaves one out takes it from the ``--batch`` command.
_COMMON = (
    ("--json", dict(
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit one JSON object (with a 'schema' field) instead of text",
    )),
    ("--bound", dict(
        type=int,
        default=argparse.SUPPRESS,
        metavar="INT",
        help="search/enumeration bound (elementary box half-width, coset cap)",
    )),
)


class _Parser(argparse.ArgumentParser):
    #: The top-level parser's verb subparsers by name, set by build_parser.
    verbs: dict[str, argparse.ArgumentParser]

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> _Parser:
    # argparse builds a help formatter for each add_argument call, and each
    # one reads the terminal size; read it once, as the formatter would
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = _Parser(
        formatter_class=formatter,
        prog="hecke5",
        description="Exact computations in the Hecke group G5 over Z[L], L**2 = L+1.",
    )
    for flag, options in _COMMON:
        parser.add_argument(flag, **options)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--batch",
        metavar="FILE",
        default=None,
        help="run one command per line of FILE (verb first); one result per command",
    )
    sub = parser.add_subparsers(dest="verb", metavar="VERB")
    for name, help_line, handler, arguments in _VERBS:
        p = sub.add_parser(name, help=help_line, formatter_class=formatter)
        for flag, options in _COMMON + arguments:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    parser.verbs = sub.choices
    return parser


def _error_code(exc: BaseException) -> str:
    name = type(exc).__name__
    return name[: -len("Error")] if name.endswith("Error") else name


def _error(exc: BaseException) -> _Outcome:
    code, message = _error_code(exc), str(exc)
    text = (f"error[{code}]: {message}",)
    return _Outcome("hecke5.error/1", {"code": code, "message": message}, text, 1)


def _emit(outcome: _Outcome, json_mode: bool, in_batch: bool) -> int:
    """Print one outcome and return its exit code.  JSON and batch lines go to
    stdout as one line; a text error from the command line goes to stderr."""
    if json_mode:
        print(json.dumps({"schema": outcome.schema, **outcome.payload}))
    elif in_batch:
        print("; ".join(outcome.text))
    else:
        failed = outcome.schema == "hecke5.error/1"
        print("\n".join(outcome.text), file=sys.stderr if failed else sys.stdout)
    return outcome.exit_code


def _asks_for_json(words: Optional[Sequence[str]]) -> bool:
    """Whether ``words`` set ``--json`` as argparse reads them: ``--json`` or
    a prefix of it down to ``--j``, before any ``--`` separator."""
    for word in sys.argv[1:] if words is None else words:
        if word == "--":
            return False
        if len(word) > 2 and "--json".startswith(word):
            return True
    return False


def _run(
    parser: _Parser,
    words: Optional[Sequence[str]],
    outer: Optional[argparse.Namespace] = None,
) -> int:
    """Run one command.  ``words`` is the argv of an invocation, or the words
    of a line of the ``--batch`` file that ``outer`` was parsed from; a line
    takes ``--json`` and ``--bound`` from ``outer`` unless it sets its own,
    puts its errors on stdout and its text result on one line.

    A line that starts with a verb goes straight to that verb's parser, which
    is the one the top-level parser would hand it to; argv and any other
    line go through the top-level parser, which words the errors for a
    missing or unknown verb."""
    in_batch = outer is not None
    verb_parser = parser.verbs.get(words[0]) if in_batch else None
    try:
        if verb_parser is None:
            ns = parser.parse_args(words)
        else:
            ns = verb_parser.parse_args(words[1:])
            ns.verb, ns.batch = words[0], None
    except UsageError as exc:
        json_mode = _asks_for_json(words) or getattr(outer, "json", False)
        return _emit(_error(exc), json_mode, in_batch)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    ns.json = getattr(ns, "json", getattr(outer, "json", False))
    ns.bound = getattr(ns, "bound", getattr(outer, "bound", None))
    if ns.verb is None and ns.batch is not None:
        return _run_batch(parser, ns)
    try:
        if ns.verb is None:
            raise UsageError("a verb is required (see --help)")
        if ns.batch is not None:
            raise UsageError("--batch FILE replaces the command-line verb")
        outcome = ns.handler(ns)
    except _ERROR_TYPES as exc:
        outcome = _error(exc)
    return _emit(outcome, ns.json, in_batch)


def _run_batch(parser: _Parser, outer: argparse.Namespace) -> int:
    try:
        with open(outer.batch, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        return _emit(_error(UsageError(str(exc))), outer.json, in_batch=False)
    saw_error = saw_refutation = False
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            words = parse_command(stripped)
        except UsageError as exc:
            code = _emit(_error(exc), outer.json, in_batch=True)
        else:
            code = _run(parser, words, outer)
        saw_error = saw_error or code == 1
        saw_refutation = saw_refutation or code == 2
    return 1 if saw_error else (2 if saw_refutation else 0)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one CLI invocation; returns the process exit code."""
    try:
        code = _run(build_parser(), argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader quit: point stdout at devnull so the flush at exit cannot
        # fail again (Python's signal docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
