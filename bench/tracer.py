"""Layer spans for hecke5, recorded from outside the package.

``Tracer.install`` replaces each public entry point listed in ``TRACED`` at
every place a ``hecke5`` module binds it (found by identity, so aliases such
as ``cli._fmt`` are caught too), and wraps the constructors and methods given
as ``Class.method`` on their class.  Per-ring-operation methods such as
``RingElt.__mul__`` are never wrapped: a span there would cost more than the
work it measures.  ``GMatrix.__mul__`` is counted without a span.

A span is ``(name, start, end, parent, op, ok)``.  Spans stay in memory and
are written out once, by ``write``, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("ring", "ideals", "reduction", "subgroups", "normalizer", "cli")

TRACED = {
    "ring": (
        "unit_decompose", "gcd", "canonical_associate", "exact_divide",
        "parse_element", "format_element",
    ),
    "ideals": (
        "factor", "index_in_g5", "h_of", "half_power_part", "relative_index",
        "primes_above", "smallest_rational_integer", "ResidueCtx.__init__",
    ),
    "reduction": (
        "reduced_factor", "g5_decompose", "_exponent_or_none", "is_reduced_form",
        "eval_word", "word_string", "parse_word",
    ),
    "subgroups": (
        "coset_table", "CosetTable.locate", "g0_contains", "sample_subgroup",
        "conjugate",
    ),
    "normalizer": (
        "normalizer_of", "normalizes", "quotient_table", "supergroup_chain",
        "is_g5_elementary", "strongly_elementary", "reduced_witness_bound",
    ),
    "cli": ("main",),
}

#: Names whose calls each run the reduction chain once.
CHAIN_RUNS = ("reduction.reduced_factor", "reduction.exponent_or_none")
SEARCH = "normalizer.is_g5_elementary"


def span_name(layer: str, attr: str) -> str:
    """``ResidueCtx.__init__`` -> ``ideals.ResidueCtx``; ``_x`` -> ``x``."""
    owner, _, method = attr.rpartition(".")
    if method == "__init__":
        return f"{layer}.{owner}"
    return f"{layer}.{method.lstrip('_')}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self.gmatrix_mul = 0
        self.classes = 0
        self.orbit_keys = 0
        self._stack: list[int] = []

    def install(self) -> None:
        for layer, attrs in TRACED.items():
            module = importlib.import_module(f"hecke5.{layer}")
            for attr in attrs:
                name = span_name(layer, attr)
                on_return = self._on_table if name == "subgroups.coset_table" else None
                if "." in attr:
                    owner, method = attr.split(".")
                    cls = getattr(module, owner)
                    setattr(cls, method, self._wrap(cls.__dict__[method], name, on_return))
                else:
                    original = getattr(module, attr)
                    self._rebind(original, self._wrap(original, name, on_return))
        gmatrix = importlib.import_module("hecke5.reduction").GMatrix
        multiply = gmatrix.__mul__

        @functools.wraps(multiply)
        def counted(a, b):
            self.gmatrix_mul += 1
            return multiply(a, b)

        gmatrix.__mul__ = counted

    @staticmethod
    def _rebind(original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hecke5" and not mod_name.startswith("hecke5."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def _on_table(self, table) -> None:
        self.classes += table.size
        # The key map is an internal detail; without it, count one key per class.
        self.orbit_keys += len(getattr(table, "_index_of", None) or table.points)

    def _wrap(self, fn, name, on_return):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, self.op, False)
                stack.pop()
                raise
            spans[idx] = (name, start, clock(), parent, self.op, True)
            stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def summary(self) -> tuple[dict, dict]:
        """(counts, timings) aggregated over every span recorded."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        failed: Counter = Counter()
        seconds: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        in_search = [False] * len(spans)
        chains_in_search = 0
        for i, (name, start, end, parent, _, ok) in enumerate(spans):
            calls[name] += 1
            failed[name] += not ok
            seconds[name] += end - start
            self_s[name.split(".")[0]] += end - start - covered[i]
            in_search[i] = name == SEARCH or (parent >= 0 and in_search[parent])
            chains_in_search += in_search[i] and name in CHAIN_RUNS
        searches = calls[SEARCH]
        counts = {
            **{f"{name}.calls": n for name, n in calls.items()},
            "ideals.factor.failed": failed["ideals.factor"],
            "reduction.gmatrix_mul.calls": self.gmatrix_mul,
            "reduction.chain_runs": sum(calls[n] for n in CHAIN_RUNS),
            "subgroups.classes": self.classes,
            "subgroups.orbit_keys": self.orbit_keys,
        }
        timings = {
            **{f"{name}.s": s for name, s in seconds.items()},
            **{f"{layer}.self_s": self_s[layer] for layer in LAYERS},
            "subgroups.keys_per_class": self.orbit_keys / self.classes if self.classes else 0.0,
            "normalizer.chains_per_search": chains_in_search / searches if searches else 0.0,
        }
        return counts, timings

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("op\tname\tstart\tend\tparent\tok\n")
            for name, start, end, parent, op, ok in self.spans:
                out.write(f"{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{int(ok)}\n")
