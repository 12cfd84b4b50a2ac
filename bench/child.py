"""Run passes of one workload in this fresh process; print the results as one JSON line.

    python3 bench/child.py WORKLOAD SEED MODE PASS PASSES PROBES

Runs PASSES passes, one after the other.  MODE is ``timed`` (untraced) or
``traced`` (every layer traced; spans go to
``bench/.work/spans-WORKLOAD-PASS.tsv``).  PROBES is 1 to run the
workload's probe set after the passes, untimed.  ``run.py`` starts this
script; it is not meant to be run by hand.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import resource
import sys
from collections import Counter
from time import perf_counter
from types import SimpleNamespace

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(BENCH, ".work")

sys.path.insert(0, BENCH)
from cpu import pin_quietest  # noqa: E402


def load_hecke5():
    sys.path.insert(0, SRC)
    names = ("ring", "ideals", "reduction", "subgroups", "normalizer", "cli")
    modules = {name: importlib.import_module(f"hecke5.{name}") for name in names}
    where = os.path.dirname(os.path.abspath(modules["ring"].__file__))
    if where != os.path.join(SRC, "hecke5"):
        raise SystemExit(f"hecke5 was imported from {where}, not from {SRC}")
    return SimpleNamespace(**modules)


def run_units(units, tracer=None):
    """Run units in order: per-op latencies, failure counts, busy seconds and stream hash."""
    latencies, failures = [], Counter()
    busy = 0.0
    stream = hashlib.sha256()
    for op, unit in enumerate(units):
        unit.setup()
        pin_quietest()
        if tracer is not None:
            tracer.op = op
        t0 = perf_counter()
        raw = unit.run()
        t1 = perf_counter()
        busy += t1 - t0
        outcomes = unit.finish(raw, t0, t1)
        del raw  # the next op's peak memory must not include this result
        for latency, failure in outcomes:
            latencies.append(latency)
            if failure:
                failures[failure] += 1
        stream.update(getattr(unit, "output", "").encode())
    return {
        "latency_s": latencies,
        "failures": dict(failures),
        "busy_s": busy,
        "stream_sha256": stream.hexdigest(),
    }


def main(argv):
    name, seed, mode, pass_id = argv[0], int(argv[1]), argv[2], argv[3]
    passes, probes = int(argv[4]), argv[5] == "1"
    from workloads import WORKLOADS

    h5 = load_hecke5()
    os.makedirs(WORKDIR, exist_ok=True)
    workload = WORKLOADS[name](h5, random.Random(f"{name}:{seed}"), WORKDIR)
    workload.prepare()
    units = workload.units()
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    runs = [run_units(units, tracer) for _ in range(passes)]
    result = {"workload": name, "mode": mode, "passes": runs}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        counts, timings = tracer.summary()
        ops = sum(len(p["latency_s"]) for p in result["passes"])
        counts["cli.lines"] = ops if name == "cli_batch" else 0
        result["counts"], result["timings"] = counts, timings
        tracer.write(os.path.join(WORKDIR, f"spans-{name}-{pass_id}.tsv"))
    if probes:
        probed = run_units(workload.probes())
        result["probe_attempted"] = len(probed["latency_s"])
        result["probe_failures"] = probed["failures"]
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
