"""The hecke5 benchmark: one command, every metric, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                      # every workload, both runs

Run it from anywhere; it uses the ``src/`` next to this directory and
writes only under ``bench/.work``.  Each pass of a workload runs in a fresh
child process (``child.py``), one at a time, so peak memory and the
program's caches belong to that pass alone.

``--trace 0`` runs the same seeded pass several times, about ``--seconds``
of work in all, keeps the fastest time of each op over the passes and
prints the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` runs
the pass three times, untraced once and traced twice, and prints the
per-layer metrics.  The counts of the two traced passes must agree exactly,
and ``trace.overhead`` is the traced busy time over the untraced one.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report, error_rate and sample counts included.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
#: Wall-clock budget of one run; a run must end within 180 s.
RUN_BUDGET_S = 170
#: Fewest passes a timed run makes, whatever --seconds says.
MIN_PASSES = 3
#: Fewest fresh interpreters timed for setup_s in a run.
IMPORT_SAMPLES = 12
#: Counts the two traced runs must reproduce exactly.
REPEATED = ("subgroups.classes", "subgroups.orbit_keys", "reduction.chain_runs")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import hecke5, hecke5.cli; "
    "print(time.perf_counter() - t)"
)

sys.path.insert(0, BENCH)
from cpu import ALL_CPUS, CPUS_ENV, pin_quietest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def child_env():
    # A fixed hash seed gives every pass process the same dict and set layouts.
    cpus = ",".join(map(str, ALL_CPUS))
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", **{CPUS_ENV: cpus})


def import_seconds(samples, deadline):
    """Time imports of hecke5 and hecke5.cli, each in a fresh interpreter."""
    probe = [sys.executable, "-c", IMPORT_PROBE]
    out = []
    for _ in range(samples):
        pin_quietest(force=True)
        out.append(float(subprocess.run(probe, env=child_env(), cwd=ROOT, check=True,
                                        capture_output=True, text=True,
                                        timeout=remaining(deadline)).stdout))
    return out


def remaining(deadline):
    left = deadline - perf_counter()
    if left <= 0:
        raise SystemExit(f"run took longer than {RUN_BUDGET_S} s")
    return left


def run_child(workload, seed, mode, pass_id, passes, probes, deadline):
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), workload, str(seed), mode,
           str(pass_id), str(passes), "1" if probes else "0"]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=remaining(deadline))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: {mode} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def passes(workload, seconds):
    return max(MIN_PASSES, round(seconds / WORKLOADS[workload].PASS_S))


def percentiles(latencies):
    """p50, p90 and p99, with the number of samples above the last two."""
    if len(latencies) < 2:
        latencies = (latencies or [0.0]) * 2
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    p50, p90, p99 = cuts[49], cuts[89], cuts[98]
    return {
        "p50": p50,
        "p90": p90,
        "p99": p99,
        "beyond_p90": sum(1 for x in latencies if x > p90),
        "beyond_p99": sum(1 for x in latencies if x > p99),
    }


def unexpected(failures):
    return sum(n for tag, n in failures.items() if not tag.startswith("known:"))


def describe_failures(failures):
    if not failures:
        return "none"
    return ", ".join(f"{tag} {n}" for tag, n in sorted(failures.items()))


def tally(children):
    """(attempted, failure counts) over every pass of the children and their probes."""
    failures = {}
    attempted = 0
    for child in children:
        attempted += sum(len(p["latency_s"]) for p in child["passes"])
        attempted += child.get("probe_attempted", 0)
        found = [*child.get("probe_failures", {}).items()]
        found += [item for p in child["passes"] for item in p["failures"].items()]
        for tag, n in found:
            failures[tag] = failures.get(tag, 0) + n
    return attempted, failures


def pass_problems(workload, children):
    """Passes of one seed must run the same ops to the same outputs."""
    runs = [p for child in children for p in child["passes"]]
    problems = []
    if len({len(r["latency_s"]) for r in runs}) != 1:
        problems.append("passes ran different numbers of ops")
    if any(x is None for r in runs for x in r["latency_s"]):
        problems.append("an op has no latency: a batch job was cut short")
    if len({r["stream_sha256"] for r in runs}) != 1:
        problems.append(f"{workload} output differs between passes of the same seed")
    return problems


def end_to_end(spec, workload, seed, seconds):
    deadline = perf_counter() + RUN_BUDGET_S
    import_seconds(1, deadline)  # warms the bytecode cache
    # Import samples are taken between passes, so their median spans the run
    # instead of one moment of a shared machine.
    rounds = passes(workload, seconds)
    shared = WORKLOADS[workload].SHARED_PROCESS
    n_children = 1 if shared else rounds
    per_gap = -(-IMPORT_SAMPLES // (n_children + 1))
    imports, children = [], []
    for k in range(n_children):
        imports += import_seconds(per_gap, deadline)
        pin_quietest(force=True)
        children.append(run_child(workload, seed, "timed", k, rounds if shared else 1, k == 0,
                                  deadline))
    imports += import_seconds(per_gap, deadline)
    problems = pass_problems(workload, children)
    # Each op's time is its fastest over the passes: a shared machine only
    # ever adds time, and the passes spread each op over the whole run.
    runs = [p["latency_s"] for child in children for p in child["passes"]]
    best = [min(xs) for xs in zip(*runs)] if not problems else [0.0]
    lat = percentiles(best)
    n = len(best)
    attempted, failures = tally(children)
    failed = sum(failures.values())
    values = {
        "throughput_ops_s": (n / sum(best) if sum(best) else 0.0,
                             f"{n} ops, each the fastest of {len(runs)} passes"),
        "latency_p50_ms": (lat["p50"] * 1e3, f"n={n}"),
        "latency_p90_ms": (lat["p90"] * 1e3, f"n={n}, {lat['beyond_p90']} beyond"),
        "latency_p99_ms": (lat["p99"] * 1e3, f"n={n}, {lat['beyond_p99']} beyond"),
        "peak_rss_mb": (max(c["peak_rss_mb"] for c in children),
                        f"largest ru_maxrss of {n_children} pass processes"),
        "error_rate": (failed / attempted,
                       f"{failed}/{attempted} ops; {describe_failures(failures)}"),
        "setup_s": (statistics.median(imports), f"median of {len(imports)} fresh imports"),
    }
    # error_rate and latency_p99_ms are printed for every workload but are not
    # in BENCHMARK.json: see bench/README.md.
    units = {"latency_p99_ms": "ms", "error_rate": "ratio"}
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"])
    for metric, (value, note) in values.items():
        print(f"{workload}  {metric} = {value:.6g} {units[metric]}  ({note})")
    for problem in problems:
        print(f"{workload}  PROBLEM: {problem}")
    correct = unexpected(failures) == 0 and not problems
    metrics = {
        m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]
    }
    return correct, attempted, failed, metrics


def per_layer(spec, workload, seed, seconds):
    deadline = perf_counter() + RUN_BUDGET_S
    base = run_child(workload, seed, "timed", 0, 1, True, deadline)
    traced = [run_child(workload, seed, "traced", k, 1, False, deadline) for k in (1, 2)]
    problems = pass_problems(workload, [base, *traced])
    first, second = traced[0]["counts"], traced[1]["counts"]
    for key in sorted(set(first) | set(second)):
        if (key.endswith(".calls") or key in REPEATED) and first.get(key) != second.get(key):
            problems.append(f"count {key} differs between traced runs: {first.get(key)} != {second.get(key)}")
    overhead = (statistics.mean(t["passes"][0]["busy_s"] for t in traced)
                / base["passes"][0]["busy_s"])
    timings = {
        key: statistics.mean(t["timings"].get(key, 0.0) for t in traced)
        for key in set(traced[0]["timings"]) | set(traced[1]["timings"])
    }
    values = {**timings, **first, "trace.overhead": overhead}
    metrics = {}
    for m in spec["per_layer"]:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{workload}  {m['name']} = {value:.6g} {m['unit']}")
    attempted, failures = tally([base])
    print(f"{workload}  traced {len(base['passes'][0]['latency_s'])} ops per pass; "
          f"failures: {describe_failures(failures)}")
    for problem in problems:
        print(f"{workload}  PROBLEM: {problem}")
    correct = not problems and unexpected(failures) == 0 and unexpected(tally(traced)[1]) == 0
    return correct, attempted, sum(failures.values()), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None, help="one workload; default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; default: both")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hecke5", "__init__.py")):
        sys.stderr.write(f"no hecke5 sources under {SRC}\n")
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = [args.workload] if args.workload else names
    if any(w not in names for w in workloads):
        parser.error(f"--workload must be one of {', '.join(names)}")
    seconds = args.seconds or spec["run_seconds"]
    modes = [args.trace] if args.trace is not None else [0, 1]
    results = []
    for workload in workloads:
        for mode in modes:
            run = end_to_end if mode == 0 else per_layer
            results.append((workload, run(spec, workload, args.seed, seconds)))
    if len(results) == 1:
        correct, attempted, failed, metrics = results[0][1]
    else:
        correct = all(r[0] for _, r in results)
        attempted = sum(r[1] for _, r in results)
        failed = sum(r[2] for _, r in results)
        metrics = {f"{w}.{k}": v for w, r in results for k, v in r[3].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
