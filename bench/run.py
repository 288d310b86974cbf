"""Run one workload of the kostka benchmark and print its metrics.

    python3 bench/run.py --workload {table,deep,scan,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of the repository.  Each repetition of the workload's op
list runs in a fresh worker process, one after the other; the number of
repetitions is fixed by the workload and --seconds.  With --trace 0 the
last line of stdout is the end-to-end metrics; with --trace 1 it is the
per-layer metrics of traced repetitions, alternated with untraced ones to
measure the overhead of tracing.  See README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = str(BENCH / "worker.py")
WORKLOADS = ("table", "deep", "scan", "cli")
# Seconds one repetition of each op list takes, with its two set-up probes,
# on the 2-core machine the benchmark was sized on.  A run makes
# round(--seconds / REP_SECONDS) repetitions whatever the speed of the code,
# so each op's fastest time is a minimum over the same number of samples on
# every commit.
REP_SECONDS = {"table": 3.5, "deep": 4.5, "scan": 1.6, "cli": 4.0}
MIN_REPS = 3
SETUP_SAMPLES = 15
PROBES = 15


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload, seconds):
        self.reps = max(MIN_REPS, round(seconds / REP_SECONDS[workload]))
        self.env = dict(os.environ, PYTHONPATH="src")
        # A guard only: a run that is this far over its time fails.
        self.deadline = perf_counter() + 3 * seconds + 30
        self.setups = []  # seconds to import the package in a fresh process

    def spawn(self, argv):
        """Run argv from the repository root; returns (stdout, seconds)."""
        start = perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - start),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {argv[:4]}") from None
        if proc.returncode != 0:
            raise BenchError(f"{argv[:4]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return proc.stdout, perf_counter() - start

    def worker(self, *argv):
        out, _ = self.spawn([sys.executable, WORKER, *map(str, argv)])
        return json.loads(out.splitlines()[-1])

    def repeat(self, rounds, *kinds):
        """Run one rep of each kind per round, with two set-up probes after
        each round so that they spread over the run."""
        reps = {kind: [] for kind in kinds}
        for _ in range(rounds):
            for kind in kinds:
                reps[kind].append(self.worker("rep", *kind))
            for _ in range(2):
                self.setups.append(self.worker("setup", kinds[0][0])["setup_s"])
        return reps


def src_lines():
    return sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )


def summarize(reps):
    """correct / attempted / failed over all reps, and the run's notes."""
    digests = {r["digest"] for r in reps}
    return {
        "correct": all(r["wrong"] == 0 for r in reps) and len(digests) == 1,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "failures": reps[0]["failures"],
        "same_results": len(digests) == 1,
    }


def fastest(reps):
    """Each op's fastest latency over the repetitions, in op order.

    The machine's speed drifts by up to a factor of two for tens of
    seconds at a time; an op's best time over repetitions spread across
    the run tracks the code, where a mean or median tracks the drift.
    """
    return [min(times) for times in zip(*(r["latencies"] for r in reps))]


def tail(latencies):
    """The highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    beyond = min(10, len(ordered) - 1)
    return ordered[-1 - beyond], 100 * (len(ordered) - beyond) / len(ordered)


def end_to_end(runner, workload, seed):
    reps = runner.repeat(runner.reps, (workload, seed, 0))[(workload, seed, 0)]
    setups = runner.setups + [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.worker("setup", workload)["setup_s"])
    head = summarize(reps)
    best = fastest(reps)
    tail_s, tail_pct = tail(best)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(best), "s"),
        "op_p50_ms": (1000 * statistics.median(best), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mib": (statistics.median(r["rss_mib"] for r in reps), "MiB"),
        "success_rate": ((head["attempted"] - head["failed"]) / head["attempted"], "ratio"),
    }
    notes = {
        "reps": len(reps),
        "op_tail_ms": {"percentile": tail_pct, "samples": len(best)},
        "setup_samples": len(setups),
    }
    return head, metrics, notes


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(runner, workload, seed):
    plain_key, traced_key = (workload, seed, 0), (workload, seed, 1)
    reps = runner.repeat(max(2, runner.reps // 2), plain_key, traced_key)
    plain, traced = reps[plain_key], reps[traced_key]
    head = summarize(plain + traced)
    traces = [r["trace"] for r in traced]
    counts_repeat = all(t["counts"] == traces[0]["counts"] and t["cache"] == traces[0]["cache"]
                        for t in traces)
    head["correct"] = head["correct"] and counts_repeat

    interp, imports = [], []
    for _ in range(PROBES):
        interp.append(runner.spawn([sys.executable, "-c", "pass"])[1])
        imports.append(runner.spawn([sys.executable, "-c", "import kostka.cli"])[1])

    t = traces[0]
    hooks, counts, cache = set(t["hooks"]), t["counts"], t["cache"]
    med_self = lambda layer: 1000 * statistics.median(  # noqa: E731
        x["self_s"].get(layer, 0.0) for x in traces)
    med_incl = lambda names: 1000 * statistics.median(  # noqa: E731
        sum(x["inclusive_s"].get(n, 0.0) for n in names) for x in traces)
    splits = {h for h in hooks if h.endswith(".bounded_compositions")}
    labels = counts.get("wreath.labels_tried", 0) if "wreath._allowed_labels" in hooks else None
    constituents = counts.get("wreath.constituents", 0)

    m = {}
    for layer in ("counting", "partitions", "tableaux", "wreath", "ggg"):
        m[layer + ".calls"] = (t["calls"].get(layer, 0), "count")
        m[layer + ".self_ms"] = (med_self(layer), "ms")
    m["counting.count_ms"] = (med_incl(["kostka", "kostka_multi"]), "ms")
    m["counting.scan_ms"] = (med_incl([
        "is_positive", "is_multiplicity_one", "is_multiplicity_one_multi",
        "verify_certificate", "verify_certificate_multi",
        "unique_weight", "unique_weight_multi"]), "ms")
    m["counting.states"] = (cache and cache["misses"], "count")
    m["counting.cache_hits"] = (cache and cache["hits"], "count")
    m["counting.hit_ratio"] = (
        cache and _ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio")
    m["counting.cache_entries"] = (cache and cache["entries"], "count")
    m["partitions.splits"] = (
        sum(v for k, v in counts.items() if k.startswith("splits.")) if splits else None, "count")
    m["ggg.splits"] = (
        counts.get("splits.ggg", 0) if "ggg.bounded_compositions" in hooks else None, "count")
    m["wreath.labels_tried"] = (labels, "count")
    m["wreath.constituents"] = (constituents, "count")
    m["wreath.useful_ratio"] = (
        None if labels is None else _ratio(constituents, labels), "ratio")
    m["cli.interp_ms"] = (1000 * statistics.median(interp), "ms")
    m["cli.import_ms"] = (1000 * (statistics.median(imports) - statistics.median(interp)), "ms")
    m["cli.main_ms"] = (1000 * statistics.median(r.get("main_s", 0.0) for r in traced), "ms")
    m["cli.out_bytes"] = (traced[0].get("out_bytes", 0), "B")
    m["trace.overhead_frac"] = (sum(fastest(traced)) / sum(fastest(plain)) - 1, "ratio")
    notes = {"reps": len(plain), "traced_reps": len(traced), "counts_repeat": counts_repeat,
             "hooks": len(hooks)}
    return head, m, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kostka" / "__init__.py").is_file():
        print(f"no kostka package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seconds)
    measure = per_layer if args.trace else end_to_end
    try:
        head, metrics, notes = measure(runner, args.workload, args.seed)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    notes.update(
        workload=args.workload, seed=args.seed, failures=head.pop("failures"),
        same_results=head.pop("same_results"), src_lines=src_lines(),
        python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
    )
    print(json.dumps({"info": notes}))
    head["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(head))
    return 0


if __name__ == "__main__":
    sys.exit(main())
