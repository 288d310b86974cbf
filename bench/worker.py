"""One repetition of a workload, in a fresh process.

    worker.py rep <workload> <seed> <trace 0|1>   run the op list once
    worker.py setup <workload>                    time the package import only
    worker.py cli-shim <stats fd> <argv...>       kostka.cli.main, traced

`rep` and `setup` print one JSON object on stdout.  The package import is
timed before anything else is imported, so it pays for what a fresh
process would.  `cli-shim` behaves like `python -m kostka.cli` and writes
its trace totals to the given file descriptor.
"""

import sys
from time import perf_counter


def timed_import(workload):
    start = perf_counter()
    import kostka  # noqa: F401

    if workload == "cli":
        import kostka.cli  # noqa: F401
    return perf_counter() - start


def main(argv):
    mode = argv[0]
    if mode == "cli-shim":
        return cli_shim(int(argv[1]), argv[2:])
    setup_s = timed_import(argv[1])
    if mode == "setup":
        print('{"setup_s": %r}' % setup_s)
        return 0
    return rep(argv[1], int(argv[2]), argv[3] == "1", setup_s)


def cli_shim(stats_fd, argv):
    import json

    import tracing

    tracer = tracing.Tracer()
    import kostka.cli

    tracing.install(tracer, {})
    start = perf_counter()
    try:
        return kostka.cli.main(argv)
    finally:
        snap = tracing.snapshot(tracer)
        snap["main_s"] = perf_counter() - start
        with open(stats_fd, "w") as fh:
            json.dump(snap, fh)


def rep(workload, seed, traced, setup_s):
    import gc
    import hashlib
    import importlib
    import json
    import resource
    import statistics

    import tracing
    from workloads import PREV, SKIPPED, WORKLOADS, Raised

    work = WORKLOADS[workload](seed)
    cli_ops = CliOps(traced) if workload == "cli" else None
    api = {"cli": cli_ops.run} if cli_ops else {}
    for op in work.ops:
        if op.func not in api:
            module, name = op.func.split(".")
            api[op.func] = getattr(importlib.import_module("kostka." + module), name)
    tracer = None
    if traced and not cli_ops:
        tracer = tracing.Tracer()
        api = tracing.install(tracer, api)
    gc.freeze()  # keep the collector off the benchmark's own op list

    results, latencies, failed = [], [], set()
    for i, op in enumerate(work.ops):
        args = op.args
        if args and args[-1] is PREV:
            if results[-1] is None or isinstance(results[-1], Raised):
                results.append(SKIPPED)
                continue
            args = args[:-1] + (results[-1],)
        fn = api[op.func]
        t0 = perf_counter()
        try:
            value = fn(*args)
        except CliCrash as exc:
            value = Raised("cli:" + exc.args[0])
        except Exception as exc:  # every outcome is recorded, none stops the run
            value = Raised(type(exc).__name__)
        latencies.append(perf_counter() - t0)
        results.append(value)
        if isinstance(value, Raised):
            failed.add(i)
    who = resource.RUSAGE_CHILDREN if cli_ops else resource.RUSAGE_SELF
    rss_mib = resource.getrusage(who).ru_maxrss / 1024

    wrong = {i for i in work.check(results) if not isinstance(results[i], Raised)}
    failed |= wrong
    out = {
        "setup_s": setup_s,
        "latencies": latencies,
        "rss_mib": rss_mib,
        "attempted": len(latencies),
        "failed": len(failed),
        "wrong": len(wrong),
        "failures": [
            f"{work.ops[i].func}{'' if i not in wrong else ' wrong'}: {results[i]!r}"[:160]
            for i in sorted(failed)[:8]
        ],
        "digest": hashlib.sha256(repr(results).encode()).hexdigest(),
    }
    if tracer:
        out["trace"] = tracing.snapshot(tracer)
    elif cli_ops and traced:
        out["trace"] = tracing.merge(cli_ops.snapshots)
        out["main_s"] = statistics.median(s["main_s"] for s in cli_ops.snapshots)
    if cli_ops:
        out["out_bytes"] = cli_ops.out_bytes
    print(json.dumps(out))
    return 0


class CliCrash(Exception):
    """The command line died with a traceback or an unexpected exit code."""


class CliOps:
    """Runs each op as its own `python -m kostka.cli` process."""

    def __init__(self, traced):
        import os

        self.traced = traced
        self.env = dict(os.environ, PYTHONPATH="src")
        self.snapshots = []
        self.out_bytes = 0

    def run(self, argv):
        import json
        import os
        import subprocess

        from workloads import CliResult

        if self.traced:
            read_fd, write_fd = os.pipe()
            cmd = [sys.executable, __file__, "cli-shim", str(write_fd)]
            extra = {"pass_fds": (write_fd,)}
        else:
            cmd = [sys.executable, "-m", "kostka.cli"]
            extra = {}
        try:
            proc = subprocess.run(
                cmd + list(argv), capture_output=True, env=self.env, timeout=60, **extra
            )
        finally:
            if self.traced:
                os.close(write_fd)
        if self.traced:
            with open(read_fd) as fh:
                self.snapshots.append(json.load(fh))
        self.out_bytes += len(proc.stdout)
        err = proc.stderr.decode(errors="replace")
        if "Traceback (most recent call last)" in err:
            lines = err.strip().splitlines()
            raise CliCrash(lines[-1].split(":")[0] if lines else "traceback")
        if proc.returncode not in (0, 1, 2):
            raise CliCrash(f"exit {proc.returncode}")
        return CliResult(proc.returncode, proc.stdout.decode())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
