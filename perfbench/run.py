"""hfactor benchmark: seeded exact-packing workloads, timed from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload direct-dense --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: a single caller waits for each
answer before it sends the next instance, making whole passes over a
seeded corpus for about --seconds. Answers are checked outside the
timed region. With --trace 0 the last line reports the end-to-end
metrics; with --trace 1 every instance runs once plain and once under
the span tracer, and the last line reports the per-layer metrics per
pass over the corpus. The program is imported from ./src of the
checkout; without it the run exits with code 2 and prints no result.
See LAYERS.md for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import logging
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("constructions", "generators", "graphs", "pipeline", "solver")
SETUP_REPEATS = 3
MIN_INSTANCES = 100  # so at least ten samples lie beyond the 90th percentile
INSTANCE_CAP_S = 30.0  # wall clock per call; budgets do not cover enumeration
HARD_STOP_S = 90.0  # no new instance starts after this long, so a run ends within 180 s
ADDRESS_SPACE_CAP = 1 << 30  # a runaway instance raises MemoryError instead


class InstanceTimeout(Exception):
    """A call ran past INSTANCE_CAP_S of wall clock."""


def _alarm(signum, frame):
    raise InstanceTimeout(f"no answer within {INSTANCE_CAP_S:.0f} s")


def import_program() -> SimpleNamespace:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        hf = SimpleNamespace(
            **{name: importlib.import_module(f"hfactor.{name}") for name in MODULES}
        )
    finally:
        sys.path.pop(0)
    if ROOT / "src" not in Path(hf.solver.__file__).resolve().parents:
        raise ImportError(f"hfactor imported from {hf.solver.__file__}, not from this checkout")
    return hf


def setup(workload: str, seed: int) -> tuple[float, list[workloads.Instance]]:
    """Import plus corpus generation, repeated; returns the median time and the last corpus."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "hfactor" or m.startswith("hfactor.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        hf = import_program()
        corpus = workloads.build(workload, hf, seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), corpus


def timed_call(
    inst: workloads.Instance, tracer: tracing.Tracer | None = None, instance: int = -1
) -> tuple[float, str | None]:
    """(seconds, failure): the call alone is timed, traced when a tracer is
    given; the answer is checked afterwards, with every wrapper removed."""
    if tracer is not None:
        tracer.install(instance)
    signal.setitimer(signal.ITIMER_REAL, INSTANCE_CAP_S)
    t0 = time.perf_counter()
    try:
        result = inst.call()
        failure = None
    except Exception as exc:  # every failure is counted and the run goes on
        failure = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    if tracer is not None:
        tracer.uninstall()
    if failure is None:
        try:
            failure = inst.check(result)
        except Exception as exc:
            failure = f"answer not checkable: {type(exc).__name__}: {exc}"
    return elapsed, failure


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def add(self, inst: workloads.Instance, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failures.append((inst.label, failure))


def schedule(corpus: list[workloads.Instance], seconds: float, min_sent: int):
    """Whole passes over the corpus, so every run times the same mix of instances.

    Yields (index, instance). Another pass starts while fewer than
    `min_sent` instances went out, or while it brings the run closer to
    `seconds`; no instance starts after HARD_STOP_S.
    """
    start = time.perf_counter()
    sent = 0
    while True:
        pass_start = time.perf_counter()
        for j, inst in enumerate(corpus):
            if time.perf_counter() - start > HARD_STOP_S:
                return
            yield j, inst
            sent += 1
        now = time.perf_counter()
        if sent >= min_sent and (now - start) + (now - pass_start) / 2 > seconds:
            return


def run_plain(corpus, seconds: float, tally: Tally) -> tuple[list[float], str]:
    latencies: list[float] = []
    slowest = (0.0, "")
    for _, inst in schedule(corpus, seconds, MIN_INSTANCES):
        elapsed, failure = timed_call(inst)
        latencies.append(elapsed)
        slowest = max(slowest, (elapsed, inst.label))
        tally.add(inst, failure)
    return latencies, f"{slowest[0] * 1e3:.1f} ms ({slowest[1]})"


def run_traced(corpus, seconds: float, tally: Tally, tracer: tracing.Tracer) -> tuple[float, float, float]:
    """Each instance once plain and once traced, the order alternating.

    Returns (passes, plain seconds, traced seconds).
    """
    plain = traced = 0.0
    sent = 0
    for j, inst in schedule(corpus, seconds, 0):
        for with_trace in (j % 2 == 0, j % 2 == 1):
            elapsed, failure = timed_call(inst, tracer if with_trace else None, j)
            if with_trace:
                traced += elapsed
            else:
                plain += elapsed
            tally.add(inst, failure)
        sent += 1
    return sent / len(corpus), plain, traced


def measure_traced(corpus, seconds: float, tally: Tally, workload: str, seed: int) -> dict:
    tracer = tracing.Tracer()
    passes, plain, traced = run_traced(corpus, seconds, tally, tracer)
    tracer.write_spans(ROOT / ".perfbench_out" / f"spans-{workload}-{seed}.jsonl")
    layer = tracer.metrics(passes)
    unfired = tracer.unfired(workload)
    layer["trace.instance_s"] = traced / passes
    layer["trace.overhead_s"] = (traced - plain) / passes
    layer["trace.unfired"] = len(unfired)
    if unfired:
        print(f"wrapper self-check: no call recorded at {', '.join(unfired)}", file=sys.stderr)
    overhead = layer["trace.overhead_s"] / (plain / passes)
    print(f"{workload} seed={seed} corpus={len(corpus)} passes={passes:.2f} spans={len(tracer.spans)}")
    print(f"  per pass; tracing overhead {overhead:+.1%} of untraced time")
    for name, value in layer.items():
        unit = tracing.unit_of(name)
        share = f"{value / layer['trace.instance_s']:7.1%}" if unit == "s" else ""
        print(f"  {name:34s} {value:14.4f} {unit:5s} {share}")
    return {name: (value, tracing.unit_of(name)) for name, value in layer.items()}


def measure_plain(corpus, seconds: float, tally: Tally, workload: str, seed: int, setup_s: float) -> dict:
    latencies, slowest = run_plain(corpus, seconds, tally)
    answered = tally.attempted - len(tally.failures)
    metrics = {
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "instances_per_s": (answered / sum(latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    print(f"{workload} seed={seed} corpus={len(corpus)} instances={tally.attempted} timed={sum(latencies):.2f} s slowest={slowest}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:16s} {value:12.4f} {unit}")
    # a metric that can read 0 has no share to bound, so it travels as failed/attempted
    print(f"  {'fail_ratio':16s} {len(tally.failures) / tally.attempted:12.4f} ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # pack_apex_multipartite logs hypothesis warnings; keep stderr out of the timed loop
    logging.getLogger("hfactor").setLevel(logging.ERROR)
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    signal.signal(signal.SIGALRM, _alarm)

    try:
        setup_s, corpus = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import hfactor from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    gc.collect()
    tally = Tally()
    if args.trace:
        metrics = measure_traced(corpus, args.seconds, tally, args.workload, args.seed)
    else:
        metrics = measure_plain(corpus, args.seconds, tally, args.workload, args.seed, setup_s)
    for label, failure in tally.failures[:10]:
        print(f"failed: {label}: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not tally.failures,
                "attempted": tally.attempted,
                "failed": len(tally.failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
