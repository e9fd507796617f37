"""Benchmark of the ``tmss`` engine: seeded, oracle-checked queries.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload tower-chars --seed 1 --seconds 26 --trace 0

The traffic model is one researcher's Python session: a closed loop with
one client, no threads, each query one library call whose exact answer is
checked before the run ends.  A run sets up several times (import ``tmss``
and ``tmss.cli``, generate the seeded inputs, compute their oracles) and
reports the median set-up time; then it replays whole passes over the
queries until the next pass would overrun ``--seconds``.

Times are scaled to a reference host speed.  Other processes on the same
machine change the speed of this one by a fifth and more within seconds,
so every 50 ms, between two queries, the run times a fixed pure-Python
loop that does not use ``tmss`` (the reference chunk).  Each latency, and
each set-up time, is multiplied by ``REFERENCE_CHUNK_S`` over the mean of
the chunks timed just before and just after it.  The raw figures are
printed above the result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics of the traced
passes (medians over passes), checks that both kinds of pass return the
same answers, and writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong answer or
a raised exception makes the run exit with code 1; an answer of
``unknown`` (a cap was hit) counts as failed.  Exit code 2 means the
benchmark could not run, for example because ``src/tmss`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import OK, WRONG  # noqa: E402

SETUP_REPEATS = 5
CHUNK_EVERY_S = 0.05
# time of one reference chunk on an unloaded 2.1 GHz Xeon core (Python 3.11)
REFERENCE_CHUNK_S = 0.0025


def reference_chunk() -> float:
    """Seconds taken by a fixed pure-Python loop that does not use tmss."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(10_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = (acc, i)
    return time.perf_counter() - t0


class Raised:
    """Answer slot of a query that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text

    def __str__(self):
        return self.text


@dataclass
class Pass:
    latencies: list[float]  # seconds as measured
    scaled: list[float]     # seconds at the reference host speed
    answers: list
    chunks: list[float]     # reference chunk times taken during the pass
    state: dict


def set_up(name: str, seed: int, tiny: bool):
    """Import tmss afresh, build the inputs and oracles; return the last
    build and the median raw and scaled time of ``SETUP_REPEATS`` set-ups."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        for mod in [m for m in sys.modules if m == "tmss" or m.startswith("tmss.")]:
            del sys.modules[mod]
        gc.collect()
        before = reference_chunk()
        t0 = time.perf_counter()
        tm = importlib.import_module("tmss")
        importlib.import_module("tmss.cli")
        workload = workloads.build(name, tm, seed, tiny)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * REFERENCE_CHUNK_S * 2 / (before + reference_chunk()))
    # the inputs live for the whole run: keep them out of the collector's
    # full passes, as long-lived data of a session would have aged out
    gc.freeze()
    return tm, workload, statistics.median(raw), statistics.median(scaled)


def run_pass(workload, tracer=None) -> Pass:
    """Time every query of one fresh pass.  A query's latency is scaled by
    the mean of the reference chunks taken just before and just after it."""
    calls, state = workload.make_pass()
    gc.collect()
    done = Pass([], [], [], [], state)
    chunk_before: list[int] = []
    last_chunk = -CHUNK_EVERY_S
    for qid, call in enumerate(calls):
        if time.perf_counter() - last_chunk >= CHUNK_EVERY_S:
            done.chunks.append(reference_chunk())
            last_chunk = time.perf_counter()
        if tracer is not None:
            tracer.qid = qid
        t0 = time.perf_counter()
        try:
            answer = call()
        except Exception as exc:  # a raising query is a failed query
            answer = Raised(exc)
        done.latencies.append(time.perf_counter() - t0)
        done.answers.append(answer)
        chunk_before.append(len(done.chunks) - 1)
    done.chunks.append(reference_chunk())
    done.scaled = [latency * REFERENCE_CHUNK_S * 2 / (done.chunks[i] + done.chunks[i + 1])
                   for latency, i in zip(done.latencies, chunk_before)]
    return done


def grade(workload, answers) -> list[str]:
    out = []
    for label, check, answer in zip(workload.labels, workload.checks, answers):
        status = "raised" if isinstance(answer, Raised) else check(answer, answers)
        if status != OK:
            print(f"{status}: {label} -> {answer}", file=sys.stderr)
        out.append(status)
    return out


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def per_query_medians(passes: list[Pass], field: str) -> list[float]:
    """Each query's latency as its median over the passes, which keeps short
    bursts of load from other processes out of the figures."""
    return [statistics.median(x) for x in zip(*(getattr(p, field) for p in passes))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the harness self-test")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="break the first oracle, for the harness self-test")
    args = parser.parse_args(argv)

    try:
        tm, workload, setup_raw, setup_s = set_up(args.workload, args.seed, args.tiny)
    except ImportError as exc:
        print(f"cannot import tmss from {HERE.parent / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(tm.__file__).resolve().is_relative_to(HERE.parent / "src"):
        print(f"tmss was imported from {tm.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    if args.corrupt_oracle:
        workload.checks[0] = lambda _answer, _answers: WRONG

    statuses: list[str] = []
    untraced: list[Pass] = []
    traced: list[Pass] = []
    tracer = tracing.Tracer(tm) if args.trace else None
    layer_runs: list[dict] = []
    origin = time.perf_counter()
    while True:
        untraced.append(run_pass(workload))
        statuses += grade(workload, untraced[-1].answers)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(workload, tracer))
            finally:
                tracer.uninstall()
            layer_runs.append(tracer.pass_metrics(traced[-1].state))
            statuses += grade(workload, traced[-1].answers)
            if traced[-1].answers != untraced[-1].answers:
                print("traced and untraced passes returned different answers",
                      file=sys.stderr)
                statuses.append(WRONG)
        rounds = len(untraced)
        if (time.perf_counter() - origin) * (rounds + 1) / rounds > args.seconds:
            break
    final = workload.final_checks()
    if any(s != OK for s in final):
        print(f"final confirmations: {final}", file=sys.stderr)
    statuses += final

    attempted = len(statuses)
    wrong = sum(s in (WRONG, "raised") for s in statuses)
    failed = sum(s != OK for s in statuses)
    calib_ms = 1e3 * statistics.median(c for p in untraced for c in p.chunks)
    n = len(workload.labels)

    if tracer is None:
        scaled = per_query_medians(untraced, "scaled")
        raw = per_query_medians(untraced, "latencies")
        metrics = {
            "queries_per_s": (n / sum(scaled), "1/s"),
            "query_p50_ms": (1e3 * percentile(scaled, 50), "ms"),
            "query_p90_ms": (1e3 * percentile(scaled, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
        print(f"{args.workload} seed={args.seed}: {rounds} passes of {n} queries; "
              f"percentiles over {n} per-query medians of {rounds} passes; "
              f"failed {failed} of {attempted} ({failed / attempted:.4f})\n"
              f"  as measured, before scaling to the reference host speed: "
              f"{n / sum(raw):.4g} queries/s, p50 {1e3 * percentile(raw, 50):.4g} ms, "
              f"p90 {1e3 * percentile(raw, 90):.4g} ms, set-up {setup_raw:.4g} s; "
              f"reference chunk {calib_ms:.3f} ms (nominal {1e3 * REFERENCE_CHUNK_S} ms)")
    else:
        metrics = {name: (statistics.median(run[name] for run in layer_runs), unit)
                   for name, unit in tracing.METRICS
                   if name not in ("host.calib_ms", "trace.overhead_frac")}
        overhead = (statistics.median(sum(p.scaled) for p in traced)
                    / statistics.median(sum(p.scaled) for p in untraced) - 1)
        metrics["host.calib_ms"] = (calib_ms, "ms")
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}.csv", origin)
        print(f"{args.workload} seed={args.seed}: {rounds} traced and {rounds} "
              f"untraced passes of {n} queries; {len(tracer.spans)} spans; "
              f"failed {failed} of {attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")

    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
