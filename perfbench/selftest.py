"""Fast self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

For every workload and both trace modes it runs ``run.py --tiny`` and checks
that the last line is the result object, that the answers were right, and
that exactly the metrics of ``BENCHMARK.json`` are printed with their units.
It also checks that a deliberately wrong oracle makes the run fail, and that
a directory holding only the benchmark (no ``src/tmss``) makes it exit
nonzero without a result.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    problems: list[str] = []
    sys.path.insert(0, str(HERE))
    import tracer

    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if per_layer != dict(tracer.METRICS):
        problems.append("per_layer metrics of BENCHMARK.json differ from tracer.METRICS")
    wanted = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]}, 1: per_layer}

    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            proc = run(workload, trace, "--tiny")
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = result_of(proc)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{tag}: metrics differ: "
                                f"{sorted(set(got) ^ set(wanted[trace]))}")
            print(f"ok {tag}: {len(got)} metrics, {result['attempted']} attempted")

    proc = run("zero-count", 0, "--tiny", "--corrupt-oracle")
    if proc.returncode == 0 or result_of(proc)["correct"] is not False:
        problems.append("a wrong oracle value did not make the run fail")
    else:
        print(f"ok wrong oracle: exit {proc.returncode}")

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = run("julia", 0, "--tiny", cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a checkout without src/tmss did not fail cleanly")
    else:
        print(f"ok without src/tmss: exit {proc.returncode}")

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
