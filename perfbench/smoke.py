"""Smoke test of the benchmark itself, at tiny input sizes (a few seconds).

    python3 perfbench/smoke.py

Checks that every workload, traced and untraced, passes its own output
checks and prints every metric BENCHMARK.json names, with its unit; and
that a deliberately wrong program output (a tampered chain accepted as
valid) is counted as a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# kept apart from perfbench/results, which compare.py reads
RESULTS = str(HERE / "work" / "smoke-results")


def run_subprocess(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny", "--results", RESULTS],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    return json.loads(proc.stdout.splitlines()[-1])


def check_metrics_emitted():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            result = run_subprocess(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            for m in declared:
                got = result["metrics"].get(m["name"])
                assert got is not None, f"{workload} trace={trace}: {m['name']} missing"
                assert got["unit"] == m["unit"], (workload, m["name"], got)
                assert isinstance(got["value"], (int, float)), (workload, m["name"], got)
            assert len(result["metrics"]) == len(declared), (workload, trace)
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values()), result
            print(f"ok  {workload:16} trace={trace}  attempted={result['attempted']}")


def check_wrong_output_fails():
    """A verify_chain that accepts every chain must be caught by the
    tamper guard, in-process, without touching the sources."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import echofeed.ledger
    import run

    real = echofeed.ledger.verify_chain
    echofeed.ledger.verify_chain = lambda chain: echofeed.ledger.ChainReport(True)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = run.main(["--workload", "consent", "--seed", "5", "--seconds", "0",
                           "--trace", "0", "--size", "tiny", "--results", RESULTS])
    finally:
        echofeed.ledger.verify_chain = real
    result = json.loads(out.getvalue().splitlines()[-1])
    assert rc == 0
    assert result["failed"] >= 1 and not result["correct"], result
    print(f"ok  tampered chain accepted as valid -> failed={result['failed']}")


if __name__ == "__main__":
    check_metrics_emitted()
    check_wrong_output_fails()
    print("smoke test passed")
