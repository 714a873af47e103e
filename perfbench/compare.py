"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a result file written by run.py, a directory of
them, or a JSON list of result records (such as perfbench/baseline.json).
For every workload and metric present on both sides it prints the median
over each side's runs, the change, and whether the change exceeds the
metric's bound in BENCHMARK.json. The holdout RMSE the runs reported is
printed beside the metrics, as a quality guard with no bound.

The script refuses to compare records that are not comparable: a run with
failed operations, and, within one workload, runs on different signature
backends, input sizes or run lengths.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Refused(Exception):
    pass


def load(arg):
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for f in files:
        doc = json.loads(f.read_text())
        for r in doc if isinstance(doc, list) else [doc]:
            if "workload" not in r:
                continue
            if not r["correct"]:
                raise Refused(f"{f}: {r['workload']} seed {r['seed']} failed "
                              f"{r['failed']} of {r['attempted']} operations")
            records.append(r)
    return records


def _setting(r):
    return (r["environment"]["signature_backend"], r["size"], r["seconds"])


def medians(records):
    """(workload, metric) -> (median value, runs); workload -> settings."""
    values, settings = defaultdict(list), defaultdict(set)
    for r in records:
        settings[r["workload"]].add(_setting(r))
        for name, m in r["metrics"].items():
            values[r["workload"], name].append(m["value"])
        if r.get("holdout_rmse") is not None:
            values[r["workload"], "holdout_rmse"].append(r["holdout_rmse"])
    return {k: (statistics.median(v), len(v)) for k, v in values.items()}, settings


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        base, base_settings = medians(load(argv[0]))
        new, new_settings = medians(load(argv[1]))
        for workload in sorted(set(base_settings) | set(new_settings)):
            both = base_settings[workload] | new_settings[workload]
            if len(both) != 1:
                raise Refused(f"{workload}: runs differ in (signature backend, size, "
                              f"seconds): {sorted(both)}")
    except Refused as e:
        print(f"refusing to compare: {e}", file=sys.stderr)
        return 1
    worse = 0
    print(f"{'workload':16} {'metric':44} {'base':>12} {'new':>12} {'change':>8}  runs")
    for key in sorted(set(base) & set(new)):
        (b, nb), (n, nn) = base[key], new[key]
        m = bounds.get(key[1], {})
        change = (n - b) / b if b else 0.0
        regressed = ("bound" in m and
                     (change > m["bound"] if m["better"] == "lower" else -change > m["bound"]))
        worse += regressed
        note = ("  WORSE THAN BOUND" if regressed
                else "  (quality, no bound)" if key[1] == "holdout_rmse" else "")
        print(f"{key[0]:16} {key[1]:44} {b:12.6g} {n:12.6g} {change:+8.1%}  {nb}/{nn}{note}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
