"""echofeed benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload recsys --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; echofeed is imported from ``src/``
of that checkout, never from an installed copy. The run times set-up
(import, input generation), then repeats the workload's pipeline, each pass
on a fresh copy of the generated inputs, until ``--seconds`` have passed.
Every output is checked and every pass must reproduce the first one byte
for byte. The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics of BENCHMARK.json under ``--trace 0`` and its per-layer metrics
under ``--trace 1``. The full result, with the environment, is also written
to ``perfbench/results/`` (``--results`` names another directory).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import Tracer, layer_metrics, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_PASSES = 3
TRIM = 0.1  # share of samples dropped at each end before averaging


def trimmed_mean(values, trim=TRIM):
    """Mean of the samples left after dropping the lowest and highest
    `trim` share (at least one at each end once there are five)."""
    ordered = sorted(values)
    k = max(1, int(trim * len(ordered))) if len(ordered) >= 5 else 0
    return statistics.fmean(ordered[k:len(ordered) - k])


def _environment(backend):
    import cryptography
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "echofeed").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "signature_backend": backend,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the smoke test")
    ap.add_argument("--results", type=Path, default=HERE / "results",
                    help="directory for the full result record")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if not (SRC / "echofeed" / "__init__.py").is_file():
        print(f"error: no echofeed sources under {SRC}", file=sys.stderr)
        return 2

    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import echofeed
    import echofeed._ed25519
    import workloads

    import_s = time.perf_counter() - t_import
    if Path(echofeed.__file__).resolve().parent != (SRC / "echofeed").resolve():
        print(f"error: imported echofeed from {echofeed.__file__}, not {SRC}", file=sys.stderr)
        return 2
    backend = "libsodium" if getattr(echofeed._ed25519, "_sodium", None) else "cryptography"

    cls, batch_kind = workloads.WORKLOADS[args.workload]
    work = HERE / "work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        return _run(args, spec, workloads, cls, batch_kind, scratch, import_s, backend)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, spec, workloads, cls, batch_kind, scratch, import_s, backend):
    ops = workloads.Ops()

    # set-up: generate the inputs several times, keep the last copy, and
    # check that the generator is deterministic
    gen_s, gen_digest = [], set()
    for i in range(SETUP_REPEATS):
        d = scratch / f"inputs-{i}"
        d.mkdir()
        start = time.perf_counter()
        workload = cls(args.size, args.seed)
        workload.generate(d)
        gen_s.append(time.perf_counter() - start)
        gen_digest.add(workloads.digest(*(p.read_bytes() for p in sorted(d.iterdir()))))
        if i:
            shutil.rmtree(scratch / f"inputs-{i - 1}")
    pristine = d
    ops.check("setup_repeat", len(gen_digest) == 1, "input generation is not deterministic")
    setup_s = import_s + statistics.median(gen_s)

    tracer = Tracer() if args.trace else None
    walls, traced_walls, digests = [], {}, []
    deadline = time.perf_counter() + args.seconds
    n = 0
    while n < MIN_PASSES or time.perf_counter() < deadline:
        d = scratch / f"pass-{n}"
        shutil.copytree(pristine, d)
        traced = tracer is not None and n % 2 == 0
        if traced:
            tracer.run = n
            tracer.install()
        start = time.perf_counter()
        digest = workload.run_pass(d, ops)
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            traced_walls[n] = wall
        else:
            walls.append(wall)
        digest = (digest, workload.after_pass(d, ops))
        digests.append(digest)
        ops.check("repeat", digest == digests[0], f"pass {n} output differs from pass 0")
        shutil.rmtree(d)
        n += 1

    d = scratch / "guard"
    shutil.copytree(pristine, d)
    if tracer is not None:
        tracer.run = "guard"
        tracer.install()
    workload.guard(d, ops)
    if tracer is not None:
        tracer.uninstall()

    results_dir = args.results
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    kinds = sorted({op.kind for op in ops.ops if op.seconds is not None})
    commands = {kind: statistics.median(ops.seconds(kind)) for kind in kinds}
    request_ms = [s * 1e3 for s in ops.seconds("request")]
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "run_s": trimmed_mean(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "batch_s": trimmed_mean(ops.seconds(batch_kind)),
            "request_ms_mean": trimmed_mean(request_ms),
            "request_ms_p90": percentile(request_ms, 90),
        }
        declared = spec["end_to_end"]
    else:
        values = layer_metrics(tracer, traced_walls, walls)
        declared = spec["per_layer"]
        tracer.write(results_dir / f"{stem}-spans.jsonl")
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
                         "differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "passes": n,
        "environment": _environment(backend),
        "holdout_rmse": workload.rmse,
        "requests": len(request_ms),
        "command_median_s": commands,
        "pass_s": walls,
        "op_s": {kind: ops.seconds(kind) for kind in commands},
        **result,
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
