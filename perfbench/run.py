"""Repository benchmark: RocksMash on YCSB workloads, wall and sim metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ycsb-a --seed 1 --seconds 10 --trace 0

Each invocation runs two fresh processes (``bench.py``), one after the
other, each with its own ``PYTHONHASHSEED``.  The first measures: untraced
rounds with ``--trace 0``; with ``--trace 1``, an untraced and a traced
round of each sub-stream, which must agree bit for bit.  The second
replays sub-stream 0 in full, probes included, in the opposite tracing
mode; every outcome, every simulated latency and the simulated metrics of
that sub-stream must equal the first process's.

It prints one line per metric, then a JSON result as the last line:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  It exits non-zero when an operation failed, an outcome
disagreed with the oracle, or a determinism check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (name, unit) of the end-to-end metrics, in report order.
END_TO_END = (
    ("wall_ops_per_s", "ops/s"),
    ("wall_read_p50_us", "us"),
    ("wall_write_p50_us", "us"),
    ("wall_scan_p50_us", "us"),
    ("wall_p95_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_ops_per_s", "ops/s"),
    ("sim_read_mean_ms", "ms"),
    ("sim_write_mean_ms", "ms"),
    ("sim_scan_mean_ms", "ms"),
    ("write_amp", "ratio"),
    ("local_space_amp", "ratio"),
    ("cost_usd_per_month", "usd/month"),
)

DEADLINE_S = 170.0


def spawn(args: argparse.Namespace, extra: list[str], hash_seed: int, timeout: float
          ) -> dict[str, Any]:
    """Run ``bench.py`` in a fresh interpreter; returns its JSON result."""
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no RocksMash sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    # A new hash seed per process: outcomes must not depend on it.
    hash_seed = (args.seed * 2654435761 + 12345) % (2**32 - 3)
    try:
        run = spawn(args, ["--trace", str(args.trace)], hash_seed + 1, remaining())
        check = spawn(args, ["--trace", str(1 - args.trace), "--replay"], hash_seed + 2,
                      remaining())
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = run["problems"] + check["problems"]
    if check["determinism"] != run["determinism"]:
        problems.append("sub-stream 0 differs between a traced and an untraced process: "
                        + ", ".join(k for k in run["determinism"]
                                    if check["determinism"].get(k) != run["determinism"][k]))
    attempted = run["attempted"] + check["attempted"]
    failed = run["failed"] + check["failed"]
    correct = not problems and failed == 0

    print(f"# {args.workload} seed={args.seed} rounds={run['rounds']} trace={args.trace}")
    for stream, digest in enumerate(run["digests"]):
        print(f"# outcome digest {args.workload} seed={args.seed} sub-stream {stream}: {digest}")
    notes: dict[str, str] = {}
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in run["layers"].items()}
    else:
        wall, wall_notes = run["wall"]
        sim, sim_notes = run["sim"]
        values = {**wall, **sim, "peak_rss_mb": run["peak_rss_mb"]}
        notes = {**wall_notes, **sim_notes}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"{name:46s} {m['value']:<12.6g} {m['unit']:9s} {notes.get(name, '')}".rstrip())
    print(f"failed_op_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for problem in problems:
        print(f"FAIL: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
