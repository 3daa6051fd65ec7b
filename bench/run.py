"""Benchmark for wreathcalc: one workload per invocation, cold rounds.

    python3 bench/run.py --workload closed_forms --seed 1 --seconds 25 --trace 0

Each round runs the workload's fixed operations once in a fresh interpreter
(``round.py``), because ``theorems._poset_cache`` lives as long as the
interpreter and a second pass in the same process would time cache hits.
Rounds repeat while another one still fits in ``--seconds``; there is always
at least one.  The last line of standard output is one JSON object:

* ``--trace 0``: ``setup_s`` (the first round's cold set-up), ``verify_s``
  (median over rounds of the operations' wall time) and ``peak_rss_mib``
  (largest peak resident set of a round, read right after its operations);
* ``--trace 1``: the per-layer metrics of ``tracing.py``, median over
  rounds.  The rounds' span tables are written to
  ``.bench_trace/<workload>-seed<seed>.json``.

Exits non-zero, printing no result, when ``src/wreathcalc`` is missing or a
round does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import metric_names
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".bench_trace"
DEADLINE_S = 170.0     # a run must end within 180 s

UNITS = {"setup_s": "s", "verify_s": "s", "peak_rss_mib": "MiB"}


def per_layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def run_round(args, budget: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace),
           "--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=budget)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("round exited with status %d:\n%s"
                           % (proc.returncode, proc.stderr[-4000:]))
    return json.loads(lines[-1])


def main() -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "wreathcalc" / "__init__.py").is_file():
        sys.stderr.write("no wreathcalc sources under %s\n" % (ROOT / "src"))
        return 2

    rounds, walls = [], []
    while True:
        t0 = time.monotonic()
        try:
            rounds.append(run_round(args, DEADLINE_S - (t0 - start)))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            sys.stderr.write("benchmark round failed: %s\n" % exc)
            return 1
        walls.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if (elapsed + statistics.median(walls) > args.seconds
                or elapsed + 2 * max(walls) > DEADLINE_S):
            break

    sys.stderr.write("%s seed %d: %d round(s)\n"
                     % (args.workload, args.seed, len(rounds)))
    for r in rounds:
        for problem in r["problems"]:
            sys.stderr.write("FAILED %s\n" % problem)
    if args.trace:
        names = metric_names()
        metrics = {name: {"value": statistics.median(r["layers"][name]
                                                     for r in rounds),
                          "unit": per_layer_unit(name)} for name in names}
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / ("%s-seed%d.json" % (args.workload, args.seed))
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "traced_verify_s": [r["verify_s"] for r in rounds],
            "unbound": rounds[0]["unbound"],
            "rounds": [r["spans"] for r in rounds]}, indent=1))
    else:
        values = {"setup_s": rounds[0]["setup_s"],
                  "verify_s": statistics.median(r["verify_s"] for r in rounds),
                  "peak_rss_mib": max(r["peak_rss_mib"] for r in rounds)}
        metrics = {name: {"value": v, "unit": UNITS[name]}
                   for name, v in values.items()}
    print(json.dumps({"correct": all(r["wrong"] == 0 for r in rounds),
                      "attempted": sum(r["attempted"] for r in rounds),
                      "failed": sum(r["failed"] for r in rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
