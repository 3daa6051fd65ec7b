"""One cold round of a workload, in its own interpreter.

Started by ``run.py``; not meant to be run by hand.  The set-up clock starts
at the parent's ``time.monotonic()`` reading taken just before this process
was spawned (``--spawned``), so ``setup_s`` covers interpreter start-up,
the import of ``wreathcalc``, group construction with the seeded relabeling
and the building of the operation list.  The operations are then timed one
by one; the independent checks run after the timed region, with tracing
removed.  The round prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import wreathcalc
    if Path(wreathcalc.__file__).resolve().parent.parent != SRC:
        sys.stderr.write("imported wreathcalc from %s, not from %s\n"
                         % (wreathcalc.__file__, SRC))
        return 2
    import wreathcalc.cli  # noqa: F401  (the CLI is part of the program set-up)
    import tracing
    import workloads

    groups, original = workloads.make_groups(args.seed)
    ops = workloads.build_ops(args.workload, groups, original)
    tracer = tracing.Tracer().install() if args.trace else None
    setup_s = time.monotonic() - args.spawned

    results = []
    verify_s = 0.0
    for op in ops:
        t0 = time.perf_counter()
        try:
            results.append((op, op.run(), None))
        except Exception as exc:  # an operation that raises counts as failed
            results.append((op, None, "%s: %s: %s"
                            % (op.label, type(exc).__name__, exc)))
        verify_s += time.perf_counter() - t0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.remove()

    raised = wrong = 0
    problems = []
    for op, out, error in results:
        if error:
            raised += 1
            problems.append(error)
            continue
        try:
            found = op.check(out)
        except (KeyError, TypeError, ValueError) as exc:  # malformed output
            found = ["%s: output unreadable: %r" % (op.label, exc)]
        if found:
            wrong += 1
            problems.extend(found)

    report = {"setup_s": setup_s, "verify_s": verify_s,
              "peak_rss_mib": peak_rss_mib, "attempted": len(ops),
              "failed": raised + wrong, "wrong": wrong, "problems": problems}
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["spans"] = tracer.spans()
        report["unbound"] = tracer.unbound
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
