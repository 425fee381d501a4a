"""Run one workload in this process and print one JSON line.

Started by run.py, never by hand: it imports mcmsat from the checkout's
src/, builds the compiled core in the cache directory the caller chose,
makes the inputs, and then runs whole rounds of the workload: at least
one, and more while they fit in --seconds.  Every output is checked after its timed call.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before the start")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import mcmsat
    from mcmsat import native

    if Path(mcmsat.__file__).resolve().parent != SRC / "mcmsat":
        print(f"mcmsat imported from {mcmsat.__file__}, not {SRC}", file=sys.stderr)
        return 1
    solve_mod = importlib.import_module("mcmsat.solve")
    core = native.load()
    if core is None:
        print("the compiled solver core did not build", file=sys.stderr)
        return 1

    import checks
    import workloads
    from spans import NullTracer, Tracer, install, peak_rss_mb

    table = checks.load_table()
    ops = workloads.make_inputs(args.workload, args.seed, table)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        install(tracer, solve_mod, native, core)
    rounds: list[float] = []
    times: list[float] = []
    failed = 0
    failures: list[str] = []
    wrong: list[str] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        wall = 0.0
        for op in ops:
            gc.collect()  # no call pays for the previous call's garbage
            t0 = time.perf_counter()
            try:
                with tracer.span("op"):
                    result = workloads.run(op, solve_mod, tracer)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                failures.append(f"{op.kind} {op.constants}: {exc!r}")
                continue
            elapsed = time.perf_counter() - t0
            wall += elapsed
            times.append(elapsed)
            try:
                workloads.check(op, result, table)
            except checks.CheckFailed as exc:
                wrong.append(str(exc))
            del result
        rounds.append(wall)
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        # Start another whole round only if it should end within --seconds.
        if now - start + longest > args.seconds:
            break
    out = {
        "setup_s": setup_s,
        "rounds": rounds,
        "times": times,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "failures": failures,
        "wrong": wrong,
        "peak_rss_mb": peak_rss_mb(),
    }
    if args.trace:
        out["layers"] = tracer.metrics(len(rounds), sum(rounds) / len(rounds))
        out["level_split"] = [t / len(rounds) for t in tracer.level_split()]
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
