"""Fast self-test of the benchmark, in a few seconds.

    python3 benchmark/selftest.py

Runs one tiny instance per workload through the benchmark's own code,
shows that each check rejects a wrong answer (a wrong optimum, a
corrupted graph, a changed OPB line), and that the traced run's layer
self times and remainder add up to its wall time.  Exits 0 when every
case behaves as stated, 1 otherwise.
"""

from __future__ import annotations

import importlib
import os
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mcmsat import AOperationParams, native, parse_opb  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import Op  # noqa: E402

OUTCOMES: list[tuple[str, bool]] = []


def expect(name: str, ok: bool) -> None:
    OUTCOMES.append((name, ok))
    print(f"{'ok  ' if ok else 'FAIL'} {name}")


def rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except CheckFailed:
        return True
    return False


def corrupt(graph):
    """The same graph with the last node's second shift off by one."""
    last = graph.nodes[-1]
    p = last.params
    bad = replace(last, params=AOperationParams(
        p.left_shift_1, p.left_shift_2 + 1, p.right_shift, p.sign))
    return replace(graph, nodes=graph.nodes[:-1] + (bad,))


def main() -> int:
    solve_mod = importlib.import_module("mcmsat.solve")
    table = checks.load_table()
    untraced = spans.NullTracer()

    def run(op, tr=untraced):
        return workloads.run(op, solve_mod, tr)

    descent = Op("optimize", (29, -86))
    report = run(descent)
    expect("descent: [29, 43] passes", not rejects(workloads.check, descent, report, table))
    wrong = dict(table)
    wrong[(29, 43)] += 1
    expect("descent: a wrong optimum is rejected",
           rejects(workloads.check, descent, report, wrong))
    expect("descent: a corrupted graph is rejected",
           rejects(workloads.check, descent, replace(report, graph=corrupt(report.graph)), table))
    exhausted = dict(table)
    exhausted[(29, 43)] = None
    expect("descent: an oracle-exhausted entry rejects a graph below 5 ops",
           rejects(workloads.check, descent, report, exhausted))
    expect("descent: an unproven report is rejected",
           rejects(workloads.check, descent, replace(report, proven=False), table))

    c = workloads.SELF_TEST_CONSTANT
    refute = Op("refute", (c,), table[(c,)] - 1)
    expect(f"unsat-proof: {c} at {refute.ops} ops is UNSAT",
           not rejects(workloads.check, refute, run(refute), table))
    wrong = dict(table)
    wrong[(c,)] += 1
    too_high = Op("refute", (c,), wrong[(c,)] - 1)
    expect(f"unsat-proof: a wrong optimum is rejected ({c} is SAT at {too_high.ops} ops)",
           rejects(workloads.check, too_high, run(too_high), wrong))

    build = Op("build", (29, 43), None, 3, True)
    result = run(build)
    expect("build-wide: [29, 43] at its bound passes",
           not rejects(workloads.check, build, result, table))
    lines = result.text.splitlines()
    lines[1] = lines[1].replace("+1 ", "+2 ", 1)
    changed = replace(result, parsed=parse_opb("\n".join(lines) + "\n"))
    expect("build-wide: a changed OPB line is rejected",
           rejects(workloads.check, build, changed, table))
    expect("build-wide: a corrupted graph is rejected",
           rejects(workloads.check, build, replace(result, graph=corrupt(result.graph)), table))
    expect("build-wide: a searched build that is not SAT is rejected",
           rejects(workloads.check, build, replace(result, status="UNSAT"), table))
    expect("build-wide: a wrong size is rejected",
           rejects(workloads.check, build, replace(result, size=(1, 1)), table))

    tracer = spans.Tracer()
    spans.install(tracer, solve_mod, native, native.load())
    start = time.perf_counter()
    for op in (descent, refute, build):
        with tracer.span("op"):
            run(op, tracer)
    wall = time.perf_counter() - start
    layers = tracer.metrics(1, wall)
    self_sum = sum(layers[f"{name}.self_s"] for name in spans.LAYERS)
    expect("trace: every counter is reported", all(k in layers for k in spans.COUNTERS))
    expect("trace: layer self times plus remainder equal wall time",
           abs(self_sum + layers["trace.remainder_s"] - wall) < 1e-9
           and 0 <= layers["trace.remainder_s"] < 0.1 * wall)
    expect("trace: the descent's levels are counted",
           layers["solve.levels"] == sum(1 for level, _ in report.per_level if level)
           and layers["solve.levels_sat"] == sum(o.status == "SAT" for _, o in report.per_level))
    return 0 if all(ok for _, ok in OUTCOMES) else 1


if __name__ == "__main__":
    work = Path(tempfile.mkdtemp(prefix="work-", dir=HERE))
    os.environ["XDG_CACHE_HOME"] = str(work)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    try:
        code = main()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)
