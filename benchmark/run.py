"""mcmsat benchmark: one workload, its end-to-end or per-layer metrics.

    python3 benchmark/run.py --workload descent --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs in its own
single-threaded worker process (worker.py); set-up is also measured in
separate workers, each building the compiled core in a fresh cache
directory.  With --trace 1 the workload runs once untraced and once
traced, and the per-layer metrics come from the traced run.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # set-up-only workers per run, besides the measuring one
BUDGET_S = 170.0  # the whole run, every worker included


class WorkerError(Exception):
    pass


def spawn(args, work: Path, tag: str, deadline: float, extra=()) -> dict:
    """Start worker.py with a fresh cache and temp directory; its JSON line."""
    cache = work / f"cache-{tag}"
    tmp = work / f"tmp-{tag}"
    cache.mkdir()
    tmp.mkdir()
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), TMPDIR=str(tmp))
    for name in ("MCMSAT_NO_NATIVE", "MCMSAT_SOLVER", "PYTHONPATH"):
        env.pop(name, None)
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("time budget spent before the worker started")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv + ["--spawned", repr(spawned)], env=env, cwd=ROOT,
            stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {tag} ran past the {BUDGET_S:.0f} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {tag} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    # BENCHMARK.json names the workloads and each metric's unit.
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in listed["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "mcmsat").is_dir():
        print(f"no mcmsat sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    # On SIGTERM, unwind: subprocess.run kills and reaps the running
    # worker, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    work = Path(tempfile.mkdtemp(prefix="work-", dir=HERE))
    try:
        setups = [
            spawn(args, work, f"setup{i}", deadline, ["--setup-only"])["setup_s"]
            for i in range(SETUP_SAMPLES)
        ]
        plain = spawn(args, work, "plain", deadline)
        runs = [plain]
        if args.trace:
            out = HERE / "out"
            out.mkdir(exist_ok=True)
            spans = out / f"spans-{args.workload}-{args.seed}.json"
            traced = spawn(args, work, "traced", deadline, ["--trace", "1", "--spans", str(spans)])
            runs.append(traced)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for run in runs:
        for line in run["failures"]:
            print(f"failed: {line}", file=sys.stderr)
        for line in run["wrong"]:
            print(f"wrong: {line}", file=sys.stderr)
    setups += [run["setup_s"] for run in runs]
    rounds, times = plain["rounds"], plain["times"]
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} round(s), "
        f"{len(times)} timed calls (instance_p50_s over {len(times)} samples), "
        f"set-up samples {[round(s, 3) for s in setups]}"
    )
    if args.trace:
        values = dict(traced["layers"])
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.fmean(rounds)
        if traced["level_split"]:
            split = ", ".join(f"ub-{k + 1}: {t:.3f} s" for k, t in enumerate(traced["level_split"]))
            print(f"per-level split per round: {split}")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(rounds),
            "instance_p50_s": statistics.median(times),
            "peak_rss_mb": plain["peak_rss_mb"],
        }
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listed["per_layer" if args.trace else "end_to_end"]
    }
    result = {
        "correct": not any(run["wrong"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
