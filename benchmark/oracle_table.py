"""Rebuild oracle_table.json, the ground truth the benchmark checks against.

    python3 benchmark/oracle_table.py

Runs mcmsat's brute-force oracle (iterative deepening up to 4
operations) on every instance the benchmark checks.  It runs in a
process of its own, never in a measured one: a 10-bit constant of
optimum 4 takes about 25 s and 1.25 GB.  An instance the oracle
exhausts is stored with optimum null, meaning an optimum of at least 5.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from mcmsat import SearchBudgetExceeded, brute_force_optimal, normalize_targets  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    instances = sorted(
        {tuple(sorted(s)) for s in workloads.DESCENT_SETS}
        | {(c,) for c in workloads.UNSAT_CONSTANTS + (workloads.SELF_TEST_CONSTANT,)}
    )
    rows = []
    for targets in instances:
        start = time.perf_counter()
        try:
            optimum, _ = brute_force_optimal(normalize_targets(targets))
        except SearchBudgetExceeded:
            optimum = None
        took = time.perf_counter() - start
        print(f"{list(targets)}: {optimum} ({took:.1f} s)", flush=True)
        rows.append({"targets": list(targets), "optimum": optimum})
    body = ",\n".join(json.dumps(r) for r in rows)
    checks.ORACLE_TABLE.write_text(
        f'{{"oracle_max_ops": {checks.ORACLE_MAX_OPS}, "instances": [\n{body}\n]}}\n'
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
