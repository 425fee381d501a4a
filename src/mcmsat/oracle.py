"""Exhaustive search for provably minimal operation counts.

Desk-scale only: iterative deepening over ready sets closed under the
add/shift operation, used as the ground truth the encoder and optimizer
are tested against.
"""

from __future__ import annotations

from .model import (
    AdderGraph,
    McmError,
    McmInstance,
    one_operation_values,
    verify_solution,
)

ORACLE_MAX_BITS = 12
ORACLE_MAX_OPS = 4


class SearchBudgetExceeded(McmError):
    """Raised when no solution exists within max_ops ("exceeds max_ops")."""


def brute_force_optimal(
    inst: McmInstance,
    max_ops: int = ORACLE_MAX_OPS,
    right_shifts: bool = False,
) -> tuple[int, AdderGraph]:
    """Minimal operation count plus a verified witness graph.

    Iterative deepening: for each budget k the search extends the ready
    set one operation at a time, pruning branches that cannot cover the
    remaining targets.  Documented desk-scale limits: bit_width <= 12,
    max_ops <= 4.
    """
    if inst.bit_width > ORACLE_MAX_BITS:
        raise McmError(f"oracle limited to {ORACLE_MAX_BITS}-bit instances")
    if max_ops > ORACLE_MAX_OPS:
        raise McmError(f"oracle limited to {ORACLE_MAX_OPS} operations")
    if inst.is_empty:
        return 0, AdderGraph(())
    targets = frozenset(inst.targets)
    reach_cache: dict[frozenset, dict] = {}

    def reachable(ready: frozenset) -> dict:
        hit = reach_cache.get(ready)
        if hit is None:
            hit = one_operation_values(ready, inst.bit_width, right_shifts)
            reach_cache[ready] = hit
        return hit

    def search(ready: frozenset, budget: int, visited: set):
        uncovered = targets - ready
        if not uncovered:
            return []
        if len(uncovered) > budget:
            return None
        key = (ready, budget)
        if key in visited:
            return None
        visited.add(key)
        options = reachable(ready)
        if budget == len(uncovered):
            # Every remaining operation must land on a target.
            candidates = [w for w in sorted(uncovered) if w in options]
        else:
            candidates = sorted(options)
        for w in candidates:
            if w in ready:
                continue
            rest = search(ready | {w}, budget - 1, visited)
            if rest is not None:
                u, v, params = options[w]
                return [(w, u, v, params)] + rest
        return None

    for budget in range(len(targets), max_ops + 1):
        steps = search(frozenset({1}), budget, set())
        if steps is not None:
            graph = AdderGraph.from_steps(steps)
            assert verify_solution(inst, graph)
            return budget, graph
    raise SearchBudgetExceeded(f"exceeds max_ops ({max_ops})")
