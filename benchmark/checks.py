"""Output checks that do not trust mcmsat.

The evaluator recomputes every adder-graph node from its operands with
its own add-shift arithmetic; `mcmsat.verify_solution` is never used
here.  Optima are compared with the oracle table in this directory.
"""

from __future__ import annotations

import json
from pathlib import Path

ORACLE_TABLE = Path(__file__).with_name("oracle_table.json")

# The oracle searches at most this many operations; an instance it
# exhausts has an optimum of at least ORACLE_MAX_OPS + 1.
ORACLE_MAX_OPS = 4


class CheckFailed(Exception):
    """An output of the program disagrees with independent truth."""


def odd_part(value: int) -> int:
    value = abs(value)
    while value and value % 2 == 0:
        value //= 2
    return value


def evaluate_graph(graph, constants) -> int:
    """Recompute `graph` node by node and return its operation count.

    Node k (from 1) is |(u << l1) + (v << l2)| >> r, or the same with a
    minus sign, where u and v are the values of nodes with lower indices
    and node 0 is 1.  Raises CheckFailed when a node's claimed value
    differs from the recomputed one, when a right shift drops set bits,
    or when the odd part of some constant is not produced.
    """
    values = [1]
    for k, node in enumerate(graph.nodes, start=1):
        p = node.params
        if p is None:
            raise CheckFailed(f"node {k} carries no shift parameters")
        if not (0 <= node.left < k and 0 <= node.right < k):
            raise CheckFailed(f"node {k} reads an operand that is not yet computed")
        shifts = (p.left_shift_1, p.left_shift_2, p.right_shift)
        if min(shifts) < 0 or p.sign not in (0, 1):
            raise CheckFailed(f"node {k} has shifts {shifts} and sign {p.sign}")
        u = values[node.left] << p.left_shift_1
        v = values[node.right] << p.left_shift_2
        pre = abs(u - v) if p.sign else u + v
        if pre == 0 or pre % (1 << p.right_shift):
            raise CheckFailed(f"node {k}: right shift {p.right_shift} of {pre}")
        value = pre >> p.right_shift
        if value != node.value:
            raise CheckFailed(f"node {k} claims {node.value}, computes {value}")
        values.append(value)
    produced = set(values)
    missing = [c for c in constants if odd_part(c) not in produced]
    if missing:
        raise CheckFailed(f"constants {missing} are not produced")
    return len(graph.nodes)


def load_table(path: Path = ORACLE_TABLE) -> dict[tuple[int, ...], int | None]:
    """Map sorted odd targets to the oracle optimum (None: above the limit)."""
    rows = json.loads(path.read_text())["instances"]
    return {tuple(sorted(r["targets"])): r["optimum"] for r in rows}


def truth(table, targets) -> int | None:
    key = tuple(sorted(odd_part(t) for t in targets))
    if key not in table:
        raise CheckFailed(f"{key} is not in the oracle table")
    return table[key]


def check_optimum(table, constants, report) -> None:
    """An optimize report: proven, optimal per the oracle, graph recomputed."""
    if not report.proven:
        raise CheckFailed(f"{constants}: optimum {report.optimal_ops} not proven")
    cost = evaluate_graph(report.graph, constants)
    if cost != report.optimal_ops:
        raise CheckFailed(f"{constants}: graph has {cost} ops, report says {report.optimal_ops}")
    expected = truth(table, constants)
    if expected is None:
        # The oracle exhausted ORACLE_MAX_OPS, so the optimum is above it;
        # a recomputed graph one operation longer pins it exactly.
        expected = ORACLE_MAX_OPS + 1
    if report.optimal_ops != expected:
        raise CheckFailed(f"{constants}: optimum {report.optimal_ops}, oracle {expected}")


def check_refutation(table, constant, ops, status) -> None:
    """A decision at one below the oracle optimum must be UNSAT."""
    expected = truth(table, [constant])
    if expected is None or ops != expected - 1:
        raise CheckFailed(f"{constant}: {ops} ops is not the oracle optimum {expected} - 1")
    if status != "UNSAT":
        raise CheckFailed(f"{constant} at {ops} ops: {status}, expected UNSAT")


def check_build(text, reparsed_text, size, predicted, status, graph, constants, ops) -> None:
    """A wide build: OPB round trip, closed-form size, and the solved graph.

    `status` is None for a build that was not searched.  A searched one
    must be SAT: the recoding witness it was hinted with fits its level.
    """
    if reparsed_text != text:
        raise CheckFailed(f"{constants}@{ops}: OPB round trip is not byte-identical")
    if predicted is not None and size != predicted:
        raise CheckFailed(f"{constants}@{ops}: size {size}, predicted {predicted}")
    if status is not None:
        if status != "SAT":
            raise CheckFailed(f"{constants}@{ops}: {status}, but the witness fits")
        cost = evaluate_graph(graph, constants)
        if cost > ops:
            raise CheckFailed(f"{constants}: graph has {cost} ops at level {ops}")
