import random

import pytest

from mcmsat.model import (
    AOperationParams,
    McmError,
    csd_upper_bound,
    normalize_targets,
    one_operation_values,
    verify_solution,
)
from mcmsat.oracle import SearchBudgetExceeded, brute_force_optimal


def reachable_in_one_step(base, bit_width):
    """Test-local re-derivation of single-operation reachability."""
    limit = 1 << bit_width
    out = set()
    for u in base:
        for v in base:
            for l1 in range(bit_width):
                for l2 in range(bit_width):
                    if u << l1 >= limit or v << l2 >= limit:
                        continue
                    for sign in (0, 1):
                        w = abs((u << l1) + (-1) ** sign * (v << l2))
                        if 0 < w < limit:
                            out.add(w)
    return out


def test_one_operation_values_matches_independent_enumeration():
    for base, width in (({1}, 6), ({1, 7}, 7), ({1, 3, 29}, 8)):
        got = one_operation_values(base, width)
        assert set(got) == reachable_in_one_step(base, width)
        for value, (u, v, params) in got.items():
            pre = abs((u << params.left_shift_1) + (-1) ** params.sign * (v << params.left_shift_2))
            assert pre >> params.right_shift == value


def test_oracle_worked_example():
    inst = normalize_targets([29, 43])
    cost, graph = brute_force_optimal(inst)
    assert cost == 3
    assert verify_solution(inst, graph)


def test_oracle_single_subtraction():
    inst = normalize_targets([7])
    cost, graph = brute_force_optimal(inst)
    assert cost == 1
    assert verify_solution(inst, graph)


def test_oracle_45_needs_two_steps():
    inst = normalize_targets([45])
    # Self-check: 45 is not a single operation away from {1} ...
    assert 45 not in reachable_in_one_step({1}, inst.bit_width)
    # ... and 5 = 4+1 then 45 = 5<<3 + 5 is a two-operation witness.
    cost, graph = brute_force_optimal(inst)
    assert cost == 2
    assert verify_solution(inst, graph)


def test_oracle_empty_instance():
    inst = normalize_targets([4])
    assert brute_force_optimal(inst) == (0, type(brute_force_optimal(inst)[1])())


def test_oracle_budget_exceeded():
    inst = normalize_targets([29, 43])
    with pytest.raises(SearchBudgetExceeded, match="exceeds max_ops"):
        brute_force_optimal(inst, max_ops=2)


def test_oracle_rejects_oversized_instances():
    with pytest.raises(McmError):
        brute_force_optimal(normalize_targets([(1 << 13) + 1]))


def test_oracle_never_beats_recoding_bound():
    rng = random.Random(7)
    for _ in range(25):
        targets = [rng.randrange(3, 128, 2) for _ in range(rng.randint(1, 2))]
        inst = normalize_targets(targets)
        cost, graph = brute_force_optimal(inst)
        assert cost <= csd_upper_bound(inst)
        assert verify_solution(inst, graph)


def test_oracle_monotone_feasibility():
    # A minimal solution extends to any larger budget by a dummy 3 = 2+1.
    inst = normalize_targets([45])
    cost, graph = brute_force_optimal(inst)
    from mcmsat.model import AdderGraph, GraphNode

    padded = AdderGraph(
        graph.nodes + (GraphNode(3, 0, 0, AOperationParams(1, 0, 0, 0)),)
    )
    assert verify_solution(inst, padded)
    assert padded.cost == cost + 1


def test_oracle_right_shift_mode():
    inst = normalize_targets([7])
    cost, graph = brute_force_optimal(inst, right_shifts=True)
    assert cost == 1
    assert verify_solution(inst, graph)
    # Right shifts may only widen the reachable set.
    base = {1, 5}
    with_r = one_operation_values(base, 6, right_shifts=True)
    without = one_operation_values(base, 6)
    assert set(without) <= set(with_r)
    assert 3 in with_r  # (5 + 1) >> 1
