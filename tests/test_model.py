import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmsat.model import (
    AdderGraph,
    AOperationParams,
    GraphNode,
    McmError,
    apply_a_operation,
    check_solution,
    csd_digits,
    csd_upper_bound,
    heuristic_graph,
    normalize_targets,
    recoding_upper_bounds,
    recoding_witness,
    verify_solution,
)
from mcmsat.oracle import brute_force_optimal
from test_acceptance import two_target_instances

FIG_GRAPH = AdderGraph(
    (
        GraphNode(7, 0, 0, AOperationParams(3, 0, 0, 1)),
        GraphNode(29, 1, 0, AOperationParams(2, 0, 0, 0)),
        GraphNode(43, 1, 2, AOperationParams(1, 0, 0, 0)),
    )
)


# -- normalization ------------------------------------------------------------


def test_normalize_worked_example():
    inst = normalize_targets([29, 43])
    assert inst.targets == (29, 43)
    assert inst.bit_width == 7


def test_normalize_sign_evenness_duplicates():
    inst = normalize_targets([58, -29, 29])
    assert inst.targets == (29,)
    assert inst.bit_width == 6


def test_normalize_powers_of_two_cost_zero():
    inst = normalize_targets([8, 1])
    assert inst.is_empty
    assert csd_upper_bound(inst) == 0


def test_normalize_empty_input_errors():
    with pytest.raises(McmError, match="empty input"):
        normalize_targets([])


def test_normalize_keeps_source_map():
    inst = normalize_targets([58, 8, -3])
    assert inst.source_map == ((58, 29), (8, None), (-3, 3))


def test_normalize_targets_below_width_bound():
    inst = normalize_targets([100, 7, 91])
    for t in inst.targets:
        assert t % 2 == 1 and t >= 3
        assert t < 1 << (inst.bit_width - 1)


# -- the operation ------------------------------------------------------------


def test_apply_examples():
    assert apply_a_operation(1, 1, AOperationParams(3, 0, 0, 1)) == 7
    assert apply_a_operation(7, 1, AOperationParams(2, 0, 0, 0)) == 29
    # 5 + 3 = 8, exactly divisible by 2^3.
    assert apply_a_operation(5, 3, AOperationParams(0, 0, 3, 0)) == 1
    assert apply_a_operation(5, 1, AOperationParams(0, 0, 1, 0)) == 3


def test_apply_invalid_right_shift():
    with pytest.raises(McmError, match="invalid r"):
        apply_a_operation(5, 2, AOperationParams(0, 0, 2, 0))


def test_apply_degenerate_zero():
    with pytest.raises(McmError, match="degenerate zero"):
        apply_a_operation(3, 3, AOperationParams(0, 0, 0, 1))


def test_apply_rejects_bad_operands():
    with pytest.raises(McmError):
        apply_a_operation(0, 1, AOperationParams())


def test_apply_matches_direct_arithmetic_exhaustive():
    # Odd operands, one shift at a time, no right shift.
    for u in range(1, 256, 2):
        for v in range(1, 256, 2):
            for shift in range(8):
                for sign in (0, 1):
                    for l1, l2 in ((shift, 0), (0, shift)):
                        direct = abs((u << l1) + (-1) ** sign * (v << l2))
                        if direct == 0:
                            continue
                        got = apply_a_operation(
                            u, v, AOperationParams(l1, l2, 0, sign)
                        )
                        assert got == direct


@given(
    u=st.integers(1, 1 << 20),
    v=st.integers(1, 1 << 20),
    l1=st.integers(0, 12),
    l2=st.integers(0, 12),
    sign=st.integers(0, 1),
)
@settings(max_examples=300, deadline=None)
def test_apply_property_random(u, v, l1, l2, sign):
    direct = abs((u << l1) + (-1) ** sign * (v << l2))
    if direct == 0:
        with pytest.raises(McmError):
            apply_a_operation(u, v, AOperationParams(l1, l2, 0, sign))
    else:
        assert apply_a_operation(u, v, AOperationParams(l1, l2, 0, sign)) == direct


# -- verification -------------------------------------------------------------


def test_verify_worked_example_graph():
    inst = normalize_targets([29, 43])
    assert verify_solution(inst, FIG_GRAPH)


def test_verify_missing_target():
    inst = normalize_targets([29, 43])
    partial = AdderGraph(FIG_GRAPH.nodes[:2])
    ok, problems = check_solution(inst, partial)
    assert not ok
    assert any("43" in p for p in problems)


def test_verify_single_op_constant():
    inst = normalize_targets([5])
    graph = AdderGraph((GraphNode(5, 0, 0, AOperationParams(2, 0, 0, 0)),))
    assert verify_solution(inst, graph)


def test_verify_wrong_value_diagnosed():
    inst = normalize_targets([29, 43])
    bad = AdderGraph(
        FIG_GRAPH.nodes[:1]
        + (GraphNode(30, 1, 0, AOperationParams(2, 0, 0, 0)),)
        + FIG_GRAPH.nodes[2:]
    )
    ok, problems = check_solution(inst, bad)
    assert not ok
    assert any("node 2" in p for p in problems)


def test_verify_without_params_searches():
    inst = normalize_targets([29, 43])
    bare = AdderGraph(
        tuple(GraphNode(n.value, n.left, n.right, None) for n in FIG_GRAPH.nodes)
    )
    assert verify_solution(inst, bare)


def test_verify_shift_cap():
    # A shift beyond bit_width - 1 is rejected even if arithmetic works.
    inst = normalize_targets([3])  # bit_width 3
    graph = AdderGraph((GraphNode(15, 0, 0, AOperationParams(4, 0, 0, 1)),))
    ok, problems = check_solution(inst, graph)
    assert not ok


def test_from_steps_names_operands_by_value():
    p = AOperationParams
    graph = AdderGraph.from_steps(
        [(7, 1, 1, p(3, 0, 0, 1)), (29, 7, 1, p(2, 0, 0, 0)), (43, 7, 29, p(1, 0, 0, 0))]
    )
    assert graph == FIG_GRAPH
    # A repeated value: operands name its first node.
    twice = AdderGraph.from_steps([(3, 1, 1, p(1)), (3, 1, 1, p(0, 1)), (9, 3, 3, p(1))])
    assert [(n.left, n.right) for n in twice.nodes] == [(0, 0), (0, 0), (1, 1)]


def test_from_steps_rejects_an_operand_no_earlier_step_made():
    with pytest.raises(McmError, match="operand of 29"):
        AdderGraph.from_steps([(29, 7, 1, AOperationParams(2, 0, 0, 0))])
    with pytest.raises(McmError, match="operand of 7"):  # not even itself
        AdderGraph.from_steps([(7, 7, 1, AOperationParams(0, 0, 0, 1))])


def test_reindexed_remaps_operands():
    p = AOperationParams
    graph = AdderGraph.from_steps([(3, 1, 1, p(1)), (7, 1, 1, p(3, 0, 0, 1)), (21, 7, 7, p(1))])
    assert graph.reindexed([1, 2, 3]) == graph
    only = graph.reindexed([2, 3])
    assert [(n.value, n.left, n.right) for n in only.nodes] == [(7, 0, 0), (21, 1, 1)]
    # 29 uses 7, so 29 cannot lead.
    with pytest.raises(McmError, match="node 2: operand"):
        FIG_GRAPH.reindexed([2, 1, 3])


def test_verify_acyclicity():
    inst = normalize_targets([5])
    graph = AdderGraph((GraphNode(5, 1, 0, AOperationParams(2, 0, 0, 0)),))
    ok, problems = check_solution(inst, graph)
    assert not ok
    assert any("operand index" in p for p in problems)


# -- signed-digit recoding ----------------------------------------------------


def test_csd_of_29_and_43():
    # 29 = +32 -4 +1, 43 = +64 -16 -4 -1: three and four nonzero digits.
    assert csd_digits(29) == (1, 0, 0, -1, 0, 1)
    assert csd_digits(43) == (1, 0, -1, 0, -1, 0, -1)


def test_csd_reconstruction_and_nonadjacency_exhaustive():
    for value in range(1, 1 << 16, 2):
        digits = csd_digits(value)
        assert sum(d << i for i, d in enumerate(reversed(digits))) == value  # most significant first
        assert all(
            not (digits[i] and digits[i + 1]) for i in range(len(digits) - 1)
        )


def test_csd_minimality_small():
    # Nonzero count never exceeds the plain binary representation's.
    for value in range(1, 512):
        nz = sum(1 for d in csd_digits(value) if d)
        assert nz <= bin(value).count("1")


def test_binary_bound_worked_example():
    inst = normalize_targets([29, 43])
    bounds = recoding_upper_bounds(inst)
    assert bounds.binary == 6
    # Frozen from the digit counts above: (3 - 1) + (4 - 1).
    assert bounds.csd == 5
    assert csd_upper_bound(inst) == 5


def test_csd_bound_single():
    assert csd_upper_bound(normalize_targets([3])) == 1


def test_recoding_witness_verifies():
    for targets in ([29, 43], [3], [45], [33951], [255, 127]):
        inst = normalize_targets(targets)
        graph = recoding_witness(inst)
        assert verify_solution(inst, graph)
        assert graph.cost <= csd_upper_bound(inst)


def test_heuristic_graph_within_bounds_and_encoder_space():
    singles = [normalize_targets([c]) for c in range(3, 256, 2)]
    cases = [(inst, brute_force_optimal(inst)[0]) for inst in singles]
    for inst, optimum in cases + two_target_instances(50):
        graph = heuristic_graph(inst)
        ok, problems = check_solution(inst, graph)
        assert ok, (inst.targets, problems)
        limit = 1 << inst.bit_width
        for node in graph.nodes:
            p = node.params
            assert p.right_shift == 0
            assert max(p.left_shift_1, p.left_shift_2) <= inst.bit_width - 1
            assert graph.node_value(node.left) << p.left_shift_1 < limit
            assert graph.node_value(node.right) << p.left_shift_2 < limit
            assert node.value < limit
        assert optimum <= graph.cost <= recoding_witness(inst).cost


def test_heuristic_graph_shares_across_targets():
    inst = normalize_targets([45, 75, 105])
    assert csd_upper_bound(inst) == 9
    assert heuristic_graph(inst).cost == 4
