import pytest

from mcmsat.graphio import (
    format_graph,
    format_instance,
    parse_graph,
    parse_instance,
)
from mcmsat.model import (
    AdderGraph,
    AOperationParams,
    GraphNode,
    McmError,
    normalize_targets,
    verify_solution,
)


def test_parse_instance_comments_and_directives():
    values, directives = parse_instance(
        "# generated\n# ops: 17\n# seed: 3\n29\n43\n\n# trailing\n"
    )
    assert values == [29, 43]
    assert directives["ops"] == "17"
    assert directives["seed"] == "3"


def test_parse_instance_bad_line():
    with pytest.raises(McmError, match="line 2"):
        parse_instance("29\nforty-three\n")


def test_instance_round_trip():
    text = format_instance([29, 43], {"ops": 3})
    values, directives = parse_instance(text)
    assert values == [29, 43] and directives == {"ops": "3"}


def test_graph_round_trip():
    graph = AdderGraph(
        (
            GraphNode(7, 0, 0, AOperationParams(3, 0, 0, 1)),
            GraphNode(29, 1, 0, AOperationParams(2, 0, 0, 0)),
            GraphNode(43, 1, 2, AOperationParams(1, 0, 0, 0)),
        )
    )
    text = format_graph(graph)
    assert text.splitlines() == ["7 = 1<<3 - 1", "29 = 7<<2 + 1", "43 = 7<<1 + 29"]
    parsed = parse_graph(text)
    assert verify_solution(normalize_targets([29, 43]), parsed)
    assert format_graph(parsed) == text


def test_graph_negative_order_swapped_for_display():
    # sign=1 with first operand smaller prints swapped so the text stays
    # non-negative.
    graph = AdderGraph((GraphNode(7, 0, 0, AOperationParams(0, 3, 0, 1)),))
    assert format_graph(graph).strip() == "7 = 1<<3 - 1"


def test_graph_right_shift_round_trip():
    graph = AdderGraph((GraphNode(3, 0, 0, AOperationParams(2, 1, 1, 0)),))
    text = format_graph(graph)
    assert ">>1" in text
    parsed = parse_graph(text)
    assert parsed.nodes[0].value == 3
    assert parsed.nodes[0].params.right_shift == 1


def test_parse_graph_undefined_operand():
    with pytest.raises(McmError, match="operand"):
        parse_graph("29 = 7<<2 + 1\n")


def test_parse_graph_names_the_line_of_an_undefined_operand():
    text = "# 29 from 7\n\n7 = 1<<3 - 1\n29 = 7<<2 + 1\n43 = 7<<1 + 29\n45 = 15<<2 - 15\n"
    with pytest.raises(McmError, match=r"^bad graph line 6: operand of 45"):
        parse_graph(text)


def test_parse_graph_bad_syntax():
    with pytest.raises(McmError, match="bad graph line"):
        parse_graph("29 := 7 + 1\n")
