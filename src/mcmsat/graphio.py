"""Text formats: instance files (one constant per line, # comments, with
optional `# key: value` directives) and adder-graph files (one operation
per line, `value = u<<l1 +|- v<<l2 [>>r]`, operands referenced by value).
"""

from __future__ import annotations

import re

from .model import AdderGraph, AOperationParams, McmError

_DIRECTIVE_RE = re.compile(r"#\s*([a-zA-Z_][\w-]*)\s*:\s*(.+?)\s*$")
_NODE_RE = re.compile(
    r"^(\d+)\s*=\s*(\d+)\s*(?:<<\s*(\d+))?\s*([+-])\s*(\d+)\s*(?:<<\s*(\d+))?"
    r"\s*(?:>>\s*(\d+))?\s*$"
)


def parse_instance(text: str) -> tuple[list[int], dict[str, str]]:
    """Raw constants plus `# key: value` directives (ops, seed, ...)."""
    values: list[int] = []
    directives: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _DIRECTIVE_RE.match(line)
            if m:
                directives[m.group(1)] = m.group(2)
            continue
        try:
            values.append(int(line))
        except ValueError as exc:
            raise McmError(f"bad instance line {lineno}: {raw!r}") from exc
    return values, directives


def format_instance(values, directives: dict | None = None) -> str:
    lines = []
    for key, value in (directives or {}).items():
        lines.append(f"# {key}: {value}")
    lines.extend(str(v) for v in values)
    return "\n".join(lines) + "\n"


def _operand(value: int, shift: int) -> str:
    return f"{value}<<{shift}" if shift else str(value)


def format_graph(graph: AdderGraph) -> str:
    """One operation per line; operands written so the text is non-negative."""
    lines = []
    for node in graph.nodes:
        p = node.params
        if p is None:
            raise McmError("graph node lacks operation parameters")
        u = graph.node_value(node.left)
        v = graph.node_value(node.right)
        first, fs, second, ss = u, p.left_shift_1, v, p.left_shift_2
        if p.sign == 1 and (u << fs) < (v << ss):
            first, fs, second, ss = second, ss, first, fs
        line = f"{node.value} = {_operand(first, fs)} {'-' if p.sign else '+'} {_operand(second, ss)}"
        if p.right_shift:
            line += f" >>{p.right_shift}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> AdderGraph:
    """The graph of format_graph's text; McmError names the first bad line."""
    lineno = 0

    def steps():
        nonlocal lineno
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            m = _NODE_RE.match(line)
            if not m:
                raise McmError(repr(raw))
            value, u, l1, op, v, l2, r = m.groups()
            params = AOperationParams(int(l1 or 0), int(l2 or 0), int(r or 0), int(op == "-"))
            yield int(value), int(u), int(v), params

    try:
        return AdderGraph.from_steps(steps())
    except McmError as exc:
        raise McmError(f"bad graph line {lineno}: {exc}") from None
