"""Problem semantics for multiplierless constant multiplication.

A constant set is realized by a chain of add/subtract operations over
shifted earlier values (the node operation: |(u << l1) +/- (v << l2)| >> r,
with node 0 being the constant 1).  The cost of a solution is the number
of such operations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product


class McmError(Exception):
    """Domain error: bad operands, malformed instance, or invalid graph."""


@dataclass(frozen=True)
class McmInstance:
    """Normalized target set: positive, odd, pairwise distinct constants.

    bit_width is the number of bits of the largest target plus one;
    source_map records (raw, normalized-or-None) pairs for reporting.
    """

    targets: tuple[int, ...]
    bit_width: int
    source_map: tuple[tuple[int, int | None], ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.targets


@dataclass(frozen=True)
class AOperationParams:
    left_shift_1: int = 0
    left_shift_2: int = 0
    right_shift: int = 0
    sign: int = 0  # 0 add, 1 subtract

    def __post_init__(self):
        if self.left_shift_1 < 0 or self.left_shift_2 < 0 or self.right_shift < 0:
            raise McmError("negative shift")
        if self.sign not in (0, 1):
            raise McmError("sign must be 0 or 1")


@dataclass(frozen=True)
class GraphNode:
    """value = |(left << l1) +/- (right << l2)| >> r, operands by node index."""

    value: int
    left: int
    right: int
    params: AOperationParams | None = None


@dataclass(frozen=True)
class AdderGraph:
    """Operation list; index 0 is the implicit constant 1, nodes start at 1."""

    nodes: tuple[GraphNode, ...] = ()

    @property
    def cost(self) -> int:
        return len(self.nodes)

    def node_value(self, index: int) -> int:
        return 1 if index == 0 else self.nodes[index - 1].value

    def values(self) -> tuple[int, ...]:
        return tuple(n.value for n in self.nodes)

    @classmethod
    def from_steps(cls, steps) -> AdderGraph:
        """Graph of (value, u, v, params) steps whose operands are named by value.

        An operand is the first node holding its value, or node 0 for 1;
        McmError when no earlier step made it.
        """
        index_of = {1: 0}
        nodes: list[GraphNode] = []
        for value, u, v, params in steps:
            if u not in index_of or v not in index_of:
                raise McmError(f"operand of {value} not made by an earlier step")
            nodes.append(GraphNode(value, index_of[u], index_of[v], params))
            index_of.setdefault(value, len(nodes))
        return cls(tuple(nodes))

    def reindexed(self, order) -> AdderGraph:
        """The nodes at the listed indices, in that order, operands remapped.

        McmError when an operand is not listed before the node using it.
        """
        new_index = {0: 0}
        nodes: list[GraphNode] = []
        for old in order:
            n = self.nodes[old - 1]
            if n.left not in new_index or n.right not in new_index:
                raise McmError(f"node {old}: operand not listed before it")
            nodes.append(GraphNode(n.value, new_index[n.left], new_index[n.right], n.params))
            new_index[old] = len(nodes)
        return AdderGraph(tuple(nodes))


def normalize_targets(raw) -> McmInstance:
    """Map each value to its positive odd part, drop 0/1/duplicates.

    Powers of two reduce to 1 and cost nothing, so an input of only
    powers of two yields an empty instance with optimal cost 0.
    """
    raw = list(raw)
    if not raw:
        raise McmError("empty input")
    targets: list[int] = []
    seen: set[int] = set()
    source_map: list[tuple[int, int | None]] = []
    for value in raw:
        v = abs(int(value))
        while v and v % 2 == 0:
            v //= 2
        if v <= 1:
            source_map.append((value, None))
            continue
        source_map.append((value, v))
        if v not in seen:
            seen.add(v)
            targets.append(v)
    if not targets:
        return McmInstance((), 1, tuple(source_map))
    width = max(targets).bit_length() + 1
    return McmInstance(tuple(targets), width, tuple(source_map))


def apply_a_operation(u: int, v: int, p: AOperationParams) -> int:
    """Evaluate one operation; the pre-shift value must be divisible by 2^r."""
    if u < 1 or v < 1:
        raise McmError("operands must be >= 1")
    pre = (u << p.left_shift_1) + (-1) ** p.sign * (v << p.left_shift_2)
    pre = abs(pre)
    if pre == 0:
        raise McmError("degenerate zero result")
    if pre % (1 << p.right_shift) != 0:
        raise McmError("invalid r: right shift drops set bits")
    return pre >> p.right_shift


def _shifted_sums(u: int, v: int, max_shift: int, width: int | None = None, signs=(0, 1)):
    """(l1, l2, sign, |(u << l1) +/- (v << l2)|) for every nonzero result.

    Shifts run up to max_shift, in order l1, l2, sign; with a width,
    shifted operands stay below 2^width, as in the encoder's N-bit shift
    stages.
    """
    top1 = top2 = max_shift
    if width is not None:
        top1 = min(max_shift, width - u.bit_length())
        top2 = min(max_shift, width - v.bit_length())
    for l1 in range(top1 + 1):
        su = u << l1
        for l2 in range(top2 + 1):
            sv = v << l2
            for sign in signs:
                pre = abs(su - sv) if sign else su + sv
                if pre:
                    yield l1, l2, sign, pre


def exact_right_shift(pre: int, value: int, max_shift: int) -> int | None:
    """The r <= max_shift with pre == value << r, or None."""
    r = pre.bit_length() - value.bit_length()
    return r if 0 <= r <= max_shift and value << r == pre else None


def _add_operations(found: dict, pairs, bit_width: int, right_shifts: bool) -> None:
    """Give found each value below 2^bit_width that one operation on a pair reaches.

    A value already in found keeps its witness; a new one gets the first
    (u, v, params) in pair order, then shift order, then r.
    """
    limit = 1 << bit_width
    max_shift = bit_width - 1
    shifts = range(max_shift + 1 if right_shifts else 1)
    for u, v in pairs:
        for l1, l2, sign, pre in _shifted_sums(u, v, max_shift, bit_width):
            for r in shifts:
                if pre < limit and pre not in found:
                    found[pre] = (u, v, AOperationParams(l1, l2, r, sign))
                if pre % 2:
                    break
                pre //= 2


def one_operation_values(base, bit_width: int, right_shifts: bool = False) -> dict:
    """All values reachable from `base` by a single operation.

    Returns {value: (u, v, params)} with a deterministic first witness
    per value.  Shift amounts range over [0, bit_width - 1]; shifted
    operands and results are restricted to (0, 2^bit_width).
    """
    found: dict[int, tuple[int, int, AOperationParams]] = {}
    _add_operations(found, product(sorted(base), repeat=2), bit_width, right_shifts)
    return found


def find_params(
    u: int, v: int, value: int, max_shift: int, right_shifts: bool, signs=(0, 1)
):
    """First shift assignment, over the given signs, realizing value from (u, v).

    Shifts are tried in order sign, l1, l2, r, smallest first; None when
    no assignment with shifts up to max_shift works.
    """
    max_r = max_shift if right_shifts else 0
    for sign in signs:
        for l1, l2, _, pre in _shifted_sums(u, v, max_shift, signs=(sign,)):
            r = exact_right_shift(pre, value, max_r)
            if r is not None:
                return AOperationParams(l1, l2, r, sign)
    return None


def check_solution(inst: McmInstance, graph: AdderGraph) -> tuple[bool, list[str]]:
    """Full validity check with diagnostics for every failing node."""
    problems: list[str] = []
    max_shift = inst.bit_width - 1
    for k, node in enumerate(graph.nodes, start=1):
        if node.value < 1:
            problems.append(f"node {k}: value {node.value} is not positive")
            continue
        if not (0 <= node.left < k and 0 <= node.right < k):
            problems.append(f"node {k}: operand index out of range")
            continue
        u = graph.node_value(node.left)
        v = graph.node_value(node.right)
        if node.params is not None:
            p = node.params
            if max(p.left_shift_1, p.left_shift_2, p.right_shift) > max_shift:
                problems.append(f"node {k}: shift exceeds {max_shift}")
                continue
            try:
                got = apply_a_operation(u, v, p)
            except McmError as exc:
                problems.append(f"node {k}: {exc}")
                continue
            if got != node.value:
                problems.append(
                    f"node {k}: operation yields {got}, node claims {node.value}"
                )
        else:
            if find_params(u, v, node.value, max_shift, right_shifts=True) is None:
                problems.append(
                    f"node {k}: {node.value} unreachable from ({u}, {v})"
                )
    covered = {1} | set(graph.values())
    for t in inst.targets:
        if t not in covered:
            problems.append(f"target {t} not covered")
    return not problems, problems


def verify_solution(inst: McmInstance, graph: AdderGraph) -> bool:
    ok, _ = check_solution(inst, graph)
    return ok


def csd_digits(value: int) -> tuple[int, ...]:
    """Canonical signed digits of a positive integer, most significant first.

    Non-adjacent form: no two consecutive nonzero digits, minimal
    nonzero count among signed-digit representations.
    """
    if value < 1:
        raise McmError("csd requires a positive value")
    digits: list[int] = []
    c = value
    while c:
        if c & 1:
            d = 2 - (c & 3)  # +1 if c % 4 == 1 else -1
            digits.append(d)
            c -= d
        else:
            digits.append(0)
        c >>= 1
    return tuple(reversed(digits))


@dataclass(frozen=True)
class RecodingBounds:
    csd: int
    binary: int


def recoding_upper_bounds(inst: McmInstance) -> RecodingBounds:
    """Per-target digit-recoding operation counts, summed.

    Each target costs (number of nonzero digits - 1) operations when
    decomposed digit by digit; CSD digits give the tighter bound, plain
    binary is reported alongside.
    """
    csd_total = 0
    binary_total = 0
    for t in inst.targets:
        csd_total += sum(1 for d in csd_digits(t) if d) - 1
        binary_total += bin(t).count("1") - 1
    return RecodingBounds(csd_total, binary_total)


def csd_upper_bound(inst: McmInstance) -> int:
    return recoding_upper_bounds(inst).csd


def recoding_witness(inst: McmInstance) -> AdderGraph:
    """Adder graph realizing every target by its CSD decomposition.

    Digits are folded most significant first, so every partial sum stays
    positive and below 2^bit_width.  Costs exactly csd_upper_bound ops
    (fewer when partial sums repeat across targets).
    """
    steps: dict[int, tuple] = {}  # value -> (u, v, params), the first way found
    for t in inst.targets:
        digits = csd_digits(t)
        width = len(digits)
        positions = [
            (width - 1 - i, d) for i, d in enumerate(digits) if d
        ]  # (power, sign digit), MSB first
        # The accumulator is u << shift: node 0 shifted until the first step.
        u, shift = 1, positions[0][0]
        for power, d in positions[1:]:
            value = (u << shift) + d * (1 << power)
            steps.setdefault(value, (u, 1, AOperationParams(shift, power, sign=int(d < 0))))
            u, shift = value, 0
        if u << shift != t:  # single-digit target: power of two, already node 0
            raise McmError(f"recoding witness failed for {t}")
    return AdderGraph.from_steps((value, *how) for value, how in steps.items())


def _csd_runs(value: int) -> dict[int, int]:
    """Odd values of each run of consecutive nonzero CSD digits of value.

    Maps each to its digit count: a value of R that is such a run of a
    target has built that many of the target's digits.
    """
    digits = [(p, d) for p, d in enumerate(reversed(csd_digits(value))) if d]
    runs: dict[int, int] = {}
    for i, (low, _) in enumerate(digits):
        acc = 0
        for j in range(i, len(digits)):
            power, d = digits[j]
            acc += d << (power - low)
            runs[abs(acc)] = j - i + 1
    return runs


def _partners(t: int, ready, bit_width: int) -> set[int]:
    """Values s that put t one operation from ready | {s}, as in Hcub's A*.

    t = |(s << a) +/- (r << b)| gives s << a in {t - r<<b, r<<b - t,
    t + r<<b}, and t = |(s << a) +/- s| gives s = t / (2^a +/- 1);
    shifted operands stay below 2^bit_width as in one_operation_values.
    """
    limit = 1 << bit_width
    out: set[int] = set()
    for r in ready:
        w = r
        while w < limit:
            for x in (t - w, w - t, t + w):
                while 0 < x < limit:
                    out.add(x)
                    x = 0 if x & 1 else x >> 1
            w <<= 1
    for a in range(1, bit_width):  # t is odd, so b = 0
        for m in ((1 << a) + 1, (1 << a) - 1):
            if t % m == 0 and (t // m) << a < limit:
                out.add(t // m)
    return out


def heuristic_graph(inst: McmInstance) -> AdderGraph:
    """Greedy adder graph after Hcub and RAG-n; never costlier than CSD.

    From the ready set {1}, each step adds the smallest target one
    operation away, or else the successor that puts the most remaining
    targets one operation away; ties go to the one that leaves the
    remaining targets the fewest CSD digits to build (a successor that is
    a run of a target's digits builds that many), then to the smaller
    value.  Every node comes from one_operation_values, so the graph
    stays inside the encoder's space.  Returns recoding_witness(inst)
    when the greedy graph would cost more.
    """
    witness = recoding_witness(inst)
    remaining = set(inst.targets)
    runs = {t: _csd_runs(t) for t in remaining}
    ready = {1}
    steps: list[tuple] = []
    options = one_operation_values(ready, inst.bit_width)
    while remaining and len(steps) < witness.cost:
        value = min((t for t in remaining if t in options), default=None)
        if value is None:
            score, gain = Counter(), Counter()
            for t in remaining:
                score.update(_partners(t, ready, inst.bit_width))
                built = max(runs[t].get(x, 0) for x in ready)
                for x, digits in runs[t].items():  # digits of t that x adds
                    gain[x] += max(0, digits - built)
            value = min(options.keys() - ready, key=lambda s: (-score[s], -gain[s], s))
        steps.append((value, *options[value]))
        ready.add(value)
        remaining.discard(value)
        for x in ready:  # only pairs with the new value reach new values
            pair = sorted({x, value})
            news = [(a, b) for a in pair for b in pair if value in (a, b)]
            _add_operations(options, news, inst.bit_width, right_shifts=False)
    return witness if remaining else AdderGraph.from_steps(steps)
