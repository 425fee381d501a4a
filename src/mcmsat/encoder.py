"""Builds the decision formula "some adder graph with exactly `ops`
operations realizes every target".

Per operation slot i the candidate values are: a sum of two powers of
two; a difference of two powers of two; for each earlier slot op1 the
three combinations of a shifted earlier result with a power of two; and
for each pair op1 <= op2 the three add/subtract combinations of two
shifted earlier results.  Variant 1 materializes every candidate into
its own vector and selects one; variants 2 and 3 make the candidates
conditional writers into a single output vector, reusing one shift stage
per earlier slot (plus one extra shift per pair, so a pair may combine
two different shift amounts of the same slot) and one power vector per
slot.  Variant 3 additionally reuses a single carry/borrow chain for all
of a slot's conditional adders and subtractors, which is sound because
exactly one of them is enabled.

All three variants build the same adder and subtractor gadgets; a
conditional one is the plain one with each row guarded by its
candidate's condition (see `gadgets`).  `KINDS` states once, for every
add/subtract candidate, whether it subtracts and which operands it
combines; both slot encoders, decoding and the witness phase hints read
it.

Variable allocation order is fixed: binding selectors first (so a
depth-first solver branches on which slot covers each target), then per
slot its candidate conditions, shift stages, power vectors, chain, and
output bits.  Sizes are therefore reproducible and predictable in
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import gadgets
from .gadgets import emit_false, exactly
from .model import AOperationParams, McmError, McmInstance, one_operation_values
from .pb import EQ, GE, SAT, UNSAT, BitVec, PbFormula

EXACTLY2 = "exactly2"
POWER_DIFF = "power_diff"
ADD_SHIFT_POW = "add_shift_pow"
SUB_SHIFT_POW = "sub_shift_pow"
SUB_POW_SHIFT = "sub_pow_shift"
ADD_PAIR = "add_pair"
SUB_PAIR = "sub_pair"
SUB_PAIR_REV = "sub_pair_rev"

# The add/subtract candidates: whether each subtracts, and its two
# operands in gadget order (minuend first) by role.  The roles are e1 and
# e1b, the slot's power vectors; s, op1 shifted; and t, op2's pair shift.
# EXACTLY2 is the one candidate without a gadget: a popcount-2 vector.
KINDS = {
    POWER_DIFF: (True, "e1", "e1b"),
    ADD_SHIFT_POW: (False, "s", "e1"),
    SUB_SHIFT_POW: (True, "s", "e1"),
    SUB_POW_SHIFT: (True, "e1", "s"),
    ADD_PAIR: (False, "s", "t"),
    SUB_PAIR: (True, "s", "t"),
    SUB_PAIR_REV: (True, "t", "s"),
}

# The encoding reductions, by their EncodingConfig field names.
IMPROVEMENTS = (
    "nonzero_sub",
    "skip_odd_target_shift",
    "trivial_precompute",
    "limit_exactly_rows",
    "start_i_at_2",
)


@dataclass(frozen=True)
class EncodingConfig:
    ops: int
    variant: int = 3
    right_shifts: bool = False
    # Encoding reductions; all on by default.
    nonzero_sub: bool = True
    skip_odd_target_shift: bool = True
    trivial_precompute: bool = True
    limit_exactly_rows: bool = True
    start_i_at_2: bool = True
    annotate: bool = False

    def __post_init__(self):
        if self.variant not in (1, 2, 3):
            raise McmError(f"unknown encoding variant {self.variant}")

    def improvements_off(self) -> "EncodingConfig":
        return replace(self, **dict.fromkeys(IMPROVEMENTS, False))


@dataclass(frozen=True)
class Candidate:
    kind: str
    cond: int  # condition variable (variants 2/3) or list selector (variant 1)
    op1: int = 0  # earlier slot index (1-based), 0 when unused
    op2: int = 0


@dataclass(frozen=True)
class PinnedOp:
    slot: int
    value: int
    left_value: int
    right_value: int
    params: AOperationParams


@dataclass(frozen=True)
class PreprocessResult:
    removed: tuple[PinnedOp, ...]
    remaining: tuple[int, ...]
    ops_left: int
    verdict: str | None  # SAT | UNSAT | None


@dataclass
class EncodeResult:
    formula: PbFormula
    inst: McmInstance
    cfg: EncodingConfig
    op_values: list[BitVec] = field(default_factory=list)
    # The vector the candidates write: op_values' own without right shifts.
    pre_shift_values: list[BitVec] = field(default_factory=list)
    candidates: list[list[Candidate]] = field(default_factory=list)
    pinned: tuple[PinnedOp, ...] = ()
    remaining_targets: tuple[int, ...] = ()
    binding: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = field(
        default_factory=list
    )  # (target, member slots, selector vars)
    trivial_verdict: str | None = None
    # Preferred first value per decision variable for the bundled solver:
    # candidate conditions and shift-amount selectors branch to 1 (commit
    # to a candidate / try amount 0 first); everything else defaults 0.
    phase_hints: dict[int, int] = field(default_factory=dict)
    # Variants 2/3: per slot, the shift-amount selectors (keyed by earlier
    # slot, or by (op1, op2) for the pair stages) and the power vectors;
    # lets a caller translate a known adder graph into phase hints.
    slot_shifts: list[dict] = field(default_factory=list)
    slot_powers: list[dict] = field(default_factory=list)


def preprocess_trivial(inst: McmInstance, ops: int) -> PreprocessResult:
    """Iteratively peel off targets reachable by one operation.

    The ready set starts at {1} and grows with each removed target, so
    chains of single-operation targets collapse entirely.  Each removal
    consumes one operation from the budget.  Verdicts: SAT when nothing
    remains within budget, UNSAT when fewer operations remain than
    targets (each distinct odd target needs its own operation), else
    None.
    """
    removed: list[PinnedOp] = []
    remaining = list(inst.targets)
    ready = {1}
    budget = ops
    while remaining and budget > 0:
        options = one_operation_values(ready, inst.bit_width)
        hit = next((t for t in remaining if t in options), None)
        if hit is None:
            break
        u, v, params = options[hit]
        removed.append(PinnedOp(len(removed) + 1, hit, u, v, params))
        remaining.remove(hit)
        ready.add(hit)
        budget -= 1
    if not remaining and budget >= 0:
        verdict = SAT
    elif budget < len(remaining):
        verdict = UNSAT
    else:
        verdict = None
    return PreprocessResult(tuple(removed), tuple(remaining), budget, verdict)


def _single_op_reachable(targets, bit_width: int) -> bool:
    options = one_operation_values({1}, bit_width)
    return any(t in options for t in targets)


class _Session:
    """One encoding run; owns the formula and all allocation bookkeeping."""

    def __init__(self, inst: McmInstance, cfg: EncodingConfig):
        self.inst = inst
        self.cfg = cfg
        self.width = inst.bit_width
        self.f = PbFormula()
        self.result = EncodeResult(self.f, inst, cfg)

    def run(self) -> EncodeResult:
        inst, cfg, res = self.inst, self.cfg, self.result
        if cfg.ops < 1:
            raise McmError("ops must be >= 1")
        if inst.bit_width > 64:
            raise McmError("bit width beyond 64 is not supported")
        if inst.is_empty:
            res.trivial_verdict = SAT
            return res
        if cfg.trivial_precompute:
            pre = preprocess_trivial(inst, cfg.ops)
            res.pinned = pre.removed
            res.remaining_targets = pre.remaining
            if pre.verdict is not None:
                res.trivial_verdict = pre.verdict
                return res
        else:
            res.remaining_targets = inst.targets
        remaining = res.remaining_targets

        # Slots with the two from-scratch candidates (reduction 4).
        if cfg.trivial_precompute and cfg.limit_exactly_rows:
            self.scratch_limit = cfg.ops - len(remaining)
        else:
            self.scratch_limit = cfg.ops
        bind_start = 1
        if cfg.start_i_at_2 and not _single_op_reachable(remaining, self.width):
            bind_start = 2
        members = list(range(bind_start, cfg.ops + 1))

        # Goal variables first: one selector per (target, member slot),
        # allocated in member order: a false-first search then tries
        # covering each target with the LAST slot first, which needs no
        # exhaustive refutations on satisfiable instances.
        bind_selectors = []
        for t in remaining:
            sels = tuple(self.f.new_var() for _ in members)
            bind_selectors.append(sels)
            res.binding.append((t, tuple(members), sels))

        for slot in range(1, cfg.ops + 1):
            self._encode_slot(slot)

        for (t, sels) in zip(remaining, bind_selectors):
            self._bind_target(t, members, sels)
        return res

    # -- slots -----------------------------------------------------------

    def _candidate_list(self, slot: int):
        cands = []
        if slot <= self.scratch_limit:
            cands.append((EXACTLY2, 0, 0))
            cands.append((POWER_DIFF, 0, 0))
        for op1 in range(1, slot):
            cands.append((ADD_SHIFT_POW, op1, 0))
            cands.append((SUB_SHIFT_POW, op1, 0))
            cands.append((SUB_POW_SHIFT, op1, 0))
        for op1 in range(1, slot):
            for op2 in range(op1, slot):
                cands.append((ADD_PAIR, op1, op2))
                cands.append((SUB_PAIR, op1, op2))
                cands.append((SUB_PAIR_REV, op1, op2))
        return cands

    def _encode_slot(self, slot: int) -> None:
        if self.cfg.variant == 1:
            self._encode_slot_v1(slot)
        else:
            self._encode_slot_shared(slot)
        pin = next((p for p in self.result.pinned if p.slot == slot), None)
        if pin is not None:
            gadgets.encode_const(self.f, self.result.op_values[slot - 1], pin.value)

    def _mark_selectors(self, sels) -> None:
        for v in sels:
            self.result.phase_hints[v] = 1

    def _note(self, slot, kind, op1, op2):
        if not self.cfg.annotate:
            return None
        tail = f"({op1},{op2})" if op2 else (f"(op{op1})" if op1 else "")
        return f"slot {slot} candidate {kind}{tail}"

    def _shifted(self, slot: int) -> tuple[BitVec, BitVec]:
        """A fresh vector equal to `slot`'s value shifted left by a
        solver-chosen amount, and that amount's one-hot selectors."""
        out = self.f.new_bitvec(self.width)
        sels = gadgets.encode_shift(self.f, out, self.result.op_values[slot - 1])
        self._mark_selectors(sels)
        return out, sels

    def _nonzero_difference(self, e1: BitVec, e1b: BitVec) -> None:
        """The two powers of the power-difference candidate differ."""
        gadgets.encode_not_both(self.f, e1, e1b)

    def _output_vectors(self) -> tuple[BitVec, BitVec]:
        """The vector the candidates write, and the slot's value: the same
        vector, or with right shifts a second one it is shifted into."""
        pre = self.f.new_bitvec(self.width)
        return pre, (self.f.new_bitvec(self.width) if self.cfg.right_shifts else pre)

    def _finish_slot(self, pre, out, candidates, shifts, powers) -> None:
        if self.cfg.right_shifts:
            self._mark_selectors(gadgets.encode_shift(self.f, out, pre, "right"))
        res = self.result
        res.op_values.append(out)
        res.pre_shift_values.append(pre)
        res.candidates.append(candidates)
        res.slot_shifts.append(shifts)
        res.slot_powers.append(powers)

    def _encode_slot_shared(self, slot: int) -> None:
        """Variants 2 and 3: conditional writers into one output vector."""
        f, n, cfg = self.f, self.width, self.cfg
        kinds = self._candidate_list(slot)
        scratch = slot <= self.scratch_limit
        conds = [f.new_var() for _ in kinds]
        has_addsub = any(k != EXACTLY2 for k, _, _ in kinds)

        for cond in conds:
            self.result.phase_hints[cond] = 1

        # Shift stages before the power vectors: once a shift amount is
        # chosen, ripple propagation pins the matching power, so the
        # search branches on amounts rather than on power positions.
        # Keyed by op1 for role s and by (op1, op2) for role t.
        stages = [(op1, op1) for op1 in range(1, slot)]
        stages += [((op1, op2), op2) for op1 in range(1, slot) for op2 in range(op1, slot)]
        shifted: dict = {}
        shift_sels: dict = {}
        for key, src in stages:
            shifted[key], shift_sels[key] = self._shifted(src)

        e1 = exactly(f, 1, n) if (scratch or slot > 1) else None
        e1b = exactly(f, 1, n) if scratch else None
        e2 = exactly(f, 2, n) if scratch else None
        if scratch and cfg.nonzero_sub:
            self._nonzero_difference(e1, e1b)

        shared_chain = None
        if cfg.variant == 3 and has_addsub and n >= 2:
            shared_chain = tuple(f.new_var() for _ in range(n - 1))

        pre, out = self._output_vectors()
        for (kind, op1, op2), cond in zip(kinds, conds):
            note = self._note(slot, kind, op1, op2)
            if note:
                f.annotations[len(f.bounds)] = note
            if kind == EXACTLY2:
                gadgets.encode_cond_copies(f, cond, e2, pre)
                continue
            subtract, x, y = KINDS[kind]
            vec = {"e1": e1, "e1b": e1b, "s": shifted.get(op1), "t": shifted.get((op1, op2))}
            gadget = gadgets.encode_subtractor if subtract else gadgets.encode_adder
            gadget(f, pre, vec[x], vec[y], cond, shared_chain)
        if conds:
            f.add(
                tuple((1, c) for c in conds),
                EQ,
                1,
                note=f"slot {slot} selector" if cfg.annotate else None,
            )
        else:
            emit_false(f)
        candidates = [Candidate(k, c, o1, o2) for (k, o1, o2), c in zip(kinds, conds)]
        self._finish_slot(pre, out, candidates, shift_sels, {"e1": e1, "e1b": e1b, "e2": e2})

    def _encode_slot_v1(self, slot: int) -> None:
        """Variant 1: every candidate in its own vector, then one is chosen."""
        f, n, cfg = self.f, self.width, self.cfg
        kinds = self._candidate_list(slot)
        # The chosen-one constraint is >= 1, so selectors keep phase 0
        # (a true-first selector would drag every other candidate vector
        # along); reversed allocation still explores candidates in line
        # order.
        rev = [f.new_var() for _ in kinds]
        selectors = list(reversed(rev))

        vectors: list[BitVec] = []
        for kind, op1, op2 in kinds:
            if kind == EXACTLY2:
                vectors.append(exactly(f, 2, n))
                continue
            subtract, x, y = KINDS[kind]
            # Each candidate owns one vector per role, allocated s, t, e1, e1b.
            vec = {}
            if "s" in (x, y):
                vec["s"], _ = self._shifted(op1)
            if "t" in (x, y):
                vec["t"], _ = self._shifted(op2)
            for role in ("e1", "e1b"):
                if role in (x, y):
                    vec[role] = exactly(f, 1, n)
            if kind == POWER_DIFF and cfg.nonzero_sub:
                self._nonzero_difference(vec["e1"], vec["e1b"])
            out = f.new_bitvec(n)
            gadget = gadgets.encode_subtractor if subtract else gadgets.encode_adder
            gadget(f, out, vec[x], vec[y])
            vectors.append(out)

        chosen, out = self._output_vectors()
        if vectors:
            f.add(tuple((1, s) for s in selectors), GE, 1)
            for sel, member in zip(selectors, vectors):
                gadgets.encode_cond_copies(f, sel, member, chosen)
        else:
            emit_false(f)
        candidates = [Candidate(k, s, o1, o2) for (k, o1, o2), s in zip(kinds, selectors)]
        self._finish_slot(chosen, out, candidates, {}, {})

    # -- target binding ----------------------------------------------------

    def _bind_target(self, target: int, members, selectors) -> None:
        """At least one member slot (possibly left shifted) equals the target.

        Targets are odd after normalization, so with the odd-target
        reduction the shift stage is dropped and slots bind directly.
        """
        f, cfg = self.f, self.cfg
        if not members:
            emit_false(f)
            return
        if cfg.skip_odd_target_shift:
            vecs = [self.result.op_values[i - 1] for i in members]
        else:
            vecs = [self._shifted(i)[0] for i in members]
        f.add(tuple((1, s) for s in selectors), GE, 1,
              note=f"target {target}" if cfg.annotate else None)
        for sel, vec in zip(selectors, vecs):
            gadgets.encode_const(f, vec, target, sel)


def encode_mcm(inst: McmInstance, cfg: EncodingConfig) -> EncodeResult:
    return _Session(inst, cfg).run()


# -- closed-form size prediction -------------------------------------------


def _gadget_rows(n: int) -> dict[str, int]:
    adder = 10 * n - 5 if n >= 2 else 5
    sub = 10 * n - 3 if n >= 2 else 5
    return {
        "adder": adder,
        "sub": sub,
        "shift": 1 + 2 * n * n,
        "chain": n - 1 if n >= 2 else 0,
    }


def predict_size(
    ops: int,
    bit_width: int,
    variant: int = 3,
    n_targets: int = 1,
    cfg: EncodingConfig | None = None,
) -> tuple[int, int]:
    """Exact variable/constraint counts for an instance that survives
    preprocessing intact (no pinned slots, all targets odd).

    Mirrors the construction arithmetic; validated against stats() of
    real encodings in the test suite.
    """
    if cfg is None:
        cfg = EncodingConfig(ops=ops, variant=variant)
    n = bit_width
    g = _gadget_rows(n)
    scratch_limit = (
        ops - n_targets if (cfg.trivial_precompute and cfg.limit_exactly_rows) else ops
    )
    bind_start = 2 if cfg.start_i_at_2 else 1
    members = max(0, ops - bind_start + 1)

    vars_total = n_targets * members  # binding selectors
    rows_total = 0
    trio = g["adder"] + 2 * g["sub"]

    for i in range(1, ops + 1):
        scratch = i <= scratch_limit
        pairs = (i - 1) * i // 2
        cands = (2 if scratch else 0) + 3 * (i - 1) + 3 * pairs
        shifts = (i - 1) + pairs
        has_e1 = scratch or i > 1
        addsub = cands - (1 if scratch else 0)

        if variant in (2, 3):
            vars_total += cands  # conditions
            vars_total += n  # output vector
            vars_total += n if has_e1 else 0
            vars_total += 2 * n if scratch else 0  # second power + two-power vec
            vars_total += shifts * 2 * n
            if variant == 3:
                vars_total += g["chain"] if addsub else 0
            else:
                vars_total += g["chain"] * addsub
            rows_total += shifts * g["shift"]
            if scratch:
                rows_total += 1 + 2 * n  # exactly(2) + conditional copy
                rows_total += 2 + g["sub"]  # two exactly(1) rows + subtractor
                rows_total += n if cfg.nonzero_sub else 0
            elif has_e1:
                rows_total += 1
            rows_total += ((i - 1) + pairs) * trio
            rows_total += 1 if cands else 2  # selector row, or contradiction
            vars_total += 0 if cands else 1
        else:
            vars_total += cands  # list selectors
            vars_total += n  # chosen vector
            if scratch:
                vars_total += n  # two-power candidate
                vars_total += 3 * n + g["chain"]  # power-difference block
            # shifted source + amount selectors + power + result + chain
            vars_total += 3 * (i - 1) * (4 * n + g["chain"])
            # two full shift stages + result + chain
            vars_total += 3 * pairs * (5 * n + g["chain"])
            if scratch:
                rows_total += 1  # exactly(2)
                rows_total += 2 + g["sub"] + (n if cfg.nonzero_sub else 0)
            rows_total += (i - 1) * (3 * g["shift"] + 3 + trio)
            rows_total += pairs * (6 * g["shift"] + trio)
            if cands:
                rows_total += 1 + 2 * n * cands
            else:
                rows_total += 2
                vars_total += 1
        if cfg.right_shifts:
            vars_total += 2 * n  # pre-shift vector + amount selectors
            rows_total += g["shift"]

    for _ in range(n_targets):
        if members == 0:
            rows_total += 2
            vars_total += 1
            continue
        if not cfg.skip_odd_target_shift:
            vars_total += members * 2 * n
            rows_total += members * g["shift"]
        rows_total += 1 + n * members
    return vars_total, rows_total
