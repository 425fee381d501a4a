"""Constraint gadgets over bit vectors: ripple adders/subtractors
(plain, conditional, and conditional with a shared carry/borrow chain),
barrel shifts by a solver-chosen amount, constants and popcount pins.

A vector and a carry/borrow chain are plain tuples of variables, the
most significant bit first.  Chains have length N-1; chain[i] feeds
result bit i and is defined from the operands at position i+1.  Emission
order within each gadget is fixed so formulas are reproducible.  Rows
are written per gadget in blocks, in that order: a per-bit loop of rows
of one length is one block.

The adders, subtractors and shifts, which write nearly every row of an
encoding, are written from a template per shape (see `_templated`): the
gadget's body runs once per shape against a recording formula, and every
call appends the recorded rows, its own variables substituted, as one
checked `PbFormula.add_rows` call per run of one relation.  A templated
gadget takes its arguments by position only.  A refused gadget leaves
the formula as it was.

A conditional gadget writes the same rows as the plain one, each behind
a guard: "this row holds only while cond is true" is the prefix term
(-w, cond) with the row's bound lowered by w, where w is how far the row
can fall short (1 for a clause, 2 for most carry and borrow rows).  A
fresh chain is a function of the operands, so its rows stay unguarded;
only a shared chain is guarded.
"""

from __future__ import annotations

from functools import cache, wraps
from itertools import chain, groupby, repeat
from operator import itemgetter, mul, sub

from .pb import EQ, RELATIONS, BitVec, PbError, PbFormula, bits_of


# Row tables: one row per (coefficients, bound), over one bit of each
# operand vector in turn.
_XOR2 = (((-1, 1, 1), 0), ((-1, -1, -1), -2), ((1, 1, -1), 0), ((1, -1, 1), 0))  # a <-> b xor c
_XOR3 = (  # a <-> b xor c xor d
    ((-1, 1, 1, 1), 0), ((-1, 1, -1, -1), -2), ((-1, -1, 1, -1), -2), ((-1, -1, -1, 1), -2),
    ((1, -1, -1, -1), -2), ((1, -1, 1, 1), 0), ((1, 1, -1, 1), 0), ((1, 1, 1, -1), 0),
)
_EQUAL = (((-1, 1), 0), ((1, -1), 0))  # b <-> c


def _rows(f: PbFormula, cols: tuple, cond: int | None, w: int, *table) -> None:
    """One block: for each bit i in turn, a row per (coefficients, bound)
    of `table` over the variables col[i] of `cols`, each behind the guard
    (cond, w)."""
    bits = list(zip(*cols)) if cond is None else list(zip(repeat(cond), *cols))
    if bits:
        coefs, bounds = _shape(table, None if cond is None else w)
        f.add_rows(len(bits[0]), coefs * len(bits), list(chain.from_iterable(
            map(mul, bits, repeat(len(table))))), bounds * len(bits))


@cache
def _shape(table: tuple, w: int | None) -> tuple[list, list]:
    """A table's coefficients, row after row, and its bounds; behind a
    guard of weight w unless w is None."""
    if w is not None:
        table = [((-w, *coefs), bound - w) for coefs, bound in table]
    return [c for coefs, _ in table for c in coefs], [bound for _, bound in table]


def _picker(indices):
    """The tuple of a sequence's items at `indices`, in one C-level call."""
    if len(indices) == 1:
        return lambda seq, i=indices[0]: (seq[i],)
    return itemgetter(*indices) if indices else lambda seq: ()


class _Template:
    """A gadget's rows for one shape, recorded over placeholder variables:
    1 to p for the inputs, in argument order, then p + 1 on for the fresh
    variables, in allocation order."""

    def __init__(self, body, key):
        rec, held = PbFormula(), []
        for k in key:  # the placeholders of an argument
            if isinstance(k, int):
                k = rec.new_var() if k < 0 else tuple(rec.new_var() for _ in range(k))
            held.append(k)
        inputs = rec.var_count
        returned = body(rec, *held)
        self.fresh = rec.var_count - inputs
        self.returned = None if returned is None else _picker(returned)
        self.runs = []  # per run of rows of one relation: lengths, terms, bounds
        ptr, lo = rec.row_ptr, 0
        for code, rows in groupby(rec.relations):
            hi = lo + len(list(rows))
            terms = slice(ptr[lo], ptr[hi])
            self.runs.append((list(map(sub, ptr[lo + 1:hi + 1], ptr[lo:hi])), rec.coefs[terms],
                              _picker(rec.vars[terms]), rec.bounds[lo:hi], RELATIONS[code]))
            lo = hi

    def replay(self, f: PbFormula, vals: list):
        """Append the rows to f, placeholder v standing for vals[v] for an
        input and for a fresh variable of f for the rest; what the gadget
        returns."""
        base, nrows = f.var_count, len(f.bounds)
        vals.extend(range(base + 1, base + self.fresh + 1))
        f.var_count += self.fresh
        try:
            for lengths, coefs, pick, bounds, relation in self.runs:
                f.add_rows(lengths, coefs, pick(vals), bounds, relation)
        except PbError:
            f.cut(nrows)
            f.var_count = base
            raise
        return None if self.returned is None else self.returned(vals)


def _templated(body):
    """Write the gadget from a template per shape.

    The shape is, for each argument, None or a str (a shift's direction)
    as it is, -1 for one variable and its length for a vector.  The first
    call of a shape records the body (`_Template`).
    """
    templates: dict = {}

    @wraps(body)
    def gadget(f, *args):
        key, vals = [], [0]
        for a in args:
            if a is None or isinstance(a, str):
                key.append(a)
            elif isinstance(a, int):
                key.append(-1)
                vals.append(a)
            else:
                key.append(len(a))
                vals.extend(a)
        key = tuple(key)
        if (template := templates.get(key)) is None:
            template = templates[key] = _Template(body, key)
        return template.replay(f, vals)

    return gadget


def encode_cond_copies(f: PbFormula, cond: int, b: BitVec, c: BitVec) -> None:
    """cond -> (b[i] <-> c[i]) for every bit i."""
    _rows(f, (b, c), cond, 1, *_EQUAL)


def _check_widths(*vecs: BitVec) -> int:
    width = len(vecs[0])
    for v in vecs[1:]:
        if len(v) != width:
            raise PbError("bit vector width mismatch")
    return width


def _chain_for(f: PbFormula, width: int, cond: int | None, shared: BitVec | None) -> BitVec:
    if shared is not None:
        if cond is None:
            raise PbError("a shared chain requires a condition")
        if len(shared) != width - 1:
            raise PbError("shared chain length mismatch")
        return shared
    return tuple(f.new_var() for _ in range(width - 1))


def _sum_bits(f, out: BitVec, b: BitVec, c: BitVec, d: BitVec, cond) -> None:
    """out[i] = b[i] xor c[i] xor d[i]; the LSB has no incoming chain bit."""
    _rows(f, (out[:-1], b[:-1], c[:-1], d), cond, 1, *_XOR3)
    _rows(f, (out[-1:], b[-1:], c[-1:]), cond, 1, *_XOR2)


@_templated
def encode_adder(
    f: PbFormula,
    out: BitVec,
    b: BitVec,
    c: BitVec,
    cond: int | None = None,
    shared_carries: BitVec | None = None,
) -> BitVec:
    """out = b + c over N bits, overflow forbidden.

    Unconditional when cond is None.  With cond, the sum is only
    enforced when cond is true; passing shared_carries additionally
    reuses an external carry chain (sound only while at most one of the
    gadgets sharing it is enabled).
    """
    n = _check_widths(out, b, c)
    d = _chain_for(f, n, cond, shared_carries)
    chain_cond = cond if shared_carries is not None else None
    # Carry definitions: d[i-1] is the carry out of position i+1 (1-based).
    if n >= 2:
        inner, last = (d[:-1], b[1:-1], c[1:-1], d[1:]), (d[-1:], b[-1:], c[-1:])
        _rows(f, inner, chain_cond, 2, ((-2, 1, 1, 1), 0))
        _rows(f, inner, chain_cond, 2, ((2, -1, -1, -1), -1))
        _rows(f, last, chain_cond, 2, ((-2, 1, 1), 0))
        _rows(f, last, chain_cond, 1, ((1, -1, -1), -1))
    # Disallow overflow out of the MSB.  Guarded with weight 1 although
    # the row can fall short by 2, so b0 = c0 = d0 = 1 stays forbidden
    # while the adder is disabled.
    msb = (b[:1], c[:1], d[:1]) if n >= 2 else (b[:1], c[:1])
    _rows(f, msb, cond, 1, ((-1,) * len(msb), -1))
    _sum_bits(f, out, b, c, d, cond)
    return d


@_templated
def encode_subtractor(
    f: PbFormula,
    out: BitVec,
    b: BitVec,
    c: BitVec,
    cond: int | None = None,
    shared_borrows: BitVec | None = None,
) -> BitVec:
    """out = b - c over N bits; underflow (b < c) forbidden."""
    n = _check_widths(out, b, c)
    d = _chain_for(f, n, cond, shared_borrows)
    chain_cond = cond if shared_borrows is not None else None
    # Borrow definitions: d[i-1] is the borrow out of position i+1.
    if n >= 2:
        inner, last = (d[:-1], b[1:-1], c[1:-1], d[1:]), (d[-1:], b[-1:], c[-1:])
        _rows(f, inner, chain_cond, 2, ((2, 1, -1, -1), 0))
        _rows(f, inner, chain_cond, 2, ((-2, -1, 1, 1), -1))
        _rows(f, last, chain_cond, 2, ((-2, -1, 1), -1))
        _rows(f, last, chain_cond, 1, ((1, 1, -1), 0))
    # Disallow underflow at the MSB.
    _rows(f, (b[:1], c[:1]), cond, 1, ((1, -1), 0))
    if n >= 2:
        _rows(f, (b[:1], d[:1]), cond, 1, ((1, -1), 0))
        _rows(f, (c[:1], d[:1]), cond, 1, ((-1, -1), -1))
    _sum_bits(f, out, b, c, d, cond)
    return d


def encode_not_both(f: PbFormula, a: BitVec, b: BitVec) -> None:
    """not (a[i] and b[i]) for every bit i."""
    _rows(f, (a, b), None, 1, ((-1, -1), -1))


def _shift_rows(f: PbFormula, out: BitVec, src: BitVec, shifts, direction: str) -> None:
    """cond -> (out = src << amount), or >> for direction "right", for
    each (amount, cond) of `shifts` in turn.

    Bits shifted past either end must be zero, so the shift is always
    value-exact when enabled.  The zero rows after one amount's copies
    and before the next amount's are one block.
    """
    n = _check_widths(out, src)
    conds, zeros = (), ()  # the zero rows not yet written: cond -> not zero
    for amount, cond in shifts:
        if direction == "left":
            # The low `amount` bits of out are zero, and no set bit of
            # src may leave through the top.
            before, copies, after = out[n - amount:], (out[:n - amount], src[amount:]), src[:amount]
        elif direction == "right":
            # Discarded low bits of src must be zero (exact division).
            before, copies, after = out[:amount], (out[amount:], src[:n - amount]), src[n - amount:]
        else:
            raise PbError(f"bad shift direction {direction!r}")
        encode_not_both(f, conds + (cond,) * amount, zeros + before)
        encode_cond_copies(f, cond, *copies)
        conds, zeros = (cond,) * amount, after
    encode_not_both(f, conds, zeros)


@_templated
def encode_shift(
    f: PbFormula, out: BitVec, src: BitVec, direction: str = "left"
) -> BitVec:
    """out = src shifted by a solver-chosen amount in [0, N-1].

    Returns the N fresh one-hot selector variables; selectors[k] enables
    amount k, so index order matches ascending shift amounts.
    """
    _check_widths(out, src)
    selectors = f.new_bitvec(len(out))
    f.add(tuple((1, s) for s in selectors), EQ, 1)
    _shift_rows(f, out, src, enumerate(selectors), direction)
    return selectors


def exactly(f: PbFormula, count: int, width: int) -> BitVec:
    """Fresh vector with exactly `count` bits set."""
    if not 0 <= count <= width:
        raise PbError("popcount out of range")
    vec = f.new_bitvec(width)
    f.add(tuple((1, b) for b in vec), EQ, count)
    return vec


def encode_const(f: PbFormula, vec: BitVec, value: int, cond: int | None = None) -> None:
    """vec = value, one unit row per bit, only while cond is true when cond is given."""
    if not 0 <= value < 1 << len(vec):
        raise PbError("constant out of range")
    bits = bits_of(value, len(vec))
    if cond is None:
        f.add_rows(1, [2 * bit - 1 for bit in bits], list(vec), list(bits))
    else:
        f.add_rows(2, [c for bit in bits for c in (-1, 2 * bit - 1)],
                   [v for var in vec for v in (cond, var)], [bit - 1 for bit in bits])


def emit_false(f: PbFormula) -> None:
    """Append an unsatisfiable pair (used for structurally empty choices)."""
    z = f.new_var()
    f.add_rows(1, [1, -1], [z, z], [1, 0])
