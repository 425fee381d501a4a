"""Constraint gadgets over bit vectors: XORs, ripple adders/subtractors
(plain, conditional, and conditional with a shared carry/borrow chain),
constant and variable barrel shifts, constants and popcount pins.

A vector and a carry/borrow chain are plain tuples of variables, the
most significant bit first.  Chains have length N-1; chain[i] feeds
result bit i and is defined from the operands at position i+1.  Emission
order within each gadget is fixed so formulas are reproducible.

A conditional gadget writes the same rows as the plain one, each behind
a guard: "this row holds only while cond is true" is the prefix term
(-w, cond) with the row's bound lowered by w, where w is how far the row
can fall short (1 for a clause, 2 for most carry and borrow rows).  A
fresh chain is a function of the operands, so its rows stay unguarded;
only a shared chain is guarded.
"""

from __future__ import annotations

from .pb import EQ, GE, BitVec, PbError, PbFormula, bits_of


def _guard(cond: int | None, w: int) -> tuple:
    """Prefix of a row that may fall short by w while cond is false."""
    return () if cond is None else ((-w, cond),)


def encode_xor2(f: PbFormula, a: int, b: int, c: int, cond: int | None = None) -> None:
    """a <-> (b xor c), only while cond is true when cond is given."""
    g = _guard(cond, 1)
    k = len(g)
    f.add(g + ((-1, a), (1, b), (1, c)), GE, -k)
    f.add(g + ((-1, a), (-1, b), (-1, c)), GE, -2 - k)
    f.add(g + ((1, a), (1, b), (-1, c)), GE, -k)
    f.add(g + ((1, a), (-1, b), (1, c)), GE, -k)


def encode_xor3(
    f: PbFormula, a: int, b: int, c: int, d: int, cond: int | None = None
) -> None:
    """a <-> (b xor c xor d), only while cond is true when cond is given."""
    g = _guard(cond, 1)
    k = len(g)
    f.add(g + ((-1, a), (1, b), (1, c), (1, d)), GE, -k)
    f.add(g + ((-1, a), (1, b), (-1, c), (-1, d)), GE, -2 - k)
    f.add(g + ((-1, a), (-1, b), (1, c), (-1, d)), GE, -2 - k)
    f.add(g + ((-1, a), (-1, b), (-1, c), (1, d)), GE, -2 - k)
    f.add(g + ((1, a), (-1, b), (-1, c), (-1, d)), GE, -2 - k)
    f.add(g + ((1, a), (-1, b), (1, c), (1, d)), GE, -k)
    f.add(g + ((1, a), (1, b), (-1, c), (1, d)), GE, -k)
    f.add(g + ((1, a), (1, b), (1, c), (-1, d)), GE, -k)


def encode_cond_copy(f: PbFormula, cond: int, b: int, c: int) -> None:
    """cond -> (b <-> c)."""
    f.add(((-1, cond), (-1, b), (1, c)), GE, -1)
    f.add(((-1, cond), (1, b), (-1, c)), GE, -1)


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
    n = len(out)
    for i in range(n - 1):
        encode_xor3(f, out[i], b[i], c[i], d[i], cond)
    encode_xor2(f, out[n - 1], b[n - 1], c[n - 1], cond)


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
    cg1, cg2 = _guard(chain_cond, 1), _guard(chain_cond, 2)
    ck = len(cg1)
    # Carry definitions: d[i-1] is the carry out of position i+1 (1-based).
    if n >= 2:
        for i in range(n - 2):
            f.add(cg2 + ((-2, d[i]), (1, b[i + 1]), (1, c[i + 1]), (1, d[i + 1])), GE, -2 * ck)
        for i in range(n - 2):
            f.add(cg2 + ((2, d[i]), (-1, b[i + 1]), (-1, c[i + 1]), (-1, d[i + 1])), GE, -1 - 2 * ck)
        f.add(cg2 + ((-2, d[n - 2]), (1, b[n - 1]), (1, c[n - 1])), GE, -2 * ck)
        f.add(cg1 + ((1, d[n - 2]), (-1, b[n - 1]), (-1, c[n - 1])), GE, -1 - ck)
    # Disallow overflow out of the MSB.  Guarded with weight 1 although
    # the row can fall short by 2, so b0 = c0 = d0 = 1 stays forbidden
    # while the adder is disabled.
    g = _guard(cond, 1)
    msb = ((-1, b[0]), (-1, c[0])) + (((-1, d[0]),) if n >= 2 else ())
    f.add(g + msb, GE, -1 - len(g))
    _sum_bits(f, out, b, c, d, cond)
    return d


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
    cg1, cg2 = _guard(chain_cond, 1), _guard(chain_cond, 2)
    ck = len(cg1)
    # Borrow definitions: d[i-1] is the borrow out of position i+1.
    if n >= 2:
        for i in range(n - 2):
            f.add(cg2 + ((2, d[i]), (1, b[i + 1]), (-1, c[i + 1]), (-1, d[i + 1])), GE, -2 * ck)
        for i in range(n - 2):
            f.add(cg2 + ((-2, d[i]), (-1, b[i + 1]), (1, c[i + 1]), (1, d[i + 1])), GE, -1 - 2 * ck)
        f.add(cg2 + ((-2, d[n - 2]), (-1, b[n - 1]), (1, c[n - 1])), GE, -1 - 2 * ck)
        f.add(cg1 + ((1, d[n - 2]), (1, b[n - 1]), (-1, c[n - 1])), GE, -ck)
    # Disallow underflow at the MSB.
    g = _guard(cond, 1)
    k = len(g)
    f.add(g + ((1, b[0]), (-1, c[0])), GE, -k)
    if n >= 2:
        f.add(g + ((1, b[0]), (-1, d[0])), GE, -k)
        f.add(g + ((-1, c[0]), (-1, d[0])), GE, -1 - k)
    _sum_bits(f, out, b, c, d, cond)
    return d


def encode_cond_shift(
    f: PbFormula,
    cond: int,
    out: BitVec,
    src: BitVec,
    amount: int,
    direction: str = "left",
) -> None:
    """cond -> (out = src << amount), or >> for direction "right".

    Bits shifted past either end must be zero, so the shift is always
    value-exact when enabled.
    """
    n = _check_widths(out, src)
    if not 0 <= amount <= n - 1:
        raise PbError("shift amount out of range")
    if direction == "left":
        # Low `amount` bits of out are zero.
        for i in range(n - amount, n):
            f.add(((-1, cond), (-1, out[i])), GE, -1)
        for i in range(n - amount):
            encode_cond_copy(f, cond, out[i], src[i + amount])
        # No set bit may leave through the top.
        for i in range(amount):
            f.add(((-1, cond), (-1, src[i])), GE, -1)
    elif direction == "right":
        for i in range(amount):
            f.add(((-1, cond), (-1, out[i])), GE, -1)
        for i in range(n - amount):
            encode_cond_copy(f, cond, out[i + amount], src[i])
        # Discarded low bits of src must be zero (exact division).
        for i in range(n - amount, n):
            f.add(((-1, cond), (-1, src[i])), GE, -1)
    else:
        raise PbError(f"bad shift direction {direction!r}")


def encode_shift(
    f: PbFormula, out: BitVec, src: BitVec, direction: str = "left"
) -> BitVec:
    """out = src shifted by a solver-chosen amount in [0, N-1].

    Returns the N fresh one-hot selector variables; selectors[k] enables
    amount k, so index order matches ascending shift amounts.
    """
    n = _check_widths(out, src)
    selectors = f.new_bitvec(n)
    f.add(tuple((1, s) for s in selectors), EQ, 1)
    for amount in range(n):
        encode_cond_shift(f, selectors[amount], out, src, amount, direction)
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
    g = _guard(cond, 1)
    for var, bit in zip(vec, bits_of(value, len(vec))):
        f.add(g + ((1, var) if bit else (-1, var),), GE, bit - len(g))


def emit_false(f: PbFormula) -> None:
    """Append an unsatisfiable pair (used for structurally empty choices)."""
    z = f.new_var()
    f.add(((1, z),), GE, 1)
    f.add(((-1, z),), GE, 0)
