"""Exhaustive truth-table checks: for every gadget at small widths, the
satisfying set over all gadget variables must equal its arithmetic
semantics exactly.  The enumerator below is deliberately independent of
the solver and of the gadget emitters."""

from itertools import product
from unittest import mock

import pytest
from conftest import needs_core, python_path

from mcmsat import gadgets, native
from mcmsat.pb import GE, PAIRWISE_MAX, PbError, PbFormula


def all_models(f: PbFormula) -> set:
    rows = [(c.terms, c.relation, c.bound) for c in f.constraints]
    out = set()
    for bits in product((0, 1), repeat=f.var_count):
        ok = True
        for terms, rel, bound in rows:
            s = sum(coef * bits[var - 1] for coef, var in terms)
            if (rel == ">=" and s < bound) or (rel == "=" and s != bound):
                ok = False
                break
        if ok:
            out.add(bits)
    return out


def universe(f: PbFormula):
    return product((0, 1), repeat=f.var_count)


def vec_val(bits, vec) -> int:
    v = 0
    for b in vec:
        v = (v << 1) | bits[b - 1]
    return v


def ripple_carries(b: int, c: int, n: int) -> tuple:
    """carries[i] is consumed by result bit i (big-endian), i in [0, n-2]."""
    out = []
    cur = 0
    for pos in range(n - 1, 0, -1):
        cur = int(((b >> (n - 1 - pos)) & 1) + ((c >> (n - 1 - pos)) & 1) + cur >= 2)
        out.append(cur)
    return tuple(reversed(out))


def ripple_borrows(b: int, c: int, n: int) -> tuple:
    out = []
    cur = 0
    for pos in range(n - 1, 0, -1):
        bb = (b >> (n - 1 - pos)) & 1
        cb = (c >> (n - 1 - pos)) & 1
        cur = int(cb + cur > bb)
        out.append(cur)
    return tuple(reversed(out))


# -- XOR family --------------------------------------------------------------


def test_xor2_truth_table():
    f = PbFormula()
    a, b, c = f.new_var(), f.new_var(), f.new_var()
    gadgets._rows(f, ((a,), (b,), (c,)), None, 1, *gadgets._XOR2)
    assert len(f.constraints) == 4
    expected = {m for m in universe(f) if m[0] == m[1] ^ m[2]}
    assert all_models(f) == expected


def test_xor2_violation_example():
    # a=1, b=1, c=1 breaks the -a-b-c >= -2 row.
    f = PbFormula()
    a, b, c = f.new_var(), f.new_var(), f.new_var()
    gadgets._rows(f, ((a,), (b,), (c,)), None, 1, *gadgets._XOR2)
    assert (1, 1, 1) not in all_models(f)
    assert (1, 1, 0) in all_models(f)


def test_xor3_truth_table():
    f = PbFormula()
    a, b, c, d = (f.new_var() for _ in range(4))
    gadgets._rows(f, ((a,), (b,), (c,), (d,)), None, 1, *gadgets._XOR3)
    assert len(f.constraints) == 8
    expected = {m for m in universe(f) if m[0] == m[1] ^ m[2] ^ m[3]}
    assert all_models(f) == expected


def test_cond_xor2_truth_table():
    f = PbFormula()
    a, b, c, d = (f.new_var() for _ in range(4))
    gadgets._rows(f, ((a,), (b,), (c,)), d, 1, *gadgets._XOR2)
    expected = {m for m in universe(f) if m[3] == 0 or m[0] == m[1] ^ m[2]}
    assert all_models(f) == expected


def test_cond_xor3_truth_table():
    f = PbFormula()
    a, b, c, d, e = (f.new_var() for _ in range(5))
    gadgets._rows(f, ((a,), (b,), (c,), (d,)), e, 1, *gadgets._XOR3)
    expected = {m for m in universe(f) if m[4] == 0 or m[0] == m[1] ^ m[2] ^ m[3]}
    assert all_models(f) == expected


def test_cond_copy_truth_table():
    f = PbFormula()
    a, b, c = f.new_var(), f.new_var(), f.new_var()
    gadgets.encode_cond_copies(f, a, (b,), (c,))
    assert len(f.constraints) == 2
    expected = {m for m in universe(f) if m[0] == 0 or m[1] == m[2]}
    assert all_models(f) == expected
    assert (1, 0, 1) not in all_models(f)  # violates -a + b - c >= -1


# -- adders and subtractors ---------------------------------------------------


def _build_addsub(n, *, conditional, shared, subtract):
    f = PbFormula()
    a, b, c = f.new_bitvec(n), f.new_bitvec(n), f.new_bitvec(n)
    cond = f.new_var() if conditional else None
    chain = None
    if shared:
        chain = tuple(f.new_var() for _ in range(n - 1))
    fn = gadgets.encode_subtractor if subtract else gadgets.encode_adder
    chain = fn(f, a, b, c, cond, chain)
    return f, a, b, c, cond, chain


@pytest.mark.parametrize("n", [1, 2, 3])
def test_adder_truth_table(n):
    f, a, b, c, _, chain = _build_addsub(n, conditional=False, shared=False, subtract=False)
    expected = set()
    for m in universe(f):
        av, bv, cv = vec_val(m, a), vec_val(m, b), vec_val(m, c)
        ch = tuple(m[x - 1] for x in chain)
        if bv + cv < (1 << n) and av == bv + cv and ch == ripple_carries(bv, cv, n):
            expected.add(m)
    assert all_models(f) == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_subtractor_truth_table(n):
    f, a, b, c, _, chain = _build_addsub(n, conditional=False, shared=False, subtract=True)
    expected = set()
    for m in universe(f):
        av, bv, cv = vec_val(m, a), vec_val(m, b), vec_val(m, c)
        ch = tuple(m[x - 1] for x in chain)
        if bv >= cv and av == bv - cv and ch == ripple_borrows(bv, cv, n):
            expected.add(m)
    assert all_models(f) == expected


def test_adder_unique_model_per_input():
    # Functional totality: in-range inputs admit exactly one model.
    n = 4
    f, a, b, c, _, chain = _build_addsub(n, conditional=False, shared=False, subtract=False)
    models = all_models(f)
    for bv in range(1 << n):
        for cv in range(1 << n):
            fitting = [
                m for m in models if vec_val(m, b) == bv and vec_val(m, c) == cv
            ]
            if bv + cv < (1 << n):
                assert len(fitting) == 1
                assert vec_val(fitting[0], a) == bv + cv
            else:
                assert fitting == []


def test_subtractor_underflow_unsat():
    n = 4
    f, a, b, c, _, _ = _build_addsub(n, conditional=False, shared=False, subtract=True)
    models = all_models(f)
    assert not any(vec_val(m, b) == 1 and vec_val(m, c) == 2 for m in models)
    two = [m for m in models if vec_val(m, b) == 5 and vec_val(m, c) == 3]
    assert len(two) == 1 and vec_val(two[0], a) == 2


@pytest.mark.parametrize("n", [2, 3])
def test_cond_adder_fresh_chain_truth_table(n):
    # Enabled: full adder.  Disabled: the chain still ripples and the
    # printed overflow row forbids b0 & c0 & carry-in simultaneously
    # (the one non-vacuous row; everything else is free).
    f, a, b, c, cond, chain = _build_addsub(n, conditional=True, shared=False, subtract=False)
    expected = set()
    for m in universe(f):
        av, bv, cv = vec_val(m, a), vec_val(m, b), vec_val(m, c)
        ch = tuple(m[x - 1] for x in chain)
        if ch != ripple_carries(bv, cv, n):
            continue
        if m[cond - 1]:
            if bv + cv < (1 << n) and av == bv + cv:
                expected.add(m)
        else:
            if not (m[b[0] - 1] and m[c[0] - 1] and m[chain[0] - 1]):
                expected.add(m)
    assert all_models(f) == expected


@pytest.mark.parametrize("n", [2, 3])
def test_cond_adder_shared_chain_truth_table(n):
    # Disabled with an external chain: everything vacuous except the
    # overflow row over (b0, c0, d0).
    f, a, b, c, cond, chain = _build_addsub(n, conditional=True, shared=True, subtract=False)
    expected = set()
    for m in universe(f):
        av, bv, cv = vec_val(m, a), vec_val(m, b), vec_val(m, c)
        ch = tuple(m[x - 1] for x in chain)
        if m[cond - 1]:
            if (
                bv + cv < (1 << n)
                and av == bv + cv
                and ch == ripple_carries(bv, cv, n)
            ):
                expected.add(m)
        else:
            if not (m[b[0] - 1] and m[c[0] - 1] and m[chain[0] - 1]):
                expected.add(m)
    assert all_models(f) == expected


@pytest.mark.parametrize("n", [2, 3])
def test_cond_subtractor_fresh_chain_truth_table(n):
    # Disabled: borrows still ripple, everything else free (fully vacuous
    # for the named inputs and outputs).
    f, a, b, c, cond, chain = _build_addsub(n, conditional=True, shared=False, subtract=True)
    expected = set()
    for m in universe(f):
        av, bv, cv = vec_val(m, a), vec_val(m, b), vec_val(m, c)
        ch = tuple(m[x - 1] for x in chain)
        if ch != ripple_borrows(bv, cv, n):
            continue
        if m[cond - 1]:
            if bv >= cv and av == bv - cv:
                expected.add(m)
        else:
            expected.add(m)
    assert all_models(f) == expected


@pytest.mark.parametrize("n", [2, 3])
def test_cond_subtractor_shared_chain_truth_table(n):
    # Disabled with an external chain: no constraint at all.
    f, a, b, c, cond, chain = _build_addsub(n, conditional=True, shared=True, subtract=True)
    expected = set()
    for m in universe(f):
        av, bv, cv = vec_val(m, a), vec_val(m, b), vec_val(m, c)
        ch = tuple(m[x - 1] for x in chain)
        if m[cond - 1]:
            if bv >= cv and av == bv - cv and ch == ripple_borrows(bv, cv, n):
                expected.add(m)
        else:
            expected.add(m)
    assert all_models(f) == expected


def test_shared_chain_requires_condition():
    f = PbFormula()
    a, b, c = f.new_bitvec(2), f.new_bitvec(2), f.new_bitvec(2)
    chain = (f.new_var(),)
    with pytest.raises(PbError):
        gadgets.encode_adder(f, a, b, c, None, chain)


@pytest.mark.parametrize("subtract", [False, True])
@pytest.mark.parametrize("n", [2, 3])
def test_shared_chain_joint_satisfiability(subtract, n):
    # Several gadgets on one chain: satisfiable for every in-range input
    # of the single enabled gadget, with the disabled gadgets' inputs and
    # outputs chosen existentially.
    from mcmsat.refsolver import RefSolver

    for enabled_idx in range(3):
        for bv in range(1 << n):
            for cv in range(1 << n):
                if subtract and bv < cv:
                    continue
                if not subtract and bv + cv >= (1 << n):
                    continue
                f = PbFormula()
                chain = tuple(f.new_var() for _ in range(n - 1))
                conds = []
                vecs = []
                for k in range(3):
                    a, b, c = f.new_bitvec(n), f.new_bitvec(n), f.new_bitvec(n)
                    cond = f.new_var()
                    conds.append(cond)
                    vecs.append((a, b, c))
                    fn = gadgets.encode_subtractor if subtract else gadgets.encode_adder
                    fn(f, a, b, c, cond, chain)
                # Pin the enabled gadget's condition and inputs.
                f.add(((1, conds[enabled_idx]),), GE, 1)
                for k in range(3):
                    if k != enabled_idx:
                        f.add(((-1, conds[k]),), GE, 0)
                _, b, c = vecs[enabled_idx]
                for i in range(n):
                    bit = (bv >> (n - 1 - i)) & 1
                    f.add(((1, b[i]),) if bit else ((-1, b[i]),), GE, bit)
                    bit = (cv >> (n - 1 - i)) & 1
                    f.add(((1, c[i]),) if bit else ((-1, c[i]),), GE, bit)
                status, _ = RefSolver(f).solve()
                assert status == "SAT", (subtract, enabled_idx, bv, cv)


# -- shifts -------------------------------------------------------------------


@pytest.mark.parametrize("n,amount", [(3, 0), (3, 1), (3, 2), (4, 1)])
def test_cond_shift_left_truth_table(n, amount):
    f = PbFormula()
    out, src = f.new_bitvec(n), f.new_bitvec(n)
    cond = f.new_var()
    gadgets._shift_rows(f, out, src, [(amount, cond)], "left")
    assert len(f.constraints) == 2 * n
    expected = set()
    for m in universe(f):
        if m[cond - 1] == 0:
            expected.add(m)
            continue
        sv = vec_val(m, src)
        if sv << amount < (1 << n) and vec_val(m, out) == sv << amount:
            expected.add(m)
    assert all_models(f) == expected


@pytest.mark.parametrize("n,amount", [(3, 0), (3, 1), (3, 2)])
def test_cond_shift_right_truth_table(n, amount):
    f = PbFormula()
    out, src = f.new_bitvec(n), f.new_bitvec(n)
    cond = f.new_var()
    gadgets._shift_rows(f, out, src, [(amount, cond)], "right")
    expected = set()
    for m in universe(f):
        if m[cond - 1] == 0:
            expected.add(m)
            continue
        sv = vec_val(m, src)
        if sv % (1 << amount) == 0 and vec_val(m, out) == sv >> amount:
            expected.add(m)
    assert all_models(f) == expected


@pytest.mark.parametrize("direction", ["left", "right"])
def test_shift_gadget_truth_table(direction):
    n = 3
    f = PbFormula()
    out, src = f.new_bitvec(n), f.new_bitvec(n)
    sel = gadgets.encode_shift(f, out, src, direction)
    assert len(f.constraints) == 1 + 2 * n * n
    expected = set()
    for m in universe(f):
        sels = [m[s - 1] for s in sel]
        if sum(sels) != 1:
            continue
        amount = sels.index(1)
        sv, ov = vec_val(m, src), vec_val(m, out)
        if direction == "left":
            if sv << amount < (1 << n) and ov == sv << amount:
                expected.add(m)
        else:
            if sv % (1 << amount) == 0 and ov == sv >> amount:
                expected.add(m)
    assert all_models(f) == expected


def test_shift_models_for_single_bit_input():
    # src = 0001 admits exactly the four one-hot outputs.
    n = 4
    f = PbFormula()
    out, src = f.new_bitvec(n), f.new_bitvec(n)
    gadgets.encode_shift(f, out, src, "left")
    for i in range(n):
        bit = 1 if i == n - 1 else 0
        f.add(((1, src[i]),) if bit else ((-1, src[i]),), GE, bit)
    outs = {vec_val(m, out) for m in all_models(f)}
    assert outs == {1, 2, 4, 8}


# -- list selectors and popcount pins ----------------------------------------


@pytest.mark.parametrize(
    "count,n,values",
    [
        (1, 4, {1, 2, 4, 8}),
        (2, 3, {3, 5, 6}),
        (0, 3, {0}),
    ],
)
def test_exactly_models(count, n, values):
    f = PbFormula()
    vec = gadgets.exactly(f, count, n)
    assert {vec_val(m, vec) for m in all_models(f)} == values


def test_exactly_out_of_range():
    f = PbFormula()
    with pytest.raises(PbError):
        gadgets.exactly(f, 4, 3)


# -- constants ------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_const_truth_table(n):
    # Plain: the vector holds the constant.  Guarded: it does while cond is 1.
    for value in range(1 << n):
        f = PbFormula()
        vec = f.new_bitvec(n)
        gadgets.encode_const(f, vec, value)
        assert len(f.constraints) == n
        assert all_models(f) == {m for m in universe(f) if vec_val(m, vec) == value}

        f = PbFormula()
        vec, cond = f.new_bitvec(n), f.new_var()
        gadgets.encode_const(f, vec, value, cond)
        expected = {m for m in universe(f) if m[cond - 1] == 0 or vec_val(m, vec) == value}
        assert all_models(f) == expected


@pytest.mark.parametrize("value", [-1, 8])
def test_const_out_of_range(value):
    f = PbFormula()
    with pytest.raises(PbError):
        gadgets.encode_const(f, f.new_bitvec(3), value)


# -- per-gadget constraint counts ---------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_constraint_count_formulas(n):
    f = PbFormula()
    a, b, c = f.new_bitvec(n), f.new_bitvec(n), f.new_bitvec(n)
    gadgets.encode_adder(f, a, b, c)
    assert len(f.constraints) == (10 * n - 5 if n >= 2 else 5)

    f = PbFormula()
    a, b, c = f.new_bitvec(n), f.new_bitvec(n), f.new_bitvec(n)
    gadgets.encode_subtractor(f, a, b, c)
    assert len(f.constraints) == (10 * n - 3 if n >= 2 else 5)

    f = PbFormula()
    out, src = f.new_bitvec(n), f.new_bitvec(n)
    gadgets.encode_shift(f, out, src)
    assert len(f.constraints) == 1 + 2 * n * n
    assert f.var_count == 3 * n


def test_every_constraint_uses_allocated_vars():
    f = PbFormula()
    a, b, c = f.new_bitvec(3), f.new_bitvec(3), f.new_bitvec(3)
    gadgets.encode_adder(f, a, b, c)
    out, src = f.new_bitvec(3), f.new_bitvec(3)
    gadgets.encode_shift(f, out, src)
    for cons in f.constraints:
        for _, var in cons.terms:
            assert 1 <= var <= f.var_count


# -- templates --------------------------------------------------------------------


def arena(f: PbFormula):
    return (f.var_count, f.coefs.tolist(), f.vars.tolist(), f.row_ptr.tolist(), f.bounds.tolist(),
            bytes(f.relations), dict(f.annotations))


def outcome(write):
    try:
        return write()
    except PbError as e:
        return str(e)


REFUSED = [
    lambda f, a, b, c, x: gadgets.encode_adder(f, a, b, (c[0], c[1], x)),
    lambda f, a, b, c, x: gadgets.encode_subtractor(f, a, b, c, x, (a[0], x)),
    lambda f, a, b, c, x: gadgets.encode_subtractor(f, a, b, c, x, (a[0], a[0])),
    lambda f, a, b, c, x: gadgets.encode_adder(f, a, b, c, None, (a[0], b[0])),
    lambda f, a, b, c, x: gadgets.encode_shift(f, a, (b[0], b[1], x)),  # fails past its '=' row
    lambda f, a, b, c, x: gadgets.encode_shift(f, a, b, "up"),
    lambda f, a, b, c, x: gadgets.encode_adder(f, a, b, c, c[0], (a[0],)),  # chain one bit short
    lambda f, a, b, c, x: gadgets.encode_adder(f, a, b, c[:2]),
    # Two placeholders of one row substituted by one variable: out and c.
    lambda f, a, b, c, x: gadgets.encode_subtractor(f, a, b, a),
    lambda f, a, b, c, x: gadgets.encode_shift(f, a, (x, b[1], b[2]), "right"),  # past its '=' row
]


def refused(write) -> str:
    """The PbError text of a gadget written after an adder, checking that
    it leaves the formula as it was."""
    f = PbFormula()
    a, b, c = f.new_bitvec(3), f.new_bitvec(3), f.new_bitvec(3)
    gadgets.encode_adder(f, a, b, c)
    f.annotations[len(f.bounds)] = "the next gadget"  # as the encoder notes a candidate
    before = arena(f)
    with pytest.raises(PbError) as refusal:
        write(f, a, b, c, 99)  # a variable not allocated, or a shape refused
    assert arena(f) == before
    return str(refusal.value)


@pytest.mark.parametrize("write", REFUSED)
def test_a_refused_gadget_leaves_the_formula_as_it_was(write):
    refused(write)


@needs_core
@pytest.mark.parametrize("write", REFUSED)
def test_a_refused_gadget_is_refused_alike_on_both_paths(write):
    on_core = refused(write)
    with python_path():
        assert refused(write) == on_core


REPLAYED = [
    (gadgets.encode_adder, ((1, 2, 3), (2, 3, 4), (3, 4, 5))),
    (gadgets.encode_subtractor, ((5, 4, 3), (1, 2, 3), (2, 3, 4), 6)),
    (gadgets.encode_adder, ((1, 2, 3), (2, 3, 4), (3, 4, 5), 6, (1, 7))),
    (gadgets.encode_subtractor, ((1, 2, 3), (2, 3, 4), (3, 4, 5), 6, (7, 8))),
    (gadgets.encode_subtractor, ((1, 2, 3), (3, 4, 5), (5, 6, 7), 2, (4, 8))),
    (gadgets.encode_adder, ((1, 2, 3), (1, 4, 5), (6, 7, 8))),  # a repeat in a row: refused
    (gadgets.encode_shift, ((1, 2, 3), (2, 3, 4))),
    (gadgets.encode_shift, ((1, 2, 3), (4, 5, 6), "right")),
    (gadgets.encode_shift, ((1, 2, 3), (1, 2, 3))),  # out[i] and src[i] in one copy row: refused
]


def replay(gadget, args):
    """A gadget's outcome (what it returns or its PbError text), and the
    formula it leaves, written on the first nine variables."""
    f = PbFormula()
    f.new_bitvec(9)
    return outcome(lambda: gadget(f, *args)), arena(f)


@pytest.mark.parametrize("gadget, args", REPLAYED)
def test_a_replay_writes_what_the_body_writes_on_the_same_variables(gadget, args):
    # Inputs that overlap one another, so that placeholders that are distinct
    # in the recording stand for one variable in the replay.
    (replayed, after), recorded = replay(gadget, args), PbFormula()
    recorded.new_bitvec(9)
    assert replayed == outcome(lambda: gadget.__wrapped__(recorded, *args))
    assert after == arena(recorded) or len(after[4]) < len(recorded.bounds)


@needs_core
@pytest.mark.parametrize("gadget, args", REPLAYED)
def test_a_replay_writes_alike_on_both_paths(gadget, args):
    on_core = replay(gadget, args)
    with python_path():
        assert replay(gadget, args) == on_core


@pytest.mark.parametrize("unallocated", [False, True])
def test_a_shift_wider_than_the_core_check_goes_to_refusal(unallocated):
    # The selector row of a shift of more than PAIRWISE_MAX bits is too
    # long for the core's pairwise repeat check, so the replay appends
    # each run through add_rows, and `_refusal` checks that row.
    n = PAIRWISE_MAX + 1
    out, src = tuple(range(1, n + 1)), tuple(range(n + 1, 2 * n)) + (10**6 if unallocated else 2 * n,)
    recorded = PbFormula()
    recorded.new_bitvec(2 * n)
    gadgets.encode_shift(recorded, out, tuple(range(n + 1, 2 * n + 1)))  # records the template

    def shift():
        f = PbFormula()
        f.new_bitvec(2 * n)
        with mock.patch.object(PbFormula, "_refusal", autospec=True,
                               side_effect=PbFormula._refusal) as checked:
            result = outcome(lambda: gadgets.encode_shift(f, out, src))
        return result, arena(f), [list(call.args[1]) for call in checked.call_args_list]

    result, after, checked = shift()
    if unallocated:
        assert "a variable not allocated" in result and after == (2 * n, [], [], [0], [], b"", {})
    else:
        assert after == arena(recorded)
    if native.load() is not None:
        # The selector row first; on a refusal, then the rows add_rows words.
        assert checked[0] == [n] and (unallocated or checked == [[n]])
        with python_path():
            assert shift()[:2] == (result, after)
