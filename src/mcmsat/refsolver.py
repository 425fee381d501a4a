"""Self-contained complete solver for pseudo-Boolean decision instances.

Conflict-driven clause learning over normalized >=-constraints, after
MiniSat+ (Een & Sorensson 2006), propagating each kind of row its own
way, as Galena (Chai & Kuehlmann 2003) and RoundingSat (Elffers &
Nordstrom 2018) do:

* a row of bound 1 and two or more literals is a clause, whatever its
  coefficients; clauses are watched by two literals;
* every other row is a counter row: it tracks the coefficients of its
  true literals (satsum) and of its literals not false (maxposs), and
  forces every unassigned literal whose coefficient exceeds its slack;
* a counter row explains a literal it forced by its literals that were
  false earlier on the trail, and a conflict by all its false literals,
  a clause by its other literals, so first-UIP analysis learns clauses,
  which are minimized locally and join the original clauses in flat
  int32 arrays;
* backjumping, VSIDS decisions off a heap of the variables by activity
  (ties to the lowest index, so the first descent runs in index order)
  with phases saved from `phases` on,
  Luby restarts, and periodic deletion of the learned clauses of high
  LBD (literal block distance: the decision levels a clause spans).

A compiled core with the identical algorithm is used when a C compiler
is available (core.c, via native.py); the Python paths below are the reference
and the fallback.  Both read one store of flat int32 arrays, the counter
rows and the clauses apart, which the core builds from the formula's
arena when it loads and RefSolver._build builds otherwise; a search
copies what it writes, so a solver can solve again.  Both agree on
verdict, model and counters.  A counter row whose absolute coefficients
sum beyond 2^31 - 1 does not fit that store; both builds refuse it
with PbError.  Intended for desk-scale instances; use an external
solver beyond ~10-bit constants.
"""

from __future__ import annotations

import operator
from array import array
from collections import Counter
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, repeat

from . import native
from .pb import INT32_MAX, SAT, UNKNOWN, UNSAT, Model, PbError, PbFormula

UNASSIGNED = -1

DECAY = 0.95  # the activity increment grows by 1/DECAY per conflict
RESCALE = 1e100  # activities are scaled by 1e-100 once one exceeds this
RESTART_UNIT = 100  # conflicts per unit of the Luby restart sequence
REDUCE_FIRST, REDUCE_STEP = 2000, 300  # conflicts before reduction k: first + step * k


class RefSolver:
    def __init__(self, formula: PbFormula, phases=None):
        self.nvars = nv = formula.var_count
        # Preferred first value per variable; affects search order only.
        phases = phases or {}
        self.phases = array("B", [phases.get(v, 0) for v in range(nv + 1)])
        # The row store: each row normalized once to positive coefficients
        # over literals (+v / -v) and a >= bound, its terms ordered by
        # coefficient descending, then literal.  Clauses go to clause_ptr /
        # clause_lit; the counter rows to flat int32 arrays with the
        # occurrences of each literal.  The compiled core, when it loads,
        # builds it from the formula's arena, else _build does; the core's
        # search reads it in place, so it is never resized.
        store = native.build(formula)
        if store == native.C_WIDE:
            raise PbError("a counter row's coefficients sum beyond the bundled solver's int32 range")
        if store is None:
            self._build(formula)
        else:
            vars(self).update(store)
        self.nrows = len(self.bounds)
        pos = (self.pos_ptr, self.pos_row, self.pos_coef)
        neg = (self.neg_ptr, self.neg_row, self.neg_coef)
        # By value: (ptr, rows, coefs) of the occurrences an assignment
        # satisfies, then of those it shrinks.
        self._sides = (neg + pos, pos + neg)
        self.decisions = self.propagations = self.conflicts = 0
        self.islands = 0  # kept for callers that report it; always 0

    def _build(self, formula: PbFormula) -> None:
        """The row store in Python: the reference for native.build."""
        nv = self.nvars
        self.root_conflict = False
        row_ptr, row_coef, row_lit, bounds, maxposs = (array("i", [0]), array("i"), array("i"),
                                                       array("i"), array("i"))
        clause_ptr, clause_lit = array("i", [0]), array("i")
        out = []  # the (-coef, literal) terms of a block's rows
        # Rows in blocks, to bound the per-term lists; prefix sums of |coef|
        # and of coef give a row's total and the bound shift of its negations.
        coefs, vs, ptr = formula.coefs, formula.vars, formula.row_ptr
        for start in range(0, len(formula.bounds), 512):
            rows = range(start, min(start + 512, len(formula.bounds)))
            base, top = ptr[start], ptr[rows[-1] + 1]
            cs = coefs[base:top]
            # A clause's coefficients only order its literals, so a key
            # clamps them at INT32_MAX, as the core's does.
            keys = map(operator.neg, map(min, map(abs, cs), repeat(INT32_MAX)))
            pairs = list(zip(keys,
                             [v if c > 0 else -v for c, v in zip(cs, vs[base:top])]))
            abs_sum = list(accumulate(map(abs, cs), initial=0))
            net_sum = list(accumulate(cs, initial=0))
            for i in rows:
                lo, hi, b = ptr[i] - base, ptr[i + 1] - base, formula.bounds[i]
                total, net = abs_sum[hi] - abs_sum[lo], net_sum[hi] - net_sum[lo]
                halves = [(pairs[lo:hi], b + (total - net) // 2)]
                if formula.relations[i]:  # and the <= half, every literal negated
                    halves.append(([(k, -lit) for k, lit in pairs[lo:hi]], (total + net) // 2 - b))
                for terms, bound in halves:
                    if total < bound:
                        self.root_conflict = True
                    elif bound > 0:
                        terms = sorted(terms)
                        if bound == 1 and len(terms) > 1:  # a clause
                            clause_lit.extend([lit for _, lit in terms])
                            clause_ptr.append(len(clause_lit))
                            continue
                        if total > INT32_MAX:
                            # The total bounds every coefficient and the bound too.
                            raise PbError(f"counter row coefficients sum to {total}, "
                                          "beyond the bundled solver's int32 range")
                        out.extend(terms)
                        row_ptr.append(row_ptr[-1] + len(terms))
                        bounds.append(bound)
                        maxposs.append(total)
            row_coef.extend([-k for k, _ in out])
            row_lit.extend([lit for _, lit in out])
            out.clear()
        self.row_ptr, self.row_coef, self.row_lit = row_ptr, row_coef, row_lit
        self.bounds, self.maxposs = bounds, maxposs
        self.clause_ptr, self.clause_lit = clause_ptr, clause_lit
        # Occurrences split by polarity, rows ascending within a variable:
        # assigning v=1 satisfies its pos rows and shrinks its neg rows;
        # v=0 the other way around.  A counting sort over the row store into
        # arrays sized like row_lit: +v into slot v, -v into slot nv + 1 + v.
        count = Counter(row_lit)
        slots = list(accumulate([0] + [count[v] for v in range(nv + 1)]
                                + [count[-v] for v in range(nv + 1)]))
        nxt, occ_row, occ_coef = slots[:], array("i", row_lit), array("i", row_lit)
        sizes = map(operator.sub, row_ptr[1:], row_ptr)
        for r, lit, a in zip(chain.from_iterable(map(repeat, range(len(bounds)), sizes)),
                             row_lit, row_coef):
            w = lit if lit > 0 else nv + 1 - lit
            j = nxt[w]
            nxt[w], occ_row[j], occ_coef[j] = j + 1, r, a
        npos = slots[nv + 1]
        self.pos_ptr = array("i", slots[:nv + 2])
        self.neg_ptr = array("i", [p - npos for p in slots[nv + 1:]])
        self.pos_row, self.pos_coef = occ_row[:npos], occ_coef[:npos]
        self.neg_row, self.neg_coef = occ_row[npos:], occ_coef[npos:]

    # -- assignment machinery ------------------------------------------

    def _assign(self, var: int, value: int, reason: int) -> None:
        """Set var; a row driven below its bound becomes self.confl."""
        self.assigned[var] = value
        self.level[var] = len(self.trail_lim)
        self.tpos[var] = len(self.trail)
        self.reason[var] = reason
        self.trail.append(var)
        gp, gr, gc, lp, lr, lc = self._sides[value]
        satsum, poss, bounds, queued = self.satsum, self.poss, self.bounds, self.queued
        lo, hi = gp[var], gp[var + 1]
        for r, a in zip(gr[lo:hi], gc[lo:hi]):
            satsum[r] += a
        lo, hi = lp[var], lp[var + 1]
        for r, a in zip(lr[lo:hi], lc[lo:hi]):
            mp = poss[r] = poss[r] - a
            if mp < bounds[r]:
                self.confl = r
            elif satsum[r] < bounds[r] and not queued[r]:
                queued[r] = 1
                self.queue.append(r)

    def _backjump(self, level: int) -> None:
        """Pop the trail down to `level`, saving phases."""
        trail, assigned, satsum, poss = self.trail, self.assigned, self.satsum, self.poss
        if len(self.trail_lim) > level:
            height = self.trail_lim[level]
            del self.trail_lim[level:]
            while len(trail) > height:
                var = trail.pop()
                value = self.phase[var] = assigned[var]
                assigned[var] = UNASSIGNED
                heappush(self.heap, (-self.act[var], var))
                gp, gr, gc, lp, lr, lc = self._sides[value]
                lo, hi = gp[var], gp[var + 1]
                for r, a in zip(gr[lo:hi], gc[lo:hi]):
                    satsum[r] -= a
                lo, hi = lp[var], lp[var + 1]
                for r, a in zip(lr[lo:hi], lc[lo:hi]):
                    poss[r] += a
        self.qhead = len(trail)
        self.confl = -1

    def _propagate(self) -> int:
        """Exhaust forced assignments; returns the conflict or -1.

        The clauses are propagated to a fixpoint first, the cheaper kind,
        then one queued counter row at a time.  A conflict is a counter
        row's index, or nrows + c for clause c.
        """
        assigned, bounds, poss, satsum = self.assigned, self.bounds, self.poss, self.satsum
        row_ptr, row_coef, row_lit = self.row_ptr, self.row_coef, self.row_lit
        queue, queued, trail = self.queue, self.queued, self.trail
        while self.confl < 0:
            if self.qhead < len(trail):
                var = trail[self.qhead]
                self.qhead += 1
                self._watch(-var if assigned[var] else var)
            elif queue:
                ridx = queue.pop()
                queued[ridx] = 0
                bound = bounds[ridx]
                if satsum[ridx] >= bound:
                    continue
                slack = poss[ridx] - bound
                for i in range(row_ptr[ridx], row_ptr[ridx + 1]):
                    if row_coef[i] <= slack:
                        break
                    lit = row_lit[i]
                    var = lit if lit > 0 else -lit
                    if assigned[var] == UNASSIGNED:
                        self.propagations += 1
                        self._assign(var, 1 if lit > 0 else 0, ridx)
                        if self.confl >= 0 or satsum[ridx] >= bound:
                            break
            else:
                return -1
        for r in queue:
            queued[r] = 0
        queue.clear()
        return self.confl

    def _watch(self, false_lit: int) -> None:
        """Visit the clauses watching `false_lit`, just made false."""
        assigned, clits, cstart = self.assigned, self.clits, self.cstart
        whead, wnext = self.whead, self.wnext
        w = _widx(false_lit)
        prev, slot = -1, whead[w]
        while slot >= 0:
            following = wnext[slot]
            c, j = slot >> 1, slot & 1
            start = cstart[c]
            other = clits[start + 1 - j]
            ov = abs(other)
            if assigned[ov] == (other > 0):  # satisfied
                prev, slot = slot, following
                continue
            for k in range(start + 2, cstart[c + 1]):
                lit = clits[k]
                if assigned[abs(lit)] != (lit < 0):  # watch this non-false one instead
                    clits[start + j], clits[k] = lit, false_lit
                    if prev < 0:
                        whead[w] = following
                    else:
                        wnext[prev] = following
                    self._add_watch(slot)
                    break
            else:
                if assigned[ov] != UNASSIGNED:
                    self.confl = self.nrows + c
                    return
                self.propagations += 1
                self._assign(ov, 1 if other > 0 else 0, self.nrows + c)
                if self.confl >= 0:
                    return
                prev = slot
            slot = following

    # -- conflict analysis ---------------------------------------------

    def _explain(self, r: int, p: int) -> list:
        """False literals by which row or clause `r` implied p (0: conflicts).

        A row explains p by its literals that were false before p on the
        trail, a conflict by all its false literals; a clause by the rest.
        """
        if r < self.nrows:
            assigned, tpos = self.assigned, self.tpos
            limit = tpos[abs(p)] if p else len(self.trail)
            return [lit for lit in self.row_lit[self.row_ptr[r]:self.row_ptr[r + 1]]
                    if assigned[abs(lit)] == (lit < 0) and tpos[abs(lit)] < limit]
        c = r - self.nrows
        return [lit for lit in self.clits[self.cstart[c]:self.cstart[c + 1]] if lit != p]

    def _analyze(self, confl: int):
        """First-UIP clause of the conflict and the level to backjump to.

        The clause is minimized; the UIP comes first and a literal of the
        highest level below it second.
        """
        assigned, level, reason, trail = self.assigned, self.level, self.reason, self.trail
        seen, act = self.seen, self.act
        learnt, pathc, p, idx = [0], 0, 0, len(trail) - 1
        while True:
            for lit in self._explain(confl, p):
                v = abs(lit)
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    act[v] += self.inc
                    if act[v] > RESCALE:
                        self.act = act = [a * 1e-100 for a in act]
                        self.inc *= 1e-100
                        self.heap = [(-act[u], u) for u in range(1, self.nvars + 1)
                                     if assigned[u] == UNASSIGNED]
                        heapify(self.heap)
                    if level[v] >= len(self.trail_lim):
                        pathc += 1
                    else:
                        learnt.append(lit)
            while not seen[trail[idx]]:
                idx -= 1
            v = trail[idx]
            idx -= 1
            seen[v] = 0
            p = v if assigned[v] else -v
            pathc -= 1
            if pathc == 0:
                break
            confl = reason[v]
        learnt[0] = -p
        # Drop a literal whose reason's antecedents are all in the clause
        # or at level 0: the rest imply it.
        kept = learnt[:1] + [
            lit for lit in learnt[1:] if reason[abs(lit)] < 0 or any(
                not seen[abs(q)] and level[abs(q)] > 0 for q in self._explain(reason[abs(lit)], -lit))
        ]
        for lit in learnt[1:]:
            seen[abs(lit)] = 0
        if len(kept) == 1:
            return kept, 0
        levels = [level[abs(lit)] for lit in kept[1:]]
        i = 1 + levels.index(max(levels))
        kept[1], kept[i] = kept[i], kept[1]
        return kept, levels[i - 1]

    # -- clauses ---------------------------------------------------------

    def _add_watch(self, slot: int) -> None:
        w = _widx(self.clits[self.cstart[slot >> 1] + (slot & 1)])
        self.wnext[slot] = self.whead[w]
        self.whead[w] = slot

    def _learn(self, learnt: list) -> int:
        """Store a clause of two or more literals; its reason index."""
        c = len(self.clbd)
        self.clits.extend(learnt)
        self.cstart.append(len(self.clits))
        self.clbd.append(len({self.level[abs(lit)] for lit in learnt}))
        self.wnext.extend((-1, -1))
        self._add_watch(2 * c)
        self._add_watch(2 * c + 1)
        return self.nrows + c

    def _reduce(self) -> None:
        """Delete the higher-LBD half of the clauses of LBD > 2 that are no
        reason, oldest first among equals; compact and rebuild the watches."""
        nrows, reason, trail = self.nrows, self.reason, self.trail
        clits, cstart, clbd = self.clits, self.cstart, self.clbd
        locked = {reason[v] - nrows for v in trail if reason[v] >= nrows}
        candidates = sorted((c for c in range(len(clbd)) if clbd[c] > 2 and c not in locked),
                            key=lambda c: (-clbd[c], c))
        dead = set(candidates[:len(candidates) // 2])
        new_index = {}
        at = 0
        for c in range(len(clbd)):
            if c not in dead:
                lo, hi = cstart[c], cstart[c + 1]
                cstart[len(new_index)] = at
                clits[at:at + hi - lo] = clits[lo:hi]
                at += hi - lo
                clbd[len(new_index)] = clbd[c]
                new_index[c] = len(new_index)
        kept = len(new_index)
        cstart[kept] = at
        del clits[at:], cstart[kept + 1:], clbd[kept:], self.wnext[2 * kept:]
        for v in trail:
            if reason[v] >= nrows:
                reason[v] = nrows + new_index[reason[v] - nrows]
        self.whead = array("i", [-1]) * len(self.whead)
        for slot in range(2 * kept):
            self._add_watch(slot)

    # -- main loop -------------------------------------------------------

    def solve(self, stop=None):
        """Run the search to completion, or until `stop()` returns True.

        `stop` takes no arguments and is asked every 1024 steps here and
        between the compiled core's time slices; its True ends the
        search as UNKNOWN.
        """
        if self.root_conflict:
            return UNSAT, None
        if (found := native.run(self, stop)) is None:
            return self._solve_python(stop)
        if isinstance(found, tuple):
            return SAT, Model(found)
        return (UNSAT if found == native.C_UNSAT else UNKNOWN), None

    def _solve_python(self, stop=None):
        nv = self.nvars
        # Search state, copied from the row store, which is never written:
        # poss is each counter row's maxposs during the search.
        self.decisions = self.propagations = self.conflicts = 0
        self.poss, self.satsum = list(self.maxposs), [0] * self.nrows
        self.assigned = [UNASSIGNED] * (nv + 1)
        self.level, self.tpos, self.reason = [0] * (nv + 1), [0] * (nv + 1), [-1] * (nv + 1)
        self.seen = bytearray(nv + 1)
        self.phase = list(self.phases)
        self.trail, self.trail_lim, self.qhead, self.confl = [], [], 0, -1
        self.queue = list(range(self.nrows))  # root propagation, last row first
        self.queued = bytearray(b"\x01") * self.nrows
        # Clause c is clits[cstart[c]:cstart[c + 1]] of LBD clbd[c]: the
        # original clauses first, permanent (LBD 0), then the learned ones.
        # Watch slot 2c + j watches its literal j, linked from whead[_widx]
        # through wnext.
        ncl = len(self.clause_ptr) - 1
        self.clits, self.cstart = array("i", self.clause_lit), array("i", self.clause_ptr)
        self.clbd = array("i", [0]) * ncl
        self.whead, self.wnext = array("i", [-1]) * (2 * nv + 2), array("i", [-1]) * (2 * ncl)
        for slot in range(2 * ncl):
            self._add_watch(slot)
        # VSIDS: the unassigned variable of highest activity, ties to the
        # lowest index.  Entries go stale as activities grow; a valid one
        # carries the variable's current activity.
        self.act, self.inc = [0.0] * (nv + 1), 1.0
        self.heap = [(-0.0, v) for v in range(1, nv + 1)]
        assigned = self.assigned
        since_restart = restarts = reductions = steps = 0
        next_reduce = REDUCE_FIRST
        while True:
            steps += 1
            if steps & 1023 == 0 and stop is not None and stop():
                return UNKNOWN, None
            if self._propagate() >= 0:
                self.conflicts += 1
                if not self.trail_lim:
                    return UNSAT, None
                learnt, back = self._analyze(self.confl)
                self._backjump(back)
                reason = self._learn(learnt) if len(learnt) > 1 else -1
                self._assign(abs(learnt[0]), 1 if learnt[0] > 0 else 0, reason)
                self.inc /= DECAY
                since_restart += 1
                continue
            if since_restart >= RESTART_UNIT * _luby(restarts):
                restarts += 1
                since_restart = 0
                self._backjump(0)
            if self.conflicts >= next_reduce:
                self._reduce()
                reductions += 1
                next_reduce = self.conflicts + REDUCE_FIRST + REDUCE_STEP * reductions
            heap = self.heap
            if len(heap) > 2 * nv + 64:  # drop stale entries
                self.heap = heap = [(-self.act[v], v) for v in range(1, nv + 1)
                                    if assigned[v] == UNASSIGNED]
                heapify(heap)
            var = 0
            while heap and not var:
                key, v = heappop(heap)
                if assigned[v] == UNASSIGNED and key == -self.act[v]:
                    var = v
            if var == 0:
                return SAT, Model(tuple([0] + assigned[1:]))
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._assign(var, self.phase[var], -1)


def _widx(lit: int) -> int:
    """Watch-list index of a literal."""
    return 2 * lit if lit > 0 else 1 - 2 * lit


def _luby(i: int) -> int:
    """Term i (from 0) of the Luby sequence 1, 1, 2, 1, 1, 2, 4, ..."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq
