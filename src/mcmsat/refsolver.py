"""Self-contained complete solver for pseudo-Boolean decision instances.

Counter-based propagation over normalized >=-constraints, chronological
backtracking, and a deterministic lowest-index decision order.  Two
sound reductions keep the search from thrashing on don't-care blocks
(disabled candidate selectors, unused shift stages):

* a variable appearing in no unsatisfied constraint is fixed outright
  (single-variable autarky);
* when the lowest eligible variable sits in a small connected component
  of unsatisfied constraints whose unassigned variables are confined to
  that component, the component is completed in place and its decisions
  are frozen: by independence, no alternative completion of it can ever
  help (autarky reasoning), so backtracking treats them as forced.

Both reductions preserve completeness and determinism; neither stores
learned constraints.  A compiled core with the identical algorithm is
used when a C compiler is available (see native.py); the Python paths
below are the reference and the fallback; both read one row store of
flat int32 arrays.  A row whose positive coefficients sum beyond
2^31 - 1 does not fit that store and is refused with PbError.  Intended
for desk-scale instances; use an external solver beyond ~10-bit
constants.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate

from .pb import EQ, SAT, UNKNOWN, UNSAT, Model, PbError, PbFormula

FORCED = 0  # propagated, frozen autarky, or exhausted decision
OPEN = 1  # decision whose second phase is still untried

ISLAND_LIMIT = 96  # component size above which normal branching takes over
ISLAND_ROW_GATE = 64  # skip the component flood for busier variables

UNASSIGNED = -1
INT32_MAX = 2**31 - 1


class RefSolver:
    def __init__(self, formula: PbFormula, phases=None, use_native: bool = True):
        self.nvars = nv = formula.var_count
        # Preferred first value per variable; affects search order only.
        phases = phases or {}
        self.phases = array("B", [phases.get(v, 0) for v in range(nv + 1)])
        self.use_native = use_native
        self.root_conflict = False
        # The row store: each row normalized once to positive coefficients
        # over literals (+v / -v) and a >= bound, its terms ordered by
        # coefficient descending, then literal, in flat int32 arrays.  The
        # compiled core reads them in place, so they are never resized
        # after this constructor.
        row_ptr, row_coef, row_lit, bounds = (array("i", [0]), array("i"),
                                              array("i"), array("i"))
        maxposs = []

        def add_row(terms, bound):
            row = []
            for coef, var in terms:
                if coef > 0:
                    row.append((-coef, var))
                else:
                    row.append((coef, -var))
                    bound -= coef
            if bound <= 0:
                return
            total = -sum(key for key, _ in row)
            if total < bound:
                self.root_conflict = True
                return
            if total > INT32_MAX:
                # The total bounds every coefficient and the bound too.
                raise PbError(f"row coefficients sum to {total}, beyond the "
                              "bundled solver's int32 range")
            row.sort()
            row_coef.extend([-key for key, _ in row])
            row_lit.extend([lit for _, lit in row])
            row_ptr.append(len(row_lit))
            bounds.append(bound)
            maxposs.append(total)

        for c in formula.constraints:
            add_row(c.terms, c.bound)
            if c.relation == EQ:
                add_row([(-coef, var) for coef, var in c.terms], -c.bound)

        self.row_ptr, self.row_coef, self.row_lit = row_ptr, row_coef, row_lit
        self.bounds = bounds
        self.nrows = len(bounds)
        # Occurrences split by polarity, rows ascending within a variable:
        # assigning v=1 satisfies its pos rows and shrinks its neg rows;
        # v=0 the other way around.  A counting sort over the row store.
        count = Counter(row_lit)
        self.pos_ptr = array("i", accumulate([0] + [count[v] for v in range(nv + 1)]))
        self.neg_ptr = array("i", accumulate([0] + [count[-v] for v in range(nv + 1)]))
        pos_next, neg_next = self.pos_ptr.tolist(), self.neg_ptr.tolist()
        self.pos_row = array("i", [0]) * pos_next[-1]
        self.pos_coef = array("i", [0]) * pos_next[-1]
        self.neg_row = array("i", [0]) * neg_next[-1]
        self.neg_coef = array("i", [0]) * neg_next[-1]
        for ridx in range(self.nrows):
            for i in range(row_ptr[ridx], row_ptr[ridx + 1]):
                lit = row_lit[i]
                if lit > 0:
                    j = pos_next[lit]
                    pos_next[lit] = j + 1
                    self.pos_row[j], self.pos_coef[j] = ridx, row_coef[i]
                else:
                    j = neg_next[-lit]
                    neg_next[-lit] = j + 1
                    self.neg_row[j], self.neg_coef[j] = ridx, row_coef[i]
        pos = (self.pos_ptr, self.pos_row, self.pos_coef)
        neg = (self.neg_ptr, self.neg_row, self.neg_coef)
        # By value: (ptr, rows, coefs) of the occurrences an assignment
        # satisfies, then of those it shrinks.
        self._sides = (neg + pos, pos + neg)

        self.maxposs = maxposs
        self.satsum = [0] * self.nrows
        self.queued = bytearray(self.nrows)
        self.assigned = [UNASSIGNED] * (nv + 1)
        self.trail = []  # vars in assignment order
        self.kinds = []
        self._head = 1
        self._island = None
        self._island_height = 0
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        self.islands = 0

    # -- assignment machinery ------------------------------------------

    def _assign(self, var: int, value: int, kind: int, queue: list) -> int:
        """Set var; returns a conflicting row index or -1."""
        self.assigned[var] = value
        self.trail.append(var)
        self.kinds.append(kind)
        gp, gr, gc, lp, lr, lc = self._sides[value]
        satsum = self.satsum
        lo, hi = gp[var], gp[var + 1]
        for r, a in zip(gr[lo:hi], gc[lo:hi]):
            satsum[r] += a
        conflict = -1
        maxposs = self.maxposs
        bounds = self.bounds
        queued = self.queued
        lo, hi = lp[var], lp[var + 1]
        for r, a in zip(lr[lo:hi], lc[lo:hi]):
            mp = maxposs[r] = maxposs[r] - a
            if mp < bounds[r]:
                conflict = r
            elif satsum[r] < bounds[r] and not queued[r]:
                queued[r] = 1
                queue.append(r)
        return conflict

    def _unassign_to(self, height: int) -> int:
        """Pop the trail down to `height`; returns the lowest popped variable."""
        lowest = self.nvars + 1
        maxposs = self.maxposs
        satsum = self.satsum
        assigned = self.assigned
        trail = self.trail
        kinds = self.kinds
        while len(trail) > height:
            var = trail.pop()
            kinds.pop()
            value = assigned[var]
            assigned[var] = UNASSIGNED
            if var < lowest:
                lowest = var
            gp, gr, gc, lp, lr, lc = self._sides[value]
            lo, hi = gp[var], gp[var + 1]
            for r, a in zip(gr[lo:hi], gc[lo:hi]):
                satsum[r] -= a
            lo, hi = lp[var], lp[var + 1]
            for r, a in zip(lr[lo:hi], lc[lo:hi]):
                maxposs[r] += a
        return lowest

    def _propagate(self, queue: list) -> int:
        """Exhaust forced assignments; returns a conflicting row or -1."""
        assigned = self.assigned
        bounds = self.bounds
        maxposs = self.maxposs
        satsum = self.satsum
        row_ptr = self.row_ptr
        row_coef = self.row_coef
        row_lit = self.row_lit
        queued = self.queued

        def flush(ridx):
            for r in queue:
                queued[r] = 0
            queue.clear()
            return ridx

        while queue:
            ridx = queue.pop()
            queued[ridx] = 0
            bound = bounds[ridx]
            if satsum[ridx] >= bound:
                continue
            slack = maxposs[ridx] - bound
            if slack < 0:
                return flush(ridx)
            for i in range(row_ptr[ridx], row_ptr[ridx + 1]):
                a = row_coef[i]
                if a <= slack:
                    break
                lit = row_lit[i]
                var = lit if lit > 0 else -lit
                if assigned[var] == UNASSIGNED:
                    self.propagations += 1
                    conflict = self._assign(var, 1 if lit > 0 else 0, FORCED, queue)
                    if conflict >= 0:
                        return flush(conflict)
                    if satsum[ridx] >= bound:
                        break
                    slack = maxposs[ridx] - bound
                    if slack < 0:
                        return flush(ridx)
        return -1

    def _backtrack(self) -> bool:
        """Flip the deepest open decision; False when the tree is exhausted."""
        kinds = self.kinds
        trail = self.trail
        while True:
            self.conflicts += 1
            idx = len(trail) - 1
            while idx >= 0 and kinds[idx] != OPEN:
                idx -= 1
            if idx < 0:
                return False
            if self._island is not None and idx < self._island_height:
                self._island = None  # prefix under the island changed
            var = trail[idx]
            value = self.assigned[var]
            lowest = self._unassign_to(idx)
            if lowest < self._head:
                self._head = lowest
            queue = []
            conflict = self._assign(var, 1 - value, FORCED, queue)
            if conflict < 0 and self._propagate(queue) < 0:
                return True

    # -- decision helpers ----------------------------------------------

    def _pending_rows(self, var: int, cap: int) -> int:
        """Number of unsatisfied rows containing var; -1 once above cap."""
        satsum = self.satsum
        bounds = self.bounds
        count = 0
        for ptr, rows in ((self.pos_ptr, self.pos_row), (self.neg_ptr, self.neg_row)):
            for r in rows[ptr[var]:ptr[var + 1]]:
                if satsum[r] < bounds[r]:
                    count += 1
                    if count > cap:
                        return -1
        return count

    def _flood_island(self, start: int):
        """Connected component of unsatisfied rows around `start`.

        Returns the set of unassigned variables in the component, or
        None once it exceeds ISLAND_LIMIT.
        """
        assigned = self.assigned
        satsum = self.satsum
        bounds = self.bounds
        row_ptr = self.row_ptr
        row_lit = self.row_lit
        occurrences = ((self.pos_ptr, self.pos_row), (self.neg_ptr, self.neg_row))
        seen_rows = set()
        vars_seen = {start}
        stack = [start]
        while stack:
            var = stack.pop()
            for ptr, rows in occurrences:
                for ridx in rows[ptr[var]:ptr[var + 1]]:
                    if ridx in seen_rows or satsum[ridx] >= bounds[ridx]:
                        continue
                    seen_rows.add(ridx)
                    for lit in row_lit[row_ptr[ridx]:row_ptr[ridx + 1]]:
                        v = lit if lit > 0 else -lit
                        if assigned[v] == UNASSIGNED and v not in vars_seen:
                            vars_seen.add(v)
                            if len(vars_seen) > ISLAND_LIMIT:
                                return None
                            stack.append(v)
        return vars_seen

    def _decide(self, var: int) -> bool:
        self.decisions += 1
        queue = []
        conflict = self._assign(var, self.phases[var], OPEN, queue)
        if conflict >= 0 or self._propagate(queue) >= 0:
            return self._backtrack()
        return True

    # -- main loop -------------------------------------------------------

    def solve(self, stop=None, collect=None):
        """Run the search to completion, or until `stop()` returns True.

        `stop` takes no arguments and is asked every 1024 steps here and
        between the compiled core's time slices; its True ends the
        search as UNKNOWN.  With `collect`, every model is passed to the
        callback and the search keeps going (exhaustively, autarky
        reductions disabled) until the callback returns False or the
        tree is spent.
        """
        if self.root_conflict:
            return UNSAT, None
        if collect is None and self.use_native:
            from . import native

            core = native.load()
            if core is not None:
                return native.run(core, self, stop)
        return self._solve_python(stop, collect)

    def _solve_python(self, stop=None, collect=None):
        enumerating = collect is not None
        queue = list(range(self.nrows))
        for r in queue:
            self.queued[r] = 1
        if self._propagate(queue) >= 0:
            return UNSAT, None
        assigned = self.assigned
        steps = 0
        while True:
            steps += 1
            if steps & 1023 == 0 and stop is not None and stop():
                return UNKNOWN, None
            if self._island is not None:
                if len(self.trail) < self._island_height:
                    self._island = None  # backtracked out, resume normally
                else:
                    var = 0
                    for v in self._island:
                        if assigned[v] == UNASSIGNED and (var == 0 or v < var):
                            var = v
                    if var == 0:
                        # Complete and consistent: freeze its decisions.
                        for i in range(self._island_height, len(self.trail)):
                            if self.trail[i] in self._island:
                                self.kinds[i] = FORCED
                        self._island = None
                        self.islands += 1
                    else:
                        if not self._decide(var):
                            return UNSAT, None
                        continue
            head = self._head
            while head <= self.nvars and assigned[head] != UNASSIGNED:
                head += 1
            self._head = head
            if head > self.nvars:
                model = Model(tuple([0] + assigned[1:]))
                if not enumerating:
                    return SAT, model
                if not collect(model):
                    return SAT, model
                if not self._backtrack():
                    return UNSAT, None
                continue
            if not enumerating:
                pending = self._pending_rows(head, ISLAND_ROW_GATE)
                if pending == 0:
                    # Occurs only in satisfied rows: fix it, never revisit.
                    self._assign(head, 0, FORCED, [])
                    continue
                if pending > 0:
                    component = self._flood_island(head)
                    if component is not None:
                        self._island = component
                        self._island_height = len(self.trail)
                        continue
            if not self._decide(head):
                return UNSAT, None


def enumerate_models(formula: PbFormula, limit=None):
    """Every satisfying assignment, in deterministic search order."""
    out = []

    def keep(model):
        out.append(model)
        return limit is None or len(out) < limit

    RefSolver(formula).solve(collect=keep)
    return out
