"""Incremental CDCL SAT solver over DIMACS-style integer clauses.

Variables are ``1..num_vars``; literal ``-v`` is the negation of ``v``.
The solver knows nothing of feature names: ``cdlsem.sat`` encodes models
as clauses and reads answers back from ``Solver.model``.
"""

from __future__ import annotations

from itertools import compress
from operator import not_


class Solver:
    """Incremental CDCL search over one CNF (Een & Sorensson, SAT 2003).

    Propagation watches two literals per clause; a conflict yields a
    first-UIP clause and a non-chronological backjump; decisions take the
    unset variable bumped last in a move-to-front queue (VMTF: Biere &
    Froehlich, SAT 2015), the lowest one before any conflict, with saved
    phases, so every answer is deterministic.  Assumptions are the first
    decisions, never premises of a learnt clause, so learnt clauses and
    level-0 facts stay valid across calls with other assumptions.

    Once the assumptions are propagated, every clause with at most one
    positive literal holds with each unset variable false, or propagation
    would have fired on it.  The solver keeps the clauses it is given
    with two or more positive literals, the wide clauses; when they hold
    too and every unset variable's phase is false, that assignment is the
    model the search would reach with no conflict, and ``solve`` takes it
    at once (the least model of a Horn formula: Dowling & Gallier, J.
    Logic Programming 1984).

    Literal-indexed lists have ``2 * num_vars + 1`` slots: literal ``l``
    sits at index ``l``, and a negative index wraps to the far end.  Most
    clauses of a Tseitin encoding are binary, so a binary clause (x, y)
    is stored only as the int y in x's watch list and x in y's, and the
    reason of a literal it implies is the true literal ``-x``.

    The constructor loads ``clauses`` in order, as one ``add_clause``
    call each would.  A two-literal tuple over two distinct, unset
    variables in range goes straight onto the watch lists; every other
    clause takes ``add_clause``, with its level-0 simplification and its
    ``ValueError``s.  Once the clauses are unsatisfiable, the rest are
    ignored, as ``add_clause`` ignores them.
    """

    def __init__(self, num_vars: int, clauses=()):
        n = self.num_vars = num_vars
        self.value = [0] * (2 * n + 1)  # by literal: 1 true, -1 false, 0 unset
        # watches[l]: clauses to visit when l turns false (int: binary partner)
        self.watches: list[list] = [[] for _ in range(2 * n + 1)]
        self.level = [0] * (n + 1)
        self.reason: list = [None] * (n + 1)  # clause, true literal, or None
        self.seen = [False] * (n + 1)
        # the decision queue: a ring through the sentinel 0, in rising
        # stamp order, n first and 1 last; a bump moves a variable to the
        # end; every variable after ``search`` is assigned
        stamp = self.stamp = list(range(n + 1))  # ints shared by all three
        self.next = [n] + stamp[:n]  # toward the end; next[0] is the first
        self.prev = stamp[1:] + [0]  # toward the front; prev[0] is the last
        stamp.reverse()
        stamp[0] = -1  # older than all: search stops at 0 when all are set
        self.search = self.prev[0]
        self.phase = [False] * (n + 1)  # polarity of the next decision
        self.trail: list[int] = []
        self.trail_lim: list[int] = []  # trail length at each decision
        self.qhead = 0
        self.ok = True  # false once the clauses alone are unsatisfiable
        self.model: list[int] = []  # ``value`` as of the last sat answer
        self.wide: list = []  # given clauses with two or more positive literals
        value, watches, wide = self.value, self.watches, self.wide
        for cl in clauses:
            if cl.__class__ is tuple and len(cl) == 2:
                a, b = cl
                # what add_clause would attach: distinct unset variables
                if (a and b and a != b and a != -b and -n <= a <= n
                        and -n <= b <= n and not (value[a] or value[b])):
                    watches[a].append(b)
                    watches[b].append(a)
                    if a > 0 and b > 0:
                        wide.append(cl)
                    continue
            self.add_clause(cl)
            if not self.ok:
                break  # every later clause would be ignored

    def add_clause(self, lits) -> None:
        """Add a clause for good; it must follow from, or define, the CNF."""
        if not self.ok:
            return
        value, num_vars = self.value, self.num_vars
        members = dict.fromkeys(lits)
        drop = False  # a literal is false at level 0 (lists stay of exact length)
        for l in members:
            if not 1 <= abs(l) <= num_vars:
                raise ValueError(f"literal {l} out of range")
            if (v := value[l]) == 1 or -l in members:
                return  # satisfied at level 0, or a tautology
            drop = drop or v < 0
        clause = [l for l in members if not value[l]] if drop else list(members)
        if not clause:
            self.ok = False
        elif len(clause) == 1:
            self._assign(clause[0], None)
            self.ok = self._propagate() is None
        else:
            self._attach(clause)
            if len([l for l in clause if l > 0]) > 1:
                self.wide.append(clause)

    def solve(self, assumptions=()) -> bool:
        """Satisfiable with every assumed literal true?  Sets ``model``."""
        num_vars = self.num_vars
        for a in assumptions:
            if not 1 <= abs(a) <= num_vars:
                raise ValueError(f"assumption {a} out of range")
        value, trail, trail_lim = self.value, self.trail, self.trail_lim
        while self.ok:
            confl = self._propagate()
            if confl is not None:
                if not trail_lim:
                    self.ok = False
                    break
                learnt, back = self._analyze(confl)
                self._cancel_until(back)
                if len(learnt) == 1:
                    self._assign(learnt[0], None)
                else:
                    self._attach(learnt)
                    binary = len(learnt) == 2
                    self._assign(learnt[0], -learnt[1] if binary else learnt)
                continue
            depth = len(trail_lim)
            if depth < len(assumptions):
                lit = assumptions[depth]
                if value[lit] == -1:
                    break
                if value[lit] == 1:
                    trail_lim.append(len(trail))  # already true: empty level
                    continue
            else:
                if depth == len(assumptions) and self._closure_model():
                    return True
                lit = self._pick_branch()
                if lit == 0:
                    self.model = value[:]
                    self._cancel_until(0)
                    return True
            trail_lim.append(len(trail))
            self._assign(lit, None)
        self._cancel_until(0)
        return False

    def probe(self, lit: int) -> list[int] | None:
        """The literals true once ``lit`` is assumed and propagated, or None.

        Opens one decision level, assumes ``lit``, runs unit propagation
        and undoes the level; no search, no learning.  The result is the
        level-0 facts followed by what ``lit`` implies, ``lit`` included,
        or None when propagation meets a conflict (or ``lit`` is false at
        level 0).  Call it between queries: ``value``, ``trail``,
        ``trail_lim``, ``qhead``, the phases and the decision queue are
        left as they were found.  Watched literals stay where propagation
        moved them, as after a backtrack, so later answers do not move,
        though a later search may find another model.
        """
        if not 1 <= abs(lit) <= self.num_vars:
            raise ValueError(f"probe {lit} out of range")
        value, trail = self.value, self.trail
        if not self.ok or value[lit] == -1:
            return None
        if value[lit] == 1:
            return trail[:]
        mark = len(trail)
        self.trail_lim.append(mark)
        self._assign(lit, None)
        implied = trail[:] if self._propagate() is None else None
        reason = self.reason
        for l in trail[mark:]:
            value[l] = value[-l] = 0
            reason[abs(l)] = None
        del trail[mark:]
        self.trail_lim.pop()
        self.qhead = mark
        return implied

    def closure_is_model(self, closure) -> bool:
        """Is ``closure`` true with every other variable false a model?

        ``closure`` lists the true literals after a propagation with no
        conflict, such as a ``probe`` result, the trail, or a set of them.
        Propagation has left no other clause false under that assignment,
        so only the wide clauses are checked.
        """
        true = closure if closure.__class__ is set else set(closure)
        for c in self.wide:
            for l in c:
                if l in true if l > 0 else -l not in true:
                    break
            else:
                return False
        return True

    def _closure_model(self) -> bool:
        """End the search in the closure where no decision could differ.

        Called with the assumptions propagated.  When every unset phase is
        false and the trail is a closure model, each decision and all it
        propagates set variables false, and the search ends there with no
        conflict.  Take that model, leave ``phase`` and the queue as that
        search would, and return True.
        """
        value, n = self.value, self.num_vars
        free = list(map(not_, value[1:n + 1]))
        if any(compress(self.phase[1:], free)) or not self.closure_is_model(self.trail):
            return False
        model = value[:]
        for v in compress(range(1, n + 1), free):
            model[v] = -1
            model[-v] = 1
        self.model = model
        # the search would stop at 0; undoing its decisions would leave
        # ``search`` at the newest of them, the newest unset variable now
        v, prev = self.search, self.prev
        while value[v]:
            v = prev[v]
        self.search = v
        self._cancel_until(0)
        return True

    def _attach(self, clause: list[int]) -> None:
        if len(clause) == 2:
            a, b = clause
            self.watches[a].append(b)
            self.watches[b].append(a)
        else:
            self.watches[clause[0]].append(clause)
            self.watches[clause[1]].append(clause)

    def _assign(self, lit: int, reason) -> None:
        v = abs(lit)
        self.value[lit] = 1
        self.value[-lit] = -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self) -> list[int] | None:
        """Unit propagation from ``qhead``; returns a conflicting clause."""
        value, watches, trail = self.value, self.watches, self.trail
        level, reason = self.level, self.reason
        depth = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            false_lit = -p
            ws = watches[false_lit]
            if not ws:
                continue
            keep: list = []
            watches[false_lit] = keep
            for i, c in enumerate(ws):
                keep.append(c)
                if c.__class__ is int:  # binary clause (false_lit, c)
                    if value[c] == 0:
                        value[c] = 1
                        value[-c] = -1
                        v = abs(c)
                        level[v] = depth
                        reason[v] = p
                        trail.append(c)
                    elif value[c] == -1:
                        keep.extend(ws[i + 1:])
                        self.qhead = len(trail)
                        return [c, false_lit]
                    continue
                # keep the false watch at c[1]; c[0] is the other watch
                first = c[0]
                if first == false_lit:
                    first = c[1]
                    c[0] = first
                    c[1] = false_lit
                if value[first] == 1:
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if value[lit] != -1:
                        c[1] = lit
                        c[k] = false_lit
                        watches[lit].append(c)
                        keep.pop()
                        break
                else:
                    if value[first] == -1:
                        keep.extend(ws[i + 1:])
                        self.qhead = len(trail)
                        return c
                    value[first] = 1
                    value[-first] = -1
                    v = abs(first)
                    level[v] = depth
                    reason[v] = c
                    trail.append(first)
        self.qhead = qhead
        return None

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """The first-UIP clause, asserting literal first, and its backjump."""
        seen, level, reason = self.seen, self.level, self.reason
        trail = self.trail
        depth = len(self.trail_lim)
        learnt = [0]
        bumped = []
        pending = 0  # seen literals of the conflict level not yet resolved
        p = 0
        i = len(trail) - 1
        clause = confl
        while True:
            for q in clause:
                v = abs(q)
                if q != p and not seen[v] and level[v] > 0:
                    seen[v] = True
                    bumped.append(v)
                    if level[v] == depth:
                        pending += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[i])]:
                i -= 1
            p = trail[i]
            i -= 1
            seen[abs(p)] = False
            pending -= 1
            if pending == 0:
                break
            clause = reason[abs(p)]
            if clause.__class__ is int:
                clause = (-clause,)  # binary reason: p and the false -clause
        learnt[0] = -p
        self._bump(bumped)
        for q in learnt[1:]:
            seen[abs(q)] = False
        if len(learnt) == 1:
            return learnt, 0
        # watch the deepest remaining literal: it is the last to be unset
        j = max(range(1, len(learnt)), key=lambda k: level[abs(learnt[k])])
        learnt[1], learnt[j] = learnt[j], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _bump(self, vs: list[int]) -> None:
        """Move ``vs`` to the end of the queue, keeping their order."""
        nxt, prev, stamp = self.next, self.prev, self.stamp
        for v in sorted(vs, key=stamp.__getitem__):
            before, after = prev[v], nxt[v]
            nxt[before] = after
            prev[after] = before
            last = prev[0]
            stamp[v] = stamp[last] + 1
            nxt[last] = v
            prev[v] = last
            nxt[v] = 0
            prev[0] = v

    def _pick_branch(self) -> int:
        """Decision literal of the unset variable bumped last, or 0."""
        value, prev = self.value, self.prev
        v = self.search
        while value[v]:
            v = prev[v]
        self.search = v
        return v if self.phase[v] else -v

    def _cancel_until(self, depth: int) -> None:
        """Undo every assignment above decision level ``depth``."""
        if len(self.trail_lim) <= depth:
            return
        value, reason, phase = self.value, self.reason, self.phase
        stamp, search = self.stamp, self.search
        mark = self.trail_lim[depth]
        for lit in self.trail[mark:]:
            v = abs(lit)
            value[lit] = value[-lit] = 0
            reason[v] = None
            phase[v] = lit > 0
            if stamp[v] > stamp[search]:
                search = v  # the newest unset variable
        self.search = search
        del self.trail[mark:]
        del self.trail_lim[depth:]
        self.qhead = mark
