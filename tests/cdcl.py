"""Conflict-driven clause learning SAT solver for DIMACS CNF.

Two-watched-literal propagation, first-UIP learning, exponential moving
variable activity, and Luby restarts.  Used as the conforming solver for
the coloring-export checks, on both the satisfiable and the unsatisfiable
side; small instances only.
"""

from __future__ import annotations


def parse_dimacs(text):
    """Return (num_vars, clauses) where clauses are tuples of nonzero ints."""
    num_vars = None
    num_clauses = None
    clauses = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad header: {line!r}")
            num_vars, num_clauses = int(parts[2]), int(parts[3])
            continue
        lits = [int(tok) for tok in line.split()]
        if lits[-1] != 0:
            raise ValueError(f"clause not zero-terminated: {line!r}")
        clause = tuple(lits[:-1])
        if not clause:
            raise ValueError("empty clause in input")
        clauses.append(clause)
    if num_vars is None:
        raise ValueError("missing p cnf header")
    if num_clauses != len(clauses):
        raise ValueError(f"header says {num_clauses} clauses, found {len(clauses)}")
    for cl in clauses:
        for lit in cl:
            if not 1 <= abs(lit) <= num_vars:
                raise ValueError(f"literal {lit} out of range")
    return num_vars, clauses


def luby(i):
    # Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
    k = i.bit_length()
    if i == (1 << k) - 1:
        return 1 << (k - 1)
    return luby(i - (1 << (k - 1)) + 1)


class Solver:
    def __init__(self, num_vars, clauses):
        self.nv = num_vars
        self.clauses = []  # list of lists of literals
        self.watches = [[] for _ in range(2 * num_vars + 2)]
        self.assign = [0] * (num_vars + 1)  # 0 unknown, 1 true, -1 false
        self.level = [0] * (num_vars + 1)
        self.reason = [None] * (num_vars + 1)
        self.trail = []
        self.trail_lim = []
        self.activity = [0.0] * (num_vars + 1)
        self.act_inc = 1.0
        self.propagations = 0
        self.conflicts = 0
        self.ok = True
        for cl in clauses:
            if not self.add_clause(list(cl)):
                self.ok = False
                break

    @staticmethod
    def _widx(lit):
        return 2 * abs(lit) + (1 if lit < 0 else 0)

    def value(self, lit):
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def add_clause(self, lits):
        lits = list(dict.fromkeys(lits))
        if any(-l in lits for l in lits):
            return True  # tautology
        if len(lits) == 1:
            return self.enqueue(lits[0], None)
        self.clauses.append(lits)
        ci = len(self.clauses) - 1
        self.watches[self._widx(lits[0])].append(ci)
        self.watches[self._widx(lits[1])].append(ci)
        return True

    def enqueue(self, lit, reason):
        if self.value(lit) == 1:
            return True
        if self.value(lit) == -1:
            return False
        self.assign[abs(lit)] = 1 if lit > 0 else -1
        self.level[abs(lit)] = len(self.trail_lim)
        self.reason[abs(lit)] = reason
        self.trail.append(lit)
        return True

    def propagate(self):
        """Returns a conflicting clause index or None."""
        while self.propagations < len(self.trail):
            lit = self.trail[self.propagations]
            self.propagations += 1
            falsified = -lit
            widx = self._widx(falsified)
            watchers = self.watches[widx]
            kept = []
            i = 0
            while i < len(watchers):
                ci = watchers[i]
                i += 1
                cl = self.clauses[ci]
                # normalize: watched literals sit at positions 0 and 1
                if cl[0] == falsified:
                    cl[0], cl[1] = cl[1], cl[0]
                if self.value(cl[0]) == 1:
                    kept.append(ci)
                    continue
                # look for a replacement watch
                moved = False
                for j in range(2, len(cl)):
                    if self.value(cl[j]) != -1:
                        cl[1], cl[j] = cl[j], cl[1]
                        self.watches[self._widx(cl[1])].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if not self.enqueue(cl[0], ci):
                    kept.extend(watchers[i:])
                    self.watches[widx] = kept
                    return ci
            self.watches[widx] = kept
        return None

    def bump(self, var):
        self.activity[var] += self.act_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.nv + 1):
                self.activity[v] *= 1e-100
            self.act_inc *= 1e-100

    def analyze(self, confl):
        """First-UIP conflict analysis; returns (learnt clause, backtrack level)."""
        learnt = []
        seen = [False] * (self.nv + 1)
        counter = 0
        lit = None
        index = len(self.trail)
        cur_level = len(self.trail_lim)
        first = True
        while True:
            cl = self.clauses[confl]
            # when resolving on a reason clause, skip its asserting literal
            for l in (cl if first else [x for x in cl if x != lit]):
                var = abs(l)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self.bump(var)
                    if self.level[var] == cur_level:
                        counter += 1
                    else:
                        learnt.append(l)
            first = False
            # pick the next trail literal to resolve on
            while True:
                index -= 1
                lit = self.trail[index]
                if seen[abs(lit)]:
                    break
            counter -= 1
            seen[abs(lit)] = False
            if counter == 0:
                break
            confl = self.reason[abs(lit)]
        learnt.insert(0, -lit)
        if len(learnt) == 1:
            return learnt, 0
        back = max(self.level[abs(l)] for l in learnt[1:])
        # put a literal of the backtrack level in the second watch slot
        for j in range(1, len(learnt)):
            if self.level[abs(learnt[j])] == back:
                learnt[1], learnt[j] = learnt[j], learnt[1]
                break
        return learnt, back

    def backtrack(self, target):
        while len(self.trail_lim) > target:
            mark = self.trail_lim.pop()
            while len(self.trail) > mark:
                lit = self.trail.pop()
                self.assign[abs(lit)] = 0
                self.reason[abs(lit)] = None
        self.propagations = min(self.propagations, len(self.trail))

    def decide(self):
        best, best_act = 0, -1.0
        for v in range(1, self.nv + 1):
            if self.assign[v] == 0 and self.activity[v] > best_act:
                best, best_act = v, self.activity[v]
        return best

    def solve(self, conflict_cap=2_000_000):
        if not self.ok or self.propagate() is not None:
            return False
        restarts = 1
        limit = 100 * luby(restarts)
        since_restart = 0
        while True:
            confl = self.propagate()
            if confl is not None:
                self.conflicts += 1
                since_restart += 1
                if self.conflicts > conflict_cap:
                    raise RuntimeError(f"conflict cap {conflict_cap} exceeded")
                if not self.trail_lim:
                    return False
                learnt, back = self.analyze(confl)
                self.backtrack(back)
                if len(learnt) == 1:
                    if not self.enqueue(learnt[0], None):
                        return False
                else:
                    self.clauses.append(learnt)
                    ci = len(self.clauses) - 1
                    self.watches[self._widx(learnt[0])].append(ci)
                    self.watches[self._widx(learnt[1])].append(ci)
                    self.enqueue(learnt[0], ci)
                self.act_inc *= 1.052
                continue
            if since_restart > limit and self.trail_lim:
                restarts += 1
                limit = 100 * luby(restarts)
                since_restart = 0
                self.backtrack(0)
                continue
            var = self.decide()
            if var == 0:
                return True
            self.trail_lim.append(len(self.trail))
            # phase: try False first so at-least-one clauses drive colors
            self.enqueue(-var, None)

    def model(self):
        return {v: self.assign[v] == 1 for v in range(1, self.nv + 1)}


def solve_dimacs(text, conflict_cap=2_000_000):
    num_vars, clauses = parse_dimacs(text)
    solver = Solver(num_vars, clauses)
    if solver.solve(conflict_cap):
        return solver.model()
    return None


def decode_coloring(model, n_vertices, k):
    """Map a model of the coloring CNF back to a list of colors by vertex.

    Variable v*k + c + 1 true means vertex v gets color c.  When the model
    sets several colors true for one vertex (the encoding has no at-most-one
    clauses) the lowest color wins; unassigned variables count as False.
    """
    out = []
    for v in range(n_vertices):
        for c in range(k):
            if model.get(v * k + c + 1, False):
                out.append(c)
                break
        else:
            raise ValueError(f"model leaves vertex {v} uncolored")
    return out
