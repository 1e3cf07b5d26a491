"""Brute-force exploration of fixed-size networks, used to cross-check the
layer algorithms on small instances.

A network state fuses the n per-process clock blocks and the shared global
clock t into one product region; delays are the region's immediate time
successors, discrete steps move one process (or, for broadcast models, a
sender plus any subset of receivers in the same instant).  States are
deduplicated up to process permutation by sorting per-process signatures
(Ip & Dill, FMSD 1996; Hendriks et al., FORMATS 2003); see `_Net.canon`.

Witness traces are found without symmetry reduction and then concretized:
each delay edge admits a non-empty rational interval of durations, from
which the midpoint (or the forced exact value) is taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from collections import deque

from .model import Automaton, compute_bounds
from .regions import T, Region, RegionState, initial_region


def _pclock(c: str, i: int) -> str:
    return f"{c}@{i + 1}"


class _Net:
    """Shared plumbing for product-region exploration of n copies."""

    def __init__(self, a: Automaton, n: int, slot_cap: int):
        self.a = a
        self.n = n
        self.slot_cap = slot_cap
        self.tmax = slot_cap + 2  # never reached: crossings are pruned at the cap
        self.cclocks = tuple(sorted(a.clocks))
        self.cbounds = compute_bounds(a)
        self.clocks = tuple(
            _pclock(c, i) for i in range(n) for c in self.cclocks
        ) + (T,)
        self.bounds = {_pclock(c, i): self.cbounds[c]
                       for i in range(n) for c in self.cclocks}
        self.bounds[T] = 1
        k = len(self.cclocks)
        self.blocks = tuple(slice(i * k, (i + 1) * k) for i in range(n))
        self.local = tuple({**dict(zip(self.clocks[blk], self.cclocks)), T: T}
                           for blk in self.blocks)
        self.trans_from = {}
        for tr in a.transitions:
            self.trans_from.setdefault(tr.src, []).append(tr)
        self.inv_cache = {}

    def initial(self) -> RegionState:
        locs = (self.a.initial,) * self.n
        return RegionState(locs, initial_region(self.clocks, self.bounds), 0)

    def inv_atoms(self, loc: str, i: int):
        key = (loc, i)
        if key not in self.inv_cache:
            self.inv_cache[key] = tuple(
                (_pclock(at.left, i), at.op, None, at.d)
                for at in self.a.invariant(loc)
            )
        return self.inv_cache[key]

    def invariants_ok(self, locs, region: Region) -> bool:
        return all(
            region.satisfies(self.inv_atoms(q, i)) for i, q in enumerate(locs)
        )

    def ren_atoms(self, atoms, i: int):
        return tuple(
            (_pclock(at.left, i), at.op,
             _pclock(at.right, i) if at.right else None, at.d)
            for at in atoms
        )

    def delay_succ(self, state: RegionState):
        """One immediate time successor, or None (blocked or beyond the cap)."""
        res = state.advance(self.tmax)
        if res is None:
            return None
        kind, nxt = res
        if kind == "cross" and (nxt.index > self.slot_cap or nxt.unbounded):
            return None
        if not self.invariants_ok(state.loc, nxt.base):
            return None
        return nxt

    def canon(self, state: RegionState):
        """Orbit key of `state` under permutations of the processes.

        Each clock becomes a cell: its value class ((-1, False) if collapsed)
        and the rank of its fractional class (-1 if none).  The cells give the
        region back, the rank-r clocks being its r-th fractional class.  A
        permutation only permutes the process signatures (location, cells of
        its clocks), so the sorted signatures with t's cell, index and
        unbounded flag are equal exactly for states in one orbit.
        """
        rank = {c: r for r, cls in enumerate(state.base.fracs) for c in cls}
        cells = tuple(((-1, False) if v is None else v, rank.get(c, -1))
                      for c, v in zip(self.clocks, state.base.vals))
        sigs = sorted((q,) + cells[blk] for q, blk in zip(state.loc, self.blocks))
        return (tuple(sigs), cells[-1], state.index, state.unbounded)

    def member_project(self, state: RegionState, i: int):
        """Process i and t as a one-process region key over cclocks + (t,)."""
        local = self.local[i]
        fracs = (tuple(sorted(local[c] for c in cls if c in local))
                 for cls in state.base.fracs)
        vals = state.base.vals[self.blocks[i]] + state.base.vals[-1:]
        return (state.loc[i], state.unbounded,
                (vals, tuple(cls for cls in fracs if cls), self.cclocks + (T,)))

    def support_of(self, state: RegionState):
        return frozenset(self.member_project(state, i) for i in range(self.n))


def _gta_moves(net: _Net, state: RegionState):
    """(descriptor, new state) pairs; a descriptor is a tuple of (i, tr) movers."""
    out = []
    locs = state.loc
    for i in range(net.n):
        for tr in net.trans_from.get(locs[i], ()):
            if tr.locguard is not None and not any(
                j != i and locs[j] == tr.locguard for j in range(net.n)
            ):
                continue
            if not state.base.satisfies(net.ren_atoms(tr.guard, i)):
                continue
            nb = state.base.reset([_pclock(c, i) for c in tr.resets])
            if not nb.satisfies(net.inv_atoms(tr.dst, i)):
                continue
            nlocs = locs[:i] + (tr.dst,) + locs[i + 1 :]
            out.append((((i, tr),),
                        RegionState(nlocs, nb, state.index, state.unbounded)))
    return out


def _lbta_moves(net: _Net, state: RegionState):
    """Broadcast macro steps: sender plus every subset of enabled receivers."""
    out = []
    locs = state.loc
    for i in range(net.n):
        for tr in net.trans_from.get(locs[i], ()):
            if tr.sync is None or tr.sync[1] != "!!":
                continue
            if not state.base.satisfies(net.ren_atoms(tr.guard, i)):
                continue
            chan = tr.sync[0]
            options = []
            for j in range(net.n):
                if j == i:
                    continue
                opts = [None]
                for rt in net.trans_from.get(locs[j], ()):
                    if rt.sync and rt.sync == (chan, "??") and \
                            state.base.satisfies(net.ren_atoms(rt.guard, j)):
                        opts.append((j, rt))
                options.append(opts)
            for combo in product(*options):
                resets = [_pclock(c, i) for c in tr.resets]
                nlocs = list(locs)
                nlocs[i] = tr.dst
                receivers = []
                for choice in combo:
                    if choice is None:
                        continue
                    j, rt = choice
                    resets.extend(_pclock(c, j) for c in rt.resets)
                    nlocs[j] = rt.dst
                    receivers.append((j, rt))
                nb = state.base.reset(resets)
                if not all(
                    nb.satisfies(net.inv_atoms(q, j)) for j, q in enumerate(nlocs)
                ):
                    continue
                receivers.sort(key=lambda m: m[0])
                desc = tuple([(i, tr)] + receivers)
                out.append((desc, RegionState(tuple(nlocs), nb,
                                              state.index, state.unbounded)))
    return out


@dataclass
class OracleResult:
    n: int
    slot_cap: int
    labels: set = field(default_factory=set)
    loc_sets: set = field(default_factory=set)
    supports: dict = field(default_factory=dict)  # ("point"|"open", index) -> supports
    states_explored: int = 0
    exhausted: bool = False


def _explore(a: Automaton, n, slot_cap, max_states, moves_fn) -> OracleResult:
    net = _Net(a, n, slot_cap)
    res = OracleResult(n, slot_cap)
    start = net.initial()
    seen = {net.canon(start)}
    queue = deque([start])

    def record(state):
        res.loc_sets.add(frozenset(state.loc))
        kind = "point" if state.base.val(T)[1] else "open"
        res.supports.setdefault((kind, state.index), set()).add(net.support_of(state))

    record(start)
    while queue:
        state = queue.popleft()
        res.states_explored += 1
        succs = []
        d = net.delay_succ(state)
        if d is not None:
            succs.append(d)
        for desc, nxt in moves_fn(net, state):
            for _, tr in desc:
                if tr.label is not None:
                    res.labels.add(tr.label)
            succs.append(nxt)
        for nxt in succs:
            k = net.canon(nxt)
            if k not in seen:
                if len(seen) >= max_states:
                    res.exhausted = True
                    return res
                seen.add(k)
                record(nxt)
                queue.append(nxt)
    return res


def explore_network(a: Automaton, n: int, slot_cap: int = 8,
                    max_states: int = 10 ** 6) -> OracleResult:
    """All reachable product-region states of A^n with slot index <= slot_cap."""
    if a.kind == "lbta":
        return _explore(a, n, slot_cap, max_states, _lbta_moves)
    return _explore(a, n, slot_cap, max_states, _gta_moves)


# -- witness traces -------------------------------------------------------------


def witness_region_path(a: Automaton, n: int, label: str, slot_cap: int = 8,
                        max_states: int = 10 ** 6):
    """BFS without symmetry reduction until `label` fires; returns the step list.

    Steps are ("delay", state) and ("fire", descriptor, state); None if the
    label does not fire within the bounds.
    """
    net = _Net(a, n, slot_cap)
    moves_fn = _lbta_moves if a.kind == "lbta" else _gta_moves
    start = net.initial()
    parent = {start.key(): None}
    queue = deque([start])
    goal = None
    while queue and goal is None:
        state = queue.popleft()
        d = net.delay_succ(state)
        cands = [(("delay",), d)] if d is not None else []
        for desc, nxt in moves_fn(net, state):
            cands.append((("fire", desc), nxt))
        for step, nxt in cands:
            k = nxt.key()
            if k not in parent:
                if len(parent) >= max_states:
                    return None
                parent[k] = (state, step, nxt)
                queue.append(nxt)
                if step[0] == "fire" and any(
                    tr.label == label for _, tr in step[1]
                ):
                    goal = nxt
                    break
    if goal is None:
        return None
    steps = []
    k = goal.key()
    while parent[k] is not None:
        prev, step, state = parent[k]
        steps.append((step, state))
        k = prev.key()
    steps.reverse()
    return steps


def concretize(a: Automaton, n: int, steps):
    """Turn a region step list into a flat timed trace with rational delays.

    Returns a list of {"delay": Fraction, "process": i (1-based), "label": str
    or None} entries; receivers of a broadcast appear right after their sender
    with delta 0.
    """
    net = _Net(a, n, 0)
    vals = {c: Fraction(0) for c in net.clocks}
    pending = Fraction(0)
    trace = []
    for step, state in steps:
        if step[0] == "delay":
            delta = _delay_into(vals, state)
            for c in vals:
                vals[c] += delta
            pending += delta
        else:
            first = True
            for i, tr in step[1]:
                for c in tr.resets:
                    vals[_pclock(c, i)] = Fraction(0)
                trace.append({
                    "delay": pending if first else Fraction(0),
                    "process": i + 1,
                    "label": tr.label,
                })
                first = False
                pending = Fraction(0)
    return trace


def _delay_into(vals, target: RegionState):
    """Midpoint (or forced) duration moving `vals` into the target region.

    Clock values are real; the target's t carries integer part `index` on top
    of its rebased class.
    """
    assert not target.unbounded
    lo, hi, exact = Fraction(0), None, None
    for idx, c in enumerate(target.base.clocks):
        v = vals[c]
        off = target.index if c == T else 0
        tv = target.base.vals[idx]
        if tv is None:
            lo = max(lo, target.base.bounds[idx] - v)
        elif tv[1]:
            exact = tv[0] + off - v
        else:
            lo = max(lo, tv[0] + off - v)
            h = tv[0] + off + 1 - v
            hi = h if hi is None else min(hi, h)
    if exact is not None:
        return exact
    if hi is None:
        return lo + 1
    return (lo + hi) / 2


def eval_constraint_on_locs(a: Automaton, constraint, res: OracleResult) -> bool:
    """Does any explored configuration satisfy the counting constraint?"""
    from .dtn_global import constraint_locations, eval_constraint, parse_constraint

    node = parse_constraint(constraint) if isinstance(constraint, str) else constraint
    for q in sorted(constraint_locations(node)):
        if q not in a.locations:
            raise ValueError(f"unknown location {q!r} in constraint")
    return any(eval_constraint(ls, node) for ls in res.loc_sets)


def project_trace(trace, procs):
    """Keep the given processes' non-silent steps, folding delays forward."""
    if isinstance(procs, int):
        procs = {procs}
    acc = Fraction(0)
    out = []
    for entry in trace:
        acc += Fraction(entry["delay"])
        if entry["process"] in procs and entry["label"] is not None:
            out.append({"delay": acc, "process": entry["process"],
                        "label": entry["label"]})
            acc = Fraction(0)
    return out


# -- concrete-valuation validation ------------------------------------------------


def _atom_holds(atom, vals) -> bool:
    left, op, right, d = atom
    x = vals[left] - (vals[right] if right else 0)
    return {"<": x < d, "<=": x <= d, "==": x == d,
            ">=": x >= d, ">": x > d}[op]


def simulate_trace(a: Automaton, n: int, trace):
    """Replay a flat trace on A^n, checking guards, invariants and witnesses.

    Returns the list of (time, locations) snapshots after every entry; raises
    ValueError on the first violation.
    """
    locs = [a.initial] * n
    vals = [{c: Fraction(0) for c in a.clocks} for _ in range(n)]
    now = Fraction(0)
    snaps = [(now, tuple(locs))]
    for entry in trace:
        delta = Fraction(entry["delay"])
        i = entry["process"] - 1
        if delta < 0:
            raise ValueError("negative delay")
        if delta > 0:
            for j in range(n):
                cand = {c: vals[j][c] + delta for c in a.clocks}
                if not all(_atom_holds(at, cand) for at in a.invariant(locs[j])):
                    raise ValueError(f"invariant of {locs[j]} broken by delay")
            for j in range(n):
                for c in a.clocks:
                    vals[j][c] += delta
            now += delta
        cands = [
            tr for tr in a.transitions
            if tr.src == locs[i] and tr.label == entry["label"]
            and all(_atom_holds(at, vals[i]) for at in tr.guard)
        ]
        fired = None
        for tr in cands:
            if tr.locguard is not None and not any(
                j != i and locs[j] == tr.locguard for j in range(n)
            ):
                continue
            after = dict(vals[i])
            for c in tr.resets:
                after[c] = Fraction(0)
            if not all(_atom_holds(at, after) for at in a.invariant(tr.dst)):
                continue
            fired = (tr, after)
            break
        if fired is None:
            raise ValueError(
                f"no enabled transition {entry['label']!r} from {locs[i]} at {now}"
            )
        tr, after = fired
        vals[i] = after
        locs[i] = tr.dst
        snaps.append((now, tuple(locs)))
    return snaps
