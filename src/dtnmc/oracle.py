"""Brute-force exploration of fixed-size networks, used to cross-check the
layer algorithms on small instances.

A signature is a location and one cell per clock: its value class, (integer
part, is integer) or (-1, False) above the bound, and the rank of its
fractional part among all clocks and t (-1 if none).  A network state is
(ids, tcell, index): one signature id per process, the cell of the global
clock t (rebased to integer part 0) and the slot index.  Guards, invariants,
delays and resets read one process's cells, whatever n and the slot cap, so
each automaton keeps one `_SigTable` in `a.tables` (hash-consing, Filliâtre
& Conchon 2006): it numbers signatures and memoizes their steps by id for
every `_Net`, which adds n, the slot cap and the clock layout of A^n.

Permuting processes permutes `ids` and nothing else, and interning is
one-to-one, so the state with sorted ids is its orbit key (Ip & Dill, FMSD
1996; Hendriks et al., FORMATS 2003); which ids earlier queries took changes
no orbit.  `explore_network` is the one search: a BFS that queues only the
first-reached member of each orbit at each slot index, unsorted.  Without a
target it runs to the slot cap or the budget; location sets are read off
the reached orbits when first asked for.  With a target, a label
or a counting constraint, it keeps parent links and stops at the first hit.

No guard or invariant reads t, so a state's successors depend on its member
(ids, tcell) and not on its index, except that `_Net.delay` cuts the delay
out of the last slot (A^n has a finite region graph: Alur & Dill, TCS 1994).
The search keeps one successor row per member expanded below the cap and
reuses it at any other index, shifted and without the delay out of the last
slot, until it expands the member at the cap.  The reached set maps each
index-free orbit (sorted ids, tcell) to a bitmask of the indices reached.
Successors commute with permuting processes, so the first hit and its parent
chain, and so the returned path, are those of the unreduced search.  Only the
path's steps become `RegionState`s, which `concretize` turns into a timed
trace, taking the midpoint (or the forced value) of each delay's interval.
"""

from __future__ import annotations

from bisect import bisect
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product

from .dtn_global import constraint_node, eval_constraint
from .model import Automaton, check_initial_invariant, compute_bounds
from .regions import T, Memo, Region, RegionState, nogc

COLLAPSED = ((-1, False), -1)  # the cell of a clock above its bound
RESET = ((0, True), -1)


def _pclock(c: str, i: int) -> str:
    return f"{c}@{i + 1}"


def _layout(cclocks, n: int) -> tuple:
    """The clocks of A^n: process 1's copies of `cclocks`, ..., then t."""
    return tuple(_pclock(c, i) for i in range(n) for c in cclocks) + (T,)


def _region(names, bounds, cells) -> Region:
    """The region of the named cells; fractional classes sorted by name."""
    by_rank = {}
    for c, (_, r) in zip(names, cells):
        by_rank.setdefault(r, []).append(c)
    vals = tuple(None if cell == COLLAPSED else cell[0] for cell in cells)
    return Region(names, bounds, vals,
                  tuple(tuple(sorted(by_rank[r])) for r in sorted(by_rank) if r >= 0))


def _close_up(cells, gone):
    """The cells with the emptied ranks in sorted `gone` closed up."""
    return tuple((v, r - bisect(gone, r)) if r > 0 else (v, r) for v, r in cells)


class _SigTable:
    """One automaton's signatures and their steps, built lazily.

    `intern` numbers signatures and `sigs` maps an id back; `loc`, `ranks`
    (the fractional ranks the id's clocks hold) and `kind` ((delay kind, top
    rank)) grow with it.  The memos are keyed on ids: `inv_ok`, `fire` (the
    fire row), `step` ((id, delay mode) -> id' or None) and `closed` ((id,
    gone) -> closed-up id).  They compute
    through closures over these containers and the automaton's fields, never
    over the table or the automaton, so the table is no reference cycle.
    """

    def __init__(self, a: Automaton):
        check_initial_invariant(a)
        cclocks = tuple(sorted(a.clocks))
        cbounds = tuple(map(compute_bounds(a).get, cclocks))
        invariants, transitions = a.invariants, a.transitions
        ids, sigs, loc, ranks, kind = {}, [], [], [], []

        def intern(sig) -> int:
            """The id of `sig`, numbered in order of first sight."""
            i = ids.get(sig)
            if i is None:
                i = ids[sig] = len(sigs)
                cells = sig[1:]
                sigs.append(sig)
                loc.append(sig[0])
                ranks.append(frozenset(r for _, r in cells if r >= 0))
                ints = [v[0] < b for (v, _), b in zip(cells, cbounds) if v[1]]
                # 2 if an integer clock opens, 1 if all of them collapse, 0 if none
                kind.append((2 if any(ints) else 1 if ints else 0,
                             max(r for _, r in cells + (COLLAPSED,))))
            return i

        inv_ok = Memo(lambda i: _region(cclocks, cbounds, sigs[i][1:]).satisfies(
            invariants.get(loc[i], ())))

        def fire(i):
            """(tr, id after tr, ranks its resets may free, tr.locguard) for
            each transition from id i's location whose guard holds and after
            which tr.dst's invariant holds."""
            sig = sigs[i]
            region = _region(cclocks, cbounds, sig[1:])
            out = []
            for tr in transitions:
                if tr.src == sig[0] and region.satisfies(tr.guard):
                    cells = list(sig[1:])
                    resets = [cclocks.index(c) for c in tr.resets]
                    freed = {cells[p][1] for p in resets}
                    for p in resets:
                        cells[p] = RESET
                    nid = intern((tr.dst,) + tuple(cells))
                    if inv_ok[nid]:
                        freed = tuple(freed - {-1} - {r for _, r in cells})
                        out.append((tr, nid, freed, tr.locguard))
            return tuple(out)

        def step(key):
            """Mode 0 or 1: integer clocks open into rank 0 and the other ranks
            shift by the mode; mode -1 - r: the rank-r class lands.  None, not
            False, if the invariant breaks: `False in ids` would match id 0."""
            i, mode = key
            sig = sigs[i]
            land, cells = mode < 0, []
            for (v, r), b in zip(sig[1:], cbounds):
                if r == -1 - mode if land else v[1]:  # the clock lands or opens
                    cells.append(COLLAPSED if v[0] >= b else ((v[0] + land, land), -land))
                else:
                    cells.append((v, r + mode) if mode > 0 and r >= 0 else (v, r))
            nid = intern((sig[0],) + tuple(cells))
            return nid if inv_ok[nid] else None

        self.cclocks, self.cbounds = cclocks, cbounds
        self.sigs, self.loc, self.ranks, self.kind = sigs, loc, ranks, kind
        self.intern, self.inv_ok, self.fire = intern, inv_ok, Memo(fire)
        self.step = Memo(step)
        self.closed = Memo(lambda k: intern((loc[k[0]],)  # (id, gone) -> closed-up id
                                            + _close_up(sigs[k[0]][1:], k[1])))
        self.moves = _lbta_moves if a.kind == "lbta" else _gta_moves
        self.start = intern((a.initial,) + (RESET,) * len(cclocks))


class _Net:
    """A^n at a slot cap, with its `_SigTable`'s lists and memos as attributes."""

    def __init__(self, a: Automaton, n: int, slot_cap: int):
        if _SigTable not in a.tables:
            a.tables[_SigTable] = _SigTable(a)
        vars(self).update(vars(a.tables[_SigTable]))
        self.n, self.slot_cap = n, slot_cap
        self.clocks = _layout(self.cclocks, n)
        self.bounds = self.cbounds * n + (1,)

    def initial(self):
        return ((self.start,) * self.n, RESET, 0)

    def settle(self, ids, tcell, index, freed):
        """The state after resets, closing up freed ranks that no clock holds."""
        ranks = self.ranks
        gone = tuple(sorted({r for r in freed if r != tcell[1]
                             and not any(r in ranks[i] for i in ids)}))
        if gone:
            closed = self.closed
            ids = tuple([closed[i, gone] for i in ids])
            tcell = _close_up((tcell,), gone)[0]
        return (ids, tcell, index)

    def delay(self, state):
        """The immediate time successor, or None if an invariant breaks or t
        crosses past the slot cap."""
        ids, tcell, index = state
        kind = self.kind
        opens, top = max([kind[i] for i in ids])  # the largest kind, its top rank
        if tcell[0][1] or opens:
            mode = 1 if tcell[0][1] or opens == 2 else 0
            tcell = ((0, False), 0) if tcell[0][1] else (tcell[0], tcell[1] + mode)
        else:
            mode = -1 - max(tcell[1], top)
            if tcell[1] == -1 - mode:  # t lands on the next integer: a new slot
                if index >= self.slot_cap:
                    return None
                tcell, index = RESET, index + 1
        step = self.step
        ids = tuple([step[i, mode] for i in ids])
        return None if None in ids else (ids, tcell, index)

    def successors(self, state):
        """(step, state) pairs: ("delay",) first, then ("fire", descriptor)."""
        d = self.delay(state)
        out = self.moves(self, state)
        if d is not None:
            out.insert(0, (("delay",), d))
        return out

    def region_state(self, state) -> RegionState:
        ids, tcell, index = state
        sigs = [self.sigs[i] for i in ids]
        cells = tuple(c for sig in sigs for c in sig[1:]) + (tcell,)
        return RegionState(tuple(sig[0] for sig in sigs),
                           _region(self.clocks, self.bounds, cells), index)


def _gta_moves(net: _Net, state):
    """(("fire", descriptor), state) pairs; a descriptor is a tuple of (i, tr)."""
    out = []
    ids, tcell, index = state
    fire, settle = net.fire, net.settle
    locs = [net.loc[i] for i in ids]
    for p, i in enumerate(ids):
        for tr, nid, freed, g in fire[i]:
            if g is None or locs.count(g) > (locs[p] == g):
                nids = ids[:p] + (nid,) + ids[p + 1 :]
                out.append((("fire", ((p, tr),)), settle(nids, tcell, index, freed)
                            if freed else (nids, tcell, index)))
    return out


def _lbta_moves(net: _Net, state):
    """Broadcast macro steps: sender plus every subset of enabled receivers."""
    out = []
    ids, tcell, index = state
    fire = net.fire
    for p, i in enumerate(ids):
        for sent in fire[i]:
            tr = sent[0]
            if tr.sync is None or tr.sync[1] != "!!":
                continue
            options = [[(p,) + sent] if j == p else [None] + [
                (j,) + got for got in fire[ij]
                if got[0].sync == (tr.sync[0], "??")] for j, ij in enumerate(ids)]
            for combo in product(*options):
                movers = [m for m in combo if m is not None]
                nids, freed = list(ids), []
                for j, _, nid, mfreed, _ in movers:
                    nids[j] = nid
                    freed.extend(mfreed)
                desc = ((p, tr),) + tuple((j, m) for j, m, *_ in movers if j != p)
                nids = tuple(nids)
                out.append((("fire", desc), net.settle(nids, tcell, index, freed)
                            if freed else (nids, tcell, index)))
    return out


@dataclass
class OracleResult:
    n: int
    slot_cap: int
    labels: set = field(default_factory=set)
    states_explored: int = 0
    exhausted: bool = False
    witness: list = None  # the step list ending at the target's hit, or None
    net: _Net = field(default=None, repr=False)
    reached: dict = field(default_factory=dict, repr=False)  # orbit -> index bits

    @cached_property
    def loc_sets(self):
        loc = self.net.loc
        return {frozenset([loc[i] for i in ids]) for ids, _ in self.reached}


@nogc
def explore_network(a: Automaton, n: int, slot_cap: int = 8,
                    max_states: int = 10 ** 6, target=None) -> OracleResult:
    """Breadth-first search of A^n's product-region states, with slot index
    <= slot_cap, up to process symmetry, on successor rows (see the module
    docstring); `max_states` counts (orbit, index) pairs.

    `target` is None, a label or a parsed constraint node.  A label is tested
    on each firing step, a constraint on the location set of each state
    reached, the initial one included; all successors of a dequeued state
    are tested, also ones back to a seen orbit, before any is added.  The
    search stops at the first hit and sets `witness` to the step list ending
    with the hitting step: ("delay", state) and ("fire", descriptor, state)
    pairs, each state a RegionState.
    """
    if n < 1 or slot_cap < 0:
        raise ValueError(f"the oracle needs n >= 1 and a slot cap >= 0, "
                         f"not n={n} and slot cap {slot_cap}")
    if max_states < 0:
        raise ValueError(f"the oracle needs max_states >= 0, not {max_states}")
    net = _Net(a, n, slot_cap)
    res = OracleResult(n, slot_cap, net=net)
    start = net.initial()
    reached = res.reached
    reached[tuple(sorted(start[0])), start[1]] = 1  # at index 0
    # per queued state: its orbit's index bits before it was queued and, for a
    # target, its link (parent's position, step, parent)
    queue, earlier, links = deque([start]), deque([0]), [None]
    label = target if isinstance(target, str) else None
    node = None if label is not None else target
    loc = net.loc

    def hits(step, state):
        if label is not None:
            return step[0] == "fire" and any(tr.label == label for _, tr in step[1])
        return eval_constraint([loc[i] for i in state[0]], node)

    if node is not None and hits(None, start):
        res.witness = []
        return res
    successors, labels = net.successors, res.labels
    popleft, push = queue.popleft, queue.append
    get, rows, count = reached.get, {}, 1
    while queue:
        state = popleft()
        res.states_explored += 1
        # a row exists only if the orbit had other bits when the state was queued
        row = rows.get(state[:2]) if earlier.popleft() else None
        if row is None:
            shift, succs = 0, successors(state)
            if state[2] < slot_cap:  # no delay was cut at the cap
                rows[state[:2]] = state[2], succs
            for step, _ in succs:
                if step[0] == "fire":
                    for _, tr in step[1]:
                        if tr.label is not None:
                            labels.add(tr.label)
            # a label fires from this state iff it has just joined the labels
            if label in labels or node is not None:
                for step, nxt in succs:
                    if hits(step, nxt):
                        steps = [(step, net.region_state(nxt))]
                        i = res.states_explored - 1  # the position of state
                        while link := links[i]:
                            steps.append((link[1], net.region_state(state)))
                            i, _, state = link
                        res.witness = steps[::-1]
                        return res
        else:  # its labels and targets were tested when it was built
            if state[2] == slot_cap:
                del rows[state[:2]]
            shift, succs = state[2] - row[0], row[1]
        for step, nxt in succs:
            k = (tuple(sorted(nxt[0])), nxt[1])
            mask = get(k, 0)
            index = nxt[2] + shift
            if not mask >> index & 1 and index <= slot_cap:
                if count >= max_states:
                    res.exhausted = True
                    return res
                count += 1
                reached[k] = mask | 1 << index
                nxt = (nxt[0], nxt[1], index) if shift else nxt
                if target is not None:
                    links.append((res.states_explored - 1, step, state))
                push(nxt)  # as first reached; only the key is sorted
                earlier.append(mask)
    return res


def witness_region_path(a: Automaton, n: int, label: str, slot_cap: int = 8,
                        max_states: int = 10 ** 6):
    """`explore_network`'s witness for `label`: the step list, or None."""
    return explore_network(a, n, slot_cap, max_states, target=label).witness


# -- timed traces -----------------------------------------------------------------


def concretize(a: Automaton, n: int, steps):
    """Turn a region step list into a flat timed trace with rational delays.

    Returns a list of {"delay": Fraction, "process": i (1-based), "label": str
    or None, "dst": location} entries; receivers of a broadcast appear right
    after their sender with delta 0.
    """
    vals = dict.fromkeys(_layout(sorted(a.clocks), n), Fraction(0))
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
                    "dst": tr.dst,
                })
                first = False
                pending = Fraction(0)
    return trace


def _delay_into(vals, target: RegionState):
    """Midpoint (or forced) duration moving `vals` into the target region.

    Clock values are real; the target's t carries integer part `index` on top
    of its rebased class.
    """
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
    node = constraint_node(a, constraint)
    return any(eval_constraint(ls, node) for ls in res.loc_sets)


# -- concrete-valuation validation ------------------------------------------------


def _atom_holds(atom, vals) -> bool:
    left, op, right, d = atom
    x = vals[left] - (vals[right] if right else 0)
    return {"<": x < d, "<=": x <= d, "==": x == d,
            ">=": x >= d, ">": x > d}[op]


def simulate_trace(a: Automaton, n: int, trace):
    """Replay a flat trace on A^n, checking guards, invariants and witnesses.

    An entry with a "dst" fires only a transition into that location.
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
            and entry.get("dst", tr.dst) == tr.dst
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
