"""Brute-force exploration of fixed-size networks, used to cross-check the
layer algorithms on small instances.

A signature is a location and one cell per clock: its value class, (integer
part, is integer) or (-1, False) above the bound, and the rank of its
fractional part among all clocks and t (-1 if none).  `_Net` interns each
signature as a small int, and a network state is (ids, tcell, index): one
signature id per process, the cell of the global clock t (rebased to integer
part 0) and the slot index.  Delays, resets and guards act on the cells;
guards and invariants read one process's cells only, so `_Net` judges them
once per id.  Permuting processes permutes `ids` and nothing else, and
interning is one-to-one, so the state with sorted ids is its orbit key (Ip &
Dill, FMSD 1996; Hendriks et al., FORMATS 2003).

`explore_network` is the one search: a BFS that queues only the
first-reached member of each orbit, unsorted.  Without a target it runs to
the slot cap or the budget, and the location sets and supports are read off
the reached orbit keys when first asked for; both are invariant under
permuting processes.  With a target, a label or a counting constraint, it
keeps parent links and stops at the first hit.  Successors commute with
permuting processes, so the reduced queue is the unreduced one with later
members of known orbits left out, and the first hit and its parent chain are
the same in both: so is the returned path.  Only its steps become
`RegionState`s, which `concretize` turns into a timed trace, taking the
midpoint (or the forced value) of each delay's interval.
"""

from __future__ import annotations

from bisect import bisect
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from weakref import ref

from .dtn_global import constraint_node, eval_constraint
from .model import Automaton, compute_bounds
from .regions import T, Memo, Region, RegionState, nogc

COLLAPSED = ((-1, False), -1)  # the cell of a clock above its bound
RESET = ((0, True), -1)


def _pclock(c: str, i: int) -> str:
    return f"{c}@{i + 1}"


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


class _Net:
    """The clock layout of A^n and its per-signature steps, built lazily.

    `ids` maps a signature to its id and `sigs` maps the id back; `loc`,
    `ranks` (the fractional ranks the id's clocks hold) and `kind` are filled
    when an id is interned.  Every memo is keyed on ids and holds the net
    weakly, so no net is a reference cycle; a hit is still one dict lookup.
    """

    def __init__(self, a: Automaton, n: int, slot_cap: int):
        self.a, self.n, self.slot_cap = a, n, slot_cap
        self.cclocks = tuple(sorted(a.clocks))
        self.cbounds = tuple(map(compute_bounds(a).get, self.cclocks))
        self.clocks = tuple(_pclock(c, i) for i in range(n)
                            for c in self.cclocks) + (T,)
        self.bounds = self.cbounds * n + (1,)
        self.moves = _lbta_moves if a.kind == "lbta" else _gta_moves
        self.ids, self.sigs = {}, []
        self.loc, self.ranks, self.kind = [], [], []  # kind: (delay kind, top rank)
        net = ref(self)  # weakly: the memos must not make the net a cycle
        self.enabled = Memo(lambda i: net()._enabled(i))
        self.inv_ok = Memo(lambda i: net()._inv_ok(i))
        self.step = Memo(lambda k: net()._step(k))  # (id, delay mode) -> id' or None
        self.member = Memo(lambda k: net()._member(k))  # (id, tcell) -> member key
        self.closed = Memo(lambda k: net()._closed(k))  # (id, gone) -> closed-up id

    def intern(self, sig) -> int:
        """The id of `sig`, numbered in order of first sight."""
        i = self.ids.get(sig)
        if i is None:
            i = self.ids[sig] = len(self.sigs)
            cells = sig[1:]
            self.sigs.append(sig)
            self.loc.append(sig[0])
            self.ranks.append(frozenset(r for _, r in cells if r >= 0))
            ints = [v[0] < b for (v, _), b in zip(cells, self.cbounds) if v[1]]
            # 2 if an integer clock opens, 1 if all of them collapse, 0 if none
            self.kind.append((2 if any(ints) else 1 if ints else 0,
                              max(r for _, r in cells + (COLLAPSED,))))
        return i

    def initial(self):
        sig = (self.a.initial,) + (RESET,) * len(self.cclocks)
        return ((self.intern(sig),) * self.n, RESET, 0)

    def _inv_ok(self, i):
        return _region(self.cclocks, self.cbounds, self.sigs[i][1:]).satisfies(
            self.a.invariant(self.loc[i]))

    def _enabled(self, i):
        """(tr, id after tr, ranks its resets may free, tr.dst's invariant
        holds) for each transition from id i's location whose guard holds."""
        sig = self.sigs[i]
        region = _region(self.cclocks, self.cbounds, sig[1:])
        out = []
        for tr in self.a.transitions:
            if tr.src == sig[0] and region.satisfies(tr.guard):
                cells = list(sig[1:])
                resets = [self.cclocks.index(c) for c in tr.resets]
                freed = {cells[p][1] for p in resets}
                for p in resets:
                    cells[p] = RESET
                nid = self.intern((tr.dst,) + tuple(cells))
                freed = tuple(freed - {-1} - {r for _, r in cells})
                out.append((tr, nid, freed, self.inv_ok[nid]))
        return tuple(out)

    def settle(self, ids, tcell, index, freed):
        """The state after resets, closing up freed ranks that no clock holds."""
        if freed:
            ranks = self.ranks
            gone = tuple(sorted({r for r in freed if r != tcell[1]
                                 and not any(r in ranks[i] for i in ids)}))
            if gone:
                ids = tuple(self.closed[i, gone] for i in ids)
                tcell = _close_up((tcell,), gone)[0]
        return (ids, tcell, index)

    def _closed(self, key):
        i, gone = key
        sig = self.sigs[i]
        return self.intern((sig[0],) + _close_up(sig[1:], gone))

    def _step(self, key):
        """Mode 0 or 1: integer clocks open into rank 0 and the other ranks
        shift by the mode; mode -1 - r: the rank-r class lands.  None, not
        False, if the invariant breaks: `False in ids` would match id 0."""
        i, mode = key
        sig = self.sigs[i]
        land, cells = mode < 0, []
        for (v, r), b in zip(sig[1:], self.cbounds):
            if r == -1 - mode if land else v[1]:  # the clock lands or opens
                cells.append(COLLAPSED if v[0] >= b else ((v[0] + land, land), -land))
            else:
                cells.append((v, r + mode) if mode > 0 and r >= 0 else (v, r))
        nid = self.intern((sig[0],) + tuple(cells))
        return nid if self.inv_ok[nid] else None

    def delay(self, state):
        """The immediate time successor, or None if an invariant breaks or t
        crosses past the slot cap."""
        ids, tcell, index = state
        kind = self.kind
        kinds = [kind[i] for i in ids]
        if tcell[0][1] or any(k for k, _ in kinds):
            mode = 1 if tcell[0][1] or any(k == 2 for k, _ in kinds) else 0
            tcell = ((0, False), 0) if tcell[0][1] else (tcell[0], tcell[1] + mode)
        else:
            mode = -1 - max(tcell[1], *(r for _, r in kinds))
            if tcell[1] == -1 - mode:  # t lands on the next integer: a new slot
                if index >= self.slot_cap:
                    return None
                tcell, index = RESET, index + 1
        step = self.step
        ids = tuple([step[i, mode] for i in ids])
        return None if None in ids else (ids, tcell, index)

    def _member(self, key):
        """The process and t as a one-process `region_graph.member_key`."""
        i, tcell = key
        sig = self.sigs[i]
        region = _region(self.cclocks + (T,), self.cbounds + (1,), sig[1:] + (tcell,))
        return (sig[0], False, region.key())

    def successors(self, state):
        """(step, state) pairs: ("delay",) first, then ("fire", descriptor)."""
        d = self.delay(state)
        out = [(("delay",), d)] if d is not None else []
        return out + [(("fire", desc), nxt) for desc, nxt in self.moves(self, state)]

    def region_state(self, state) -> RegionState:
        ids, tcell, index = state
        sigs = [self.sigs[i] for i in ids]
        cells = tuple(c for sig in sigs for c in sig[1:]) + (tcell,)
        return RegionState(tuple(sig[0] for sig in sigs),
                           _region(self.clocks, self.bounds, cells), index)


def _gta_moves(net: _Net, state):
    """(descriptor, new state) pairs; a descriptor is a tuple of (i, tr) movers."""
    out = []
    ids, tcell, index = state
    locs = [net.loc[i] for i in ids]
    for p, i in enumerate(ids):
        for tr, nid, freed, inv in net.enabled[i]:
            g = tr.locguard
            if inv and (g is None or locs.count(g) > (locs[p] == g)):
                nids = ids[:p] + (nid,) + ids[p + 1 :]
                out.append((((p, tr),), net.settle(nids, tcell, index, freed)))
    return out


def _lbta_moves(net: _Net, state):
    """Broadcast macro steps: sender plus every subset of enabled receivers."""
    out = []
    ids, tcell, index = state
    for p, i in enumerate(ids):
        for sent in net.enabled[i]:
            tr = sent[0]
            if tr.sync is None or tr.sync[1] != "!!":
                continue
            options = [[(p,) + sent] if j == p else [None] + [
                (j,) + got for got in net.enabled[ij]
                if got[0].sync == (tr.sync[0], "??")] for j, ij in enumerate(ids)]
            for combo in product(*options):
                movers = [m for m in combo if m is not None]
                nids, freed = list(ids), []
                for j, _, nid, mfreed, _ in movers:
                    nids[j] = nid
                    freed.extend(mfreed)
                if all(net.inv_ok[k] for k in nids):
                    desc = ((p, tr),) + tuple((j, m) for j, m, *_ in movers if j != p)
                    out.append((desc, net.settle(tuple(nids), tcell, index, freed)))
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
    reached: dict = field(default_factory=dict, repr=False)  # orbit key -> link

    @cached_property
    def loc_sets(self):
        loc = self.net.loc
        return {frozenset([loc[i] for i in ids]) for ids, _, _ in self.reached}

    @cached_property
    def supports(self):
        """("point"|"open", index) -> the supports reached in that slot."""
        member, out = self.net.member, {}
        for ids, tcell, index in self.reached:
            out.setdefault(("point" if tcell[0][1] else "open", index), set()).add(
                frozenset([member[i, tcell] for i in ids]))
        return out


@nogc
def explore_network(a: Automaton, n: int, slot_cap: int = 8,
                    max_states: int = 10 ** 6, target=None) -> OracleResult:
    """Breadth-first search of A^n's product-region states, with slot index
    <= slot_cap, up to process symmetry; `max_states` counts orbits.

    `target` is None, a label or a parsed constraint node.  A label is tested
    on each firing step, a constraint on the location set of each state
    reached, the initial one included; all successors of a dequeued state
    are tested, also ones back to a seen orbit, before any is added.  The
    search stops at the first hit and sets `witness` to the step list ending
    with the hitting step: ("delay", state) and ("fire", descriptor, state)
    pairs, each state a RegionState.
    """
    net = _Net(a, n, slot_cap)
    res = OracleResult(n, slot_cap, net=net)
    start = net.initial()
    seen = res.reached
    seen[(tuple(sorted(start[0])), start[1], start[2])] = None
    queue = deque([start])
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
    while queue:
        state = queue.popleft()
        res.states_explored += 1
        succs = net.successors(state)
        res.labels.update(tr.label for step, _ in succs if step[0] == "fire"
                          for _, tr in step[1] if tr.label is not None)
        # a label fires from this state iff it has just joined the labels
        if label in res.labels or node is not None:
            for step, nxt in succs:
                if hits(step, nxt):
                    steps = [(step, net.region_state(nxt))]
                    while link := seen[tuple(sorted(state[0])), state[1], state[2]]:
                        steps.append((link[1], net.region_state(state)))
                        state = link[0]
                    res.witness = steps[::-1]
                    return res
        for step, nxt in succs:
            k = (tuple(sorted(nxt[0])), nxt[1], nxt[2])
            if k not in seen:
                if len(seen) >= max_states:
                    res.exhausted = True
                    return res
                # parent links only where a witness may be read back
                seen[k] = None if target is None else (state, step)
                queue.append(nxt)  # as first reached; only the key is sorted
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
    vals = dict.fromkeys(_Net(a, n, 0).clocks, Fraction(0))
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
