"""Local (one-process) reachability in arbitrary-size networks.

Layers: W_l holds every (location, region) a process can exhibit while the
global time sits in the l-th slot, assuming arbitrarily many peers.  A layer
is closed under in-slot delay and under discrete steps whose location guard
is witnessed inside the same layer; boundary edges carry the layer into the
next slot.  Construction stops at the first layer that repeats an earlier
singleton-slot layer up to a slot shift; redirecting the last boundary onto
the repeated layer yields a finite automaton (the DRA) whose paths cover one
process's behaviors in the infinite family of networks.

The loop is region_graph's `LayeredBuild`; `_Builder` supplies the layer
closure, the boundary and the signature of a singleton-slot layer, its set of
member ids.  Steps come from the automaton's one `MemberTable`, which the
global engine shares, so the successors of a (location, region) pair are
computed once however many layers, builds and queries of either engine it
recurs in; so is its region text in witnesses and the DOT.  `_close_layer`
takes each popped state's delay and discrete steps in one inlined loop,
calling the table only on a miss in its rows.  A layer's cross steps, kept as
it closes, give the next layer's seeds.  All states of a layer share its slot
index, so a state is named by its layer number and member id: `Layer.ids`
holds the ids in discovery order, the build keeps the table's id ->
RegionState list `states` for their locations and base regions, and
`Layer.slot` gives the index.  A DRA edge is the tuple (src layer, src id,
kind, internal label, dst layer, dst id), kept once in an insertion-ordered
dict, where `cut` marks the last boundary's first edge.  Internal labels are
unique after `relabel_unique`, so the label gives back the transition.  A
dra-mode build records what its caller reads: the edges when no label is
watched (`apply_loopback`), else each state's parent link (`_witness_path`).
A streaming build records neither.

A build that reaches its loop-back or runs out of seeds, by `build_layers` or
by a label query in either mode, leaves an `Outline` in `a.tables`: its
states per layer, the first layer each internal label fires in (the labels
`reachable_labels` reads), and how it ended.  From then on `reachable_labels`
and a label query that needs no witness (streaming, or dra on a label that
never fires) compute their outcome from it in closed form, closing no layer:
`_Builder.replay` applies the build's cap and budget tests to its counts, so
messages, the hit layer, the loop-back and `peak_layers_held` are a build's.
The outline is O(layers + labels): a streaming build still holds one layer.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .model import Atom, Automaton, BudgetExceeded, Transition
from .region_graph import LayeredBuild, RegionContext, nonnegative
from .regions import T, Region, Slot, fracs_without, new_record, nogc


@dataclass
class Layer:
    number: int
    slot: Slot
    ids: dict  # member id -> None, in discovery order


@dataclass
class DtnRegionAutomaton:
    layers: list
    states: list  # member id -> RegionState; the layer's slot gives the index
    text: dict  # member id -> region text without t, filled on first read
    arcs: list  # intra-layer, cross and loop edges among kept layers, as id tuples
    i0: Optional[int]
    l0: Optional[int]
    shift: Optional[int]
    ctx: RegionContext
    relabel_map: dict
    automaton: Automaton

    def state_names(self) -> list:
        """Deterministic display names: per layer number, id -> wLnI."""
        return [{i: prefix + str(pos) for pos, i in enumerate(layer.ids)}
                for layer in self.layers for prefix in [f"w{layer.number}n"]]


class _Builder(LayeredBuild):
    def __init__(self, a: Automaton, cap=None, max_states=None, watch=None,
                 streaming=False):
        super().__init__(a, cap, max_states, streaming)
        # hit: ((layer, id), tr, (layer, id)), the first firing of a watched label
        self.watched = {
            internal for internal, user in self.relabel_map.items()
            if watch is not None and watch in (internal, user)
        }
        self.edges = {}  # DRA edge tuple -> None, in first-seen order
        self.parent = {}  # (layer, id) -> (layer, id, kind, tr)
        self.record_parent = bool(self.watched) and not streaming
        self.record_edges = not self.watched and not streaming
        self.states = self.members.states  # id -> RegionState at slot index 0
        self.states_total = 0
        self.cut = 0  # edges recorded before the last boundary's
        # id -> its successor in the next slot, for the layer last closed
        self.crossing = {}
        self.tables, self.counts, self.first = a.tables, [], {}  # the outline so far

    def build(self):
        super().build()
        if self.hit is None or self.l0 is not None:  # a loop-back, or no seeds left
            self.tables[Outline] = Outline(tuple(self.counts), self.first,
                                           self.i0, self.l0, self.shift)
        return self

    def _initial_seeds(self):
        return [(None, None, self.members.intern(self.ctx.initial_state()))]

    def _close_layer(self, number: int, slot: Slot, seeds) -> Layer:
        """Close a layer under in-slot delay and witness-guarded discrete steps.

        Every state of the layer sits in `slot`, so it is identified by its
        member id.  seeds: list of (source layer, source id, id) triples;
        sources are in the previous layer (None for the initial state) and
        contribute the boundary edges.
        """
        members, edges, parent = self.members, self.edges, self.parent
        record_edges, record_parent = self.record_edges, self.record_parent
        watched, first, loc, point = self.watched, self.first, members.loc, members.point
        drow, row = members.delay_row, members.discrete_row
        total, limit = self.states_total, self.max_states
        ids, waiting, locs, crossing, wl = {}, {}, set(), {}, deque()
        for ls, i, j in seeds:
            if j not in ids:
                ids[j] = None
                if record_parent:
                    parent[number, j] = (ls, i, "cross" if ls is not None else None, None)
                total += 1
                if limit is not None and total > limit:
                    raise self._over_budget(number, total)
                wl.append(j)
                locs.add(loc[j])  # nothing waits before the first state is popped
            if record_edges and ls is not None:
                edges[ls, i, "cross", None, number, j] = None
        while wl:
            i = wl.popleft()
            j = drow[i]
            if j is False:
                j = members.delay(i)
            steps = row[i]
            if steps is None:
                steps = members.discrete(i)
            if j is not None:
                if point[i] or point[j]:
                    crossing[i] = j
                else:
                    steps = ((None, j, None),) + steps  # the delay step first
            for tr, j, lg in steps:
                if lg is not None and lg not in locs:
                    waiting.setdefault(lg, {})[i] = None
                    continue
                if j not in ids:
                    ids[j] = None
                    if record_parent:
                        parent[number, j] = (number, i, "trans" if tr else "delay", tr)
                    total += 1
                    if limit is not None and total > limit:
                        raise self._over_budget(number, total)
                    wl.append(j)
                    q = loc[j]
                    if q not in locs:
                        locs.add(q)
                        wl.extend(waiting.pop(q, ()))
                if tr is not None and tr.label not in first:
                    first[tr.label] = number
                    if tr.label in watched and self.hit is None:
                        self.hit = ((number, i), tr, (number, j))
                if record_edges:
                    edges[number, i, "trans" if tr else "delay", tr and tr.label,
                          number, j] = None
        self.states_total, self.crossing = total, crossing
        self.counts.append(len(ids))
        return Layer(number, slot, ids)

    def replay(self, o: Outline):
        """Set the outcome `build` would reach from a finished build's outline:
        per layer the cap test, then the budget test, up to the layer a watched
        label first fires in, never l0 (W_l0 holds W_i0's ids), else to the end."""
        fires = min((o.first[k] for k in self.watched if k in o.first), default=None)
        total, limit, cap = 0, self.max_states, self.cap
        for number, count in enumerate(o.counts):
            if cap is not None and number > cap:
                raise self._over_cap(number)
            total += count
            if limit is not None and total > limit:
                raise self._over_budget(number, total)
            if number == fires:
                self.hit = number
                break
        else:
            self.i0, self.l0, self.shift = o.i0, o.l0, o.shift
        self.layers_built, self.states_total = number + 1, total
        self.peak_layers_held = 1 if self.streaming else number + 1
        return self

    def _over_budget(self, number: int, total: int) -> BudgetExceeded:
        self.states_total = total
        return BudgetExceeded(f"layer construction exceeds {self.max_states}"
                              f" states while building layer {number}")

    def _boundary(self, layer: Layer):
        """The next layer's seeds, from the cross steps `_close_layer` kept, in
        discovery order: an id is first taken off the FIFO worklist in the
        order it was added to the layer.  `cut` is where their edges begin."""
        seeds, seen = [], set()
        self.cut = len(self.edges)
        for i, j in self.crossing.items():
            if j in seen and self.record_edges:
                # _close_layer records every seed's edge as well; recording a
                # repeated target's edge here puts it first, the edge order
                # the golden digests in tests/test_dtn_local.py pin
                self.edges[layer.number, i, "cross", None, layer.number + 1, j] = None
            seen.add(j)
            seeds.append((layer.number, i, j))
        return seeds

    def _signature(self, layer: Layer):
        # ids are one-to-one with members within the automaton's table
        if self.streaming:
            return hashlib.sha256(repr(sorted(layer.ids)).encode()).hexdigest()
        return frozenset(layer.ids)


class Outline(NamedTuple):
    """A finished local build: its states per layer, internal label -> the
    layer it first fires in, and its loop-back, all None if it ran out of seeds."""
    counts: tuple
    first: dict
    i0: Optional[int]
    l0: Optional[int]
    shift: Optional[int]


def build_layers(a: Automaton, cap=None, max_states=None) -> _Builder:
    """Run the layer construction to termination (no early label stop).

    The member table stays with `a`, for the next build or label query on it;
    the result holds its layers and edges beside the table's id -> RegionState
    list.
    """
    return _Builder(a, cap, max_states).build()


def apply_loopback(build: _Builder) -> DtnRegionAutomaton:
    """Trim to layers 0..l0-1 and redirect the last boundary onto W_i0.

    W_l0 holds the same ids as W_i0, so a cross edge into (l0, id) becomes a
    loop edge onto (i0, id); only the edges from the last boundary's `cut` on
    touch layer l0, and its own are dropped.
    """
    l0, i0 = build.l0, build.i0
    # an edge e is (ls, i, kind, label, ld, j); kept edges are shared, not copied
    arcs = list(build.edges)
    if l0 is not None:
        arcs[build.cut:] = [(e[0], e[1], "loop", None, i0, e[5])
                            for e in arcs[build.cut:] if e[0] < l0]
    return DtnRegionAutomaton(build.layers[:l0], build.states, build.members.text, arcs,
                              i0, l0, build.shift, build.ctx, build.relabel_map,
                              build.automaton)


def reachable_labels(a: Automaton, cap=None, max_states=None) -> set:
    """User labels some process can fire, at some network size."""
    b, tables = _Builder(a, cap, max_states), a.tables
    if Outline in tables:
        b.replay(tables[Outline])
    else:
        b.build()  # watching no label, it ends where it leaves the outline
    return {b.relabel_map.get(k, k) for k in tables[Outline].first} - {None}


def check_label_reachable(a: Automaton, label: str, streaming=False, cap=None,
                          max_states=None) -> dict:
    """Decide whether some process can ever fire `label`, at any network size."""
    b, o = _Builder(a, cap, max_states, label, streaming), a.tables.get(Outline)
    if not b.watched:
        raise ValueError(f"unknown label {label!r}")
    if o is not None and (streaming or b.watched.isdisjoint(o.first)):
        b.replay(o)  # no witness: its parent links would need real layers
    else:
        b.build()
    out = b.report(label, "states_total", b.states_total, witness=None)
    if b.hit is not None and not streaming:
        out["witness"] = _witness_path(b)
    return out


def _witness_path(b: _Builder):
    cur, tr, dst = b.hit
    chain = [("trans", tr, dst)]
    while cur[0] is not None:
        ls, i, kind, ptr = b.parent[cur]
        chain.append((kind or "init", ptr, cur))
        cur = (ls, i)
    return [_step_json(b, *step) for step in reversed(chain)]


def _step_json(b: _Builder, kind, tr, node):
    number, i = node
    out = {
        "kind": kind,
        "loc": b.states[i].loc,
        "region": b.members.text[i],
        "slot": str(b.layers[number].slot),
    }
    if tr is not None:
        out["internal_label"] = tr.label
        out["label"] = b.relabel_map.get(tr.label)
    return out


# -- summary automaton and products ---------------------------------------------


def region_to_atoms(region: Region) -> tuple:
    """A conjunction of atoms whose solution set is exactly the region."""
    atoms, frac = [], []  # frac: (clock, integer part, fractional rank)
    clocks, bounds, vals, fracs = region
    rank = {c: r for r, cls in enumerate(fracs) for c in cls}
    for c, b, v in zip(clocks, bounds, vals):
        if v is None:
            atoms.append(new_record(Atom, (c, ">", None, b)))
        elif v[1]:
            atoms.append(new_record(Atom, (c, "==", None, v[0])))
        else:
            atoms.append(new_record(Atom, (c, ">", None, v[0])))
            atoms.append(new_record(Atom, (c, "<", None, v[0] + 1)))
            frac.append((c, v[0], rank[c]))
    # only fractional pairs: every other difference is implied by the above
    for k, (c, m, r) in enumerate(frac):
        for c2, m2, r2 in frac[k + 1:]:
            d = m - m2
            if r == r2:
                if d >= 0:
                    atoms.append(new_record(Atom, (c, "==", c2, d)))
                else:
                    atoms.append(new_record(Atom, (c2, "==", c, -d)))
            else:
                lo = d if r > r2 else d - 1  # c - c2 lies in (lo, lo + 1)
                if lo >= 0:
                    atoms.append(new_record(Atom, (c, ">", c2, lo)))
                    atoms.append(new_record(Atom, (c, "<", c2, lo + 1)))
                else:
                    atoms.append(new_record(Atom, (c2, ">", c, -lo - 1)))
                    atoms.append(new_record(Atom, (c2, "<", c, -lo)))
    return tuple(atoms)


@nogc
def summary_automaton(dra: DtnRegionAutomaton) -> Automaton:
    """One timed automaton over C whose runs mirror DRA paths.

    Silent edges (delay, cross, loop) are guarded by the target's C-projection
    and reset nothing; labeled edges are guarded by the source's C-projection
    and reset exactly the clocks that are 0 in the target.  Both are computed
    once per member id, from one entry per distinct C-projection.
    """
    names = dra.state_names()
    ctx, states = dra.ctx, dra.states
    n = len(ctx.cclocks)  # t is the last clock
    guard, zeros = {}, {}  # member id -> atoms / clocks at 0
    proj = {}  # C-projection (vals, fracs without t) -> (atoms, clocks at 0)
    for layer in dra.layers:
        for i in layer.ids:
            if i in guard:
                continue
            base = states[i].base
            _, _, vals, fracs = base
            tv = vals[n]
            if tv is not None and not tv[1]:  # t is fractional
                fracs = fracs_without(fracs, (T,))
            key = (vals[:n], fracs)
            entry = proj.get(key)
            if entry is None:
                entry = proj[key] = (region_to_atoms(base.eliminate((T,))),
                                     tuple(c for c, v in zip(ctx.cclocks, vals)
                                           if v == (0, True)))
            guard[i], zeros[i] = entry

    trs = [new_record(Transition, (names[ls][i], names[ld][j], label, guard[i],
                                   zeros[j], None, None))
           if kind == "trans" else
           new_record(Transition, (names[ls][i], names[ld][j], None, guard[j], (),
                                   None, None))
           for ls, i, kind, label, ld, j in dra.arcs]
    locations = tuple(name for layer in names for name in layer.values())
    # the initial state seeds W0, so it comes first
    return Automaton("ta", f"{dra.automaton.name}_summary", ctx.cclocks,
                     locations, locations[0], {}, tuple(trs))


def k_product(s: Automaton, k: int, max_states=None) -> Automaton:
    """Asynchronous product of k copies of a timed automaton.

    Locations are k-tuples reachable in the location graph; clock c of copy i
    becomes c_p{i}; labels are kept as-is (several copies may share them).
    """
    nonnegative("max_states", max_states)

    def ren(c, i):
        return f"{c}_p{i + 1}"

    trans_from = {}
    for tr in s.transitions:
        trans_from.setdefault(tr.src, []).append(tr)
    start = (s.initial,) * k
    seen = {start}
    order = [start]
    queue = deque([start])
    out_trs = []
    while queue:
        tup = queue.popleft()
        for i in range(k):
            for tr in trans_from.get(tup[i], ()):
                nxt = tup[:i] + (tr.dst,) + tup[i + 1 :]
                guard = tuple(
                    Atom(ren(a.left, i), a.op,
                         ren(a.right, i) if a.right else None, a.d)
                    for a in tr.guard
                )
                resets = tuple(ren(c, i) for c in tr.resets)
                out_trs.append(Transition("__".join(tup), "__".join(nxt),
                                          tr.label, guard, resets))
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
                    queue.append(nxt)
                    if max_states is not None and len(seen) > max_states:
                        raise BudgetExceeded(
                            f"product exceeds {max_states} locations"
                        )
    invariants = {}
    for tup in order:
        atoms = []
        for i, q in enumerate(tup):
            for a in s.invariant(q):
                atoms.append(Atom(ren(a.left, i), a.op, None, a.d))
        if atoms:
            invariants["__".join(tup)] = tuple(atoms)
    clocks = tuple(ren(c, i) for i in range(k) for c in s.clocks)
    return Automaton("ta", f"{s.name}_x{k}", clocks,
                     tuple("__".join(t) for t in order), "__".join(start),
                     invariants, tuple(out_trs))


def dra_to_dot(dra: DtnRegionAutomaton) -> str:
    return "\n".join(_dot_lines(dra)) + "\n"


def _dot_lines(dra: DtnRegionAutomaton):
    names = dra.state_names()
    yield "digraph dra {"
    yield "  rankdir=LR;"
    yield '  node [shape=box, fontsize=10];'
    for layer in dra.layers:
        yield f"  subgraph cluster_{layer.number} {{"
        yield f'    label="W{layer.number} t in {layer.slot}";'
        for i in layer.ids:
            label = f"{dra.states[i].loc}\\n{dra.text[i]}"
            yield f'    {names[layer.number][i]} [label="{label}"];'
        yield "  }"
    for ls, i, kind, label, ld, j in dra.arcs:
        src, dst = names[ls][i], names[ld][j]
        if kind == "trans":
            user = dra.relabel_map.get(label)
            text = user if user is not None else "eps"
            yield f'  {src} -> {dst} [label="{text}"];'
        else:
            extra = "" if kind != "loop" else f', label="back {dra.shift}"'
            yield f"  {src} -> {dst} [style=dashed{extra}];"
    yield "}"
