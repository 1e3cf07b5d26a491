"""Global reachability constraints over arbitrary-size networks.

A configuration of A^n is abstracted by its support: the set of (location,
region) pairs occupied by at least one process, all sharing the global-time
slot.  Supports evolve by three kinds of steps:

  - delay micro-steps inside an open slot (rule 1): members whose clocks sit
    on an integer value are advanced together (any positive delay moves them,
    and every process on such a member moves at once); otherwise any
    nonempty set of members whose next region changes happen before the slot
    boundary can reach them simultaneously (processes may share fractional
    phases), and each mover either drags all its processes along or splits
    off a copy, leaving stragglers behind;
  - discrete steps (rule 2): one member fires a transition whose location
    guard is witnessed inside the support; the moved copy is always added,
    and the source member may additionally be dropped (all its processes
    fire) when the last mover still sees a witness;
  - boundary steps: when every member's next region change crosses into the
    following slot, the whole support crosses at once.

Layer l collects the supports reachable while global time sits in the l-th
slot; construction stops when a singleton-slot layer repeats an earlier one
up to a slot shift.  The loop is region_graph's `LayeredBuild`.  Members are
the ids of the automaton's one `MemberTable`, which the local engine shares:
the rank orders supports, and the rules extend its id masks per location and
of the punctual members with `sync_masks` before they read them.

A layer is a zero-suppressed decision diagram (`zdd.ZDD`) over member ids,
closed by frontier rings (Burch et al., "Symbolic model checking: 10^20
states and beyond", LICS 1990): each ring is the image of the last under
rules 1 and 2, minus the layer so far.  Its node is its loop-back signature.
Every non-streaming build on an automaton walks and extends one chain of
completed layers in `a.tables`; a budget overrun leaves it at its last
complete layer.  A streaming build holds one layer in a diagram of its own.
Either closes a layer only for seeds and slot kind not closed before, and
crosses a family out of a slot only once (`_Chain`'s memos).
The reported support is the least by member rank in the lowest ring meeting
the constraint; a dra witness walks back to the least predecessor in each
ring before, and from a seed to its least source in the lowest ring of the
layer before, so no output depends on member ids.

`rule1_steps`, `rule2_steps` and `boundary_support` are the same relation on
one support, a bitmask of member ids: `find_guard_timelock` searches the
enumerated supports with it.  `support_key` keys a RegionState support.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .model import Automaton, BudgetExceeded
from .region_graph import LayeredBuild, MemberTable, member_key
from .regions import Slot
from .zdd import BASE, EMPTY, ZDD


def support_key(support):
    return frozenset(member_key(m) for m in support)


@dataclass
class GlobalLayer:
    number: int
    slot: Slot
    family: int  # its supports, a node of the builder's diagram
    count: int  # how many supports
    rings: list  # frontier rings: the seeds, then each step's new supports


# -- constraints ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\(|\)|&&|\|\||#[A-Za-z_][A-Za-z0-9_]*|>=\s*1|==\s*0|=\s*0)")


def parse_constraint(text: str):
    """Grammar: or := and ('||' and)*; and := atom ('&&' atom)*;
    atom := '(' or ')' | '#loc >= 1' | '#loc == 0'."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"malformed constraint at {text[pos:].strip()!r}")
            break
        tokens.append("".join(m.group(1).split()))
        pos = m.end()
    tokens.append(None)  # the end of the text
    node, pos = _parse(tokens, 0)
    if tokens[pos] is not None:
        raise ValueError(f"malformed constraint: trailing {tokens[pos]!r}")
    return node


def _parse(tokens, pos, level=0):
    """The grammar's `or` (level 0), `and` (1) or `atom` (2) from tokens[pos]
    on, and the position after it; module functions, as nested closures that
    call each other would be a reference cycle."""
    if level == 2:
        return _atom(tokens, pos)
    op, kind = (("||", "or"), ("&&", "and"))[level]
    node, pos = _parse(tokens, pos, level + 1)
    while tokens[pos] == op:
        right, pos = _parse(tokens, pos + 1, level + 1)
        node = (kind, node, right)
    return node, pos


def _atom(tokens, pos):
    tok = tokens[pos]
    if tok == "(":
        node, pos = _parse(tokens, pos + 1)
        if tokens[pos] != ")":
            raise ValueError("malformed constraint: missing ')'")
        return node, pos + 1
    if tok is None or not tok.startswith("#"):
        raise ValueError(f"malformed constraint: expected #loc, got {tok!r}")
    op = tokens[pos + 1]
    if op == ">=1":
        return ("some", tok[1:]), pos + 2
    if op in ("==0", "=0"):
        return ("none", tok[1:]), pos + 2
    raise ValueError(
        f"malformed constraint: only #loc>=1 and #loc==0 are supported, got {op!r}"
    )


def constraint_locations(node) -> set:
    if node[0] in ("some", "none"):
        return {node[1]}
    return constraint_locations(node[1]) | constraint_locations(node[2])


def eval_constraint(support, node) -> bool:
    """Truth of a constraint on a support; depends only on the location set."""
    locs = {m if isinstance(m, str) else m.loc for m in support}
    return _eval_on(locs.__contains__, node)


def _eval_on(occupied, node):
    kind = node[0]
    if kind == "some":
        return occupied(node[1])
    if kind == "none":
        return not occupied(node[1])
    if kind == "and":
        return _eval_on(occupied, node[1]) and _eval_on(occupied, node[2])
    return _eval_on(occupied, node[1]) or _eval_on(occupied, node[2])


# -- the global layer algorithm ---------------------------------------------------


def rule1_steps(support, members: MemberTable):
    """In-slot delay outcomes of a support (empty in a singleton slot), as a
    new list."""
    ids, point = members.ordered(support), members.point
    if point[ids[0]]:
        return []
    row = members.delay_row
    members.sync_masks()
    # in an open slot a step stays in it iff its successor is no point member
    punctual = support & members.punctual
    if punctual:
        added = 0
        for i in ids:
            if punctual >> i & 1:
                j = row[i]
                if j is False:
                    j = members.delay(i)
                if j is None:
                    return []  # an invariant pins a punctual member: time is stuck
                assert not point[j]
                added |= 1 << j
        return [support & ~punctual | added]
    movers = []
    for i in ids:
        j = row[i]
        if j is False:
            j = members.delay(i)
        if j is not None and not point[j]:
            movers.append((1 << i, 1 << j))
    # any nonempty set of members whose clocks share a fractional phase can hit
    # the next region together; within each, processes may all move or some lag
    out, seen = [], {support}
    for mask in range(1, 1 << len(movers)):
        chosen = [mv for b, mv in enumerate(movers) if mask >> b & 1]
        added, gones = 0, [0]
        for i, j in chosen:
            added |= j  # movers may share a successor
            gones += [g | i for g in gones]  # every subset of the chosen members
        for gone in gones:
            nxt = support & ~gone | added
            if nxt not in seen:
                seen.add(nxt)
                out.append(nxt)
    return out


def rule2_steps(support, members: MemberTable):
    """Discrete outcomes: (successor support, transition) pairs."""
    ids, row = members.ordered(support), members.discrete_row
    rows = [members.discrete(i) if row[i] is None else row[i] for i in ids]
    members.sync_masks()  # after the rows: a drop's mask test reads its target
    at, out = members.at, []
    for i, steps in zip(ids, rows):
        for tr, j, lg in steps:
            if lg is not None and not support & at[lg]:
                continue
            if not support >> j & 1:
                out.append((support | 1 << j, tr))
            if j != i:
                drop = support & ~(1 << i) | 1 << j
                if lg is None or drop & at[lg]:
                    out.append((drop, tr))
    return out


def boundary_support(support, members: MemberTable):
    """The crossed support when every member's next change enters the next
    slot, else None."""
    crossed, point, row = 0, members.point, members.delay_row
    for i in ZDD.members(support):
        j = row[i]
        if j is False:
            j = members.delay(i)
        if j is None or not (point[i] or point[j]):
            return None
        crossed |= 1 << j
    return crossed


class _Chain:
    """An automaton's complete layers, the seeds of each once taken, the
    witness steps walked back, (layer, ring, support) -> (src, layer, ring,
    kind), and memos on nodes, exact as a closure reads its slot only by kind
    and a crossing not at all: `closed`, (kind, seeds) -> the first layer
    closed from them; `crossed`, family -> its crossed seeds; `locations`,
    family -> its supports' location sets."""

    def __init__(self):
        self.zdd, self.layers, self.seeds, self.back = ZDD(), [], [], {}
        self.closed, self.crossed, self.locations = {}, {}, {}


class _GlobalBuilder(LayeredBuild):
    def __init__(self, a: Automaton, cap=None, max_states=None, watch=None,
                 streaming=False):
        super().__init__(a, cap, max_states, streaming)
        # a streaming build never touches the automaton's chain
        self.chain = _Chain() if streaming else a.tables.get(_Chain) or \
            a.tables.setdefault(_Chain, _Chain())
        self.zdd = self.chain.zdd
        self.watch = watch  # the constraint node; a hit is (layer, slot, ring, support)
        self.supports_total = 0

    def build(self):
        try:
            return super().build()
        finally:
            self.zdd.clear()  # the operation caches last one build

    def _initial_seeds(self):
        if not self.chain.seeds:
            init = self.members.intern(self.ctx.initial_state())
            self.chain.seeds.append(self.zdd.node(init, EMPTY, BASE))
        return self.chain.seeds[0]

    def _count(self, number, n):
        self.supports_total += n
        if self.max_states is not None and self.supports_total > self.max_states:
            raise BudgetExceeded(f"global construction exceeds {self.max_states}"
                                 f" supports while building layer {number}")

    def _close_layer(self, number, slot, seeds):
        layers, watch = self.chain.layers, self.watch
        if number < len(layers):
            layer = layers[number]
            self._count(number, layer.count)
        else:
            key = (slot.kind, seeds)
            layer = self.chain.closed.get(key)
            if layer is None:
                layer = self.chain.closed[key] = self._closure(number, slot, seeds)
            else:  # closed before from these seeds: charge its count at once
                self._count(number, layer.count)
                layer = GlobalLayer(number, slot, layer.family, layer.count, layer.rings)
            if not self.streaming:
                layers.append(layer)
        if watch is not None and self.hit is None and any(
                _eval_on(locs.__contains__, watch) for locs in self._locations(layer)):
            r, hits = next((r, hits) for r, ring in enumerate(layer.rings)
                           if (hits := self._filter(ring, watch)))
            self.hit = number, slot, r, self.zdd.least(hits, self.members.rank.__getitem__)
        return layer

    def _locations(self, layer):
        sets, family = self.chain.locations, layer.family
        if family not in sets:
            sets[family] = frozenset(self.zdd.project(
                family, [frozenset((q,)) for q in self.members.loc]))
        return sets[family]

    def _closure(self, number, slot, seeds):
        z = self.zdd
        family = ring = seeds
        rings, count = [seeds], z.count(seeds)
        self._count(number, count)
        while True:
            ring = z.diff(self._image(ring, slot), family)
            if not ring:
                return GlobalLayer(number, slot, family, count, rings)
            n = z.count(ring)
            self._count(number, n)
            family, count = z.union(family, ring), count + n
            rings.append(ring)

    def _image(self, ring, slot):
        """The rule-1 and rule-2 outcomes of the supports of `ring`, with
        some of those supports themselves."""
        z, m, row = self.zdd, self.members, self.members.discrete_row
        acts = {}  # location guard -> member -> (targets, targets it may drop into)
        for i in z.variables(ring):
            for tr, j, lg in m.discrete(i) if row[i] is None else row[i]:
                plus, into = acts.setdefault(lg, {}).setdefault(i, ([], []))
                plus.append(j)
                if j != i:  # every process at i fires: drop i
                    into.append(j)
        m.sync_masks()
        out = self._delays(ring) if slot.kind == "open" else EMPTY
        for lg, moves in acts.items():
            # a step needs a member at lg before it, and a drop one after it
            adds, drops = z.fire(ring if lg is None else z.hits(ring, m.at[lg]), moves)
            out = z.union(out, z.union(adds, drops if lg is None else
                                       z.hits(drops, m.at[lg])))
        return out

    def _delays(self, ring):
        """Rule 1 in an open slot: a support with punctual members moves all
        of them unless an invariant pins one; in any other, each mover may
        keep, split or move (keeping all gives the support itself)."""
        self.members.sync_masks()
        z, point, punctual = self.zdd, self.members.point, self.members.punctual
        movers, moved, pinned = {}, {}, 0
        for i, j in self._successors(ring).items():
            if punctual >> i & 1:
                pinned |= (j is None) << i
                moved[i] = ((False, j),)  # never taken when pinned
            elif j is not None and not point[j]:
                movers[i] = ((True, None), (True, j), (False, j))
        out = z.image(z.avoid(ring, punctual), movers) if movers else EMPTY
        if moved:
            out = z.union(out, z.image(z.avoid(z.hits(ring, punctual), pinned), moved))
        return out

    def _successors(self, family):
        """Member of the family -> its delay successor, or None."""
        m = self.members
        row = m.delay_row
        return {i: m.delay(i) if row[i] is False else row[i]
                for i in self.zdd.variables(family)}

    def _crossing(self, layer):
        """Member -> its successor, for the layer's members whose next change
        enters the next slot."""
        point, succ = self.members.point, self._successors(layer.family)
        return {i: j for i, j in succ.items() if j is not None and (point[i] or point[j])}

    def _boundary(self, layer):
        """The next layer's seeds: the crossed supports."""
        seeds, number, z = self.chain.seeds, layer.number, self.zdd
        if number + 1 < len(seeds):
            return seeds[number + 1]
        out = self.chain.crossed.get(layer.family)
        if out is None:
            cross = self._crossing(layer)
            out = self.chain.crossed[layer.family] = z.image(
                z.within(layer.family, sum(1 << i for i in cross)),
                {i: ((False, j),) for i, j in cross.items()})
        if not self.streaming:
            seeds.append(out)
        return out

    def _signature(self, layer):
        return layer.family  # nodes are hash-consed

    def _filter(self, f, node):
        """The supports of f on which the constraint holds."""
        kind, z = node[0], self.zdd
        if kind in ("some", "none"):
            self.members.sync_masks()
            return (z.hits if kind == "some" else z.avoid)(f, self.members.at[node[1]])
        left = self._filter(f, node[1])
        if kind == "and":
            return self._filter(left, node[2])
        return z.union(left, self._filter(f, node[2]))

    def _predecessor(self, number, r, sup):
        """(the least support of ring r - 1 of layer `number` with `sup` among
        its outcomes, number, r - 1, "delay" or the transition)."""
        z, m, slot = self.zdd, self.members, self.chain.layers[number].slot
        ring = self.chain.layers[number].rings[r - 1]
        delays = self._successors(ring) if slot.kind == "open" else {}
        near = sup  # what a predecessor may hold: sup's members and theirs
        for i in z.variables(ring):
            if any(sup >> j & 1 for _, j, _ in m.discrete(i)) or \
                    delays.get(i) is not None and sup >> delays[i] & 1:
                near |= 1 << i
        found = [src for src in z.sets(z.within(ring, near))
                 if self._kind(src, sup, slot)]
        src = z.least(reduce(z.union, map(z.single, found)), m.rank.__getitem__)
        return src, number, r - 1, self._kind(src, sup, slot)

    def _kind(self, src, sup, slot):
        """The step from src to sup: "delay", its transition, or None."""
        z, steps = self.zdd, rule2_steps(src, self.members)
        if slot.kind == "open" and not z.diff(
                z.single(sup), self._delays(z.single(src))):
            return "delay"
        return next((tr for nxt, tr in steps if nxt == sup), None)

    def _source(self, number, sup):
        """(the least support crossing into `sup`, a seed of layer `number`, in
        the lowest ring of layer number - 1 holding one, number - 1, the ring,
        "cross")."""
        z, layer = self.zdd, self.chain.layers[number - 1]
        cross = self._crossing(layer)
        near = sum(1 << i for i, j in cross.items() if sup >> j & 1)
        for r, ring in enumerate(layer.rings):
            found = [src for src in z.sets(z.within(ring, near))
                     if reduce(or_, (1 << cross[i] for i in z.members(src))) == sup]
            if found:
                src = z.least(reduce(z.union, map(z.single, found)),
                              self.members.rank.__getitem__)
                return src, number - 1, r, "cross"
        raise AssertionError("a seed has no source")


def build_global_layers(a: Automaton, cap=None, max_states=None):
    """Run the global construction to termination; returns the builder state.

    `max_states` counts supports, not the diagram nodes holding them: a build
    can hold gigabytes before the count passes the budget.
    """
    return _GlobalBuilder(a, cap, max_states).build()


def reachable_location_sets(a: Automaton, cap=None, max_states=None) -> frozenset:
    """The sets of locations occupied together at some network size: a
    counting constraint is reachable iff it holds on one of them."""
    b = build_global_layers(a, cap, max_states)
    return frozenset().union(*map(b._locations, b.layers))


def constraint_node(a: Automaton, constraint):
    """The parsed constraint; ValueError if it names a location `a` lacks."""
    node = parse_constraint(constraint) if isinstance(constraint, str) else constraint
    unknown = sorted(constraint_locations(node) - set(a.locations))
    if unknown:
        raise ValueError(f"unknown location {unknown[0]!r} in constraint")
    return node


def check_global(a: Automaton, constraint, streaming=False, cap=None,
                 max_states=None) -> dict:
    """Is some configuration, at any network size, satisfying the constraint?

    `max_states` counts supports, as in `build_global_layers`, not memory.
    """
    node = constraint_node(a, constraint)
    b = _GlobalBuilder(a, cap, max_states, watch=node, streaming=streaming).build()
    query = constraint if isinstance(constraint, str) else repr(constraint)
    out = b.report(query, "supports_total", b.supports_total, support=None,
                   witness=None)
    if b.hit is not None:
        number, slot, r, sup = b.hit
        if streaming:
            out["support"] = _support_json(sup, slot, b.members)
        else:
            out["witness"] = _witness_chain(b, number, r, sup)
            out["support"] = out["witness"][-1]["support"]
        out["layer"] = number
    return out


def _support_json(sup, slot, members: MemberTable):
    text = str(slot)
    return [{"loc": members.loc[i], "region": members.text[i], "slot": text}
            for i in members.ordered(sup)]


def _witness_chain(b: _GlobalBuilder, number, r, sup):
    """The steps from the initial support to `sup`, in ring r of layer
    `number`: each to a least predecessor in the ring before, a seed to its
    least source in the layer before."""
    chain, back = [], b.chain.back
    while sup is not None:
        key = (number, r, sup)
        if key not in back:
            back[key] = b._predecessor(number, r, sup) if r else \
                b._source(number, sup) if number else (None, 0, 0, "init")
        src, prev, ring, kind = back[key]
        trans = not isinstance(kind, str)
        step = {"kind": "trans" if trans else kind, "layer": number,
                "support": _support_json(sup, b.chain.layers[number].slot, b.members)}
        if trans:
            step["internal_label"] = kind.label
            step["label"] = b.relabel_map.get(kind.label)
        chain.append(step)
        sup, number, r = src, prev, ring
    b.zdd.clear()
    chain.reverse()
    return chain


def find_guard_timelock(a: Automaton, cap=None, max_states=None) -> dict:
    """Search for a reachable support from which time can never flow again.

    From such a support every continuation is a zero-delay discrete loop, so
    total elapsed time is bounded: a timelock caused by location guards (the
    guard-free skeleton may still be timelock-free).  Returns a dict with
    "found", and the support and layer when found.

    The search enumerates every distinct support of the layers, so the
    budget is what makes it return on a large fixpoint: on fig1 it does not
    return without one, and `max_states=10**6` stops its build in layer 3.
    """
    b = build_global_layers(a, cap, max_states)
    layer_of = {}  # support -> number of its first layer
    for layer in b.layers:
        # rebased supports recur across slots; keep the earliest occurrence
        for sup in b.zdd.sets(layer.family):
            layer_of.setdefault(sup, layer.number)
    # a support is safe if it can delay or reaches one that can (no step
    # reads the slot index)
    rev = {k: [] for k in layer_of}
    safe = set()
    for k in layer_of:
        delays = rule1_steps(k, b.members)
        for nxt in delays + [nxt for nxt, _ in rule2_steps(k, b.members)]:
            rev[nxt].append(k)
        if delays or boundary_support(k, b.members) is not None:
            safe.add(k)
    queue = deque(safe)
    while queue:
        v = queue.popleft()
        for u in rev[v]:
            if u not in safe:
                safe.add(u)
                queue.append(u)
    stuck = [k for k in layer_of if k not in safe]
    if not stuck:
        return {"found": False, "support": None, "layer": None}
    states, ordered = b.members.states, b.members.ordered
    k = min(stuck, key=lambda x: (
        layer_of[x], [member_key(states[i]) for i in ordered(x)]))
    number = layer_of[k]
    return {
        "found": True,
        "support": _support_json(k, b.layers[number].slot, b.members),
        "layer": number,
    }
