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
the rank orders supports, and the rules read its id masks per location and of
the punctual members, `mask(q)` and `punctual`, which cover every id.

A layer is a zero-suppressed decision diagram (`zdd.ZDD`) over member ids,
closed by frontier rings (Burch et al., "Symbolic model checking: 10^20
states and beyond", LICS 1990): each ring is the image of the last under
rules 1 and 2, minus the layer so far.  Its node is its loop-back signature.
Every build on an automaton, in either mode, shares its `_Chain` in
`a.tables`: the diagram and memos by which it closes a layer only for seeds
and slot kind not closed before, and crosses a family out of a slot only
once.  A build keeps its own layers, a streaming one only the last; a budget
overrun leaves the memos at the last complete layer.
The reported support is the least by member rank in the lowest ring meeting
the constraint; a dra witness walks back to the least source in each ring
before, and from a seed to its least source in the lowest ring of the layer
before, so no output depends on member ids.  The walk looks at one support
at a time, by `rule2_steps` and `boundary_support`, the same relation on one
support (a bitmask of member ids), and by `_delays` on a one-support family.

`find_guard_timelock` closes the supports that delay or cross backward under
rule 2, on the union of the layer families, in a diagram of its own that
holds copies of the families, so the chain's keeps no node of the search.
`rule1_steps` and `support_key` stay for the tests' reference and
perfbench/tracing.py, which wraps them by name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import reduce

from .model import Automaton, BudgetExceeded
from .region_graph import LayeredBuild, MemberTable, check_report, member_key
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

# one token per match; where none matches, the rest of the text is one stray match
_TOKEN = re.compile(r"\s*(?:(\(|\)|&&|\|\||#[A-Za-z_][A-Za-z0-9_]*|>=\s*1|==\s*0|=\s*0)"
                    r"|(\S.*))", re.S)


def parse_constraint(text: str):
    """Grammar: or := and ('||' and)*; and := atom ('&&' atom)*;
    atom := '(' or ')' | '#loc >= 1' | '#loc == 0'."""
    found = _TOKEN.findall(text)
    if found and found[-1][1]:
        raise ValueError(f"malformed constraint at {found[-1][1].rstrip()!r}")
    tokens = [tok for tok, _ in found] + [None]  # None: the end of the text
    node, pos = _parse(tokens, 0)
    if tokens[pos] is not None:
        raise ValueError(f"malformed constraint: trailing {_bare(tokens[pos])!r}")
    return node


def _parse(tokens, pos):
    """The grammar's `or` from tokens[pos] on, and the position after it; a
    module function, as a nested closure calling itself would be a reference
    cycle."""
    node = None
    while True:
        conj = None
        while True:  # an `and`
            tok = tokens[pos]
            if tok == "(":
                atom, pos = _parse(tokens, pos + 1)
                if tokens[pos] != ")":
                    raise ValueError("malformed constraint: missing ')'")
                pos += 1
            elif tok is not None and tok[0] == "#":
                op = tokens[pos + 1]
                if op is None or op[0] not in ">=":  # not >=1, ==0 or =0
                    raise ValueError("malformed constraint: only #loc>=1 and #loc==0 "
                                     f"are supported, got {op!r}")
                atom, pos = ("some" if op[0] == ">" else "none", tok[1:]), pos + 2
            else:
                raise ValueError(f"malformed constraint: expected #loc, got {_bare(tok)!r}")
            conj = atom if conj is None else ("and", conj, atom)
            if tokens[pos] != "&&":
                break
            pos += 1
        node = conj if node is None else ("or", node, conj)
        if tokens[pos] != "||":
            return node, pos
        pos += 1


def _bare(tok):
    """A token without the spaces its operator may hold."""
    return tok and "".join(tok.split())


def constraint_locations(node) -> set:
    if node[0] in ("some", "none"):
        return {node[1]}
    return constraint_locations(node[1]) | constraint_locations(node[2])


def eval_constraint(locs, node) -> bool:
    """Truth of a constraint on a support, given its location names."""
    kind = node[0]
    if kind == "some":
        return node[1] in locs
    if kind == "none":
        return node[1] not in locs
    if kind == "and":
        return eval_constraint(locs, node[1]) and eval_constraint(locs, node[2])
    return eval_constraint(locs, node[1]) or eval_constraint(locs, node[2])


# -- the global layer algorithm ---------------------------------------------------


def rule1_steps(support, members: MemberTable):
    """In-slot delay outcomes of a support (empty in a singleton slot), as a
    new list."""
    ids, point = members.ordered(support), members.point
    if point[ids[0]]:
        return []
    # in an open slot a step stays in it iff its successor is no point member
    punctual = support & members.punctual
    if punctual:
        added = 0
        for i in ids:
            if punctual >> i & 1:
                j = members.delay(i)
                if j is None:
                    return []  # an invariant pins a punctual member: time is stuck
                assert not point[j]
                added |= 1 << j
        return [support & ~punctual | added]
    movers = []
    for i in ids:
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
    out, mask = [], members.mask
    for i in members.ordered(support):
        for tr, j, lg in members.discrete(i):
            if lg is not None and not support & mask(lg):
                continue
            if not support >> j & 1:
                out.append((support | 1 << j, tr))
            if j != i:
                drop = support & ~(1 << i) | 1 << j
                if lg is None or drop & mask(lg):
                    out.append((drop, tr))
    return out


def boundary_support(support, members: MemberTable):
    """The crossed support when every member's next change enters the next
    slot, else None."""
    crossed, point = 0, members.point
    for i in ZDD.members(support):
        j = members.delay(i)
        if j is None or not (point[i] or point[j]):
            return None
        crossed |= 1 << j
    return crossed


class _Chain:
    """An automaton's global diagram and memos on its nodes, exact as a
    closure reads its slot only by kind and a crossing not at all: `closed`,
    (kind, seeds) -> the first layer closed from them; `crossed`, family ->
    its crossed seeds; `locations`, family -> its supports' location sets;
    `back`, (layer, ring, support) -> (src, layer, ring, kind) of the witness
    walk (layer l is the same in every build); `start`, layer 0's seeds."""

    def __init__(self):
        self.zdd, self.back, self.start = ZDD(), {}, None
        self.closed, self.crossed, self.locations = {}, {}, {}


class _GlobalBuilder(LayeredBuild):
    def __init__(self, a: Automaton, cap=None, max_states=None, watch=None,
                 streaming=False):
        super().__init__(a, cap, max_states, streaming)
        self.chain = a.tables.get(_Chain) or a.tables.setdefault(_Chain, _Chain())
        self.zdd = self.chain.zdd
        self.watch = watch  # the constraint node; a hit is (layer, slot, ring, support)
        self.supports_total = 0

    def build(self):
        try:
            return super().build()
        finally:
            self.zdd.clear()  # the operation caches last one build

    def _initial_seeds(self):
        if self.chain.start is None:
            self.chain.start = self.zdd.node(
                self.members.intern(self.ctx.initial_state()), EMPTY, BASE)
        return self.chain.start

    def _count(self, number, n):
        self.supports_total += n
        if self.max_states is not None and self.supports_total > self.max_states:
            raise BudgetExceeded(f"global construction exceeds {self.max_states}"
                                 f" supports while building layer {number}")

    def _close_layer(self, number, slot, seeds):
        closed, watch = self.chain.closed, self.watch
        layer = closed.get((slot.kind, seeds))
        if layer is None:
            layer = closed[slot.kind, seeds] = self._closure(number, slot, seeds)
        else:  # closed before from these seeds: charge its count at once
            self._count(number, layer.count)
            if layer.number != number:
                layer = GlobalLayer(number, slot, layer.family, layer.count, layer.rings)
        if watch is not None and self.hit is None and any(
                eval_constraint(locs, watch) for locs in self._locations(layer)):
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
        z, m = self.zdd, self.members
        acts = {}  # location guard -> member -> (targets, targets it may drop into)
        for i in z.variables(ring):
            for tr, j, lg in m.discrete(i):
                plus, into = acts.setdefault(lg, {}).setdefault(i, ([], []))
                plus.append(j)
                if j != i:  # every process at i fires: drop i
                    into.append(j)
        out = self._delays(ring) if slot.kind == "open" else EMPTY
        for lg, moves in acts.items():
            # a step needs a member at lg before it, and a drop one after it
            adds, drops = z.fire(ring if lg is None else z.hits(ring, m.mask(lg)), moves)
            out = z.union(out, z.union(adds, drops if lg is None else
                                       z.hits(drops, m.mask(lg))))
        return out

    def _delays(self, ring):
        """Rule 1 in an open slot: a support with punctual members moves all
        of them unless an invariant pins one; in any other, each mover may
        keep, split or move (keeping all gives the support itself)."""
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
        return {i: self.members.delay(i) for i in self.zdd.variables(family)}

    def _boundary(self, layer):
        """The next layer's seeds: the crossed supports, those whose every
        member's next change enters the next slot."""
        out = self.chain.crossed.get(layer.family)
        if out is None:
            z, point = self.zdd, self.members.point
            cross = {i: j for i, j in self._successors(layer.family).items()
                     if j is not None and (point[i] or point[j])}
            out = self.chain.crossed[layer.family] = z.image(
                z.within(layer.family, sum(1 << i for i in cross)),
                {i: ((False, j),) for i, j in cross.items()})
        return out

    def _signature(self, layer):
        return layer.family  # nodes are hash-consed

    def _filter(self, f, node):
        """The supports of f on which the constraint holds."""
        kind, z = node[0], self.zdd
        if kind in ("some", "none"):
            return (z.hits if kind == "some" else z.avoid)(f, self.members.mask(node[1]))
        left = self._filter(f, node[1])
        if kind == "and":
            return self._filter(left, node[2])
        return z.union(left, self._filter(f, node[2]))

    def _source(self, number, r, sup):
        """(the least support with a step to `sup`, in ring r of layer `number`,
        in ring r - 1, or for a seed (r = 0) in the lowest ring of layer
        number - 1 holding one; its layer, its ring, the step's kind)."""
        z, m, layer = self.zdd, self.members, self.layers[number - (not r)]
        rings = [(r - 1, layer.rings[r - 1])] if r else enumerate(layer.rings)
        # the build read delay rows only in an open slot and in a crossed layer
        delays = {} if r and layer.slot.kind == "point" else self._successors(layer.family)
        near = sup  # what a source may hold: sup's members and those with a step into sup
        for i in z.variables(layer.family):
            if any(sup >> j & 1 for _, j, _ in m.discrete(i)) or \
                    delays.get(i) is not None and sup >> delays[i] & 1:
                near |= 1 << i
        for k, ring in rings:
            found = {src: kind for src in z.sets(z.within(ring, near))
                     if (kind := self._kind(src, sup, layer.slot, not r))}
            if found:
                src = z.least(reduce(z.union, map(z.single, found)), m.rank.__getitem__)
                return src, layer.number, k, found[src]
        raise AssertionError("a support has no source")

    def _kind(self, src, sup, slot, crossing):
        """The step from src to sup: "cross", "delay", its transition, or None."""
        z, m = self.zdd, self.members
        if crossing:
            return "cross" if boundary_support(src, m) == sup else None
        if slot.kind == "open" and not z.diff(z.single(sup), self._delays(z.single(src))):
            return "delay"
        return next((tr for nxt, tr in rule2_steps(src, m) if nxt == sup), None)


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
    out = check_report(query, streaming, b.hit is not None, b.layers_built,
                       (b.i0, b.l0, b.shift), b.peak_layers_held, "supports_total",
                       b.supports_total, support=None, witness=None)
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
            back[key] = b._source(number, r, sup) if r or number else (None, 0, 0, "init")
        src, prev, ring, kind = back[key]
        trans = not isinstance(kind, str)
        step = {"kind": "trans" if trans else kind, "layer": number,
                "support": _support_json(sup, b.layers[number].slot, b.members)}
        if trans:
            step["internal_label"] = kind.label
            step["label"] = b.members.relabel_map.get(kind.label)
        chain.append(step)
        sup, number, r = src, prev, ring
    b.zdd.clear()
    chain.reverse()
    return chain


def find_guard_timelock(a: Automaton, cap=None, max_states=None) -> dict:
    """Search for a reachable support from which time can never flow again,
    a timelock that location guards cause (the guard-free skeleton may be
    timelock-free).  Returns "found" and, when found, the least such support
    by member rank in the first layer holding one, and that layer."""
    b, z, memo = build_global_layers(a, cap, max_states), ZDD(), {}
    # the search's nodes go to a diagram of its own, dropped on return
    b.layers = [replace(l, family=z.copy(b.zdd, l.family, memo), rings=None)
                for l in b.layers]
    b.zdd = z
    stuck, out = _stuck(b), {"found": False, "support": None, "layer": None}
    layer = next((l for l in b.layers if z.diff(l.family, stuck) != l.family), None)
    if layer is not None:
        held = z.diff(layer.family, z.diff(layer.family, stuck))
        out.update(found=True, layer=layer.number, support=_support_json(
            z.least(held, b.members.rank.__getitem__), layer.slot, b.members))
    return out


def _stuck(b: _GlobalBuilder) -> int:
    """The supports of b's layers from which time never passes: their union
    U (no step reads the slot index) less the least fixpoint of those that
    delay or cross (Burch et al., LICS 1990), grown by rule-2 preimages."""
    z, m = b.zdd, b.members
    every = reduce(z.union, [layer.family for layer in b.layers])
    succ, steps = b._successors(every), {}
    for i in z.variables(every):  # (location guard, target) -> (sources, options)
        for _, j, lg in m.discrete(i):
            # before the step a support lacks j (an add), or holds i beside or
            # in place of j (a drop)
            sources, options = steps.get((lg, j), (0, ((False, None),)))
            steps[lg, j] = sources | 1 << i, options + ((True, i), (False, i)) * (j != i)
    opened = z.avoid(every, sum(1 << i for i in succ if m.point[i]))
    blocked = sum(1 << i for i, j in succ.items() if j is None)
    moving = sum(1 << i for i, j in succ.items() if j is not None and not m.point[j])
    rest, new = every, reduce(z.union, (  # those that cross or have a rule-1 outcome
        z.avoid(every, blocked), z.hits(z.avoid(opened, m.punctual), moving),
        z.avoid(z.hits(opened, m.punctual), blocked & m.punctual)))
    while new and (rest := z.diff(rest, new)):
        pre = EMPTY
        for (lg, j), (sources, options) in steps.items():
            after = z.hits(new, 1 << j)
            if lg is not None:  # a drop needs a witness after it, any step one before
                after = z.hits(after, m.mask(lg))
            out = z.hits(z.image(after, {j: options}), sources)
            pre = z.union(pre, out if lg is None else z.hits(out, m.mask(lg)))
        new = z.diff(rest, z.diff(rest, pre))
    return rest
