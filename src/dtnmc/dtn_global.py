"""Global reachability constraints over arbitrary-size networks.

A configuration of A^n is abstracted by its support: the set of (location,
region) pairs occupied by at least one process, all sharing the global-time
slot.  Supports evolve by three kinds of steps:

  - delay micro-steps inside an open slot: members whose clocks sit on an
    integer value are advanced together (any positive delay moves them, and
    every process on such a member moves at once); otherwise any nonempty set
    of members whose next region changes happen before the slot boundary can
    reach them simultaneously (processes may share fractional phases), and
    each mover either drags all its processes along or splits off a copy,
    leaving stragglers behind;
  - discrete steps: one member fires a transition whose location guard is
    witnessed inside the support; the moved copy is always added, and the
    source member may additionally be dropped (all its processes fire) when
    the last mover still sees a witness;
  - boundary steps: when every member's next region change crosses into the
    following slot, the whole support crosses at once.

Layer l collects the supports reachable while global time sits in the l-th
slot; construction stops when a singleton-slot layer repeats an earlier one
up to a slot shift.  The loop is region_graph's `LayeredBuild`, the one the
local algorithm runs; `_GlobalBuilder` supplies the support closure, the
boundary and the signature of a singleton-slot layer, its set of supports.

Members are the ids of region_graph's shared `MemberTable`; `SupportMembers`
adds the sort rank and slot flags per id and the mask of ids per location.  A
support is an int with bit i set for member i; the slot index travels beside
it.  A build expands a support once per side of tmax, all that rule 1 and the
boundary read of the index, and keeps its successors, the transitions of
the rule-2 ones and, once taken, its boundary; `find_guard_timelock` reads
them back.  The rules read the table's delay row and discrete tuples and ask
the table only for steps not computed yet.  `support_key` keys a RegionState
support.

Only a watched dra build (`check_global` without streaming), whose witness
is walked back, records a parent link per support, in the layer that first
holds it: the source support, and "init", "cross" or None for an in-layer
step, whose kind `_witness_chain` reads off the source's first outcome equal
to the support.  A watched build compiles its constraint once into a test on
the support bitmask that reads the live per-location masks; `eval_constraint`
evaluates a constraint on a location set.
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from dataclasses import dataclass

from .model import Automaton, BudgetExceeded
from .region_graph import LayeredBuild, MemberTable, member_key
from .regions import T, Slot


def support_key(support):
    return frozenset(member_key(m) for m in support)


@dataclass
class GlobalLayer:
    number: int
    slot: Slot
    supports: dict  # support (bitmask of member ids) -> None, in discovery order


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
        tokens.append(re.sub(r"\s", "", m.group(1)))
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


class SupportMembers(MemberTable):
    """The shared member table plus the per-id and per-location fields supports need."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self.rank = []  # id -> repr of its member key, the visiting order
        self.punctual = 0  # mask of ids where any positive delay moves a clock but t
        self.at = dict.fromkeys(ctx.automaton.locations, 0)  # location -> id mask
        self._last = (0, [])  # the last support ordered and its ids
        self.text = {}  # id -> region text without t, for the JSON

    def _added(self, m) -> None:
        bit = 1 << len(self.rank)
        self.at[m.loc] |= bit
        self.rank.append(repr(member_key(m)))
        if m.base.is_time_punctual(skip=(T,)):
            self.punctual |= bit

    def ordered(self, support) -> list:
        """The ids of a support by rank, kept for the last support asked."""
        last, ids = self._last
        if support != last:
            ids, rest = [], support
            while rest:
                low = rest & -rest
                ids.append(low.bit_length() - 1)
                rest ^= low
            ids.sort(key=self.rank.__getitem__)
            self._last = (support, ids)
        return ids


def rule1_steps(support, index, members: SupportMembers):
    """In-slot delay outcomes of a support (empty in a singleton slot), as a
    new list."""
    ids, point = members.ordered(support), members.point
    if point[ids[0]]:
        return []
    row = members.delay_row(index)
    # in an open slot a step stays in it iff its successor is no point member
    punctual = support & members.punctual
    if punctual:
        added = 0
        for i in ids:
            if punctual >> i & 1:
                j = row[i]
                if j is False:
                    j = members.delay(i, index)
                if j is None:
                    return []  # an invariant pins a punctual member: time is stuck
                assert not point[j]
                added |= 1 << j
        return [support & ~punctual | added]
    movers = []
    for i in ids:
        j = row[i]
        if j is False:
            j = members.delay(i, index)
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


def rule2_steps(support, members: SupportMembers):
    """Discrete outcomes: (successor support, transition) pairs."""
    at, row = members.at, members.discrete_row
    out = []
    for i in members.ordered(support):
        steps = row[i]
        if steps is None:
            steps = members.discrete(i)
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


def boundary_support(support, index, members: SupportMembers):
    """The crossed support when every member's next change enters the next
    slot, else None."""
    crossed, point, row = 0, members.point, members.delay_row(index)
    while support:
        low = support & -support
        support ^= low
        i = low.bit_length() - 1
        j = row[i]
        if j is False:
            j = members.delay(i, index)
        if j is None or not (point[i] or point[j]):
            return None
        crossed |= 1 << j
    return crossed


def _compile(node, at):
    """The constraint as a test on a support bitmask; it reads the location
    masks in `at` when called, so members interned later count."""
    kind = node[0]
    if kind == "some":
        q = node[1]
        return lambda sup: sup & at[q] != 0
    if kind == "none":
        q = node[1]
        return lambda sup: not sup & at[q]
    left, right = _compile(node[1], at), _compile(node[2], at)
    if kind == "and":
        return lambda sup: left(sup) and right(sup)
    return lambda sup: left(sup) or right(sup)


class _GlobalBuilder(LayeredBuild):
    table = SupportMembers

    def __init__(self, a: Automaton, cap=None, max_states=None, watch=None,
                 streaming=False):
        super().__init__(a, cap, max_states, streaming)
        # watched constraint as a support test, or None; hit: (layer, slot, support)
        self.test = None if watch is None else _compile(watch, self.members.at)
        # support -> (parent or None, "init", "cross" or None for an in-layer
        # step, layer no), in a watched dra build only
        self.parent = {}
        self.record_parent = watch is not None and not streaming
        self.supports_total = 0
        # index >= tmax -> {support -> [rule-1 then rule-2 successors, the
        # transitions of the rule-2 ones, boundary or False]}
        self.expanded = ({}, {})

    def _expand(self, sup, index, cache):
        succs = rule1_steps(sup, index, self.members)
        steps = rule2_steps(sup, self.members)
        succs += [nxt for nxt, _ in steps]
        entry = cache[sup] = [succs, [tr for _, tr in steps], False]
        return entry

    def _initial_seeds(self):
        return {1 << self.members.intern(self.ctx.initial_state()): None}

    def _close_layer(self, number, slot, seeds):
        supports, index = {}, slot.index
        order = []  # supports in discovery order, expanded first in, first out
        cache = self.expanded[index >= self.ctx.tmax]
        parent = self.parent if self.record_parent else None
        limit = self.max_states

        def add(sup, src, kind):  # sup is new to the layer
            supports[sup] = None
            order.append(sup)
            if parent is not None and sup not in parent:
                parent[sup] = (src, kind, number)
            self.supports_total += 1
            if limit is not None and self.supports_total > limit:
                raise BudgetExceeded(f"global construction exceeds {limit}"
                                     f" supports while building layer {number}")
            if self.hit is None and self.test is not None and self.test(sup):
                self.hit = (number, slot, sup)

        for sup, src in seeds.items():
            add(sup, src, "cross" if src is not None else "init")
        for sup in order:
            for nxt in (cache.get(sup) or self._expand(sup, index, cache))[0]:
                if nxt not in supports:
                    add(nxt, sup, None)  # _witness_chain looks the kind up
        return GlobalLayer(number, slot, supports)

    def _boundary(self, layer):
        """The next layer's seeds: crossed support -> source."""
        seeds, index = {}, layer.slot.index
        cache = self.expanded[index >= self.ctx.tmax]
        for sup in layer.supports:
            entry = cache[sup]  # every support was expanded as its layer closed
            if entry[2] is False:
                entry[2] = boundary_support(sup, index, self.members)
            if entry[2] is not None:
                seeds.setdefault(entry[2], sup)
        if self.streaming:
            cache.clear()  # hold one layer only
        return seeds

    def _signature(self, layer):
        if self.streaming:
            # ids are one-to-one with members within the automaton's table
            body = repr(sorted(layer.supports))
            return hashlib.sha256(body.encode()).hexdigest()
        return frozenset(layer.supports)


def build_global_layers(a: Automaton, cap=None, max_states=None):
    """Run the global construction to termination; returns the builder state."""
    return _GlobalBuilder(a, cap, max_states).build()


def reachable_location_sets(a: Automaton, cap=None, max_states=None) -> frozenset:
    """The sets of locations occupied together at some network size: a
    counting constraint is reachable iff it holds on one of them."""
    b = build_global_layers(a, cap, max_states)
    at = list(b.members.at.items())  # (location, mask of its ids)
    masks = {sum(1 << k for k, (_, ids) in enumerate(at) if sup & ids)
             for sup in set().union(*(layer.supports for layer in b.layers))}
    return frozenset(frozenset(q for k, (q, _) in enumerate(at) if mask >> k & 1)
                     for mask in masks)


def constraint_node(a: Automaton, constraint):
    """The parsed constraint; ValueError if it names a location `a` lacks."""
    node = parse_constraint(constraint) if isinstance(constraint, str) else constraint
    unknown = sorted(constraint_locations(node) - set(a.locations))
    if unknown:
        raise ValueError(f"unknown location {unknown[0]!r} in constraint")
    return node


def check_global(a: Automaton, constraint, streaming=False, cap=None,
                 max_states=None) -> dict:
    """Is some configuration, at any network size, satisfying the constraint?"""
    node = constraint_node(a, constraint)
    b = _GlobalBuilder(a, cap, max_states, watch=node, streaming=streaming).build()
    query = constraint if isinstance(constraint, str) else repr(constraint)
    out = b.report(query, "supports_total", b.supports_total, support=None,
                   witness=None)
    if b.hit is not None:
        number, slot, sup = b.hit
        if streaming:
            out["support"] = _support_json(sup, slot, b.members)
        else:
            # the hit support is first added, so recorded, in the hit layer
            out["witness"] = _witness_chain(b, sup)
            out["support"] = out["witness"][-1]["support"]
        out["layer"] = number
    return out


def _support_json(sup, slot, members: SupportMembers):
    out, text = [], str(slot)
    for i in members.ordered(sup):
        if i not in members.text:
            members.text[i] = members.states[i].base.eliminate((T,)).pretty() or "true"
        out.append({"loc": members.loc[i], "region": members.text[i], "slot": text})
    return out


def _witness_chain(b: _GlobalBuilder, sup):
    chain = []
    while sup is not None:
        src, kind, number = b.parent[sup]
        if kind is None:  # an in-layer step: the first outcome of src reaching sup
            succs, trs, _ = b.expanded[b.layers[number].slot.index >= b.ctx.tmax][src]
            k = succs.index(sup) - len(succs) + len(trs)  # < 0 for a delay
            kind = "delay" if k < 0 else trs[k]
        trans = not isinstance(kind, str)
        step = {"kind": "trans" if trans else kind, "layer": number,
                "support": _support_json(sup, b.layers[number].slot, b.members)}
        if trans:
            step["internal_label"] = kind.label
            step["label"] = b.relabel_map.get(kind.label)
        chain.append(step)
        sup = src
    chain.reverse()
    return chain


def find_guard_timelock(a: Automaton, cap=None, max_states=None) -> dict:
    """Search for a reachable support from which time can never flow again.

    From such a support every continuation is a zero-delay discrete loop, so
    total elapsed time is bounded: a timelock caused by location guards (the
    guard-free skeleton may still be timelock-free).  Returns a dict with
    "found", and the support and layer when found.
    """
    b = build_global_layers(a, cap, max_states)
    layer_of, last = {}, {}  # support -> number of its first / index of its last layer
    for layer in b.layers:
        # rebased supports recur across slots; keep the earliest occurrence
        for sup in layer.supports:
            layer_of.setdefault(sup, layer.number)
            last[sup] = layer.slot.index
    # a support is safe if it can delay in the last layer holding it or reaches
    # one that can (delay edges leave safe supports; rule 2 ignores the index)
    rev = {k: [] for k in layer_of}
    safe = set()
    for k, index in last.items():
        entry = b.expanded[index >= b.ctx.tmax][k]
        for nxt in entry[0]:
            rev[nxt].append(k)
        if len(entry[0]) > len(entry[1]):  # a delay outcome
            safe.add(k)
            continue
        if entry[2] is False:  # the last layer's boundary was never taken
            entry[2] = boundary_support(k, index, b.members)
        if entry[2] is not None:
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
