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
adds, per id, the sort rank and the slot flags rule 1 reads.  A support is a
frozenset of ids and is its own key; the slot index, shared by all members,
travels beside it.  `support_key` is the index-free key of a RegionState
support.
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
    supports: dict  # support (frozenset of member ids) -> None, in discovery order


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
    it = iter(tokens)
    cur = [next(it, None)]

    def advance():
        cur[0] = next(it, None)

    def atom():
        tok = cur[0]
        if tok == "(":
            advance()
            node = orexpr()
            if cur[0] != ")":
                raise ValueError("malformed constraint: missing ')'")
            advance()
            return node
        if tok is None or not tok.startswith("#"):
            raise ValueError(f"malformed constraint: expected #loc, got {tok!r}")
        loc = tok[1:]
        advance()
        op = cur[0]
        if op == ">=1":
            advance()
            return ("some", loc)
        if op in ("==0", "=0"):
            advance()
            return ("none", loc)
        raise ValueError(
            f"malformed constraint: only #loc>=1 and #loc==0 are supported, got {op!r}"
        )

    def andexpr():
        node = atom()
        while cur[0] == "&&":
            advance()
            node = ("and", node, atom())
        return node

    def orexpr():
        node = andexpr()
        while cur[0] == "||":
            advance()
            node = ("or", node, andexpr())
        return node

    node = orexpr()
    if cur[0] is not None:
        raise ValueError(f"malformed constraint: trailing {cur[0]!r}")
    return node


def constraint_locations(node) -> set:
    if node[0] in ("some", "none"):
        return {node[1]}
    return constraint_locations(node[1]) | constraint_locations(node[2])


def eval_constraint(support, node) -> bool:
    """Truth of a constraint on a support; depends only on the location set."""
    locs = {m if isinstance(m, str) else m.loc for m in support}
    return _eval_on(locs, node)


def _eval_on(locs, node) -> bool:
    kind = node[0]
    if kind == "some":
        return node[1] in locs
    if kind == "none":
        return node[1] not in locs
    if kind == "and":
        return _eval_on(locs, node[1]) and _eval_on(locs, node[2])
    return _eval_on(locs, node[1]) or _eval_on(locs, node[2])


def guard_timelock_constraint(a: Automaton):
    """Locations that can only be left through location-guarded transitions.

    A process parked there past its invariant needs a witness; the returned
    constraint (a disjunction of #q>=1, or None when no such location exists)
    marks supports where that risk exists.
    """
    risky = []
    for q in sorted(a.locations):
        outs = [tr for tr in a.transitions if tr.src == q]
        if outs and all(tr.locguard is not None for tr in outs):
            risky.append(q)
    if not risky:
        return None
    node = ("some", risky[0])
    for q in risky[1:]:
        node = ("or", node, ("some", q))
    return node


# -- the global layer algorithm ---------------------------------------------------


class SupportMembers(MemberTable):
    """The shared member table plus the per-id fields supports need."""

    def __init__(self, ctx, locguard: dict):
        super().__init__(ctx, locguard)
        self.rank = []  # id -> repr of its member key, the visiting order
        self.point = []  # id -> t sits on an integer: a singleton slot
        self.punctual = []  # id -> any positive delay moves a clock other than t

    def _added(self, key, m) -> None:
        self.rank.append(repr(key))
        self.point.append(not m.unbounded and m.base.val(T)[1])
        self.punctual.append(m.base.is_time_punctual(skip=(T,)))

    def ordered(self, support) -> list:
        return sorted(support, key=self.rank.__getitem__)


def rule1_steps(support, index, members: SupportMembers):
    """In-slot delay outcomes of a support (empty in a singleton slot)."""
    ids = members.ordered(support)
    if members.point[ids[0]]:
        return []
    punctual = [i for i in ids if members.punctual[i]]
    if punctual:
        succs = []
        for i in punctual:
            step = members.delay(i, index)
            if step is None:
                return []  # an invariant pins a punctual member: time is stuck
            assert step[0] == "delay"
            succs.append(step[1])
        return [support.difference(punctual).union(succs)]
    movers = []
    for i in ids:
        step = members.delay(i, index)
        if step is not None and step[0] == "delay":
            movers.append((i, step[1]))
    # any nonempty set of members whose clocks share a fractional phase can hit
    # the next region together; within each, processes may all move or some lag
    out, seen = [], {support}
    for mask in range(1, 1 << len(movers)):
        chosen = [mv for b, mv in enumerate(movers) if mask >> b & 1]
        added = frozenset(s for _, s in chosen)
        for amask in range(1 << len(chosen)):
            gone = {i for b, (i, _) in enumerate(chosen) if amask >> b & 1}
            nxt = (support - gone) | added
            if nxt not in seen:
                seen.add(nxt)
                out.append(nxt)
    return out


def rule2_steps(support, members: SupportMembers):
    """Discrete outcomes: (transition, mover id, successor support) triples."""
    loc = members.loc
    locs = {loc[i] for i in support}
    out = []
    for i in members.ordered(support):
        for tr, j, lg in members.discrete(i):
            if lg is not None and lg not in locs:
                continue
            if j not in support:
                out.append((tr, i, support | {j}))
            if j != i:
                drop = (support - {i}) | {j}
                if lg is None or lg in {loc[x] for x in drop}:
                    out.append((tr, i, drop))
    return out


def boundary_support(support, index, members: SupportMembers):
    """(crossed support, its slot index) when every member's next change enters
    the next slot, else None."""
    crossed = []
    for i in support:
        step = members.delay(i, index)
        if step is None or step[0] != "cross":
            return None
        crossed.append(step[1])
    return frozenset(crossed), index + step[2]


class _GlobalBuilder(LayeredBuild):
    table = SupportMembers

    def __init__(self, a: Automaton, cap=None, max_states=None, watch=None,
                 streaming=False):
        super().__init__(a, cap, max_states, streaming)
        self.watch = watch  # parsed constraint or None; hit: (layer, index, support)
        self.parent = {}  # support -> (parent support or None, step kind, layer no)
        self.supports_total = 0

    def _initial_seeds(self):
        return {frozenset({self.members.intern(self.ctx.initial_state())}): None}

    def _close_layer(self, number, index, seeds):
        supports = {}
        wl = deque()
        loc = self.members.loc

        def add(sup, src, kind):
            if sup in supports:
                return
            supports[sup] = None
            if not self.streaming and sup not in self.parent:
                self.parent[sup] = (src, kind, number)
            self.supports_total += 1
            if self.max_states is not None and self.supports_total > self.max_states:
                raise BudgetExceeded(f"global construction exceeds {self.max_states}"
                                     f" supports while building layer {number}")
            wl.append(sup)
            if self.hit is None and self.watch is not None and \
                    _eval_on({loc[i] for i in sup}, self.watch):
                self.hit = (number, index, sup)

        for sup, src in seeds.items():
            add(sup, src, "cross" if src is not None else "init")
        while wl:
            sup = wl.popleft()
            for nxt in rule1_steps(sup, index, self.members):
                add(nxt, sup, "delay")
            for tr, _, nxt in rule2_steps(sup, self.members):
                add(nxt, sup, f"trans {tr.label}")
        first = next(iter(next(iter(supports))))
        slot = self.members.state(first, index).slot(self.ctx.tmax)
        return GlobalLayer(number, slot, supports)

    def _boundary(self, layer):
        """The next layer's seeds (crossed support -> source) and slot index."""
        seeds, index = {}, None
        for sup in layer.supports:
            crossed = boundary_support(sup, layer.slot.index, self.members)
            if crossed is None:
                continue
            seeds.setdefault(crossed[0], sup)
            index = crossed[1]
        return seeds, index

    def _signature(self, layer):
        if self.streaming:
            # frozensets have no total order, so each support is sorted first;
            # ids are one-to-one with member keys within a build
            body = repr(sorted(sorted(s) for s in layer.supports))
            return hashlib.sha256(body.encode()).hexdigest()
        return frozenset(layer.supports)


def build_global_layers(a: Automaton, cap=None, max_states=None):
    """Run the global construction to termination; returns the builder state."""
    return _GlobalBuilder(a, cap, max_states).build()


def check_global(a: Automaton, constraint, streaming=False, cap=None,
                 max_states=None) -> dict:
    """Is some configuration, at any network size, satisfying the constraint?"""
    node = parse_constraint(constraint) if isinstance(constraint, str) else constraint
    locs = set(a.locations)
    for q in sorted(constraint_locations(node)):
        if q not in locs:
            raise ValueError(f"unknown location {q!r} in constraint")
    b = _GlobalBuilder(a, cap, max_states, watch=node, streaming=streaming).build()
    query = constraint if isinstance(constraint, str) else repr(constraint)
    out = b.report(query, "supports_total", b.supports_total, support=None,
                   witness=None)
    if b.hit is not None:
        number, index, sup = b.hit
        out["support"] = _support_json(sup, index, b.members)
        out["layer"] = number
        if not streaming:
            out["witness"] = _witness_chain(b, sup)
    return out


def _support_json(sup, index, members: SupportMembers):
    out = []
    for i in members.ordered(sup):
        m = members.state(i, index)
        out.append({
            "loc": m.loc,
            "region": m.base.eliminate((T,)).pretty() or "true",
            "slot": str(m.slot(members.ctx.tmax)),
        })
    return out


def _witness_chain(b: _GlobalBuilder, sup):
    chain = []
    while sup is not None:
        src, kind, number = b.parent[sup]
        index = b.layers[number].slot.index
        step = {"kind": kind, "layer": number,
                "support": _support_json(sup, index, b.members)}
        if kind.startswith("trans "):
            internal = kind.split(" ", 1)[1]
            step["kind"] = "trans"
            step["internal_label"] = internal
            step["label"] = b.relabel_map.get(internal)
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
    # a support is safe if it reaches, through discrete steps, one that can
    # delay in the last layer holding it; rule 2 does not read the slot index
    rev = {k: [] for k in layer_of}
    safe = set()
    for k, index in last.items():
        for _, _, nxt in rule2_steps(k, b.members):
            rev[nxt].append(k)
        if rule1_steps(k, index, b.members) or \
                boundary_support(k, index, b.members) is not None:
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
        "support": _support_json(k, b.layers[number].slot.index, b.members),
        "layer": number,
    }
