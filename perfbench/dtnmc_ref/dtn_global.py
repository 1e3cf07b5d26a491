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
up to a slot shift, exactly as in the local algorithm.
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .model import Automaton, BudgetExceeded, relabel_unique, unguard
from .region_graph import RegionContext, immediate_time_successor
from .regions import T, RegionState, Slot


def _member_key(m: RegionState):
    return (m.loc, m.unbounded, m.base.key())


def support_key(support):
    return frozenset(_member_key(m) for m in support)


def _sorted_members(support):
    # region keys contain None entries, so order by repr
    return sorted(support, key=lambda m: repr(_member_key(m)))


@dataclass
class GlobalLayer:
    number: int
    slot: Slot
    supports: dict  # support_key -> frozenset of RegionState

    def base_keys(self):
        return frozenset(self.supports.keys())

    def digest(self) -> str:
        body = "\n".join(sorted(repr(sorted(k, key=repr)) for k in self.supports))
        return hashlib.sha256(body.encode()).hexdigest()


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


def _is_point_slot(member: RegionState) -> bool:
    return not member.unbounded and member.base.val(T)[1]


def rule1_steps(support, ctx: RegionContext):
    """In-slot delay outcomes of a support (empty in a singleton slot)."""
    members = _sorted_members(support)
    if _is_point_slot(members[0]):
        return []
    punctual = [m for m in members if m.base.is_time_punctual(skip=(T,))]
    if punctual:
        succs = []
        for m in punctual:
            step = immediate_time_successor(m, ctx)
            if step is None:
                return []  # an invariant pins a punctual member: time is stuck
            assert step[0] == "delay"
            succs.append(step[1])
        return [frozenset(m for m in support if m not in punctual) | frozenset(succs)]
    movers = []
    for m in members:
        step = immediate_time_successor(m, ctx)
        if step is not None and step[0] == "delay":
            movers.append((m, step[1]))
    # any nonempty set of members whose clocks share a fractional phase can hit
    # the next region together; within each, processes may all move or some lag
    out, seen = [], set()
    k0 = support_key(support)
    for mask in range(1, 1 << len(movers)):
        chosen = [mv for b, mv in enumerate(movers) if mask >> b & 1]
        added = frozenset(s for _, s in chosen)
        for amask in range(1 << len(chosen)):
            gone = {m for b, (m, _) in enumerate(chosen) if amask >> b & 1}
            nxt = (support - gone) | added
            k = support_key(nxt)
            if k != k0 and k not in seen:
                seen.add(k)
                out.append(nxt)
    return out


def rule2_steps(support, ctx: RegionContext, locguard):
    """Discrete outcomes: (transition, mover, successor support) triples."""
    locs = {m.loc for m in support}
    out = []
    for m in _sorted_members(support):
        for tr in ctx.trans_from.get(m.loc, ()):
            if not m.base.satisfies(tr.guard):
                continue
            nb = m.base.reset(tr.resets)
            if not nb.satisfies(ctx.invariant(tr.dst)):
                continue
            lg = locguard[tr.label]
            if lg is not None and lg not in locs:
                continue
            m2 = RegionState(tr.dst, nb, m.index, m.unbounded)
            keep = support | {m2}
            if keep != support:
                out.append((tr, m, keep))
            if _member_key(m2) != _member_key(m):
                drop = (support - {m}) | {m2}
                if lg is None or lg in {x.loc for x in drop}:
                    out.append((tr, m, drop))
    return out


def boundary_support(support, ctx: RegionContext):
    """The crossed support when every member's next change enters the next slot."""
    crossed = []
    for m in support:
        step = immediate_time_successor(m, ctx)
        if step is None or step[0] != "cross":
            return None
        crossed.append(step[1])
    return frozenset(crossed)


class _GlobalBuilder:
    def __init__(self, a: Automaton, cap=None, max_states=None, watch=None,
                 streaming=False):
        self.automaton, self.relabel_map = relabel_unique(a)
        self.ta = unguard(self.automaton)
        self.ctx = RegionContext(self.ta)
        self.locguard = {tr.label: tr.locguard for tr in self.automaton.transitions}
        self.cap = cap if cap is not None else 2 ** (self.ctx.na + 1)
        self.max_states = max_states
        self.watch = watch  # parsed constraint or None
        self.streaming = streaming
        self.layers = []
        self.parent = {}  # support_key -> (parent key or None, step kind, layer no)
        self.i0 = self.l0 = self.shift = None
        self.hit = None  # (layer number, support)
        self.supports_total = 0
        self.peak_layers_held = 0
        self.time_capable = {}  # support_key -> bool, for timelock analysis
        self.rule2_edges = []  # (layer no, src key, dst key), for timelock analysis

    def _close_layer(self, number, seeds):
        supports = {}
        wl = deque()

        def add(sup, src_key, kind):
            k = support_key(sup)
            if k in supports:
                return
            supports[k] = sup
            if not self.streaming and k not in self.parent:
                self.parent[k] = (src_key, kind, number)
            self.supports_total += 1
            if self.max_states is not None and self.supports_total > self.max_states:
                raise BudgetExceeded(
                    f"global construction exceeds {self.max_states} supports"
                )
            wl.append(sup)
            if self.hit is None and self.watch is not None and \
                    eval_constraint(sup, self.watch):
                self.hit = (number, sup)

        for src_key, sup in seeds:
            add(sup, src_key, "cross" if src_key is not None else "init")
        while wl:
            sup = wl.popleft()
            k = support_key(sup)
            steps = rule1_steps(sup, self.ctx)
            for nxt in steps:
                add(nxt, k, "delay")
            if not self.streaming:
                self.time_capable[k] = bool(steps)
            for tr, mover, nxt in rule2_steps(sup, self.ctx, self.locguard):
                nk = support_key(nxt)
                if not self.streaming:
                    self.rule2_edges.append((k, nk))
                add(nxt, k, f"trans {tr.label}")
        first = next(iter(supports.values()))
        slot = _sorted_members(first)[0].slot(self.ctx.tmax)
        return GlobalLayer(number, slot, supports)

    def _boundary(self, layer):
        seeds, seen = [], set()
        for k, sup in layer.supports.items():
            crossed = boundary_support(sup, self.ctx)
            if crossed is None:
                continue
            if not self.streaming:
                self.time_capable[k] = True
            ck = support_key(crossed)
            if ck not in seen:
                seen.add(ck)
                seeds.append((k, crossed))
        return seeds

    def build(self):
        init = frozenset({self.ctx.initial_state()})
        seeds = [(None, init)]
        sigs = []
        number = 0
        while True:
            if number > self.cap:
                raise BudgetExceeded(f"global layer count exceeds cap {self.cap}")
            layer = self._close_layer(number, seeds)
            self.layers.append(layer)
            self.peak_layers_held = max(
                self.peak_layers_held, 1 if self.streaming else len(self.layers)
            )
            if layer.slot.kind == "point":
                sig = layer.digest() if self.streaming else layer.base_keys()
                for i, idx, s in sigs:
                    if s == sig:
                        self.i0, self.l0 = i, number
                        self.shift = layer.slot.index - idx
                        break
                if self.l0 is not None:
                    break
                sigs.append((number, layer.slot.index, sig))
            if self.hit is not None:
                break
            seeds = self._boundary(layer)
            if self.streaming:
                self.layers.pop()
            if not seeds:
                break
            number += 1
        return self


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
    built = (b.layers[-1].number + 1 if b.layers else 0) if streaming else len(b.layers)
    out = {
        "query": constraint if isinstance(constraint, str) else repr(constraint),
        "mode": "streaming" if streaming else "dra",
        "result": "reachable" if b.hit is not None else "unreachable",
        "layers_built": built,
        "i0": b.i0,
        "l0": b.l0,
        "shift": b.shift,
        "supports_total": b.supports_total,
        "peak_layers_held": b.peak_layers_held,
        "support": None,
        "witness": None,
    }
    if b.hit is not None:
        number, sup = b.hit
        out["support"] = _support_json(sup, b.ctx)
        out["layer"] = number
        if not streaming:
            out["witness"] = _witness_chain(b, sup)
    return out


def _support_json(sup, ctx):
    members = []
    for m in _sorted_members(sup):
        members.append({
            "loc": m.loc,
            "region": m.base.eliminate((T,)).pretty() or "true",
            "slot": str(m.slot(ctx.tmax)),
        })
    return members


def _witness_chain(b: _GlobalBuilder, sup):
    by_key = {}
    for layer in b.layers:
        by_key.update(layer.supports)
    chain = []
    key = support_key(sup)
    while key is not None:
        src, kind, number = b.parent[key]
        step = {"kind": kind, "layer": number,
                "support": _support_json(by_key[key], b.ctx)}
        if kind.startswith("trans "):
            internal = kind.split(" ", 1)[1]
            step["kind"] = "trans"
            step["internal_label"] = internal
            step["label"] = b.relabel_map.get(internal)
        chain.append(step)
        key = src
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
    by_key = {}
    layer_of = {}
    for layer in b.layers:
        # rebased supports recur across slots; keep the earliest occurrence
        for k, sup in layer.supports.items():
            if k not in by_key:
                by_key[k] = sup
                layer_of[k] = layer.number
    # the last layer's boundary step never ran during construction
    if b.layers:
        for k, sup in b.layers[-1].supports.items():
            if not b.time_capable.get(k) and boundary_support(sup, b.ctx) is not None:
                b.time_capable[k] = True
    # a support is safe if it reaches, through discrete steps, one that can delay
    rev = {k: [] for k in by_key}
    for src, dst in b.rule2_edges:
        if dst in rev:
            rev[dst].append(src)
    safe = {k for k in by_key if b.time_capable.get(k, False)}
    queue = deque(safe)
    while queue:
        v = queue.popleft()
        for u in rev[v]:
            if u not in safe:
                safe.add(u)
                queue.append(u)
    stuck = [k for k in by_key if k not in safe]
    if not stuck:
        return {"found": False, "support": None, "layer": None}
    k = min(stuck, key=lambda x: (layer_of[x], sorted(x, key=repr)))
    return {
        "found": True,
        "support": _support_json(by_key[k], b.ctx),
        "layer": layer_of[k],
    }
