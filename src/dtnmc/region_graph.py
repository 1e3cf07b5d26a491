"""Region states of an unguarded timed automaton, their successors, the
member table and layered fixpoint both layer engines run, and the
time-divergence (timelock-freedom) check.

States are RegionState values: the global clock t is rebased so its integer
part is 0 and the real slot index rides along as a plain int.

`RegionContext` compiles a location's invariant and outgoing guards when a
member there is first expanded: a single-clock atom whose constant is within
the clock's bound becomes (clock index, the cells where it holds), a cell
being that clock's `Region.vals` entry.  Other atoms keep their place and go
to `Region.satisfies_atom`, so `holds` raises `NonUniformGuard` exactly where
`Region.satisfies` does.

`MemberTable` is the successor cache both layer engines share.  It
hash-conses (Filliatre & Conchon, "Type-safe modular hash-consing", 2006)
each member, a RegionState restamped to slot index 0, to an int id, and
computes each id's delay step and its discrete steps once, as no step reads
the slot index; equal vals and fracs of different members are held once.  A
delay step is `immediate_time_successor`'s state, `RegionState.advance`
checked against the invariant, which enters the next slot iff the member or
its successor is a point member; a discrete step is a guard check, a
`Region.reset` and a target-invariant check.  The steps and the table build
their records with `regions.new_record`.  Only the local layer loop reads
`delay_row` and `discrete_row`, the steps computed so far, so that it pays
for the `delay` or `discrete` call only on a miss.  The local engine holds a
layer's states as ids, the global engine its supports as a diagram over ids;
both carry the slot index beside them.  The id masks per location and of the
punctual members are read through `mask(q)` and `punctual`, and each read
first extends them over the ids interned since the last, so `intern` does no
mask work and a table only the local engine filled computes none; two memos
fill on first read: the rank the global engine orders members by, and the
region text the JSON and DOT print.

There is one table per automaton, kept in `Automaton.tables[MemberTable]`
and made by `layer_entry` with the relabeled automaton's `RegionContext`, its
relabel map and the label index a label query reads: every build and query
on an automaton, by either engine, reuses the successors the earlier ones
computed, and the table goes when the automaton does.  No output depends on
an id: layers keep discovery order, the global engine orders members by the
repr of their `member_key`, and signatures are compared within one build.

`LayeredBuild` is the layered fixpoint both engines run: close a layer in
its slot, stop once a singleton-slot layer repeats an earlier one up to a
slot shift, else cross the slot boundary into the next layer.  It refuses
`lbta` automata, whose broadcasts its steps would ignore.

`check_timelock_free` walks a member table of its own: ids are interned in
BFS order, and the rebased t serves as the tick clock, a delay step with
slot shift 1 being one tick.  Time diverges from every reachable state iff
each reaches a tick (a backward pass from the ticks over the id graph).

`time_always_passes` proves the same verdict from the location graph alone
(a static progress condition after Tripakis, ARTS 1999).  Lemma: with no
diagonal atom (on which the explorer may raise `NonUniformGuard`), if every
location reachable from the initial one has no invariant or an exit with an
empty clock guard into an invariant-free location, every reachable member
reaches a tick.  Proof: each sits at such a location.  Without an invariant,
delay alone takes the never-collapsed t to its next integer; otherwise the
exit fires in every region, into a location without one.
"""

from __future__ import annotations

from functools import lru_cache

from .model import (Automaton, BudgetExceeded, ModelError, check_initial_invariant,
                    compute_bounds, relabel_unique)
from .regions import (T, Memo, Region, RegionState, Slot, initial_region,
                      new_record, next_slot, nogc)
from .zdd import ZDD


class RegionContext:
    """Precomputed data for exploring the region states of an automaton with
    a global clock t added, rebased into the slot index; location guards are
    left to the caller."""

    def __init__(self, ta: Automaton):
        check_explorable(ta)
        self.automaton = ta
        cclocks = tuple(sorted(ta.clocks))
        self.cclocks = cclocks
        self.clocks = cclocks + (T,)
        self.cbounds = compute_bounds(ta)
        # t is rebased; the real slot index lives in RegionState
        self.bounds = {**self.cbounds, T: 1}
        # compiled on first use: location -> invariant, and location ->
        # [(transition, guard, target's invariant)]; no closure holds self
        clocks, bounds = self.clocks, self.bounds
        self.invariant = inv = Memo(
            lambda q: compile_atoms(ta.invariant(q), clocks, bounds))
        self.steps = Memo(lambda q: [
            (tr, compile_atoms(tr.guard, clocks, bounds), inv[tr.dst])
            for tr in ta.transitions if tr.src == q])

    def initial_state(self) -> RegionState:
        return RegionState(
            self.automaton.initial, initial_region(self.clocks, self.bounds), 0
        )


def check_explorable(ta: Automaton) -> None:
    """Refuse a clock named t and an initial invariant failing at time 0."""
    if T in ta.clocks:
        raise ModelError("clock name t is reserved for the global clock")
    check_initial_invariant(ta)


def compile_atoms(atoms, clocks, bounds) -> tuple:
    """A conjunction as (clock index, cells where the atom holds) per compiled
    atom and (None, atom) per other atom, in the atoms' order."""
    out = []
    for atom in atoms:
        c, op, right, d = atom
        b = bounds.get(c)
        if right is not None or b is None or d > b:
            out.append((None, atom))
        else:
            out.append((clocks.index(c), _cells(op, d, b)))
    return tuple(out)


@lru_cache(maxsize=1024)
def _cells(op: str, d: int, b: int) -> frozenset:
    """Cells of a clock with bound b where `clock op d` holds, per satisfies_atom."""
    cells = [None] + [(m, True) for m in range(b + 1)] + [
        (m, False) for m in range(b)]
    return frozenset(
        v for v in cells
        if Region(("x",), (b,), (v,), (("x",),) if v and not v[1] else ())
        .satisfies_atom(("x", op, None, d)))


def holds(region, compiled) -> bool:
    """`region.satisfies(atoms)` for compiled atoms."""
    vals = region.vals
    for i, cells in compiled:
        if not (vals[i] in cells if i is not None else region.satisfies_atom(cells)):
            return False
    return True


def immediate_time_successor(rs: RegionState, ctx: RegionContext):
    """The state the next region in time reaches, or None when delay is
    blocked.

    A successor violating the location invariant blocks delay.  The step
    enters the next slot iff t leaves or reaches an integer, i.e. iff `rs` or
    the successor is a point state (t on an integer).
    """
    nxt = rs.advance()
    inv = ctx.invariant[rs.loc]
    if inv and not holds(nxt.base, inv):
        return None
    return nxt


def discrete_successors(rs: RegionState, ctx: RegionContext):
    """All enabled discrete steps as (transition, successor) pairs.

    A transition fires when the region satisfies its guard uniformly and the
    reset image satisfies the target invariant; the slot never changes.
    """
    loc, base, index = rs
    out = []
    for tr, guard, inv in ctx.steps[loc]:
        if guard and not holds(base, guard):
            continue
        nb = base.reset(tr.resets)
        if inv and not holds(nb, inv):
            continue
        out.append((tr, new_record(RegionState, (tr.dst, nb, index))))
    return out


def member_key(m: RegionState):
    return (m.loc, m.base.key())


class MemberTable:
    """Int ids for members, with their successors computed once, the per-id
    fields the global engine reads, and the relabel map (internal label ->
    user label or None) and label index (user or internal label -> the
    frozenset of internal labels it names) of `ctx.automaton`."""

    def __init__(self, ctx: RegionContext, relabel_map=None):
        self.ctx, self.relabel_map, self.labels = ctx, relabel_map, {}
        for internal, user in (relabel_map or {}).items():
            for k in {internal, user} - {None}:
                self.labels[k] = self.labels.get(k, frozenset()) | {internal}
        self.ids = {}  # member, a RegionState at slot index 0 -> id
        self.states = states = []  # id -> member
        self.loc = []  # id -> location
        self.point = []  # id -> t sits on an integer: a singleton slot
        # location -> id mask, and None -> the mask of the punctual ids; they
        # cover the first `_masked` ids
        self._masks = dict.fromkeys(ctx.automaton.locations + (None,), 0)
        self._masked = 0
        # id -> repr of its member key, the global engine's visiting order
        self.rank = Memo(lambda i: repr(member_key(states[i])))
        # id -> region text without t, for the JSON and the DOT
        self.text = Memo(lambda i: states[i].base.eliminate((T,)).pretty() or "true")
        # id -> id of its time successor, None when delay is blocked, False
        # when not yet computed; read-only, for the local layer loop
        self.delay_row = []
        # id -> ((transition, id, location guard), ...), None when not yet computed
        self.discrete_row = []
        self._shared = {}  # one object per distinct vals or fracs

    def intern(self, m: RegionState) -> int:
        if m.index:
            m = new_record(RegionState, (m.loc, m.base, 0))
        i = self.ids.get(m)
        if i is None:
            b, share = m.base, self._shared.setdefault
            vals, fracs = share(b.vals, b.vals), share(b.fracs, b.fracs)
            if vals is not b.vals or fracs is not b.fracs:
                b = new_record(Region, (b.clocks, b.bounds, vals, fracs))
                m = new_record(RegionState, (m.loc, b, 0))
            i = self.ids[m] = len(self.states)
            self.states.append(m)
            self.loc.append(m.loc)
            self.point.append(vals[-1][1])  # t is the last clock
            self.delay_row.append(False)
            self.discrete_row.append(None)
        return i

    def mask(self, q) -> int:
        """The ids at location q, a bitmask, or `punctual`'s for q None.  A
        read first extends the masks over the ids interned since the last."""
        masks, states = self._masks, self.states
        if self._masked < len(states):
            for i in range(self._masked, len(states)):
                m, bit = states[i], 1 << i
                masks[m.loc] |= bit
                if any(v and v[1] for v in m.base.vals[:-1]):  # a clock but t on an integer
                    masks[None] |= bit
            self._masked = len(states)
        return masks[q]

    @property
    def punctual(self) -> int:
        """The ids where any positive delay moves a clock but t, a bitmask."""
        return self.mask(None)

    def delay(self, i: int):
        """The id of immediate_time_successor of member i, or None when delay
        is blocked; `delay_row[i]` holds it, or False before the first call.

        The step crosses into the next slot iff t leaves or reaches an
        integer, so iff i or its successor is a point member, and it adds 1
        to the slot index iff t reaches one.
        """
        j = self.delay_row[i]
        if j is False:
            nxt = immediate_time_successor(self.states[i], self.ctx)
            j = self.delay_row[i] = None if nxt is None else self.intern(nxt)
        return j

    def discrete(self, i: int) -> tuple:
        """discrete_successors of member i as (transition, id, location guard)
        triples; `discrete_row[i]` holds them, or None before the first call."""
        out = self.discrete_row[i]
        if out is None:
            out = self.discrete_row[i] = tuple([
                (tr, self.intern(nxt), tr.locguard)
                for tr, nxt in discrete_successors(self.states[i], self.ctx)])
        return out

    def ordered(self, support) -> list:
        """The ids of a support, a bitmask of ids, by rank."""
        return sorted(ZDD.members(support), key=self.rank.__getitem__)


def nonnegative(name: str, budget):
    """Raise ValueError for a negative budget; None is no budget."""
    if budget is not None and budget < 0:
        raise ValueError(f"the {name} must be >= 0, not {budget}")


class LayeredBuild:
    """The layered fixpoint; subclasses supply the layers it chains.

    Subclasses define `_initial_seeds()`, `_close_layer(number, slot, seeds)`
    returning a layer stamped with the given slot, `_boundary(layer)`
    returning the next layer's seeds, and `_signature(layer)`, which
    identifies a singleton-slot layer up to its slot index (a hashable: a
    frozenset, its sha256 when streaming, a diagram node).
    `_close_layer` sets `hit` to stop the build at the end of the layer.

    The build owns the slot walk: layer 0 sits in [0,0], and each boundary
    enters `next_slot`.  Every member of a layer has the layer's slot, since
    a boundary step moves t from [k,k] into (k,k+1) and from (k,k+1) onto
    [k+1,k+1].

    Layers 0..cap may be built, and cap=None means no cap: the build stops
    anyway, as each point-slot layer is a function of the one before it over
    a finite set (the local engine loops back at a point index of at most
    2^(point members)), and max_states bounds it where that is too late.
    A streaming build keeps only the layer being closed.
    The member table and its context come from `layer_entry`, which raises
    for an lbta automaton and a negative cap or max_states.  `over_cap` and
    `check_report` give the cap's message and a check's result, also to the
    local engine's answers from an outline.
    """

    def __init__(self, a: Automaton, cap=None, max_states=None, streaming=False):
        self.members = layer_entry(a, cap, max_states)
        self.ctx = self.members.ctx
        self.cap = cap
        self.max_states = max_states
        self.streaming = streaming
        self.layers = []
        self.layers_built = 0
        self.peak_layers_held = 0
        self.i0 = self.l0 = self.shift = None
        self.hit = None

    @nogc
    def build(self):
        seeds, slot = self._initial_seeds(), Slot("point", 0)
        layers, cap = self.layers, self.cap
        sigs = {}  # signature of a singleton-slot layer -> (its number, slot index)
        while True:
            number = self.layers_built
            if cap is not None and number > cap:
                raise over_cap(number, cap)
            layer = self._close_layer(number, slot, seeds)
            self.layers_built = number + 1
            layers.append(layer)
            if len(layers) > self.peak_layers_held:
                self.peak_layers_held = len(layers)
            if slot.kind == "point":
                sig = self._signature(layer)
                if sig in sigs:
                    self.i0, index = sigs[sig]
                    self.l0, self.shift = number, slot.index - index
                    return self
                sigs[sig] = (number, slot.index)
            if self.hit is not None:
                return self
            seeds, slot = self._boundary(layer), next_slot(slot)
            if self.streaming:
                layers.pop()
            if not seeds:
                return self  # nothing can cross this slot boundary; network is done


def layer_entry(a: Automaton, cap=None, max_states=None) -> MemberTable:
    """`a.tables[MemberTable]`, made on the first call from the relabeled
    automaton and its relabel map.  Raises ModelError for an lbta automaton,
    then ValueError for a negative cap or max_states, then the context's
    ModelError."""
    if a.kind == "lbta":  # the steps would ignore broadcasts
        raise ModelError("the layer engines do not take lbta models; translate "
                         "with `dtnmc translate --to gta` first")
    nonnegative("layer cap", cap)
    nonnegative("max_states", max_states)
    members = a.tables.get(MemberTable)
    if members is None:
        ra, relabel_map = relabel_unique(a)
        members = a.tables[MemberTable] = MemberTable(RegionContext(ra), relabel_map)
    return members


def over_cap(number: int, cap: int) -> BudgetExceeded:
    return BudgetExceeded(f"building layer {number} would pass the layer "
                          f"cap {cap} (layers 0..{cap})")


def check_report(query, streaming, hit, layers_built, loop, peak_layers_held,
                 total_key: str, total: int, **rest) -> dict:
    """A check's result: the build's outcome, loop being (i0, l0, shift), then
    `rest` in its order."""
    i0, l0, shift = loop
    return {"query": query, "mode": "streaming" if streaming else "dra",
            "result": "reachable" if hit else "unreachable", "layers_built": layers_built,
            "i0": i0, "l0": l0, "shift": shift, total_key: total,
            "peak_layers_held": peak_layers_held, **rest}


# -- timelock-freedom (time divergence from every reachable state) -------------


@nogc
def check_timelock_free(a: Automaton, max_states=None):
    """Divergence check on a plain timed automaton (no location guards).

    Explores the member table of a with the global clock t.  The rebased t is
    the tick clock: a delay step whose slot shift is 1 lets t pass an integer,
    so any run letting one time unit pass takes such a tick.  Time diverges
    from every reachable state iff every reachable state can reach a tick,
    since a run that keeps reaching ticks passes some tick twice in the
    finite graph.  Returns ("proved", None) or ("refuted", (location, region
    text without t)) for a reachable state that reaches no tick.
    """
    nonnegative("max_states", max_states)
    ctx = RegionContext(a)
    members = MemberTable(ctx)
    members.intern(ctx.initial_state())
    point = members.point
    adj, capable = [], []  # id -> [successor id] / its delay is a tick; BFS order
    while len(adj) < len(members.states):
        i = len(adj)
        j = members.delay(i)
        capable.append(j is not None and not point[i] and point[j])
        adj.append(([] if j is None else [j]) + [k for _, k, _ in members.discrete(i)])
        if max_states is not None and len(members.states) > max_states:
            raise BudgetExceeded(f"timelock check exceeds {max_states} states")

    # ids that can reach a tick
    rev = [[] for _ in adj]
    for u, succs in enumerate(adj):
        for v in succs:
            rev[v].append(u)
    stack = [u for u, ok in enumerate(capable) if ok]
    while stack:
        for u in rev[stack.pop()]:
            if not capable[u]:
                capable[u] = True
                stack.append(u)

    bad = [u for u, ok in enumerate(capable) if not ok]
    if not bad:
        return ("proved", None)
    stuck = [u for u in bad if not adj[u]]
    m = members.states[(stuck or bad)[0]]
    return ("refuted", (m.loc, m.base.eliminate((T,)).pretty()))


def time_always_passes(a: Automaton) -> bool:
    """The module docstring's lemma: True only if `check_timelock_free(a)`
    proves `a`; raises the ModelErrors its `RegionContext` would."""
    check_explorable(a)
    atoms = [tr.guard for tr in a.transitions] + list(a.invariants.values())
    if any(x.right is not None for xs in atoms for x in xs):
        return False
    reach = [a.initial]  # grows while the loop reads it; a repeat is harmless
    for q in reach:
        exits = [tr for tr in a.transitions if tr.src == q]
        if a.invariant(q) and all(tr.guard or a.invariant(tr.dst) for tr in exits):
            return False
        reach += [tr.dst for tr in exits if tr.dst not in reach]
    return True
