"""The region kernel against reference bodies built with the record
constructors.

`regions`, `region_graph` and the summary half of `dtn_local` build their
records with `tuple.__new__` and unpack them once.  The references below are
the straightforward versions those replaced: each builds through the
NamedTuple constructor and reads fields by name.  The kernel must return
equal values of the same record class on every member of the fig1, fig3 and
`random_gta(0..59)` member tables, on seeded random regions with 2-3 clocks
plus t, and for the summary automata of fig1 and fig3.

The local layer closure is checked the same way: `RefBuilder` keeps the
closure as first written, with a nested `add` per layer and the table's
`delay` and `discrete` called for every state, and `ref_loopback_arcs` the
loop-back that filtered every edge.  Both engines must agree in order on
every layer's ids and cross steps, the edges, parent links, hit and state
count, the loop-back arcs, and where a budget stops a build.
"""

import random
from itertools import combinations

from collections import deque
from dataclasses import replace

import pytest

from conftest import OPS, member_state, random_gta, random_region
from dtnmc.dtn_local import (Layer, _Builder, apply_loopback, build_layers,
                             region_to_atoms, summary_automaton)
from dtnmc.model import Atom, Automaton, BudgetExceeded, Transition, relabel_unique
from dtnmc.region_graph import (MemberTable, compile_atoms, discrete_successors,
                                holds)
from dtnmc.regions import (FRAC, INT, T, NonUniformGuard, Region, RegionState,
                           fracs_without)
from test_dtn_local import seeded_gta

# -- reference bodies -----------------------------------------------------------


def ref_delay_successor(r):
    vals, bounds = list(r.vals), r.bounds
    zero = [i for i, v in enumerate(vals) if v is not None and v[1]]
    if zero:
        opened = []
        for i in zero:
            m = vals[i][0]
            if m >= bounds[i]:
                vals[i] = None
            else:
                vals[i] = FRAC[m]
                opened.append(r.clocks[i])
        fracs = ((tuple(sorted(opened)),) if opened else ()) + r.fracs
    else:
        if not r.fracs:
            return r
        for c in r.fracs[-1]:
            i = r.clocks.index(c)
            m = vals[i][0] + 1
            vals[i] = None if m > bounds[i] else INT[m]
        fracs = r.fracs[:-1]
    return Region(r.clocks, bounds, tuple(vals), fracs)


def ref_fracs_without(fracs, clocks):
    return tuple(cls for cls in (tuple(c for c in cls if c not in clocks)
                                 for cls in fracs) if cls)


def ref_reset(r, clocks):
    if not clocks:
        return r
    vals, fractional = list(r.vals), False
    for c in clocks:
        i = r.clocks.index(c)
        fractional = fractional or (vals[i] is not None and not vals[i][1])
        vals[i] = INT[0]
    fracs = ref_fracs_without(r.fracs, clocks) if fractional else r.fracs
    return Region(r.clocks, r.bounds, tuple(vals), fracs)


def ref_eliminate(r, clocks):
    drop = set(clocks)
    keep = [i for i, c in enumerate(r.clocks) if c not in drop]
    return Region(
        tuple(r.clocks[i] for i in keep),
        tuple(r.bounds[i] for i in keep),
        tuple(r.vals[i] for i in keep),
        ref_fracs_without(r.fracs, drop),
    )


def ref_shift_clock(r, c, k):
    i = r.clocks.index(c)
    m, fz = r.vals[i]
    vals = list(r.vals)
    vals[i] = (INT if fz else FRAC)[m + k]
    return Region(r.clocks, r.bounds, tuple(vals), r.fracs)


def ref_advance(rs):
    succ = ref_delay_successor(rs.base)
    tv = succ.val(T)
    if tv == (0, False):
        return RegionState(rs.loc, succ, rs.index)
    if tv == (1, True):
        return RegionState(rs.loc, ref_shift_clock(succ, T, -1), rs.index + 1)
    raise AssertionError(f"unexpected t value {tv}")


def ref_holds(region, compiled):
    vals = region.vals
    return all(vals[i] in cells if i is not None else region.satisfies_atom(cells)
               for i, cells in compiled)


def ref_discrete_successors(rs, ctx):
    out = []
    for tr, guard, inv in ctx.steps[rs.loc]:
        if guard and not ref_holds(rs.base, guard):
            continue
        nb = ref_reset(rs.base, tr.resets)
        if inv and not ref_holds(nb, inv):
            continue
        out.append((tr, RegionState(tr.dst, nb, rs.index)))
    return out


def ref_region_to_atoms(region):
    atoms, frac = [], []
    rank = {c: r for r, cls in enumerate(region.fracs) for c in cls}
    for c, b, v in zip(region.clocks, region.bounds, region.vals):
        if v is None:
            atoms.append(Atom(c, ">", None, b))
        elif v[1]:
            atoms.append(Atom(c, "==", None, v[0]))
        else:
            atoms.append(Atom(c, ">", None, v[0]))
            atoms.append(Atom(c, "<", None, v[0] + 1))
            frac.append((c, v[0], rank[c]))
    for k, (c, m, r) in enumerate(frac):
        for c2, m2, r2 in frac[k + 1:]:
            d = m - m2
            if r == r2:
                if d >= 0:
                    atoms.append(Atom(c, "==", c2, d))
                else:
                    atoms.append(Atom(c2, "==", c, -d))
            else:
                lo = d if r > r2 else d - 1
                if lo >= 0:
                    atoms.append(Atom(c, ">", c2, lo))
                    atoms.append(Atom(c, "<", c2, lo + 1))
                else:
                    atoms.append(Atom(c2, ">", c, -lo - 1))
                    atoms.append(Atom(c2, "<", c, -lo))
    return tuple(atoms)


def ref_summary_automaton(dra):
    names = dra.state_names()
    ctx = dra.ctx
    n = len(ctx.cclocks)
    guard, zeros = {}, {}
    proj = {}
    for layer in dra.layers:
        for i in layer.ids:
            if i in guard:
                continue
            base = dra.states[i].base
            vals, fracs = base.vals, base.fracs
            if vals[n] is not None and not vals[n][1]:
                fracs = ref_fracs_without(fracs, (T,))
            key = (vals[:n], fracs)
            if key not in proj:
                proj[key] = (ref_region_to_atoms(ref_eliminate(base, (T,))),
                             tuple(c for c, v in zip(ctx.cclocks, vals)
                                   if v == (0, True)))
            guard[i], zeros[i] = proj[key]
    trs = [Transition(names[ls][i], names[ld][j], label, guard[i], zeros[j])
           if kind == "trans" else
           Transition(names[ls][i], names[ld][j], None, guard[j], ())
           for ls, i, kind, label, ld, j in dra.arcs]
    locations = tuple(name for layer in names for name in layer.values())
    return Automaton("ta", f"{dra.automaton.name}_summary", ctx.cclocks,
                     locations, locations[0], {}, tuple(trs))


class RefBuilder(_Builder):
    """The local builder with the layer closure as first written."""

    def _close_layer(self, number, slot, seeds):
        members, edges, parent = self.members, self.edges, self.parent
        record_edges, record_parent = self.record_edges, self.record_parent
        watched, loc, point = self.watched, members.loc, members.point
        ids, waiting, locs, crossing = {}, {}, set(), {}
        wl = deque()

        def add(j, ls=None, i=None, kind=None, tr=None):
            if j not in ids:
                ids[j] = None
                if record_parent:
                    parent[number, j] = (ls, i, kind, tr)
                self.states_total += 1
                if self.max_states is not None and self.states_total > self.max_states:
                    raise BudgetExceeded(f"layer construction exceeds {self.max_states}"
                                         f" states while building layer {number}")
                wl.append(j)
                if loc[j] not in locs:
                    locs.add(loc[j])
                    wl.extend(waiting.pop(loc[j], ()))
            if record_edges and ls is not None:
                edges[ls, i, kind, tr.label if tr else None, number, j] = None
            if tr is not None and tr.label in watched and self.hit is None:
                self.hit = ((ls, i), tr, (number, j))

        for ls, i, j in seeds:
            add(j, ls, i, "cross" if ls is not None else None)
        while wl:
            i = wl.popleft()
            j = members.delay(i)
            if j is not None:
                if point[i] or point[j]:
                    crossing[i] = j
                else:
                    add(j, number, i, "delay")
            for tr, j, lg in members.discrete(i):
                if lg is not None and lg not in locs:
                    waiting.setdefault(lg, {})[i] = None
                else:
                    add(j, number, i, "trans", tr)
        self.crossing = crossing
        return Layer(number, slot, ids)


def ref_loopback_arcs(build):
    l0, i0 = build.l0, build.i0
    return list(build.edges) if l0 is None else [
        e if e[4] < l0 else (e[0], e[1], "loop", None, i0, e[5])
        for e in build.edges if e[0] < l0]


# -- comparison ---------------------------------------------------------------


def same(got, want):
    """Equal values whose records, at every depth, have the same class."""
    assert got == want
    assert type(got) is type(want)
    if isinstance(got, (tuple, list)):
        for g, w in zip(got, want):
            same(g, w)


def outcome(fn, *args):
    """fn's value, or the class of the exception it raises."""
    try:
        return fn(*args)
    except (NonUniformGuard, AssertionError) as e:
        return type(e)


def subsets(clocks):
    return [s for k in range(len(clocks) + 1) for s in combinations(clocks, k)]


def check_region(r, atoms_list=()):
    clocks = subsets(r.clocks)
    same(r.delay_successor(), ref_delay_successor(r))
    assert (r.delay_successor() is r) == (ref_delay_successor(r) == r)
    for cs in clocks:
        same(r.reset(cs), ref_reset(r, cs))
        same(r.eliminate(cs), ref_eliminate(r, cs))
        same(fracs_without(r.fracs, cs), ref_fracs_without(r.fracs, cs))
    for compiled in atoms_list:
        same(outcome(holds, r, compiled), outcome(ref_holds, r, compiled))


def check_state(rs):
    """advance at rs, and along its chain of delay successors."""
    for _ in range(8):
        got, want = outcome(rs.advance), outcome(ref_advance, rs)
        same(got, want)
        if not isinstance(got, RegionState):
            return
        rs = got


# -- tests ------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["fig1", "fig3"] + [f"r{s}" for s in range(60)])
def test_kernel_matches_reference_on_member_tables(name, request):
    a = request.getfixturevalue(name) if name[0] == "f" else random_gta(int(name[1:]))
    build_layers(a)
    _, _, ctx, table, _ = a.tables[MemberTable]
    assert table.states
    for m in list(table.states):
        compiled = [ctx.invariant[m.loc]] + [g for _, g, _ in ctx.steps[m.loc]]
        check_region(m.base, compiled)
        same(m.base.shift_clock(T, 0), ref_shift_clock(m.base, T, 0))
        for index in (0, 1, 2 ** 70):
            rs = member_state(table, table.intern(m), index)
            same(rs, RegionState(m.loc, m.base, index))
            check_state(rs)
            same(discrete_successors(rs, ctx), ref_discrete_successors(rs, ctx))
        same(region_to_atoms(m.base.eliminate((T,))),
             ref_region_to_atoms(ref_eliminate(m.base, (T,))))


@pytest.mark.parametrize("clocks", [("x", "y", T), ("x", "y", "z", T)])
def test_kernel_matches_reference_on_random_regions(clocks):
    rng = random.Random(len(clocks))
    for _ in range(400):
        bounds = {c: rng.randint(1, 3) for c in clocks}
        bounds[T] = 1  # t is rebased, as in region states
        r = random_region(rng, clocks, bounds)
        atoms = []
        for _ in range(3):
            c = rng.choice(clocks)
            right = rng.choice((None, None) + tuple(x for x in clocks if x != c))
            atoms.append(Atom(c, rng.choice(OPS), right, rng.randint(0, 4)))
        compiled = [compile_atoms(atoms[:k], clocks, bounds) for k in range(4)]
        check_region(r, compiled)
        same(region_to_atoms(r), ref_region_to_atoms(r))
        cs = rng.choice(clocks[:-1])
        if r.val(cs) is not None:
            same(r.shift_clock(cs, 1), ref_shift_clock(r, cs, 1))
        check_state(RegionState("q", r, rng.randint(0, 3)))


@pytest.mark.parametrize("name", ["fig1", "fig3"])
def test_summary_matches_constructor_built_reference(name, request):
    dra = apply_loopback(build_layers(request.getfixturevalue(name)))
    got, want = summary_automaton(dra), ref_summary_automaton(dra)
    assert got == want
    assert repr(got) == repr(want)
    assert hash(got.transitions) == hash(want.transitions)
    for g, w in zip(got.transitions, want.transitions):
        same(g, w)
        assert hash(g) == hash(w)
    assert all(type(at) is Atom for tr in got.transitions for at in tr.guard)


def closure_trace(cls, a, max_states=None, **kw):
    """What a build of class cls on `a` leaves: per closed layer its ids, cross
    steps and running state count, then the edges, parent links, hit and
    loop-back arcs, or the budget's message and the state of the build."""
    layers = []

    class Traced(cls):
        def _close_layer(self, number, slot, seeds):
            layer = super()._close_layer(number, slot, seeds)
            layers.append((list(layer.ids), list(self.crossing.items()),
                           self.states_total))
            return layer

    b = Traced(a, max_states=max_states, **kw)
    try:
        b.build()
    except BudgetExceeded as e:
        return ("budget", str(e), b.states_total, layers, list(b.edges),
                list(b.parent.items()))
    arcs = (apply_loopback(b).arcs if cls is _Builder else ref_loopback_arcs(b)) \
        if b.record_edges else None
    return (layers, list(b.edges), list(b.parent.items()), b.hit, b.states_total,
            (b.i0, b.l0, b.shift), arcs)


CLOSURE_MODELS = (["fig1", "fig3"] + [f"r{s}" for s in range(0, 40, 3)]
                  + [f"s{s}c2" for s in (3, 20, 21, 26)]
                  + [f"s{s}c3" for s in (1, 43, 49)])


@pytest.mark.parametrize("name", CLOSURE_MODELS)
def test_layer_closure_matches_reference(name, request):
    # rN is random_gta(N), one clock; sNcK the benchmark generator's seed N
    # with K clocks
    if name[0] == "f":
        a = request.getfixturevalue(name)
    elif name[0] == "r":
        a = random_gta(int(name[1:]))
    else:
        seed, clocks = name[1:].split("c")
        a = seeded_gta(int(seed), int(clocks))
    labels = sorted(set(relabel_unique(a)[1].values()) - {None})
    modes = [{}] + [dict(watch=label, streaming=streaming)
                    for label in labels for streaming in (False, True)]
    sizes = [len(layer.ids) for layer in build_layers(replace(a)).layers]
    # budgets that stop the build inside its first, middle and last layer
    budgets = [sum(sizes[:k]) + sizes[k] // 2
               for k in (0, len(sizes) // 2, len(sizes) - 1)]
    stops = 0
    for kw in modes:
        for max_states in [None] + budgets:
            # the build under test runs first, on an empty table, so it takes
            # every miss path; the reference then reads the same ids
            fresh = replace(a)
            got = closure_trace(_Builder, fresh, max_states, **kw)
            want = closure_trace(RefBuilder, fresh, max_states, **kw)
            assert got == want, (kw, max_states)
            stops += got[0] == "budget"
    assert stops >= len(modes)  # at least the budget inside layer 0 stops each
