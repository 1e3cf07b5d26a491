import json
import random
from collections import deque
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from itertools import product

import pytest

from conftest import LABEL_POOL, OPS, member_state, random_gta
from dtnmc import region_graph
from dtnmc.dtn_global import (_Chain, _GlobalBuilder, build_global_layers,
                               check_global, find_guard_timelock, rule2_steps)
from dtnmc.dtn_local import (Outline, _Builder, apply_loopback, build_layers,
                             check_label_reachable, dra_to_dot, summary_automaton)
from dtnmc.lbta_bridge import fresh_name, gta_to_lbta
from dtnmc.model import (
    Atom,
    Automaton,
    BudgetExceeded,
    ModelError,
    Transition,
    compute_bounds,
    parse_model,
    pretty_model,
    strip_guarded,
    strip_receives,
    validate,
)
from dtnmc.region_graph import (
    MemberTable,
    RegionContext,
    check_timelock_free,
    compile_atoms,
    discrete_successors,
    holds,
    immediate_time_successor,
    time_always_passes,
)
from dtnmc.regions import T, NonUniformGuard, Slot, initial_region, next_slot
from test_dtn_local import seeded_gta
from zones import region_of, state_slot


def test_fresh_name():
    assert fresh_name("z", ()) == "z"
    assert fresh_name("z", {"z"}) == "z_1"
    assert fresh_name("z", {"z", "z_1"}) == "z_2"


def test_timelock_fig3_stripped_refuted(fig3):
    verdict, witness = check_timelock_free(strip_guarded(fig3))
    assert verdict == "refuted"
    assert witness == ("q1", "c=1")


def test_timelock_fig1_stripped_proved(fig1):
    assert check_timelock_free(strip_guarded(fig1)) == ("proved", None)


def test_timelock_sink_refuted():
    a = parse_model(
        "gta M\nclocks c\nlocation init initial\n"
        "location sink inv: c <= 1\n"
        "trans init -> sink reset: c\n"
    )
    verdict, witness = check_timelock_free(strip_guarded(a))
    assert verdict == "refuted"
    assert witness == ("sink", "c=1")


def test_timelock_zeno_cycle_refuted():
    # the reset loop cycles through delay steps, but d < 1 keeps a whole
    # time unit from passing, so no cycle takes a tick
    a = parse_model(
        "gta M\nclocks c, d\nlocation q initial inv: d < 1\n"
        "trans q -> q reset: c\n"
    )
    assert check_timelock_free(strip_guarded(a)) == ("refuted", ("q", "c=0 d=0"))


def test_timelock_bounded_cycle_proved():
    # the invariant forces motion but the loop resets, so time still diverges
    a = parse_model(
        "gta M\nclocks c\nlocation init initial inv: c <= 1\n"
        "trans init -> init guard: c >= 1 reset: c\n"
    )
    assert check_timelock_free(strip_guarded(a)) == ("proved", None)


def test_timelock_single_location_proved():
    a = parse_model("gta M\nclocks c\nlocation q initial\n")
    assert check_timelock_free(strip_guarded(a)) == ("proved", None)


def test_timelock_budget():
    a = parse_model(
        "gta M\nclocks c\nlocation q initial\ntrans q -> q guard: c >= 1 reset: c\n"
    )
    with pytest.raises(BudgetExceeded):
        check_timelock_free(strip_guarded(a), max_states=2)


def test_region_context_shape(fig3):
    ctx = RegionContext(fig3)
    assert ctx.automaton is fig3 and ctx.clocks == ("c", T)
    assert ctx.bounds == {"c": 1, T: 1}
    start = ctx.initial_state()
    assert start.loc == "init" and start.index == 0


def test_discrete_successors_respect_guards(fig1):
    ctx = RegionContext(fig1)
    start = ctx.initial_state()
    enabled = {tr.label for tr, _ in discrete_successors(start, ctx)}
    assert enabled == {"s0"}  # s4 needs c >= 1, impossible at c = 0
    for tr, nxt in discrete_successors(start, ctx):
        assert nxt.loc == tr.dst and nxt.index == start.index


def test_compiled_constraints_match_satisfies():
    """Every region of a two-clock grid against every atom, alone and in
    pairs: same truth as Region.satisfies, and NonUniformGuard on exactly the
    same inputs."""
    bounds = {"x": 1, "y": 2}
    clocks = tuple(bounds)
    regions = {region_of(dict(zip(clocks, v)), bounds, clocks)
               for v in product(*(
                   [Fraction(k, 4) for k in range((b + 3) * 4 + 1)]
                   for b in bounds.values()))}
    atoms = [Atom(left, op, right, d)
             for left in clocks for op in OPS
             for right in (None, "y" if left == "x" else "x")
             for d in range(bounds[left] + 2)]
    compiled = {at: compile_atoms((at,), clocks, bounds) for at in atoms}
    # out-of-bound constants and diagonals stay with Region.satisfies_atom
    assert {at for at in atoms if compiled[at][0][0] is None} == {
        at for at in atoms if at.right or at.d > bounds[at.left]}

    def outcome(fn, *args):
        try:
            return fn(*args)
        except NonUniformGuard:
            return "raises"

    conjunctions = [(at,) for at in atoms] + list(product(atoms, repeat=2))
    seen = set()
    for r in regions:
        for conj in conjunctions:
            want = outcome(r.satisfies, conj)
            got = outcome(holds, r, sum((compiled[at] for at in conj), ()))
            assert got == want, (r.pretty(), conj)
            seen.add(want)
    assert seen == {True, False, "raises"}


def test_immediate_time_successor_blocked_by_invariant(fig3):
    ctx = RegionContext(fig3)
    rs = ctx.initial_state()
    # walk q1 to the invariant boundary c = 1
    rs = discrete_successors(rs, ctx)[1][1]
    assert rs.loc == "q1"
    seen_block = False
    for _ in range(10):
        nxt = immediate_time_successor(rs, ctx)
        if nxt is None:
            seen_block = True
            break
        rs = nxt
    assert seen_block and rs.base.val("c") == (1, True)


# -- differential check against the tick-clock construction --------------------


def tick_clock_bad_states(a):
    """The states of a plain TA from which time cannot diverge, by the
    tick-clock construction: a fresh clock z is held at most 1, and at z=1 a
    tick edge resets it, so letting one time unit pass takes a tick.  Time
    diverges from a state iff it reaches a tick edge lying on a cycle.
    Returns {(location, region text without z)}.
    """
    z = fresh_name("z", a.clocks)
    bounds = compute_bounds(a)
    bounds[z] = 1
    clocks = tuple(sorted(a.clocks)) + (z,)
    trans_from = {}
    for tr in a.transitions:
        trans_from.setdefault(tr.src, []).append(tr)

    start = (a.initial, initial_region(clocks, bounds))
    adj = {}  # node -> list of (successor, is_tick)
    queue = deque([start])
    seen = {start}
    while queue:
        loc, r = node = queue.popleft()
        succs = []
        d = r.delay_successor()
        if d != r and d.val(z) is not None and d.satisfies(a.invariant(loc)):
            succs.append(((loc, d), False))
        for tr in trans_from.get(loc, ()):
            if not r.satisfies(tr.guard):
                continue
            nb = r.reset(tr.resets)
            if nb.satisfies(a.invariant(tr.dst)):
                succs.append(((tr.dst, nb), False))
        if r.val(z) == (1, True):
            succs.append(((loc, r.reset((z,))), True))
        adj[node] = succs
        for nxt, _ in succs:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)

    def reach(src):
        out, stack = {src}, [src]
        while stack:
            for v, _ in adj[stack.pop()]:
                if v not in out:
                    out.add(v)
                    stack.append(v)
        return out

    reach_of = {u: reach(u) for u in adj}
    cycling = {u for u, succs in adj.items()
               if any(tick and u in reach_of[v] for v, tick in succs)}
    return {(loc, r.eliminate((z,)).pretty())
            for (loc, r), out in reach_of.items() if not out & cycling}


def random_plain_ta(seed) -> Automaton:
    """A plain TA over one or two clocks.  Unlike conftest's random gTAs its
    invariant locations get no escape edge, so time may lock."""
    rng = random.Random(seed)
    clocks = ("c", "d")[: rng.randint(1, 2)]
    locs = tuple(f"q{i}" for i in range(rng.randint(2, 4)))
    inv = {}
    for q in locs:
        if rng.random() < 0.5:
            op = rng.choice(("<", "<="))
            d = rng.randint(1 if op == "<" else 0, 2)
            inv[q] = (Atom(rng.choice(clocks), op, None, d),)
    trans = tuple(
        Transition(
            rng.choice(locs), rng.choice(locs), rng.choice(LABEL_POOL + (None,)),
            tuple(Atom(rng.choice(clocks), rng.choice(OPS), None, rng.randint(0, 2))
                  for _ in range(rng.randint(0, 2))),
            tuple(c for c in clocks if rng.random() < 0.4),
        )
        for _ in range(rng.randint(1, 5))
    )
    return Automaton("ta", f"p{seed}", clocks, locs, "q0", inv, trans)


def test_timelock_check_matches_tick_clock_reference(fig1, fig3):
    models = [strip_guarded(fig1), strip_guarded(fig3)]
    models += [random_plain_ta(seed) for seed in range(300)]
    verdicts = []
    for a in models:
        bad = tick_clock_bad_states(a)
        verdict, witness = check_timelock_free(a)
        if bad:
            assert verdict == "refuted" and witness in bad, a.name
        else:
            assert (verdict, witness) == ("proved", None), a.name
        verdicts.append(verdict)
    assert verdicts[:2] == ["proved", "refuted"]
    assert verdicts[2:].count("refuted") == 129


def test_lemma_decides_only_what_the_explorer_proves(fig1, fig3):
    # validate answers as the explorer on the stripped automaton does, and
    # whenever the location-graph lemma decides, the explorer proves
    gtas = [fig1, fig3] + [random_gta(seed) for seed in range(400)]
    suites = {
        "gta": gtas,
        "lbta": [gta_to_lbta(a) for a in gtas],
        "seeded": [seeded_gta(s, c, 4, 6, 2) for s in range(300) for c in (1, 2, 3)],
        "plain": [random_plain_ta(seed) for seed in range(300)],
    }
    decided = dict.fromkeys(suites, 0)
    for name, models in suites.items():
        for a in models:
            stripped = strip_receives(a) if a.kind == "lbta" else strip_guarded(a)
            explored = check_timelock_free(stripped)
            report = validate(a)
            assert (report.timelock_free, report.witness) == explored, a.name
            if time_always_passes(stripped):
                assert explored == ("proved", None), a.name
                decided[name] += 1
    assert decided == {"gta": 401, "lbta": 401, "seeded": 900, "plain": 131}


# each model breaks one clause of the lemma, so only the explorer decides it
LEMMA_DECLINES = {
    "exit with a clock guard": (
        "location q initial inv: c <= 1\nlocation p\ntrans q -> p guard: c >= 1\n",
        ("proved", None)),
    "exit into an invariant": (
        "location q initial inv: c <= 1\nlocation p inv: c <= 2\n"
        "trans q -> p reset: c\ntrans p -> q reset: c\n", ("proved", None)),
    "exit with only a location guard": (
        "location q initial inv: c <= 1\nlocation p\ntrans q -> p locguard: p\n",
        ("refuted", ("q", "c=1"))),
    # the explorer raises NonUniformGuard on a reachable diagonal guard, so
    # this one leaves an unreachable location
    "diagonal atom": (
        "clocks d\nlocation q initial\nlocation p\n"
        "trans p -> q guard: c <= d + 1\n", ("proved", None)),
}


@pytest.mark.parametrize("clause", sorted(LEMMA_DECLINES))
def test_lemma_declines_where_a_clause_fails(clause):
    body, verdict = LEMMA_DECLINES[clause]
    a = strip_guarded(parse_model("gta M\nclocks c\n" + body))
    assert not time_always_passes(a)
    assert check_timelock_free(a) == verdict


def test_lemma_reads_only_reachable_locations():
    # p's invariant stops time and p has no exit; stripping its only entry
    # leaves it unreachable, and the lemma decides
    text = "gta M\nclocks c\nlocation q initial\nlocation p inv: c <= 1\ntrans q -> p"
    a = strip_guarded(parse_model(text + " locguard: q\n"))
    assert time_always_passes(a) and check_timelock_free(a) == ("proved", None)
    a = strip_guarded(parse_model(text + "\n"))
    assert not time_always_passes(a)
    assert check_timelock_free(a) == ("refuted", ("p", "c=1"))


def test_lemma_raises_the_explorers_errors():
    # both automata would satisfy the lemma: q's exit is unguarded into p
    trs = (Transition("q", "p", None),)
    late = {"q": (Atom("c", "<", None, 0),)}
    for clocks, inv, text in [
            (("t",), {}, "clock name t is reserved for the global clock"),
            (("c",), late, "initial location 'q' breaks its invariant c<0 at time 0")]:
        a = Automaton("gta", "M", clocks, ("q", "p"), "q", inv, trs)
        for call in (time_always_passes, check_timelock_free, validate):
            with pytest.raises(ModelError) as err:
                call(a)
            assert str(err.value) == text, call


def test_timelock_witness_reaches_no_tick():
    # the initial state reaches a tick but no cycle through one; the witness
    # is a reachable state from which no tick is reachable at all
    assert check_timelock_free(random_plain_ta(25)) == ("refuted", ("q0", "c=2 d=2"))


def _query_outputs(a, queries):
    """The JSON or text of each query on `a`, a budget overrun as its message."""
    out = []
    for kind, arg in queries:
        try:
            if kind == "label":
                text = json.dumps(check_label_reachable(
                    a, arg[0], streaming=arg[1], max_states=20_000))
            elif kind == "build":
                dra = apply_loopback(build_layers(a, max_states=20_000))
                text = pretty_model(summary_automaton(dra)) + dra_to_dot(dra)
            else:
                text = json.dumps(check_global(a, arg, max_states=5_000))
        except BudgetExceeded as e:
            text = f"budget: {e}"
        out.append(text)
    return out


@pytest.mark.parametrize("name", ["fig1", "fig3", "r3", "r18", "r20"])
def test_shared_tables_ignore_query_order(name, fig1, fig3):
    # every query on one automaton shares its member tables; in any order its
    # outputs equal those of a fresh copy, with empty tables, per query
    a = {"fig1": fig1, "fig3": fig3}.get(name) or random_gta(int(name[1:]))
    locs = sorted(a.locations)
    queries = [("label", (lab, streaming)) for lab in a.labels()
               for streaming in (False, True)]
    queries += [("build", None)]
    queries += [("global", f"#{q}>=1 && #{q2}==0") for q, q2 in
                [(locs[0], locs[-1]), (locs[-1], locs[0]), (locs[1], locs[0])]]
    random.Random(name).shuffle(queries)
    # fill each table with the members a build meets, in reverse, so that the
    # queries see other ids than a fresh table gives
    for builder, run in ((_Builder, build_layers), (_GlobalBuilder, build_global_layers)):
        copy = replace(a)
        try:
            run(copy, max_states=5_000)
        except BudgetExceeded:
            pass
        members = builder(a).members
        for m in reversed(copy.tables[MemberTable].states):
            members.intern(m)
        assert members.states != copy.tables[MemberTable].states
    shared = _query_outputs(a, queries)
    fresh = [_query_outputs(replace(a), [q])[0] for q in queries]
    assert shared == fresh
    assert set(a.tables) == {MemberTable, _Chain, Outline}
    assert replace(a).tables == {} and replace(a) == a
    with pytest.raises(FrozenInstanceError):
        a.name = "renamed"


@pytest.mark.parametrize("first", ["local", "global"])
def test_engines_share_one_member_table(first, fig3, monkeypatch):
    # after a complete build by one engine, a complete build by the other on
    # the same automaton finds every successor it needs in the table
    runs = {"local": build_layers, "global": build_global_layers}
    second = runs["global" if first == "local" else "local"]

    def computed(*args):
        raise AssertionError("a successor was computed twice")

    for a in [fig3] + [random_gta(s) for s in range(30)]:
        runs[first](a)
        with monkeypatch.context() as m:
            m.setattr(region_graph, "immediate_time_successor", computed)
            m.setattr(region_graph, "discrete_successors", computed)
            second(a)
        assert set(a.tables) == {MemberTable, _Chain, Outline}, a.name


def test_warm_tables_take_empty_rows_as_rows(fig1, fig3, monkeypatch):
    # a member with no enabled discrete step has the empty row (); the engines
    # read it as a row, so a second pass over a warm table computes no
    # discrete step again: the local layer closure, the global image (on a
    # chain made anew) and rule2_steps
    fixpoint = "#q1>=1 && #init>=1 && #q1==0"  # unreachable: every layer
    again = [lambda: build_layers(fig1), lambda: build_layers(fig3),
             lambda: check_global(fig1, "#error>=1", streaming=True),
             lambda: check_global(fig3, fixpoint, streaming=True),
             lambda: find_guard_timelock(fig3)]
    for run in again:
        run()
    members = fig1.tables[MemberTable]
    assert members.discrete_row.count(()) == 36  # fig3 has no ()
    # rule2_steps on the one-member support of each of fig1's members
    again.append(lambda: [rule2_steps(1 << i, members)
                          for i in range(len(members.states))])
    for a in (fig1, fig3):
        a.tables.pop(_Chain)  # else the global queries close no layer
    calls = []
    discrete = region_graph.discrete_successors
    monkeypatch.setattr(region_graph, "discrete_successors",
                        lambda rs, ctx: calls.append(rs) or discrete(rs, ctx))
    for run in again:
        run()
    assert calls == []


def _layer_ids(kind, b, layer):
    """The member ids of a layer: its ids, or the members of its supports."""
    return layer.ids if kind == "local" else b.zdd.variables(layer.family)


@pytest.mark.parametrize("kind", ["local", "global"])
def test_layers_walk_next_slot(kind, fig1, fig3):
    # the build stamps each layer with the next slot of the walk from [0,0];
    # every member of a layer must sit in that slot by its own t
    run = build_layers if kind == "local" else build_global_layers
    layers = skipped = 0
    for a in [fig1, fig3] + [random_gta(s) for s in range(60)]:
        try:
            b = run(a, max_states=20_000)
        except BudgetExceeded:
            skipped += 1
            continue
        slot = Slot("point", 0)
        for layer in b.layers:
            assert layer.slot == slot
            for i in _layer_ids(kind, b, layer):
                assert state_slot(member_state(b.members, i, slot.index)) == slot
            slot = next_slot(slot)
            layers += 1
    assert (layers, skipped) == {"local": (492, 0), "global": (463, 3)}[kind]
