import hashlib
import importlib.util
import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product

import pytest

from conftest import LOCK2, MODELS, random_gta, random_region
from dtnmc import region_graph, regions
from dtnmc.dtn_local import (
    Outline,
    _Builder,
    apply_loopback,
    build_layers,
    check_label_reachable,
    dra_to_dot,
    k_product,
    reachable_labels,
    region_to_atoms,
    summary_automaton,
)
from dtnmc.model import BudgetExceeded, parse_file, parse_model, relabel_unique
from dtnmc.region_graph import (LayeredBuild, MemberTable, RegionContext,
                                discrete_successors, immediate_time_successor,
                                member_key)
from dtnmc.regions import T, RegionState, Slot, initial_region, next_slot
from zones import region_of


def layer_states(b, layer):
    """The layer's RegionStates, restamped to the layer's slot index."""
    return [b.states[i]._replace(index=layer.slot.index) for i in layer.ids]


def cproj(b, layer):
    return {
        (rs.loc, rs.base.eliminate((T,)).pretty() or "true")
        for rs in layer_states(b, layer)
    }


def test_fig3_layer_construction(fig3):
    b = build_layers(fig3)
    assert (b.i0, b.l0, b.shift) == (4, 6, 1)
    assert cproj(b, b.layers[0]) == {("init", "c=0"), ("q1", "c=0")}
    assert cproj(b, b.layers[1]) == {
        ("init", "c=0"), ("init", "0<c<1"), ("q1", "c=0"), ("q1", "0<c<1"),
    }
    assert len(b.layers[1].ids) == 6  # distinct c/t phase orders collapse in C
    assert cproj(b, b.layers[2]) == {
        (q, r) for q in ("init", "q1") for r in ("c=0", "0<c<1", "c=1")
    }


def test_fig3_loopback(fig3):
    dra = apply_loopback(build_layers(fig3))
    assert [str(l.slot) for l in dra.layers] == [
        "[0,0]", "(0,1)", "[1,1]", "(1,2)", "[2,2]", "(2,3)",
    ]
    assert sum(len(l.ids) for l in dra.layers) == 43
    keys = {rs for l in dra.layers for rs in layer_states(dra, l)}
    loops = [arc for arc in dra.arcs if arc[2] == "loop"]
    assert loops, "the last boundary must fold back onto W_i0"
    layer_of = {
        rs: l.number for l in dra.layers for rs in layer_states(dra, l)
    }
    for src_layer, i, kind, _, dst_layer, j in dra.arcs:
        src = dra.states[i]._replace(index=dra.layers[src_layer].slot.index)
        dst = dra.states[j]._replace(index=dra.layers[dst_layer].slot.index)
        assert src in keys and dst in keys
        if kind == "loop":
            assert layer_of[src] == dra.l0 - 1
            assert layer_of[dst] == dra.i0


def base_keys(b, layer):
    return frozenset(map(member_key, layer_states(b, layer)))


def approx_equal(b, wi, wj):
    """Slot shift k with wj = wi + k when the layers match, else None."""
    if wi.slot.kind != wj.slot.kind:
        return None
    if base_keys(b, wi) != base_keys(b, wj):
        return None
    return wj.slot.index - wi.slot.index


def test_approx_equal(fig3):
    b = build_layers(fig3)
    w4, w6 = b.layers[4], b.layers[6]
    assert approx_equal(b, w4, w6) == 1  # [2,2] matches [3,3], one slot apart
    assert approx_equal(b, w4, w4) == 0
    assert approx_equal(b, b.layers[4], b.layers[5]) is None  # point vs open


def test_check_label_reachable_fig1(fig1):
    out = check_label_reachable(fig1, "serr")
    assert out["result"] == "reachable"
    assert (out["layers_built"], out["states_total"]) == (5, 64)
    steps = out["witness"]
    assert steps[0]["kind"] == "init"
    assert steps[-1]["kind"] == "trans" and steps[-1]["label"] == "serr"
    for s in steps:
        assert set(s) >= {"kind", "loc", "region", "slot"}


def test_check_label_unknown(fig1):
    with pytest.raises(ValueError, match="unknown label 'nosuch'"):
        check_label_reachable(fig1, "nosuch")


def test_budgets(fig3, fig1):
    with pytest.raises(BudgetExceeded, match="cap"):
        build_layers(fig3, cap=2)
    with pytest.raises(BudgetExceeded, match="states"):
        check_label_reachable(fig1, "serr", max_states=10)


def test_reachable_labels(fig1):
    assert reachable_labels(fig1) == {"s0", "s1", "s2", "s4", "s5", "s6", "serr"}
    guarded = parse_model(
        "gta M\nclocks c\nlocation p initial\nlocation q\n"
        "trans p -> q label: a guard: c >= 1 reset: c\n"
        "trans q -> p label: b locguard: q\n"
    )
    # b needs another process in q, and q is reachable, so both labels fire
    assert reachable_labels(guarded) == {"a", "b"}
    lonely = parse_model(
        "gta M\nclocks c\nlocation p initial\nlocation q\nlocation r\n"
        "trans p -> q label: a locguard: r\n"
    )
    # r is never occupied, so the locguard can never find a witness
    assert reachable_labels(lonely) == set()


def test_streaming_agrees_and_holds_one_layer(fig1, fig3):
    lock2 = parse_model(LOCK2)
    cases = [(fig1, l) for l in fig1.labels()] + [(lock2, l) for l in lock2.labels()]
    for seed in range(6):
        a = random_gta(seed)
        cases.extend((a, l) for l in a.labels())
    for a, label in cases:
        full = check_label_reachable(a, label)
        slim = check_label_reachable(a, label, streaming=True)
        for key in ("result", "layers_built", "i0", "l0", "shift"):
            assert slim[key] == full[key], (a.name, label, key)
        assert slim["peak_layers_held"] == 1
        assert slim["witness"] is None


def test_region_to_atoms_characterizes(fig3):
    r0 = initial_region(("c", T), {"c": 1, T: 1})
    atoms = region_to_atoms(r0)
    assert r0.satisfies(atoms)
    succ = r0.delay_successor()
    assert succ.satisfies(region_to_atoms(succ))
    assert not succ.satisfies(atoms)  # the c==0 atom is uniformly false there


@pytest.mark.parametrize("bounds", [{"x": 1, "y": 2}, {"x": 1, "y": 1, "z": 2}])
def test_region_to_atoms_characterizes_random_regions(bounds):
    """On grid valuations v, all atoms hold at v exactly when region_of(v) is
    the region."""
    clocks, denom = tuple(bounds), 4
    grid = []  # (region of v, v scaled by denom)
    for point in product(*(range((b + 2) * denom + 1) for b in bounds.values())):
        v = dict(zip(clocks, (Fraction(k, denom) for k in point)))
        grid.append((region_of(v, bounds, clocks), dict(zip(clocks, point))))
    ops = {"<": int.__lt__, "<=": int.__le__, "==": int.__eq__,
           ">=": int.__ge__, ">": int.__gt__}
    rng = random.Random(len(clocks))
    for _ in range(40):
        r = random_region(rng, clocks, bounds)
        atoms = region_to_atoms(r)
        inside = 0
        for reg, v in grid:
            sat = all(ops[op](v[left] - (v[right] if right else 0), d * denom)
                      for left, op, right, d in atoms)
            assert sat == (reg == r), (r.pretty(), atoms, v)
            inside += sat
        assert inside, r.pretty()


def test_builds_record_only_what_is_read(fig1):
    assert build_layers(fig1).parent == {}  # no witness to walk back
    watched = _Builder(fig1, watch="serr").build()
    assert watched.edges == {} and watched.parent
    assert _Builder(fig1, watch="serr", streaming=True).build().parent == {}


def test_summary_automaton_shape(fig3):
    dra = apply_loopback(build_layers(fig3))
    s = summary_automaton(dra)
    assert s.kind == "ta" and s.clocks == ("c",)
    assert len(s.locations) == 43
    assert s.initial == "w0n0"
    locs = set(s.locations)
    internal = {tr.label for tr in dra.automaton.transitions}
    for tr in s.transitions:
        assert tr.src in locs and tr.dst in locs
        assert tr.label is None or tr.label in internal


def test_k_product():
    s = parse_model(
        "gta P\nclocks c\nlocation p initial\nlocation q inv: c <= 2\n"
        "trans p -> q label: go guard: c >= 1 reset: c\n"
    )
    prod = k_product(s, 2)
    assert prod.kind == "ta" and prod.clocks == ("c_p1", "c_p2")
    assert set(prod.locations) == {"p__p", "p__q", "q__p", "q__q"}
    assert prod.initial == "p__p"
    assert len(prod.transitions) == 4
    assert prod.invariants["q__q"] == (
        prod.invariants["q__p"] + prod.invariants["p__q"]
    )
    tr0 = [t for t in prod.transitions if t.src == "p__p"][0]
    assert tr0.guard[0].left in ("c_p1", "c_p2")
    assert tr0.resets == (tr0.guard[0].left,)
    with pytest.raises(BudgetExceeded):
        k_product(s, 4, max_states=3)


@lru_cache(maxsize=None)
def _gen():
    """The benchmark's model generator, perfbench/gen.py, loaded once."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", MODELS.parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def seeded_gta(seed, clocks=2, max_locs=6, max_trans=12, max_const=4):
    """A seeded gTA, drawn as the benchmark's local-random models are unless
    the sizes say otherwise."""
    return parse_model(_gen().random_gta_text(seed, clocks, max_locs, max_trans,
                                               max_const))


# sha256 prefixes of the summary automaton's repr, the DRA's dot text and the
# dra-mode JSON answers (witnesses included) for every transition's internal
# label; rN is seed N with two clocks, rNc3 seed N with three
GOLDEN = {
    "fig1": ("b4c8ca76de11da98", "72e69d948a074392", "4e6540109258f374"),
    "fig3": ("d968bd74dd926b50", "c0d71ddabd4e5bd5", "7455afe000ca88dd"),
    "r3": ("2960920d6979e023", "25db445ae934667e", "f45ecdf2a2c6ea99"),
    "r20": ("d626104d128ce5f7", "cfade9d32acba8e5", "198b85bc569ec5a0"),
    "r21": ("388aedd6b1e663d7", "433436071c28d535", "674e27ff74b63717"),
    "r22": ("aaa0c5f86c79cde5", "a5e061a8d2543ac7", "050ba2432929232f"),
    "r26": ("31fbac2aa223a87d", "8b5c9204e0e64d96", "635e4aede5515f8b"),
    "r33": ("c819a45f41f27a0f", "2f518355faa9a3c0", "46f15e68f0379749"),
    "r43c3": ("80c4355eb74ae16c", "886ebc44ffbd267b", "91c7ae615250f097"),
    "r49c3": ("389d7fefd795db4b", "4d21d73c645a1fb9", "caf9c7d836887ef3"),
    "r57c3": ("bd44c7d1230d1920", "c66b93c1dffaca08", "f2e117b144698b52"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_local_outputs_match_golden_digests(name):
    if name.startswith("fig"):
        a = parse_file(MODELS / f"{name}.gta")
    else:
        seed, _, clocks = name[1:].partition("c")
        a = seeded_gta(int(seed), int(clocks or 2))
    dra = apply_loopback(build_layers(a))
    answers = "\n".join(json.dumps(check_label_reachable(a, label))
                        for label in sorted(relabel_unique(a)[1]))
    got = tuple(hashlib.sha256(text.encode()).hexdigest()[:16]
                for text in (repr(summary_automaton(dra)), dra_to_dot(dra), answers))
    assert got == GOLDEN[name]


def test_reachable_states_total_counts_complete_layers(fig1, fig3):
    # a watched build finishes closing the layer of its hit, so a reachable
    # label's states_total is the size of the full build's layers
    # 0..layers_built-1, in dra and in streaming mode; an unreachable one
    # builds every layer the full build does
    models = [fig1, fig3] + [random_gta(seed) for seed in range(30)] + [
        seeded_gta(int(name[1:].partition("c")[0]), 3 if "c" in name else 2)
        for name in sorted(GOLDEN) if name.startswith("r")]
    verdicts = []
    for a in models:
        full = build_layers(a)
        for label in sorted(a.labels()):
            for streaming in (False, True):
                out = check_label_reachable(a, label, streaming=streaming)
                verdicts.append(out["result"])
                if out["result"] == "unreachable":
                    assert out["layers_built"] == full.layers_built
                assert out["states_total"] == sum(
                    len(layer.ids) for layer in full.layers[:out["layers_built"]]), \
                    (a.name, label, streaming)
    assert (verdicts.count("reachable"), verdicts.count("unreachable")) == (84, 100)


# -- certificates: the layers as an inductive invariant ----------------------------


def slot_of(rs):
    return Slot("point" if rs.base.val(T)[1] else "open", rs.index)


def check_certificate(a, b) -> set:
    """Check a full local build's layers with the plain step functions on
    RegionStates, in a context of their own: no member table, no worklist, no
    `LayeredBuild`.  By induction over any run of any size, a process in slot
    k is in W_k: a location guard it passes names a location some process
    holds at that moment, so one of W_k's.  Returns the user labels the
    checked steps fire, which bounds every label any network can fire."""
    ra, relabel_map = relabel_unique(a)
    ctx = RegionContext(ra)
    layers = [frozenset(RegionState(b.states[i].loc, b.states[i].base, layer.slot.index)
                        for i in layer.ids)
              for layer in b.layers]
    assert b.layers[0].slot == Slot("point", 0) and ctx.initial_state() in layers[0]
    fired = set()
    for k, w in enumerate(layers[:b.l0]):
        slot, locs = b.layers[k].slot, {rs.loc for rs in w}
        for rs in w:
            assert slot_of(rs) == slot
            nxt = immediate_time_successor(rs, ctx)
            if nxt is not None and slot_of(nxt) == slot:
                assert nxt in w, ("delay", k, rs, nxt)
            elif nxt is not None:  # the step leaves the slot
                assert slot_of(nxt) == next_slot(slot)
                assert k + 1 < len(layers) and nxt in layers[k + 1], ("cross", k, rs, nxt)
            for tr, succ in discrete_successors(rs, ctx):
                if tr.locguard is None or tr.locguard in locs:
                    assert succ in w, ("trans", k, rs, tr.label)
                    fired.add(relabel_map.get(tr.label, tr.label))
    if b.l0 is not None:  # W_l0 is W_i0, shifted: the slots after repeat
        i0, l0, shift = b.i0, b.l0, b.shift
        assert b.layers[i0].slot.kind == b.layers[l0].slot.kind == "point"
        assert b.layers[l0].slot.index - b.layers[i0].slot.index == shift > 0
        assert {rs._replace(index=rs.index - shift) for rs in layers[l0]} == layers[i0]
    return fired - {None}


CERTIFIED = (["fig1", "fig3", "lock2"] + [f"r{s}" for s in range(60)]
             + [f"s{name[1:]}" for name in sorted(GOLDEN) if name[0] == "r"])


def certified_model(name):
    """rN is random_gta(N); sN / sNc3 the benchmark generator's seed N with two
    or three clocks."""
    if name in ("fig1", "fig3"):
        return parse_file(MODELS / f"{name}.gta")
    if name == "lock2":
        return parse_model(LOCK2)
    if name[0] == "r":
        return random_gta(int(name[1:]))
    seed, _, clocks = name[1:].partition("c")
    return seeded_gta(int(seed), int(clocks or 2))


@pytest.mark.parametrize("name", CERTIFIED)
def test_local_layers_certify_themselves(name):
    a = certified_model(name)
    b = build_layers(a)
    assert check_certificate(a, b) == reachable_labels(a)


def test_loop_back_within_the_pigeonhole_bound():
    # a point-slot layer is a set of the table's p point members, and the next
    # one is a function of it, so two of the point layers at indices 0..2^p
    # are equal: no layer cap is needed for the build to stop
    checked = largest = 0
    for name in CERTIFIED:
        b = build_layers(certified_model(name))
        if b.l0 is not None:
            index = b.layers[b.l0].slot.index
            assert b.layers[b.l0].slot.kind == "point"
            assert index <= 2 ** sum(b.members.point), name
            checked, largest = checked + 1, max(largest, index)
    assert (checked, largest) == (71, 7)  # LOCK2 runs out of seeds instead


# -- the outline: label queries answered from a finished build ----------------------


def outline_model(name):
    """fig1, LOCK2, rN = random_gta(N), or a golden seeded model."""
    if name == "fig1":
        return parse_file(MODELS / "fig1.gta")
    if name == "lock2":
        return parse_model(LOCK2)
    if name in GOLDEN:
        seed, _, clocks = name[1:].partition("c")
        return seeded_gta(int(seed), int(clocks or 2))
    return random_gta(int(name[1:]))


OUTLINE_MODELS = (["fig1", "lock2"] + [f"r{s}" for s in range(60)]
                  + [name for name in sorted(GOLDEN) if name[0] == "r"])


def label_answer(a, label, streaming, cap, max_states):
    """The JSON of a label query, or its budget message."""
    try:
        return json.dumps(check_label_reachable(a, label, streaming=streaming, cap=cap,
                                                max_states=max_states))
    except BudgetExceeded as e:
        return f"budget: {e}"


def answer_kind(text):
    """reachable, unreachable, or the budget that stopped the query: cap or budget."""
    if text.startswith("budget"):
        return "cap" if "cap" in text else "budget"
    return json.loads(text)["result"]


def test_outline_answers_equal_built_answers():
    # every label in both modes, under every budget that stops a build in or
    # right after a layer and under small caps: a query on an automaton with
    # an outline answers as one that builds its layers; `built` drops its
    # outline before each ask, so every answer there comes from real layers
    cases, firsts = Counter(), Counter()
    for name in OUTLINE_MODELS:
        a = outline_model(name)
        build_layers(a)
        outline, built = a.tables[Outline], replace(a)
        end = len(outline.counts) - (outline.l0 is not None)  # layers before l0
        firsts["no seeds left" if outline.l0 is None else "loop-back"] += 1
        for k in outline.first.values():
            # W_l0 holds W_i0's ids, so it fires no label W_i0 does not
            assert k < end, name
            firsts["first fires in the last layer before l0" if k == end - 1
                   else "first fires earlier"] += 1
        totals = list(accumulate(outline.counts))
        budgets = [None, 0] + sorted(set(totals) | {t - 1 for t in totals} - {0})
        for label in a.labels():
            for streaming in (False, True):
                for cap in (None, 0, 1, 3):
                    for max_states in budgets:
                        got = label_answer(a, label, streaming, cap, max_states)
                        built.tables.pop(Outline, None)
                        want = label_answer(built, label, streaming, cap, max_states)
                        assert got == want, (name, label, streaming, cap, max_states)
                        cases["streaming" if streaming else "dra", answer_kind(got)] += 1
        assert a.tables[Outline] is outline  # no query rewrote it
        # a label query that reaches the loop-back or runs out of seeds writes
        # the same outline as the build
        for streaming in (False, True):
            for label in a.labels():
                fresh = replace(a)
                check_label_reachable(fresh, label, streaming=streaming)
                if Outline in fresh.tables:
                    assert fresh.tables[Outline] == outline, (name, label)
                    firsts["written by a query"] += 1
    assert firsts == {"loop-back": 70, "no seeds left": 1, "first fires earlier": 94,
                      "first fires in the last layer before l0": 1,
                      "written by a query": 150}
    assert cases == {(mode, kind): n for mode in ("dra", "streaming") for kind, n in
                     (("reachable", 4684), ("unreachable", 152), ("cap", 3416),
                      ("budget", 2180))}


def test_outline_answers_close_no_layer(fig1, monkeypatch):
    # queries answered from the outline close no layer and compute no
    # successor; builds stopped by a hit, a cap or a budget leave no outline
    lock2 = parse_model(LOCK2)
    stopped = [(fig1, "serr", False, None, None), (fig1, "s0", True, None, None),
               (fig1, "serr", False, 2, None), (fig1, "serr", True, None, 40),
               (lock2, "b", False, None, 2), (lock2, "b", True, 0, None)]
    kinds = []
    for a, label, streaming, cap, max_states in stopped:
        kinds.append(answer_kind(label_answer(a, label, streaming, cap, max_states)))
        assert Outline not in a.tables, (a.name, label)
    assert kinds == ["reachable", "reachable", "cap", "budget", "budget", "cap"]
    for a in (fig1, lock2):
        with pytest.raises(BudgetExceeded):
            build_layers(a, max_states=2)
        with pytest.raises(BudgetExceeded):
            build_layers(a, cap=0)
        assert Outline not in a.tables

    def closed(*args):
        raise AssertionError("a layer was closed or a successor computed")

    answered = Counter()
    for a in (fig1, lock2, seeded_gta(3)):
        build_layers(a)
        # a dra query of a label that fires builds its witness's layers
        walks = [(label, streaming) for label in a.labels() for streaming in (False, True)
                 if streaming or check_label_reachable(a, label)["witness"] is None]
        with monkeypatch.context() as m:
            for owner, name in ((_Builder, "_close_layer"), (MemberTable, "delay"),
                                (MemberTable, "discrete"), (MemberTable, "intern"),
                                (LayeredBuild, "build"), (regions, "next_slot"),
                                (region_graph, "next_slot")):
                m.setattr(owner, name, closed)
            for (label, streaming), cap, max_states in product(
                    walks, (None, 0, 2), (None, 0, 7, 60)):
                out = label_answer(a, label, streaming, cap, max_states)
                answered[answer_kind(out)] += 1
    assert answered == {"reachable": 58, "unreachable": 14, "cap": 37, "budget": 59}


def test_reachable_labels_read_the_outline(monkeypatch):
    # with an outline, reachable_labels closes no layer, and its labels and
    # budget messages under caps and budgets are those of a fresh automaton
    def closed(*args):
        raise AssertionError("a layer was closed")

    def labels(a, cap, max_states):
        try:
            return sorted(reachable_labels(a, cap, max_states))
        except BudgetExceeded as e:
            return f"budget: {e}"

    kinds = Counter()
    for name in ["fig1", "lock2"] + [f"r{s}" for s in range(60)]:
        a = outline_model(name)
        build_layers(a)
        outline = a.tables[Outline]
        for cap, max_states in product((None, 0, 3), (None, 0, 30)):
            want = labels(replace(a), cap, max_states)
            with monkeypatch.context() as m:
                m.setattr(_Builder, "_close_layer", closed)
                got = labels(a, cap, max_states)
            assert got == want, (name, cap, max_states)
            kinds[answer_kind(got) if isinstance(got, str) else "labels"] += 1
        assert a.tables[Outline] is outline
    assert kinds == {"labels": 112, "cap": 243, "budget": 203}
