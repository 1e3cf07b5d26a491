import hashlib
import json
import random
from collections import Counter
from dataclasses import replace
from functools import reduce
from itertools import permutations

import pytest

from conftest import LOCK2, member_state, oracle_supports, random_gta
from dtnmc import dtn_global
from dtnmc.dtn_global import (
    _Chain,
    _GlobalBuilder,
    build_global_layers,
    boundary_support,
    check_global,
    constraint_locations,
    eval_constraint,
    find_guard_timelock,
    parse_constraint,
    reachable_location_sets,
    rule1_steps,
    rule2_steps,
    support_key,
)
from dtnmc.dtn_local import build_layers
from test_dtn_local import seeded_gta
from dtnmc.model import BudgetExceeded, parse_file, parse_model
from dtnmc.oracle import explore_network
from dtnmc.region_graph import MemberTable, RegionContext, layer_entry, member_key
from dtnmc.regions import T, Region, RegionState, next_slot
from dtnmc.zdd import BASE, EMPTY, ZDD

MODELS = __import__("pathlib").Path(__file__).parent.parent / "models"


def test_parse_constraint_shapes():
    assert parse_constraint("#q1 >= 1") == ("some", "q1")
    assert parse_constraint("#q1==0") == ("none", "q1")
    assert parse_constraint("#q1 = 0") == ("none", "q1")
    assert parse_constraint("#a>=1 && #b==0") == (
        "and", ("some", "a"), ("none", "b")
    )
    # && binds tighter than ||
    assert parse_constraint("#a>=1 || #b>=1 && #c==0") == (
        "or", ("some", "a"), ("and", ("some", "b"), ("none", "c"))
    )
    assert parse_constraint("(#a>=1 || #b>=1) && #c==0") == (
        "and", ("or", ("some", "a"), ("some", "b")), ("none", "c")
    )


@pytest.mark.parametrize(
    "text,msg",
    [
        ("#a > 1", "malformed constraint"),
        ("a >= 1", "malformed constraint"),
        ("|| #a >= 1", "expected #loc"),
        ("#a >= 1 &&", "expected #loc, got None"),
        ("#a >= 1 #b >= 1", "trailing"),
        ("(#a >= 1", "missing '\\)'"),
        ("#a >= 2", "malformed constraint"),
    ],
)
def test_parse_constraint_errors(text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_constraint(text)


# the parser as first written, a regex match per token and a recursion per
# grammar level: the reference parse_constraint's one scan must equal
_REF_TOKEN = __import__("re").compile(
    r"\s*(\(|\)|&&|\|\||#[A-Za-z_][A-Za-z0-9_]*|>=\s*1|==\s*0|=\s*0)")


def reference_parse_constraint(text):
    tokens, pos = [], 0
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"malformed constraint at {text[pos:].strip()!r}")
            break
        tokens.append("".join(m.group(1).split()))
        pos = m.end()
    tokens.append(None)
    node, pos = _reference_parse(tokens, 0)
    if tokens[pos] is not None:
        raise ValueError(f"malformed constraint: trailing {tokens[pos]!r}")
    return node


def _reference_parse(tokens, pos, level=0):
    if level == 2:
        tok = tokens[pos]
        if tok == "(":
            node, pos = _reference_parse(tokens, pos + 1)
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
            f"malformed constraint: only #loc>=1 and #loc==0 are supported, got {op!r}")
    op, kind = (("||", "or"), ("&&", "and"))[level]
    node, pos = _reference_parse(tokens, pos, level + 1)
    while tokens[pos] == op:
        right, pos = _reference_parse(tokens, pos + 1, level + 1)
        node = (kind, node, right)
    return node, pos


def constraint_corpus(seed=31, n=500):
    """n random &&/|| trees with parentheses over location names, randomly
    spaced, each also with one character deleted, inserted and replaced."""
    rng = random.Random(seed)
    names = ["a", "q1", "init", "_x2", "Reading", "error_9"]
    spaces = ["", "", " ", "  ", "\t", "\n", " "]
    chars = "#()&|>=01 aqx_\t !-"

    def sp():
        return rng.choice(spaces)

    def tree(depth):
        if depth == 0 or rng.random() < 0.4:
            op = rng.choice([">=" + sp() + "1", "==" + sp() + "0", "=" + sp() + "0"])
            return f"#{rng.choice(names)}{sp()}{op}"
        text = sp().join([tree(depth - 1), rng.choice(["&&", "||"]), tree(depth - 1)])
        return f"({sp()}{text}{sp()})" if rng.random() < 0.3 else text

    out = []
    for _ in range(n):
        text = sp() + tree(rng.randrange(4)) + sp()
        k = rng.randrange(len(text))
        out += [text, text[:k] + text[k + 1:], text[:k] + rng.choice(chars) + text[k:],
                text[:k] + rng.choice(chars) + text[k + 1:]]
    return out + ["", " ", "()", "#a", "#a>=1 &&", "(#a>=1", "#a>=1)", "#a>= 1 == 0"]


def test_parse_constraint_equals_the_reference_parser():
    # every text gives the reference's node, or its ValueError and message;
    # `raised` counts the errors by kind
    raised = Counter()
    for text in constraint_corpus():
        try:
            want = reference_parse_constraint(text)
        except ValueError as e:
            want = f"error: {e}"
        try:
            got = parse_constraint(text)
        except ValueError as e:
            got = f"error: {e}"
        assert got == want, text
        if isinstance(got, str):
            raised[next(k for k in ("constraint at", "trailing", "expected", "only",
                                    "missing") if k in got)] += 1
    assert raised == {"constraint at": 872, "only": 33, "missing": 12, "trailing": 13,
                      "expected": 17}  # 947 of 2,008 texts


def test_eval_constraint_counts_do_not_matter():
    node = parse_constraint("#a>=1 && #b==0")
    assert eval_constraint({"a"}, node)
    assert eval_constraint({"a", "c"}, node)
    assert not eval_constraint({"a", "b"}, node)
    assert not eval_constraint({"c"}, node)
    either = parse_constraint("#a>=1 || #b>=1")
    assert eval_constraint({"b"}, either)
    assert not eval_constraint({"c"}, either)
    assert constraint_locations(parse_constraint("(#a>=1||#b>=1)&&#c==0")) == {
        "a", "b", "c",
    }


def decoded_key(b, sup, index):
    """support_key of a support (a bitmask of member ids), rebuilt in slot
    `index`."""
    return support_key(member_state(b.members, i, index) for i in b.members.ordered(sup))


@pytest.fixture(scope="module")
def fig3_build():
    return build_global_layers(parse_file(MODELS / "fig3.gta"))


def supports(b, layer):
    """The supports of a layer, as bitmasks of member ids."""
    return list(b.zdd.sets(layer.family))


def test_fig3_global_layers(fig3_build):
    b = fig3_build
    assert (b.i0, b.l0, b.shift) == (4, 6, 1)
    assert [l.count for l in b.layers] == [3, 63, 63, 2047, 127, 2047, 127]
    assert [len(supports(b, l)) for l in b.layers] == [l.count for l in b.layers]
    assert [str(l.slot) for l in b.layers] == [
        "[0,0]", "(0,1)", "[1,1]", "(1,2)", "[2,2]", "(2,3)", "[3,3]",
    ]
    # layers 5 and 6 repeat layers 3 and 4 up to the slot: 2,174 distinct
    # supports, the size of the union family
    z, every = b.zdd, 0
    for l in b.layers:
        every = z.union(every, l.family)
    distinct = {sup for l in b.layers for sup in supports(b, l)}
    assert len(distinct) == z.count(every) == 2174
    assert (b.layers[5].family, b.layers[6].family) == (
        b.layers[3].family, b.layers[4].family)
    # each layer's rings are disjoint, ring 0 is its seeds, and they make it up
    for l in b.layers:
        assert sum(z.count(ring) for ring in l.rings) == l.count
        union = 0
        for ring in l.rings:
            assert z.count(z.union(union, ring)) == z.count(union) + z.count(ring)
            union = z.union(union, ring)
        assert union == l.family


def test_rule1_point_slot_is_quiet(fig3_build):
    b = fig3_build
    layer0 = b.layers[0]
    index = layer0.slot.index
    crossed_index = next_slot(layer0.slot).index
    for sup in supports(b, layer0):
        assert rule1_steps(sup, b.members) == []
        crossed = boundary_support(sup, b.members)
        assert crossed is not None  # nothing pins time at t=0
        crossed_key = decoded_key(b, crossed, crossed_index)
        assert crossed_key != decoded_key(b, sup, index)


def test_rule1_open_slot_properties(fig3_build):
    b = fig3_build
    layer1 = b.layers[1]
    assert str(layer1.slot) == "(0,1)"
    seen_any = False
    index, sups = layer1.slot.index, supports(b, layer1)
    for sup in sups:
        for nxt in rule1_steps(sup, b.members):
            seen_any = True
            assert decoded_key(b, nxt, index) != decoded_key(b, sup, index)
            assert nxt in sups
    assert seen_any


def test_check_global_fig3(fig3):
    out = check_global(fig3, "#q1>=1 && #init==0")
    assert out["result"] == "reachable"
    assert {m["loc"] for m in out["support"]} == {"q1"}
    chain = out["witness"]
    assert chain[0]["kind"] == "init"
    kinds = {step["kind"] for step in chain}
    assert kinds <= {"init", "delay", "cross", "trans"}
    sat = {m["loc"] for m in chain[-1]["support"]}
    assert "q1" in sat and "init" not in sat


def test_check_global_unreachable_terminates(fig3):
    out = check_global(fig3, "#q1>=1 && #q1==0")
    assert out["result"] == "unreachable"
    assert out["l0"] == 6 and out["witness"] is None


def test_check_global_unknown_location(fig3):
    with pytest.raises(ValueError, match="unknown location 'nosuch'"):
        check_global(fig3, "#nosuch>=1")


def test_check_global_streaming_agrees(fig3):
    lock2 = parse_model(LOCK2)
    cases = [(fig3, text) for text in
             ("#q1>=1 && #init==0", "#q1>=1 && #q1==0", "#init==0")]
    for a, text in cases + [(lock2, "#q>=1")]:
        full = check_global(a, text)
        slim = check_global(a, text, streaming=True)
        for key in ("result", "layers_built", "i0", "l0", "shift", "supports_total"):
            assert slim[key] == full[key], (a.name, text, key)
        assert slim["peak_layers_held"] == 1 and slim["witness"] is None
    # a streaming build holds one layer, in the automaton's one chain
    fresh = parse_file(MODELS / "fig3.gta")
    b = _GlobalBuilder(fresh, streaming=True).build()
    assert b.peak_layers_held == 1 and len(b.layers) == 1
    assert b.chain is fresh.tables[_Chain] and b.zdd is b.chain.zdd


def test_constraint_filter_agrees_with_eval_constraint(fig3_build):
    b = fig3_build
    texts = list(differential_constraints(sorted(b.ctx.automaton.locations))) + [
        "(#q1>=1 || #init==0) && (#init>=1 || #q1==0)",
        "#q1==0 && (#init>=1 && #q1>=1 || #init==0)",
    ]
    verdicts = set()
    for text in texts:
        node = parse_constraint(text)
        for layer in b.layers:
            kept = set(b.zdd.sets(b._filter(layer.family, node)))
            for sup in supports(b, layer):
                want = eval_constraint(
                    {b.members.loc[i] for i in b.members.ordered(sup)}, node)
                assert (sup in kept) == want, (text, sup)
                verdicts.add(want)
    assert len(texts) == 8 and verdicts == {True, False}


def test_builds_record_only_what_is_read(fig3, monkeypatch):
    # only a watched dra query walks the rings back to a witness
    walks, step = [], _GlobalBuilder._source
    monkeypatch.setattr(_GlobalBuilder, "_source", lambda self, *args:
                        walks.append(self) or step(self, *args))
    build_global_layers(fig3)
    reachable_location_sets(fig3)
    slim = check_global(fig3, "#q1>=1 && #init==0", streaming=True)
    assert slim["result"] == "reachable" and walks == []
    out = check_global(fig3, "#q1>=1 && #init==0")
    assert walks and len(out["witness"]) > 1 and out["witness"][0]["kind"] == "init"
    assert out["support"] == slim["support"]


def test_check_global_budgets(fig3):
    with pytest.raises(BudgetExceeded, match="cap"):
        check_global(fig3, "#q1>=1 && #q1==0", cap=2)
    with pytest.raises(BudgetExceeded, match="supports"):
        check_global(fig3, "#q1>=1 && #q1==0", max_states=20)


def test_find_guard_timelock_fig3(fig3):
    out = find_guard_timelock(fig3)
    assert out["found"] and out["layer"] == 2
    assert out["support"] == [{"loc": "q1", "region": "c=1", "slot": "[1,1]"}]


def test_find_guard_timelock_fig1(fig1):
    # the search runs on fig1's diagram of 6.9e18 supports without a budget.
    # reading at c=3 can neither delay (c<=3) nor leave: s4 would break
    # post's c<=1, s5 done's c<=1, and serr needs a process at done, which
    # no zero-delay step provides
    out = find_guard_timelock(fig1)
    assert (out["found"], out["layer"]) == (True, 8)
    assert [(m["loc"], m["region"], m["slot"]) for m in out["support"]] == [
        ("post", "c=1", "[4,4]"), ("reading", "c=3", "[4,4]")]


def reference_stuck(b):
    """Support -> the first layer holding it, for the supports of b's layers
    from which no run of the explicit relation delays or crosses: each
    support enumerated, and safety spread back along rule-1 and rule-2 steps."""
    layer_of = {}
    for layer in b.layers:
        for sup in supports(b, layer):
            layer_of.setdefault(sup, layer.number)
    rev, safe = {k: [] for k in layer_of}, set()
    for k in layer_of:
        delays = rule1_steps(k, b.members)
        for nxt in delays + [nxt for nxt, _ in rule2_steps(k, b.members)]:
            rev[nxt].append(k)
        if delays or boundary_support(k, b.members) is not None:
            safe.add(k)
    todo = list(safe)
    while todo:
        for u in rev[todo.pop()]:
            if u not in safe:
                safe.add(u)
                todo.append(u)
    return {k: n for k, n in layer_of.items() if k not in safe}


def reference_guard_timelock(b):
    """find_guard_timelock's answer from reference_stuck: the least stuck
    support by member rank in the first layer holding one."""
    stuck = reference_stuck(b)
    if not stuck:
        return {"found": False, "support": None, "layer": None}
    number, z = min(stuck.values()), b.zdd
    first = reduce(z.union, [z.single(k) for k, n in stuck.items() if n == number])
    sup = z.least(first, b.members.rank.__getitem__)
    return {"found": True, "support": dtn_global._support_json(
        sup, b.layers[number].slot, b.members), "layer": number}


def guarded_gta(seed):
    """random_gta(seed, max_const=3) with each unguarded transition given,
    with probability 0.6, a location guard drawn from its locations and an
    unreachable location `dead`."""
    a, rng = random_gta(seed, max_const=3), random.Random(seed)
    locations = a.locations + ("dead",)
    return replace(a, name=f"g{seed}", locations=locations, transitions=tuple(
        tr._replace(locguard=rng.choice(locations))
        if tr.locguard is None and rng.random() < 0.6 else tr
        for tr in a.transitions))


def test_find_guard_timelock_equals_the_reference_search(fig3):
    # the symbolic fixpoint finds the stuck supports the enumeration finds,
    # and reports the same one, on every model whose build fits the budget
    models = [fig3, parse_model(LOCK2)] + [random_gta(s) for s in range(60)] + [
        seeded_gta(s) for s in range(20)] + [guarded_gta(s) for s in range(200)]
    built = skipped = found = 0
    for a in models:
        try:
            b = build_global_layers(a, max_states=20_000)
        except BudgetExceeded:
            skipped += 1
            continue
        stuck = reference_stuck(b)
        assert set(b.zdd.sets(dtn_global._stuck(b))) == set(stuck), a.name
        nodes = len(a.tables[_Chain].zdd.var)
        got = find_guard_timelock(a, max_states=20_000)
        # the search leaves no node in the diagram of the automaton's layers
        assert len(a.tables[_Chain].zdd.var) == nodes, a.name
        assert got == reference_guard_timelock(b), a.name
        built, found = built + 1, found + bool(stuck)
    assert (built, skipped, found) == (260, 22, 5)


# hand-written guard timelocks: (text, layer, reported members).  r629's
# members key a collapsed clock as None and an open one as (m, is_int), so
# the report is chosen by member rank, never by comparing keys.  In w only p
# itself witnesses its step to q, so no drop empties p, though {q} is
# reached from a: a safe support that a barred drop would lead to.  In v a
# support whose only way out is a rule-1 delay is safe
CRAFTED = {
    "r629": ("gta r629\nclocks c\nlocation dead\nlocation q0 initial\n"
             "location q1 inv: c<=0\n"
             "trans q0 -> q1 label: e guard: c>1 reset: c locguard: q0\n"
             "trans q1 -> q0 label: a reset: c locguard: q1\n",
             3, [("q0", "c>1", "(1,2)"), ("q1", "c=0", "(1,2)")]),
    "w": ("gta w\nclocks c\nlocation a initial\nlocation p inv: c<=0\n"
          "location q\ntrans a -> p label: x\ntrans a -> q label: y\n"
          "trans p -> q label: z locguard: p\n",
          0, [("p", "c=0", "[0,0]")]),
    "v": ("gta v\nclocks c\nlocation a initial\nlocation b inv: c<2\nlocation m\n"
          "trans a -> b label: x\ntrans a -> m label: y reset: c\n",
          3, [("b", "1<c<2", "(1,2)")]),
}


@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_find_guard_timelock_crafted(name):
    text, layer, members = CRAFTED[name]
    a = parse_model(text)
    out = find_guard_timelock(a)
    assert (out["found"], out["layer"]) == (True, layer)
    assert [(m["loc"], m["region"], m["slot"]) for m in out["support"]] == members
    b = build_global_layers(a)
    assert set(b.zdd.sets(dtn_global._stuck(b))) == set(reference_stuck(b))
    assert out == reference_guard_timelock(b)


def test_find_guard_timelock_absent(fig3):
    # with the location guard removed, q1 can always drain back to init
    import dataclasses
    trs = tuple(
        tr._replace(locguard=None) for tr in fig3.transitions
    )
    b = dataclasses.replace(fig3, transitions=trs)
    out = find_guard_timelock(b)
    assert not out["found"]


def test_find_guard_timelock_stops_within_its_budget(fig1):
    # the search runs on the finished build, and fig1's build passes a
    # budget of 10**6 supports in layer 3, before the search starts
    with pytest.raises(BudgetExceeded, match="1000000 supports while building layer 3"):
        find_guard_timelock(fig1, max_states=10**6)


def missing_oracle_supports(b, res):
    """(checked, missing): oracle supports in slots the layers cover, and
    those the layers lack."""
    by_slot = {}
    for layer in b.layers:
        key = (layer.slot.kind, layer.slot.index)
        by_slot.setdefault(key, set()).update(
            decoded_key(b, sup, layer.slot.index) for sup in supports(b, layer)
        )
    checked = missing = 0
    for slot, sups in oracle_supports(res).items():
        if slot not in by_slot:
            continue
        for s in sups:
            checked += 1
            missing += s not in by_slot[slot]
    return checked, missing


def test_global_supports_contained_in_oracle_reachability(fig3, fig3_build):
    # every support the oracle realizes with 2 processes shows up in the layers
    res = explore_network(fig3, 2, slot_cap=2)
    checked, missing = missing_oracle_supports(fig3_build, res)
    assert missing == 0
    assert checked == sum(len(sups) for sups in oracle_supports(res).values())
    # and on random gTAs with 1 or 2 processes, where in-slot delay (rule 1)
    # matters: every slot the layers cover is checked
    checked = missing = 0
    for seed in range(30):
        a = random_gta(seed)
        b = build_global_layers(a, max_states=50_000)
        for n in (1, 2):
            res = explore_network(a, n, slot_cap=4, max_states=200_000)
            assert not res.exhausted
            c, m = missing_oracle_supports(b, res)
            checked, missing = checked + c, missing + m
    assert (checked, missing) == (1697, 0)


def reference_layers(b):
    """Each layer of `b` rebuilt on its member table from the initial support
    with the explicit relation: rule 1 and rule 2 to closure, then the
    boundary of every support."""
    m, seeds, out = b.members, {1 << b.members.intern(b.ctx.initial_state())}, []
    for layer in b.layers:
        seen, todo = set(seeds), list(seeds)
        while todo:
            sup = todo.pop()
            for nxt in rule1_steps(sup, m) + [n for n, _ in rule2_steps(sup, m)]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        out.append(seen)
        seeds = {boundary_support(sup, m) for sup in seen} - {None}
    return out


def test_layer_families_equal_the_reference_relation(fig3_build):
    # every symbolic layer holds exactly the supports the explicit relation
    # reaches, on fig3, LOCK2 and random gTAs with one clock and with two
    layers = skipped = 0
    models = [parse_model(LOCK2)] + [random_gta(seed) for seed in range(60)] + [
        seeded_gta(seed) for seed in range(20)]
    for b in [fig3_build] + models:
        if not isinstance(b, _GlobalBuilder):
            try:
                b = build_global_layers(b, max_states=20_000)
            except BudgetExceeded:
                skipped += 1
                continue
        assert [set(supports(b, l)) for l in b.layers] == reference_layers(b)
        layers += len(b.layers)
    assert (layers, skipped) == (648, 6)


def chain_models():
    """fig3, LOCK2, random gTAs with one clock and seeded ones with two."""
    return [parse_file(MODELS / "fig3.gta"), parse_model(LOCK2)] + [
        random_gta(seed) for seed in range(60)] + [seeded_gta(seed) for seed in range(20)]


def test_reused_layers_equal_their_closures():
    # a layer whose slot kind and seeds repeat is taken from
    # the chain's memo, and so is a family's crossing: closing every complete
    # layer again from its seeds, and crossing it again, gives the same nodes
    layers = closures = 0
    for a in chain_models():
        try:
            b = build_global_layers(a, max_states=20_000)
        except BudgetExceeded:
            continue
        chain, z, again = b.chain, b.zdd, _GlobalBuilder(a)  # the same diagram
        seeds = chain.start
        for layer in b.layers:
            closed = again._closure(layer.number, layer.slot, seeds)
            assert (closed.family, closed.count, closed.rings) == \
                (layer.family, layer.count, layer.rings), (a.name, layer.number)
            if layer.family in chain.crossed:  # every layer but a last one never crossed
                point, seeds = b.members.point, b._boundary(layer)
                cross = {i: j for i, j in b._successors(layer.family).items()
                         if j is not None and (point[i] or point[j])}
                assert seeds == z.image(
                    z.within(layer.family, sum(1 << i for i in cross)),
                    {i: ((False, j),) for i, j in cross.items()}), (a.name, layer.number)
        layers, closures = layers + len(b.layers), closures + len(chain.closed)
    assert (layers, closures) == (648, 499)


def steps_computed(members):
    """How many members, and how many without a delay step or discrete steps."""
    return (len(members.states), members.delay_row.count(False),
            members.discrete_row.count(None))


def test_witness_walks_compute_no_member_step():
    # a streaming ask closes the layers a dra ask then reuses, so the dra
    # ask's witness walk reads only the steps the builds computed: it interns
    # no member and computes no delay or discrete step
    models = [parse_file(MODELS / "fig3.gta"), parse_model(LOCK2)] + [
        random_gta(seed) for seed in range(60)]
    walks = skipped = 0
    for a in models:
        for q, q2 in permutations(a.locations, 2):
            query = f"#{q}>=1 && #{q2}==0"
            try:
                check_global(a, query, streaming=True, max_states=20_000)
            except BudgetExceeded:
                skipped += 1
                continue
            members = a.tables[MemberTable]
            held = steps_computed(members)
            out = check_global(a, query, max_states=20_000)
            assert steps_computed(members) == held, (a.name, query)
            walks += out["witness"] is not None
    assert (walks, skipped) == (160, 3)


@pytest.mark.parametrize("streaming", [False, True], ids=["dra", "streaming"])
def test_fig3_closes_five_of_its_seven_layers(streaming, monkeypatch):
    # layers 5 and 6 are seeded as layers 3 and 4 were, so they are not
    # closed again, and a second ask in either mode closes nothing
    closed, closure = [], _GlobalBuilder._closure
    monkeypatch.setattr(_GlobalBuilder, "_closure", lambda self, number, *args:
                        closed.append(number) or closure(self, number, *args))
    a = parse_file(MODELS / "fig3.gta")
    query = "#q1>=1 && #init>=1 && #q1==0"
    for _ in range(2):
        out = check_global(a, query, streaming=streaming)
        assert (out["result"], out["supports_total"], out["layers_built"]) == \
            ("unreachable", 4477, 7)
        assert (out["i0"], out["l0"], out["shift"]) == (4, 6, 1)
    assert closed == [0, 1, 2, 3, 4]


def test_one_chain_answers_both_modes(monkeypatch):
    # every query on an automaton, dra or streaming, runs on its one chain: a
    # second ask in the other mode closes no layer, and each answer is the
    # one a fresh copy gives
    def refuse(*args):
        raise AssertionError("a second ask closed a layer")

    models = [lambda: parse_file(MODELS / "fig3.gta"), lambda: parse_model(LOCK2)] + [
        lambda seed=seed: random_gta(seed) for seed in range(60)]
    asks = skipped = 0
    for make in models:
        try:
            locations = build_global_layers(make(), max_states=20_000).ctx.automaton.locations
        except BudgetExceeded:
            skipped += 1
            continue
        fresh = {}
        for order in ((False, True), (True, False)):
            a = make()
            for q, q2 in permutations(locations, 2):
                text = f"#{q}>=1 && #{q2}==0"
                for second, streaming in enumerate(order):
                    with monkeypatch.context() as m:
                        if second:
                            m.setattr(_GlobalBuilder, "_closure", refuse)
                        out = check_global(a, text, streaming, max_states=20_000)
                    if (text, streaming) not in fresh:
                        fresh[text, streaming] = check_global(make(), text, streaming)
                    assert out == fresh[text, streaming], (a.name, text, streaming)
                    asks += 1
    assert (asks, skipped) == (1552, 2)


def pairwise_unions(z, f, g, memo):
    """The family {s | t : s in f, t in g}."""
    if f <= BASE or g <= BASE:
        return EMPTY if not f or not g else g if f == BASE else f
    if z.var[f] > z.var[g]:
        f, g = g, f  # f splits on the least variable
    if (f, g) not in memo:
        v, lo, hi = z.var[f], z.lo[f], z.hi[f]
        if z.var[g] == v:
            glo, ghi = z.lo[g], z.hi[g]
            with_v = reduce(z.union, [pairwise_unions(z, x, y, memo)
                                      for x, y in ((hi, ghi), (hi, glo), (lo, ghi))])
            memo[f, g] = z.node(v, pairwise_unions(z, lo, glo, memo), with_v)
        else:
            memo[f, g] = z.node(v, pairwise_unions(z, lo, g, memo),
                                pairwise_unions(z, hi, g, memo))
    return memo[f, g]


def test_point_slot_families_are_closed_under_union():
    # the copycat argument: two runs that sit at the same integer time run
    # side by side, and extra processes never disable a disjunctive guard, so
    # the union of two supports of a point-slot layer is in it too
    models = [parse_file(MODELS / "fig3.gta"), parse_model(LOCK2)] + [
        random_gta(seed) for seed in range(60)] + [
        seeded_gta(seed, 2, 4, 6, 2) for seed in range(40)]
    point = 0
    for a in models:
        try:
            b = build_global_layers(a, max_states=20_000)
        except BudgetExceeded:
            continue
        z = b.zdd
        for layer in b.layers:
            if layer.slot.kind == "point":
                joins = pairwise_unions(z, layer.family, layer.family, {})
                assert not z.diff(joins, layer.family), (a.name, layer.number)
                point += 1
    assert point == 408
    # the helper against brute force, on a family that is not closed
    z, sets = ZDD(), [0b0011, 0b0110, 0b1000]
    f = reduce(z.union, map(z.single, sets))
    assert set(z.sets(pairwise_unions(z, f, f, {}))) == {s | t for s in sets for t in sets}


def test_global_layers_union_to_local_layers(fig3, fig3_build):
    # the members of global layer i's supports are exactly local layer W_i,
    # and both constructions loop back at the same layers
    layers = 0
    for seed in [None] + list(range(30)):
        a = fig3 if seed is None else random_gta(seed)
        g = fig3_build if seed is None else build_global_layers(a, max_states=50_000)
        loc = build_layers(a)
        assert (g.i0, g.l0, g.shift) == (loc.i0, loc.l0, loc.shift)
        assert [l.slot for l in g.layers] == [l.slot for l in loc.layers]
        for gl, ll in zip(g.layers, loc.layers):
            members = {member_key(member_state(g.members, i, gl.slot.index))
                       for i in g.zdd.variables(gl.family)}
            assert members == {member_key(loc.states[i]) for i in ll.ids}, (seed, gl.number)
        layers += len(g.layers)
    assert layers == 233


def differential_constraints(locations):
    """Per ordered pair of distinct locations q, q': `#q>=1 && #q'==0`, its
    `||` with the swapped pair and `#q>=1 && #q'>=1`; per ordered triple of
    distinct locations, `#q>=1 && #q'>=1 && #q''==0`."""
    for q, q2 in permutations(locations, 2):
        yield f"#{q}>=1 && #{q2}==0"
        yield f"#{q}>=1 && #{q2}==0 || #{q2}>=1 && #{q}==0"
        yield f"#{q}>=1 && #{q2}>=1"
    for q, q2, q3 in permutations(locations, 3):
        yield f"#{q}>=1 && #{q2}>=1 && #{q3}==0"


def test_global_agrees_with_oracle_on_random_gtas():
    # each model's family of reachable location sets equals the oracle's
    # union over networks of n <= 3 processes, so every differential
    # constraint gets one verdict from both; budget overruns of the family's
    # build and exhausted explorations are counted and pinned
    queries = misses = engine_only = budget_hits = exhausted = 0
    for seed in range(30):
        a = random_gta(seed)
        loc_sets = set()
        for n in (1, 2, 3):
            res = explore_network(a, n, slot_cap=4, max_states=200_000)
            loc_sets |= res.loc_sets
            exhausted += res.exhausted
        try:
            family = reachable_location_sets(a, max_states=50_000)
        except BudgetExceeded:
            budget_hits += 1
            family = None
        assert family is None or family == loc_sets, seed
        for text in differential_constraints(a.locations):
            node = parse_constraint(text)
            queries += 1
            if family is None:
                continue
            reported = any(eval_constraint(ls, node) for ls in family)
            seen = any(eval_constraint(ls, node) for ls in loc_sets)
            misses += seen and not reported
            engine_only += reported and not seen
    assert (queries, misses) == (196 + 686, 0)
    assert (engine_only, budget_hits, exhausted) == (0, 0, 0)


def test_finished_blowups_agree_with_oracle(fig1):
    # builds the explicit engine never finished: seeds 5/18/20/28 at
    # max_const=3 and fig1.  Their families equal the oracle's union over
    # n <= 3, fig1's on the sets of at most 3 locations that n <= 3 can occupy
    for seed, size in ((5, 7), (18, 3), (20, 7), (28, 3)):
        a = random_gta(seed, max_const=3)
        family = reachable_location_sets(a)
        assert len(family) == size and family == set().union(*(
            explore_network(a, n, slot_cap=4).loc_sets for n in (1, 2, 3))), seed
    family = reachable_location_sets(fig1)
    oracle = set().union(*(explore_network(fig1, n, slot_cap=2).loc_sets
                           for n in (1, 2, 3)))
    small = {ls for ls in family if len(ls) <= 3}
    assert (len(family), len(oracle)) == (56, 34) and small == oracle
    assert sorted(map(len, family - small)) == [4] * 15 + [5] * 6 + [6]
    # every ordered #q>=1 && #q'==0 gets the oracle's verdict from the chain
    verdicts = []
    for q, q2 in permutations(fig1.locations, 2):
        node = parse_constraint(f"#{q}>=1 && #{q2}==0")
        out = check_global(fig1, node)
        seen = any(eval_constraint(ls, node) for ls in oracle)
        assert out["result"] == ("reachable" if seen else "unreachable"), (q, q2)
        verdicts.append(seen)
    assert verdicts == [True] * 30
    out = check_global(fig1, "#init>=1 && #init==0")  # walks the whole chain
    assert (out["result"], out["i0"], out["l0"], out["shift"]) == (
        "unreachable", 12, 14, 1)
    assert out["supports_total"] == 6_931_843_651_919_771_554


@pytest.mark.parametrize("name", ["fig3", "r3", "r13", "r18"])
def test_location_sets_answer_check_global(name):
    # the family gives check_global's verdict on every differential constraint
    a = _golden_global_model(name)
    family = reachable_location_sets(a)
    assert all(isinstance(ls, frozenset) and ls for ls in family)
    for text in differential_constraints(sorted(a.locations)):
        node = parse_constraint(text)
        reachable = any(eval_constraint(ls, node) for ls in family)
        assert check_global(a, text)["result"] == \
            ("reachable" if reachable else "unreachable"), (name, text)


def _golden_global_model(name):
    """fig3, LOCK2, or rS = random_gta(S)."""
    if name == "fig3":
        return parse_file(MODELS / "fig3.gta")
    if name == "LOCK2":
        return parse_model(LOCK2)
    return random_gta(int(name[1:]))


# sha256 prefixes of the dra-mode JSON answers (witness chains included) and
# the streaming ones for every ordered `#q>=1 && #q'==0`, of the
# find_guard_timelock JSON, and of (i0, l0, shift, per-layer support counts,
# supports_total) of build_global_layers
GOLDEN = {
    "fig3": ("809c35f5461732df", "2d49dcd52b0fe2d3", "4ecd174f8a4af7cf", "586e8aad7f03f55d"),
    "LOCK2": ("ea14a255e7b5bdf1", "281df394e15dcbaf", "1fa7917a5786b327", "ddab55e0888cd85c"),
    "r3": ("78ac94ccaea2eedc", "c44e8b32cdf1499c", "f26955ad3b22271e", "51652b5518725250"),
    "r6": ("be69dd92d34269eb", "9fe0fd368a3359c8", "f26955ad3b22271e", "5084786a5346cbc8"),
    "r13": ("c8467d54c48e522f", "7009e1e714673c20", "f26955ad3b22271e", "5a881277faeaa023"),
    "r18": ("d6d205e177efe4e5", "317c46386d9f2b2c", "f26955ad3b22271e", "6dfdc8983199a39f"),
    "r19": ("44d6c40ca8bc5f44", "8b0c161f87fd6139", "f26955ad3b22271e", "4d4da7a23722266d"),
    "r21": ("f05dfd71222a1a28", "4861e5e1d0bd9c64", "f26955ad3b22271e", "f46b0789f1e1ba5e"),
}


# sha256 prefixes of the same dra and streaming answers with `witness` and
# `support` removed: the verdict, the layer of the hit and every count
GOLDEN_VERDICTS = {
    "fig3": ("d4e1a57fc7cdded6", "ce5d0db1f4aa46e1"),
    "LOCK2": ("7c0064e0a82b0f1d", "8f1e4f35b9196ef0"),
    "r3": ("5e196d15c5014d3a", "435159087270ac72"),
    "r6": ("fe8a559f9a88421a", "28b0da9ceda39c2a"),
    "r13": ("48e613d52313d437", "21a494e2fdca6a76"),
    "r18": ("390b4daf43e5ea11", "54548c795f6ebb7a"),
    "r19": ("307f8f7edc9d8511", "bee5c8ef0149256c"),
    "r21": ("2e361f93b8420b40", "43823e194a03f71c"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VERDICTS))
def test_global_verdicts_match_golden_digests(name):
    a = _golden_global_model(name)
    queries = [f"#{q}>=1 && #{q2}==0" for q, q2 in permutations(sorted(a.locations), 2)]
    got = []
    for streaming in (False, True):
        lines = []
        for text in queries:
            out = check_global(a, text, streaming=streaming)
            del out["witness"], out["support"]
            lines.append(json.dumps(out))
        got.append(hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16])
    assert tuple(got) == GOLDEN_VERDICTS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_global_outputs_match_golden_digests(name):
    a = _golden_global_model(name)
    queries = [f"#{q}>=1 && #{q2}==0" for q, q2 in permutations(sorted(a.locations), 2)]
    dra, slim = ("\n".join(json.dumps(check_global(a, text, streaming=streaming))
                           for text in queries) for streaming in (False, True))
    b = build_global_layers(a)
    layers = repr((b.i0, b.l0, b.shift, [l.count for l in b.layers],
                   b.supports_total))
    got = tuple(hashlib.sha256(text.encode()).hexdigest()[:16] for text in
                (dra, slim, json.dumps(find_guard_timelock(a)), layers))
    assert got == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN) + ["fig1"])
def test_golden_witnesses_replay_through_the_reference_rules(name):
    # every dra witness starts at the initial support in [0,0], takes one
    # rule-1, rule-2 or boundary step of the explicit relation at a time,
    # with the kind it prints, and ends on a support meeting the constraint
    a = parse_file(MODELS / "fig1.gta") if name == "fig1" else \
        _golden_global_model(name)
    replayed = 0
    for q, q2 in permutations(sorted(a.locations), 2):
        node = parse_constraint(f"#{q}>=1 && #{q2}==0")
        b = _GlobalBuilder(a, watch=node).build()
        if b.hit is None:
            continue
        number, slot, r, sup = b.hit
        witness = dtn_global._witness_chain(b, number, r, sup)
        steps, key = [], (number, r, sup)  # (layer, support), from the hit back
        while key[2] is not None:
            steps.append((key[0], key[2]))
            src, prev, ring, _ = b.chain.back[key]
            key = (prev, ring, src)
        steps.reverse()
        m = b.members
        assert [step["support"] for step in witness] == [
            dtn_global._support_json(s, b.layers[k].slot, m) for k, s in steps]
        assert steps[0] == (0, 1 << m.intern(b.ctx.initial_state()))
        assert witness[0]["kind"] == "init" and str(b.layers[0].slot) == "[0,0]"
        for (k, src), (k2, dst), step in zip(steps, steps[1:], witness[1:]):
            if step["kind"] == "cross":
                assert k2 == k + 1 and boundary_support(src, m) == dst
            elif step["kind"] == "delay":
                assert k2 == k and dst in rule1_steps(src, m)
            else:
                assert k2 == k and step["kind"] == "trans"
                assert any(nxt == dst and tr.label == step["internal_label"]
                           for nxt, tr in rule2_steps(src, m))
        assert eval_constraint({m.loc[i] for i in m.ordered(steps[-1][1])}, node)
        replayed += 1
    assert replayed


def test_reachable_supports_total_counts_complete_layers(fig3):
    # a watched build finishes closing the layer of its hit, so a reachable
    # query's supports_total is the size of the full build's layers
    # 0..layer, in dra and in streaming mode.  fig1's full build passes any
    # budget in layer 3; its completed layers still count every query that
    # hits in them
    models = [parse_file(MODELS / "fig1.gta"), fig3] + [
        random_gta(seed) for seed in range(30)]
    checked = 0
    for a in models:
        b = _GlobalBuilder(a, max_states=20_000)
        try:
            b.build()
        except BudgetExceeded:
            pass  # b.layers holds the completed layers
        at = [(q, b.members.mask(q)) for q in a.locations]
        loc_sets = {frozenset(q for q, ids in at if sup & ids)
                    for layer in b.layers for sup in supports(b, layer)}
        for text in differential_constraints(sorted(a.locations)):
            node = parse_constraint(text)
            if not any(eval_constraint(ls, node) for ls in loc_sets):
                continue  # no completed layer holds a hit
            for streaming in (False, True):
                out = check_global(a, text, streaming=streaming)
                assert out["result"] == "reachable"
                assert out["layer"] < len(b.layers)  # the first hit is no later
                assert out["layers_built"] == out["layer"] + 1
                assert out["supports_total"] == sum(
                    layer.count for layer in b.layers[:out["layer"] + 1]), \
                    (a.name, text, streaming)
                checked += 1
    assert checked == 2 * 359


def recomputed_masks(m):
    """The location masks and the punctual mask from the table's locations and
    members: a member is punctual when a clock but t sits on an integer."""
    at, punctual = dict.fromkeys(m.ctx.automaton.locations, 0), 0
    for i, (q, s) in enumerate(zip(m.loc, m.states)):
        at[q] |= 1 << i
        if any(v is not None and v[1]
               for c, v in zip(s.base.clocks, s.base.vals) if c != T):
            punctual |= 1 << i
    return at, punctual


def global_outcomes(a):
    """A full build, a query and the guard-timelock search on `a`."""
    out = []
    for call, args in ((build_global_layers, ()),
                       (check_global, (f"#{a.locations[-1]}>=1 && #{a.initial}==0",)),
                       (find_guard_timelock, ())):
        try:
            r = call(a, *args, max_states=5_000)
            out.append(r if isinstance(r, dict) else (r.supports_total, r.l0))
        except BudgetExceeded:
            out.append("budget")
    return out


def mask_reads(m):
    """Every mask the table hands out, read through it."""
    return {q: m.mask(q) for q in m.ctx.automaton.locations}, m.punctual


def rule_outcomes(a):
    """rule1_steps and rule2_steps on the one-member supports of the first 40
    members of `a`'s table, the initial one first."""
    m = layer_entry(a)
    m.intern(m.ctx.initial_state())
    return [(rule1_steps(1 << i, m), rule2_steps(1 << i, m))
            for i in range(min(40, len(m.states)))]


@pytest.mark.parametrize("first", ["global", "local"])
def test_masks_sync_with_the_table(first, fig3):
    # the local engine interns without touching the masks, and each read
    # extends them over the ids interned since the last: after local builds,
    # global builds, rule calls and the guard-timelock search in either
    # order every read is current, and global answers on a table a local
    # build filled equal those on an empty one
    steps = [rule_outcomes, global_outcomes, build_layers]
    if first == "local":
        steps.reverse()
    for a in [fig3] + [random_gta(seed) for seed in range(30)]:
        a = replace(a)
        for step in steps:
            got = step(a)
            m = a.tables[MemberTable]
            if step is build_layers and first == "local":
                assert m._masked == 0, a.name  # no mask work
                assert global_outcomes(a) == global_outcomes(replace(a)), a.name
            assert mask_reads(m) == recomputed_masks(m), (a.name, step.__name__)
            if step is rule_outcomes:
                assert rule_outcomes(a)[:len(got)] == got, a.name  # a repeat agrees


def test_rule2_steps_read_the_masks_of_new_targets():
    # a step from p back to p witnessed by the mover itself: the drop outcome
    # needs the location mask of a target that rule2_steps interns first
    a = parse_model("gta M\nclocks c\nlocation p initial\n"
                    "trans p -> p label: a guard: c >= 1 reset: c locguard: p\n")
    table = MemberTable(RegionContext(a))
    c1 = Region(("c", T), (1, 1), ((1, True), (0, True)), ())  # c = 1, t = 0
    i = table.intern(RegionState("p", c1, 0))
    cold = rule2_steps(1 << i, table)  # computes the row, interning c = 0
    assert [sup for sup, _ in cold] == [0b11, 0b10]  # the copy added; i dropped
    assert rule2_steps(1 << i, table) == cold


def test_mask_readers_sync_first(fig3):
    # on a table only a local build filled, each reader extends the masks
    # itself: its answer equals the one it gives once they are current
    for k in range(3):
        a = replace(fig3)
        build_layers(a)
        b = _GlobalBuilder(a)
        m, z = b.members, b.zdd
        # q1 just entered with c reset in (0,1): c is punctual, t is not
        i = next(i for i, s in enumerate(m.states)
                 if s.loc == "q1" and s.base.val("c") == (0, True) and not m.point[i])
        sup, node = 1 << i | 1, parse_constraint("#q1>=1")
        call = [lambda: rule1_steps(1 << i, m), lambda: b._delays(z.single(1 << i)),
                lambda: list(z.sets(b._filter(z.single(sup), node)))][k]
        assert m._masked == 0
        cold = call()
        assert mask_reads(m) == recomputed_masks(m)
        assert call() == cold
