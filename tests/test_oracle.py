import hashlib
import random
from collections import deque
from fractions import Fraction
from itertools import permutations
from types import SimpleNamespace

import pytest

from conftest import MODELS, random_gta, random_region
from dtnmc.dtn_global import constraint_node, eval_constraint
from dtnmc.lbta_bridge import gta_to_lbta
from dtnmc.model import parse_file, parse_model
from dtnmc.oracle import (
    _Net,
    _SigTable,
    _gta_moves,
    _lbta_moves,
    _pclock,
    concretize,
    eval_constraint_on_locs,
    explore_network,
    simulate_trace,
    witness_region_path,
)
from dtnmc.regions import T, RegionState

LOSSY = """lbta B
clocks c
broadcasts a
location p initial
location ps
location q
location qs
trans p -> ps label: snd sync: a!!
trans q -> qs label: rcv sync: a??
"""

TWO_CLOCKS = """gta W
clocks x, y
location a initial
location b inv: y <= 2
trans a -> b guard: x >= 1 reset: y
trans b -> a guard: y > 1 && x < 3 reset: x
"""

# diagonal guards; every clock stays under its bound, so they are uniform
DIAG = """gta D
clocks x, y
location a initial inv: x <= 3 && y <= 3
location b inv: x <= 2 && y <= 3
location c inv: x <= 3 && y <= 2
trans a -> a guard: y == 3 reset: x, y
trans a -> b label: go guard: y >= 1 reset: x
trans b -> a label: back guard: y < x + 2 reset: y
trans b -> c label: fin guard: y >= x + 1 && x == 1 locguard: b
trans c -> a label: loop guard: x < y + 1 reset: x
"""

# (model, n) -> states_explored, labels, len(loc_sets) and the number of
# supports per (slot kind, slot index) of explore_network at slot cap 2
PINNED = {
    ("fig1", 1): (80, {"s0", "s1", "s2"}, 3,
                  {("point", 0): 3, ("open", 0): 9, ("point", 1): 9,
                   ("open", 1): 19, ("point", 2): 13, ("open", 2): 27}),
    ("fig1", 2): (1162, {"s0", "s1", "s2", "s4", "s5", "s6"}, 12,
                  {("point", 0): 6, ("open", 0): 45, ("point", 1): 52,
                   ("open", 1): 229, ("point", 2): 129, ("open", 2): 516}),
    ("fig1", 3): (18702, {"s0", "s1", "s2", "s4", "s5", "s6", "serr"}, 34,
                  {("point", 0): 7, ("open", 0): 129, ("point", 1): 171,
                   ("open", 1): 1697, ("point", 2): 892, ("open", 2): 7523}),
    ("fig3", 1): (26, set(), 2,
                  {("point", 0): 2, ("open", 0): 4, ("point", 1): 4,
                   ("open", 1): 6, ("point", 2): 4, ("open", 2): 6}),
    ("fig3", 2): (197, set(), 3,
                  {("point", 0): 3, ("open", 0): 18, ("point", 1): 18,
                   ("open", 1): 56, ("point", 2): 25, ("open", 2): 56}),
    ("fig3", 3): (1020, set(), 3,
                  {("point", 0): 3, ("open", 0): 40, ("point", 1): 40,
                   ("open", 1): 221, ("point", 2): 62, ("open", 2): 221}),
}


@pytest.fixture(scope="module")
def explored():
    """explore_network(model, n, slot_cap=2), computed once per (model, n)."""
    cache = {}

    def get(name, n):
        if (name, n) not in cache:
            a = parse_file(MODELS / f"{name}.gta")
            cache[name, n] = explore_network(a, n, slot_cap=2)
        return cache[name, n]

    return get


def _orbit_key(state):
    ids, tcell, index = state
    return (tuple(sorted(ids)), tcell, index)


def _cells(net, rs):
    """A product RegionState as an oracle state (ids, tcell, index)."""
    rank = {c: r for r, cls in enumerate(rs.base.fracs) for c in cls}
    cells = [((-1, False) if v is None else v, rank.get(c, -1))
             for c, v in zip(net.clocks, rs.base.vals)]
    k = len(net.cclocks)
    ids = tuple(net.intern((q,) + tuple(cells[i * k:(i + 1) * k]))
                for i, q in enumerate(rs.loc))
    return (ids, cells[-1], rs.index)


def _permuted(net, state, perm):
    """The state with process perm[j] renamed to j."""
    mapping = {_pclock(c, p): _pclock(c, j)
               for j, p in enumerate(perm) for c in net.cclocks}
    return RegionState(tuple(state.loc[p] for p in perm),
                       state.base.rename(mapping, order=net.clocks), state.index)


def _reference_canon(net, state):
    """Key of the least renamed copy over all n! process permutations."""
    copies = (_permuted(net, state, perm) for perm in permutations(range(net.n)))
    # repr: None entries of region keys are not orderable
    return min((s.loc, repr(s.base.key()), s) for s in copies)[2]


def _bfs_states(net, limit):
    """The first `limit` states of an unreduced breadth-first search."""
    seen = {}
    queue = deque([net.initial()])
    while queue and len(seen) < limit:
        state = queue.popleft()
        if state in seen:
            continue
        seen[state] = None
        queue.extend(nxt for _, nxt in net.successors(state))
    return list(seen)


def _reference_witness(a, n, label, slot_cap=8, max_states=10 ** 6):
    """The witness search without symmetry reduction, on unsorted states."""
    net = _Net(a, n, slot_cap)
    start = net.initial()
    parent = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for step, nxt in net.successors(state):
            if step[0] == "fire" and any(tr.label == label for _, tr in step[1]):
                steps = [(step, net.region_state(nxt))]
                while parent[state] is not None:
                    prev, pstep = parent[state]
                    steps.append((pstep, net.region_state(state)))
                    state = prev
                steps.reverse()
                return steps
            if nxt not in parent:
                if len(parent) >= max_states:
                    return None
                parent[nxt] = (state, step)
                queue.append(nxt)
    return None


def _reference_explore(a, n, slot_cap, max_states=10 ** 6, target=None):
    """explore_network without successor rows: a BFS that expands every
    (orbit, index) pair afresh and keys it by (sorted ids, tcell, index)."""
    net = _Net(a, n, slot_cap)
    res = SimpleNamespace(states_explored=0, labels=set(), exhausted=False,
                          witness=None)
    start = net.initial()
    seen = {_orbit_key(start): None}
    queue = deque([start])
    label = target if isinstance(target, str) else None

    def hits(step, state):
        if label is not None:
            return step[0] == "fire" and any(tr.label == label for _, tr in step[1])
        return eval_constraint([net.loc[i] for i in state[0]], target)

    def done():
        res.loc_sets = {frozenset(net.loc[i] for i in ids) for ids, _, _ in seen}
        res.supports = {}
        for ids, tcell, index in seen:
            sup = frozenset(net.member[i, tcell] for i in ids)
            res.supports.setdefault(("point" if tcell[0][1] else "open", index),
                                    set()).add(sup)
        return res

    if target is not None and label is None and hits(None, start):
        res.witness = []
        return done()
    while queue:
        state = queue.popleft()
        res.states_explored += 1
        succs = net.successors(state)
        for step, _ in succs:
            if step[0] == "fire":
                res.labels |= {tr.label for _, tr in step[1] if tr.label is not None}
        for step, nxt in succs:
            if target is not None and hits(step, nxt):
                steps = [(step, net.region_state(nxt))]
                while link := seen[_orbit_key(state)]:
                    steps.append((link[1], net.region_state(state)))
                    state = link[0]
                res.witness = steps[::-1]
                return done()
        for step, nxt in succs:
            if _orbit_key(nxt) not in seen:
                if len(seen) >= max_states:
                    res.exhausted = True
                    return done()
                seen[_orbit_key(nxt)] = (state, step)
                queue.append(nxt)
    return done()


def _golden_model(name):
    """fig1/fig3, rS = random_gta(S), mS its max_const=3 draw, lS = the lbta
    translation of random_gta(S), W = TWO_CLOCKS, D = DIAG."""
    if name.startswith("fig"):
        return parse_file(MODELS / f"{name}.gta")
    if name in ("W", "D"):
        return parse_model(TWO_CLOCKS if name == "W" else DIAG)
    seed = int(name[1:])
    if name[0] == "m":
        return random_gta(seed, max_const=3)
    a = random_gta(seed)
    return gta_to_lbta(a) if name[0] == "l" else a


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# sha256 prefixes of (states_explored, sorted labels, sorted loc_sets, sorted
# reprs of the supports per slot, exhausted) of explore_network, keyed by
# (model, n, slot cap), and of repr(witness_region_path(...)), keyed by
# (model, n, label, slot cap)
GOLDEN_EXPLORE = {
    ("fig1", 1, 2): "663dd433a68dabb7",
    ("fig1", 2, 2): "77065dd153522fd6",
    ("fig1", 3, 2): "c3228ff118d8c368",
    ("fig3", 1, 2): "b7954618a363562d",
    ("fig3", 2, 2): "9a56e3e51094c3ce",
    ("fig3", 3, 2): "29ee81964fd91bb8",
    ("r3", 2, 3): "121de69afe82c8cb",
    ("r3", 3, 3): "84c090913d106998",
    ("l3", 2, 3): "121de69afe82c8cb",
    ("l3", 3, 3): "84c090913d106998",
    ("r18", 2, 3): "216b4cc12a74ee98",
    ("r18", 3, 3): "4c6a79e5ffd3bf91",
    ("l18", 2, 3): "216b4cc12a74ee98",
    ("l18", 3, 3): "4c6a79e5ffd3bf91",
    ("r20", 2, 3): "f8bd41b275d09604",
    ("r20", 3, 3): "8f03047de92eb543",
    ("l20", 2, 3): "f8bd41b275d09604",
    ("l20", 3, 3): "8f03047de92eb543",
    ("m18", 2, 3): "c826bebee6e162a9",
    ("m18", 3, 3): "c38524f2adc12494",
    ("W", 2, 3): "20352e0b0cdd30bf",
    ("W", 3, 3): "8dd54d8bd355883d",
    ("D", 2, 2): "7365df29bf7d2d12",
    ("D", 3, 1): "b4dba15155eb98e6",
}
GOLDEN_WITNESS = {
    ("fig1", 3, "serr", 2): "fc3d31215e1f31c6",
    ("r20", 3, "b", 3): "4e65032ed2910ba9",
    ("l20", 3, "b", 3): "248281827716c214",
    # "b" is a self-loop whose every firing reaches a state already seen
    ("r18", 3, "b", 3): "370acb2b0120195f",
    ("D", 2, "fin", 2): "563c6393777bab1a",
    ("D", 2, "back", 2): "f681e16695590a8d",
}
# the same payload digests for runs that stop at their budget, keyed by
# (model, n, slot cap, max_states); they pin the order in which states are
# first reached
GOLDEN_EXHAUSTED = {
    ("fig3", 3, 3, 40): "96268fce855f9595",
    ("fig1", 3, 2, 500): "91ad539066240ec8",
    ("l20", 3, 3, 300): "bcaeb2bf4b4095db",
}
GOLDEN_CASES = [("explore",) + k for k in GOLDEN_EXPLORE] + \
    [("witness",) + k for k in GOLDEN_WITNESS] + \
    [("exhausted",) + k for k in GOLDEN_EXHAUSTED]


def _explore_digest(res):
    supports = sorted((slot, sorted(sorted(map(repr, sup)) for sup in sups))
                      for slot, sups in res.supports.items())
    payload = (res.states_explored, sorted(res.labels),
               sorted(sorted(ls) for ls in res.loc_sets), supports, res.exhausted)
    return _sha(repr(payload))


@pytest.mark.parametrize("case", GOLDEN_CASES,
                         ids=["-".join(map(str, c)) for c in GOLDEN_CASES])
def test_oracle_outputs_match_golden_digests(explored, case):
    if case[0] == "witness":
        _, name, n, label, cap = case
        steps = witness_region_path(_golden_model(name), n, label, slot_cap=cap)
        assert _sha(repr(steps)) == GOLDEN_WITNESS[case[1:]]
        return
    if case[0] == "exhausted":
        _, name, n, cap, budget = case
        res = explore_network(_golden_model(name), n, slot_cap=cap,
                              max_states=budget)
        assert res.exhausted
        assert _explore_digest(res) == GOLDEN_EXHAUSTED[case[1:]]
        return
    _, name, n, cap = case
    if name.startswith("fig"):
        res = explored(name, n)
    else:
        res = explore_network(_golden_model(name), n, slot_cap=cap)
    assert _explore_digest(res) == GOLDEN_EXPLORE[case[1:]]


def test_every_fired_label_has_a_replaying_witness(explored):
    # a label explore_network reports fired gets a witness ending in its firing
    # step, even when every firing leads back to a state already seen
    witnesses = 0
    for name, n, cap in GOLDEN_EXPLORE:
        a = _golden_model(name)
        res = explored(name, n) if name.startswith("fig") else \
            explore_network(a, n, slot_cap=cap)
        for label in sorted(res.labels):
            steps = witness_region_path(a, n, label, slot_cap=cap)
            assert steps is not None, (name, n, label)
            # the search up to symmetry returns the unreduced search's path
            assert repr(steps) == repr(_reference_witness(a, n, label, slot_cap=cap))
            (kind, movers), _ = steps[-1]
            assert kind == "fire" and label in {tr.label for _, tr in movers}
            simulate_trace(a, n, concretize(a, n, steps))
            witnesses += 1
    assert witnesses == 56


@pytest.mark.parametrize("name", ["fig1", "fig3", "r3", "l3", "r18", "l18",
                                  "r20", "l20"])
def test_successors_shift_with_the_slot_index(name):
    # a state's successors at index k + 1 are those at index k with every
    # index raised by one, less the delay out of the last slot: the search
    # reuses one successor row per (ids, tcell) on this
    a = _golden_model(name)
    cut = 0
    for n in (1, 2, 3):
        net = _Net(a, n, 2)
        for ids, tcell in {s[:2] for s in _bfs_states(net, 400)}:
            for k in (0, 1):
                low = net.successors((ids, tcell, k))
                want = [(step, (s[0], s[1], s[2] + 1)) for step, s in low if s[2] < 2]
                assert net.successors((ids, tcell, k + 1)) == want
                cut += len(low) - len(want)
    assert cut


# gta models, lbta translations (l3, l20), two clocks (W) and no labels (fig3, W)
@pytest.mark.parametrize("name,n", [("fig1", 2), ("fig3", 3), ("r20", 3), ("l20", 3),
                                    ("r3", 3), ("l3", 3), ("W", 2)])
def test_search_matches_the_reference_search(name, n):
    # slot caps 0-3; no target, labels and a constraint; no budget and
    # budgets that stop the search a quarter, half and three quarters in
    a = _golden_model(name)
    node = constraint_node(a, f"#{max(a.locations)}>=1 && #{a.initial}==0")
    labels = sorted(a.labels())
    targets = [None, node] + labels[:1] + labels[-1:]
    outcomes = set()
    for cap in range(4):
        full = _reference_explore(a, n, cap).states_explored
        for budget in [10 ** 6] + [full * q // 4 for q in (1, 2, 3)]:
            for target in targets:
                ref = _reference_explore(a, n, cap, budget, target)
                res = explore_network(a, n, slot_cap=cap, max_states=budget,
                                      target=target)
                assert (res.states_explored, res.labels, res.loc_sets, res.supports,
                        res.exhausted, res.witness) == \
                    (ref.states_explored, ref.labels, ref.loc_sets, ref.supports,
                     ref.exhausted, ref.witness), (cap, budget, target)
                outcomes.add((res.exhausted, res.witness is not None))
    assert outcomes == {(True, False), (False, True), (False, False)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_witness_matches_the_unreduced_search(fig1, n):
    # also where the label never fires and both searches run dry
    for label in sorted({tr.label for tr in fig1.transitions}):
        assert repr(witness_region_path(fig1, n, label, slot_cap=2)) == \
            repr(_reference_witness(fig1, n, label, slot_cap=2)), label


def test_constraint_target_agrees_with_the_exploration(fig1, fig3):
    # every ordered #q>=1 && #q'==0 at n <= 3: the targeted search hits where
    # the exploration's location sets satisfy the constraint, and its trace
    # replays into a configuration that satisfies it too
    queries = hits = 0
    for a in [fig1, fig3] + [random_gta(s) for s in range(20)]:
        explored = {n: explore_network(a, n, slot_cap=2, max_states=3000)
                    for n in (1, 2, 3)}
        for p, q in permutations(sorted(a.locations), 2):
            node = constraint_node(a, f"#{p}>=1 && #{q}==0")
            for n in (1, 2, 3):
                res = explore_network(a, n, slot_cap=2, max_states=3000, target=node)
                want = any(eval_constraint(ls, node) for ls in explored[n].loc_sets)
                queries += 1
                if res.witness is None:
                    assert not want and (res.exhausted or not explored[n].exhausted)
                    continue
                assert not res.exhausted and res.labels <= explored[n].labels
                snaps = simulate_trace(a, n, concretize(a, n, res.witness))
                assert eval_constraint(snaps[-1][1], node), (a.name, p, q, n)
                hits += 1
    assert (queries, hits) == (450, 206)


def test_targeted_search_reads_no_supports(fig1):
    res = explore_network(fig1, 3, slot_cap=2, target="serr")
    assert res.witness is not None and not res.net.member
    assert "loc_sets" not in vars(res) and "supports" not in vars(res)
    assert explore_network(fig1, 3, slot_cap=2, target="s0").states_explored == 1


def test_slot_cap_zero_explores_the_first_two_slots(fig1):
    # cap 0 is a valid cap: the search keeps to [0,0] and (0,1)
    res = explore_network(fig1, 2, slot_cap=0)
    assert (res.states_explored, sorted(res.labels), res.exhausted) == \
        (60, ["s0", "s1", "s2"], False)
    assert {slot: len(sups) for slot, sups in res.supports.items()} == \
        {("point", 0): 6, ("open", 0): 45}


def test_unlabelled_steps_replay_along_the_fired_transition(fig1, fig3):
    # fig3's init -> init and init -> q1 are both unlabelled; each entry's
    # destination picks the one the witness fired
    node = constraint_node(fig3, "#q1>=1 && #init==0")
    for n in (1, 2, 3):
        trace = concretize(fig3, n, explore_network(fig3, n, 2, target=node).witness)
        assert [e["dst"] for e in trace] == ["q1"] * n
        assert simulate_trace(fig3, n, trace)[-1] == (0, ("q1",) * n)
    with pytest.raises(ValueError, match="no enabled transition 's0'"):
        simulate_trace(fig1, 1, [{"delay": 0, "process": 1, "label": "s0",
                                  "dst": "post"}])


@pytest.mark.parametrize("name", ["fig1", "fig3", "r3", "l3"])
def test_answers_do_not_depend_on_query_history(name):
    # one automaton's signature table serves every n, slot cap and target;
    # in either order each answer equals that of a freshly parsed automaton
    a = _golden_model(name)
    node = constraint_node(a, f"#{max(a.locations)}>=1 && #{a.initial}==0")
    asks = [(n, target) for n in (3, 2, 1)
            for target in (None, max(a.labels(), default="x"), node)]

    def answer(b, n, target):
        res = explore_network(b, n, slot_cap=4 - n, max_states=3000, target=target)
        trace = None if res.witness is None else concretize(b, n, res.witness)
        return (res.states_explored, res.labels, res.loc_sets, res.supports,
                res.exhausted, res.witness, trace)

    fresh = [answer(_golden_model(name), n, target) for n, target in asks]
    for order in (asks, asks[::-1]):
        b = _golden_model(name)
        got = [answer(b, n, target) for n, target in order]
        assert got == (fresh if order is asks else fresh[::-1])
        assert list(b.tables) == [_SigTable]
    assert any(ans[5] for ans in fresh)


@pytest.mark.parametrize("n,slot_cap", [(0, 2), (-1, 2), (2, -1)])
def test_bad_sizes_raise(fig1, n, slot_cap):
    for target in (None, "serr"):
        with pytest.raises(ValueError, match="n >= 1 and a slot cap >= 0"):
            explore_network(fig1, n, slot_cap=slot_cap, target=target)


def test_labels_grow_with_network_size(explored):
    fired = {n: explored("fig1", n).labels for n in (1, 2, 3)}
    assert fired[1] == {"s0", "s1", "s2"}
    assert fired[2] == {"s0", "s1", "s2", "s4", "s5", "s6"}
    assert fired[3] == fired[2] | {"serr"}
    assert fired[1] < fired[2] < fired[3]


def test_witness_concretize_simulate(fig1):
    steps = witness_region_path(fig1, 3, "serr", slot_cap=2)
    assert steps is not None
    trace = concretize(fig1, 3, steps)
    assert [e["label"] for e in trace] == ["s0", "s1", "s4", "s5", "s4", "serr"]
    assert sum(e["delay"] for e in trace) == 2
    snaps = simulate_trace(fig1, 3, trace)
    assert snaps[0] == (0, ("init", "init", "init"))
    assert snaps[-1] == (2, ("post", "done", "error"))
    for t, _ in snaps:
        assert 0 <= t <= 2


def test_witness_absent(fig1):
    assert witness_region_path(fig1, 2, "serr", slot_cap=2) is None
    assert witness_region_path(fig1, 3, "serr", slot_cap=2, max_states=50) is None
    # max_states counts orbits, as in explore_network, which first fires
    # serr at a budget of 1980 orbits
    assert witness_region_path(fig1, 3, "serr", slot_cap=2, max_states=1979) is None
    assert witness_region_path(fig1, 3, "serr", slot_cap=2, max_states=1980) is not None


@pytest.mark.parametrize("name,n", sorted(PINNED))
def test_pinned_exploration_outcomes(explored, name, n):
    states, labels, loc_sets, supports = PINNED[name, n]
    res = explored(name, n)
    assert res.states_explored == states
    assert res.labels == labels
    assert len(res.loc_sets) == loc_sets
    assert {slot: len(sups) for slot, sups in res.supports.items()} == supports
    assert not res.exhausted


def test_canon_collapses_process_symmetry(fig3):
    net = _Net(fig3, 2, 2)
    start = net.initial()
    moves = _gta_moves(net, start)
    # the same transition fired by either process reaches one orbit key
    by_desc = {step[1][0][0]: nxt for step, nxt in moves}
    assert set(by_desc) == {0, 1}
    assert _orbit_key(by_desc[0]) == _orbit_key(by_desc[1])
    assert by_desc[0] != by_desc[1]


def test_canon_partition_matches_permutation_search():
    rng = random.Random(7)
    groups = []
    # seeds whose networks fire some transition by slot 2
    for seed in (3, 18, 19, 20, 32, 34, 35, 38):
        a = random_gta(seed)
        for b in (a, gta_to_lbta(a)):
            for n in (2, 3):
                net = _Net(b, n, 2)
                states = [net.region_state(s) for s in _bfs_states(net, 150)]
                groups.append((net, states))
    # two clocks per process, arbitrary (not necessarily reachable) regions
    net = _Net(parse_model(TWO_CLOCKS), 3, 2)
    bounds = dict(zip(net.clocks, net.bounds))
    groups.append((net, [
        RegionState(tuple(rng.choice(("a", "b")) for _ in range(3)),
                    random_region(rng, net.clocks, bounds), rng.randint(0, 2))
        for _ in range(150)
    ]))
    ref, key = [], []
    for g, (net, states) in enumerate(groups):
        for state in states:
            perm = list(range(net.n))
            rng.shuffle(perm)
            for s in (state, _permuted(net, state, perm)):
                assert net.region_state(_cells(net, s)) == s
                ref.append((g, _reference_canon(net, s)))
                key.append((g, _orbit_key(_cells(net, s))))
    # equal partitions: each reference class is one key class and vice versa
    assert len(set(ref)) == len(set(key)) == len(set(zip(ref, key)))
    assert len(set(key)) < len(key)


def test_supports_shape(fig3):
    res = explore_network(fig3, 2, slot_cap=1)
    for (kind, index), sups in res.supports.items():
        assert kind in ("point", "open") and 0 <= index <= 1
        for sup in sups:
            for loc, (vals, _fracs, clocks) in sup:
                assert loc in fig3.locations and clocks == ("c", T)
                # t is rebased into the slot, which its cell names
                assert vals[-1] == (0, kind == "point")


def test_exhaustion_flag(fig3):
    res = explore_network(fig3, 3, slot_cap=3, max_states=40)
    assert res.exhausted
    full = explore_network(fig3, 2, slot_cap=2)
    assert not full.exhausted and full.states_explored > 0


def test_eval_constraint_on_locs(fig3):
    res = explore_network(fig3, 2, slot_cap=2)
    assert eval_constraint_on_locs(fig3, "#q1>=1 && #init==0", res)
    assert not eval_constraint_on_locs(fig3, "#q1>=1 && #q1==0", res)
    with pytest.raises(ValueError, match="unknown location 'zz'"):
        eval_constraint_on_locs(fig3, "#zz>=1", res)


def test_lossy_receiver_subsets():
    b = parse_model(LOSSY)
    net = _Net(b, 3, 2)
    ids, tcell, index = net.initial()
    state = (tuple(net.intern((q,) + net.sigs[i][1:])
                   for q, i in zip(("p", "q", "q"), ids)), tcell, index)
    moves = _lbta_moves(net, state)
    outcomes = {tuple(net.loc[i] for i in nxt[0]) for _, nxt in moves}
    assert outcomes == {
        ("ps", "q", "q"), ("ps", "qs", "q"), ("ps", "q", "qs"), ("ps", "qs", "qs"),
    }
    descs = {desc for (_, desc), _ in moves}
    assert all(d[0] == (0, b.transitions[0]) for d in descs)
    # lossiness: with nobody listening the send still fires, alone
    alone = _lbta_moves(net, net.initial())
    assert len(alone) == 3  # one bare send per process
    assert all(len(d) == 1 for (_, d), _ in alone)


def project_trace(trace, procs):
    """Keep the given processes' non-silent steps, folding delays forward."""
    if isinstance(procs, int):
        procs = {procs}
    acc = Fraction(0)
    out = []
    for entry in trace:
        acc += Fraction(entry["delay"])
        if entry["process"] in procs and entry["label"] is not None:
            out.append({"delay": acc, "process": entry["process"],
                        "label": entry["label"]})
            acc = Fraction(0)
    return out


def test_project_trace_folds_delays():
    trace = [
        {"delay": 1, "process": 1, "label": "a"},
        {"delay": 0, "process": 2, "label": None},
        {"delay": 1, "process": 2, "label": "b"},
        {"delay": 0, "process": 3, "label": "c"},
    ]
    assert project_trace(trace, {1}) == [
        {"delay": 1, "process": 1, "label": "a"}
    ]
    assert project_trace(trace, 2) == [
        {"delay": 2, "process": 2, "label": "b"}
    ]
    assert project_trace(trace, {3}) == [
        {"delay": 2, "process": 3, "label": "c"}
    ]
    assert project_trace(trace, {1, 2}) == [
        {"delay": 1, "process": 1, "label": "a"},
        {"delay": 1, "process": 2, "label": "b"},
    ]


def test_project_witness_per_process(fig1):
    steps = witness_region_path(fig1, 3, "serr", slot_cap=2)
    trace = concretize(fig1, 3, steps)
    proj3 = project_trace(trace, {3})
    assert [e["label"] for e in proj3] == ["s4", "serr"]
    assert [e["delay"] for e in proj3] == [2, 0]


def test_simulate_trace_rejects_bad_traces(fig1):
    with pytest.raises(ValueError, match="negative delay"):
        simulate_trace(fig1, 1, [{"delay": -1, "process": 1, "label": "s0"}])
    with pytest.raises(ValueError, match="no enabled transition 's1'"):
        simulate_trace(fig1, 1, [{"delay": 0, "process": 1, "label": "s1"}])
    # serr needs a done witness; alone it must fail
    with pytest.raises(ValueError, match="no enabled transition"):
        simulate_trace(
            fig1, 1,
            [{"delay": 0, "process": 1, "label": "s0"},
             {"delay": 0, "process": 1, "label": "s1"},
             {"delay": Fraction(1, 2), "process": 1, "label": "serr"}],
        )
    # post has invariant c <= 1, so waiting 2 breaks it
    with pytest.raises(ValueError, match="invariant of post broken by delay"):
        simulate_trace(
            fig1, 1,
            [{"delay": 0, "process": 1, "label": "s0"},
             {"delay": 0, "process": 1, "label": "s1"},
             {"delay": 2, "process": 1, "label": "s2"}],
        )


def test_simulate_trace_snapshots(fig1):
    snaps = simulate_trace(
        fig1, 2,
        [{"delay": 0, "process": 1, "label": "s0"},
         {"delay": Fraction(1, 2), "process": 1, "label": "s1"},
         {"delay": Fraction(1, 2), "process": 2, "label": "s4"}],
    )
    assert snaps == [
        (0, ("init", "init")),
        (0, ("listen", "init")),
        (Fraction(1, 2), ("post", "init")),
        (1, ("post", "reading")),
    ]
