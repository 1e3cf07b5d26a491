"""Shared generators and helpers for the test suite.

Random gTAs are small by design (few locations, one clock, small constants)
and timelock-free by construction: every location with an invariant gets an
unguarded reset escape to an invariant-free location, so time can always
diverge once guards are erased.
"""

import random
from pathlib import Path

import pytest

from dtnmc.model import Atom, Automaton, Transition, strip_guarded
from dtnmc.oracle import _region
from dtnmc.region_graph import check_timelock_free
from dtnmc.regions import T, Region

MODELS = Path(__file__).resolve().parent.parent / "models"

# fails the timelock-freedom assumption: init's invariant stops time at c == 1
# and its only c == 1 step resets nothing, so no layer crosses slot [1,1]
LOCK2 = """gta lock2
clocks c
location init initial inv: c <= 1
location q
trans init -> init label: a guard: c == 1
trans init -> q label: b locguard: q
"""

LABEL_POOL = ("a", "b", "d", "e")
OPS = ("<", "<=", "==", ">=", ">")


def random_gta(seed, max_locs=4, max_trans=6, max_const=2) -> Automaton:
    rng = random.Random(seed)
    n = rng.randint(2, max_locs)
    locs = tuple(f"q{i}" for i in range(n))
    inv = {}
    for q in locs[1:]:  # the initial location stays invariant-free
        if rng.random() < 0.35:
            if rng.random() < 0.5:
                inv[q] = (Atom("c", "<", None, rng.randint(1, max_const)),)
            else:
                inv[q] = (Atom("c", "<=", None, rng.randint(0, max_const)),)
    free = [q for q in locs if q not in inv]
    trans = []
    for q in sorted(inv):
        trans.append(Transition(q, rng.choice(free),
                                rng.choice(LABEL_POOL + (None,)),
                                (), ("c",), None))
    while len(trans) < rng.randint(1, max_trans):
        guard = tuple(
            Atom("c", rng.choice(OPS), None, rng.randint(0, max_const))
            for _ in range(rng.randint(0, 2))
        )
        trans.append(Transition(
            rng.choice(locs), rng.choice(locs),
            rng.choice(LABEL_POOL + (None,)), guard,
            ("c",) if rng.random() < 0.4 else (),
            rng.choice((None, None, rng.choice(locs))),
        ))
    a = Automaton("gta", f"r{seed}", ("c",), locs, "q0", inv, tuple(trans))
    assert check_timelock_free(strip_guarded(a))[0] == "proved", seed
    return a


def member_state(members, i, index):
    """Member i of a `MemberTable`, a RegionState at slot index 0, moved to
    slot index `index`."""
    return members.states[i]._replace(index=index)


def oracle_member(net, i, tcell):
    """Process signature i of an oracle `_Net` and t's cell as a one-process
    `region_graph.member_key`."""
    sig = net.sigs[i]
    return (sig[0], _region(net.cclocks + (T,), net.cbounds + (1,),
                            sig[1:] + (tcell,)).key())


def oracle_supports(res):
    """("point"|"open", index) -> the supports an `explore_network` result
    reached in that slot, each a frozenset of `oracle_member` keys."""
    keys, out = {}, {}
    for (ids, tcell), mask in res.reached.items():
        for i in ids:
            if (i, tcell) not in keys:
                keys[i, tcell] = oracle_member(res.net, i, tcell)
        sup = frozenset([keys[i, tcell] for i in ids])
        for index in range(mask.bit_length()):
            if mask >> index & 1:
                out.setdefault(("point" if tcell[0][1] else "open", index),
                               set()).add(sup)
    return out


def assert_record_contract(x, text):
    """Repr and hash of the frozen dataclass the record was, read-only fields.

    Set and frozenset orders follow the hash, and the golden digests hash
    reprs, so neither may move when a record changes its class.
    """
    assert repr(x) == text
    assert hash(x) == hash(tuple(x))
    with pytest.raises(AttributeError):
        setattr(x, x._fields[0], None)


def random_region(rng, clocks=("x", "y", T), bounds=None) -> Region:
    """A uniformly messy region; t (when present) is never collapsed."""
    clocks = tuple(clocks)
    if bounds is None:
        bounds = {c: rng.randint(1, 3) for c in clocks}
        if T in bounds:
            bounds[T] = rng.randint(1, 4)
    vals = []
    for c in clocks:
        b = bounds[c]
        pick = rng.random()
        if pick < 0.25 and c != T:
            vals.append(None)
        elif pick < 0.6:
            vals.append((rng.randint(0, b), True))
        else:
            vals.append((rng.randint(0, b - 1) if c != T else rng.randint(0, b - 1),
                         False))
    fractional = [c for c, v in zip(clocks, vals) if v is not None and not v[1]]
    rng.shuffle(fractional)
    classes = []
    for c in fractional:
        if classes and rng.random() < 0.4:
            classes[-1].append(c)
        else:
            classes.append([c])
    fracs = tuple(tuple(sorted(cls)) for cls in classes)
    return Region(clocks, tuple(bounds[c] for c in clocks), tuple(vals), fracs)


@pytest.fixture
def fig1():
    from dtnmc.model import parse_file

    return parse_file(MODELS / "fig1.gta")


@pytest.fixture
def fig3():
    from dtnmc.model import parse_file

    return parse_file(MODELS / "fig3.gta")
