import pytest

from conftest import random_gta
from dtnmc.dtn_local import reachable_labels
from dtnmc.lbta_bridge import gta_to_lbta, lbta_to_gta
from dtnmc.model import Atom, parse_model, validate
from dtnmc.oracle import explore_network


def test_gta_to_lbta_structure(fig1):
    b = gta_to_lbta(fig1)
    assert b.kind == "lbta"
    assert b.broadcasts == fig1.locations
    assert b.clocks == fig1.clocks and b.initial == fig1.initial
    by_key = {(tr.src, tr.label): tr for tr in b.transitions if tr.label}
    # guarded transitions listen on their guard location's channel
    assert by_key[("reading", "serr")].sync == ("done", "??")
    assert by_key[("init", "s4")].sync == ("post", "??")
    # unguarded ones shout on their source's channel
    assert by_key[("listen", "s1")].sync == ("listen", "!!")
    assert by_key[("reading", "s4")].sync == ("reading", "!!")
    # one silent self-loop send per guard location, nothing more
    silent = [tr for tr in b.transitions if tr.label is None]
    assert {(tr.src, tr.dst, tr.sync) for tr in silent} == {
        ("done", "done", ("done", "!!")),
        ("post", "post", ("post", "!!")),
    }
    assert all(tr.locguard is None for tr in b.transitions)


def test_gta_to_lbta_rejects_other_kinds(fig1):
    with pytest.raises(ValueError, match="expects a gta"):
        gta_to_lbta(gta_to_lbta(fig1))
    with pytest.raises(ValueError, match="expects an lbta"):
        lbta_to_gta(fig1)


def test_lbta_to_gta_structure(fig1):
    b = gta_to_lbta(fig1)
    g = lbta_to_gta(b)
    assert g.kind == "gta"
    assert g.clocks == b.clocks + ("c_snd",)
    aux = [q for q in g.locations if q.startswith("snd_")]
    sends = [tr for tr in b.transitions if tr.sync[1] == "!!"]
    assert len(aux) == len(sends)
    for q in aux:
        assert g.invariants[q] == (Atom("c_snd", "<=", None, 0),)
    # each send becomes an entry (resets c_snd) plus a silent completion
    entries = [tr for tr in g.transitions if tr.dst in aux]
    assert all(tr.resets == ("c_snd",) for tr in entries)
    completions = [tr for tr in g.transitions if tr.src in aux]
    assert all(tr.label is None for tr in completions)
    # receives hang off every matching sender's auxiliary location
    receives = [tr for tr in g.transitions if tr.locguard is not None]
    assert receives and all(tr.locguard in aux for tr in receives)


def test_round_trip_preserves_user_labels(fig1):
    g2 = lbta_to_gta(gta_to_lbta(fig1))
    direct = reachable_labels(fig1)
    round_trip = {
        l for l in reachable_labels(g2) if not l.startswith(("eps#",))
    }
    # internal relabeling may add #k suffixes to duplicated labels
    assert {l.split("#", 1)[0] for l in round_trip} == direct
    assert "serr" in round_trip


def test_lbta_oracle_agrees_on_labels(fig1):
    b = gta_to_lbta(fig1)
    direct = explore_network(fig1, 3, slot_cap=2)
    lossy = explore_network(b, 3, slot_cap=2)
    user = lambda labels: {l for l in labels if l is not None}
    assert user(lossy.labels) == user(direct.labels)


def test_round_trip_random_labels():
    for seed in (11, 23, 47):
        a = random_gta(seed)
        b = gta_to_lbta(a)
        back = lbta_to_gta(b)
        assert validate(back).timelock_free == "proved"
        fired_a = {l for l in explore_network(a, 2, slot_cap=3).labels if l}
        fired_b = {l for l in explore_network(b, 2, slot_cap=3).labels if l}
        assert fired_a == fired_b, seed
