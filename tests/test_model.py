from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_record_contract, random_gta
from dtnmc.dtn_global import check_global
from dtnmc.dtn_local import (
    apply_loopback,
    build_layers,
    check_label_reachable,
    summary_automaton,
)
from dtnmc.model import (
    Atom,
    Automaton,
    ModelError,
    Transition,
    ValidationReport,
    compute_bounds,
    parse_model,
    pretty_model,
    relabel_unique,
    strip_guarded,
    strip_receives,
    validate,
)

LBTA_TEXT = """lbta Pair
clocks c
broadcasts go
location idle initial
location busy inv: c <= 2
trans idle -> busy label: a sync: go!! reset: c
trans idle -> busy sync: go?? guard: c >= 1
trans busy -> idle sync: stop?? label: b
"""


def _norm_trans(trs):
    # a multiset: sorting by repr would follow the iteration order of the
    # frozensets, which varies between processes
    return Counter(
        (t.src, t.dst, t.label, frozenset(t.guard), frozenset(t.resets),
         t.locguard, t.sync)
        for t in trs
    )


def same_model(a, b):
    """Equality up to declaration order (pretty_model sorts everything)."""
    return (
        (a.kind, a.name, a.initial) == (b.kind, b.name, b.initial)
        and set(a.clocks) == set(b.clocks)
        and set(a.locations) == set(b.locations)
        and set(a.broadcasts) == set(b.broadcasts)
        and {q: frozenset(v) for q, v in a.invariants.items() if v}
        == {q: frozenset(v) for q, v in b.invariants.items() if v}
        and _norm_trans(a.transitions) == _norm_trans(b.transitions)
    )


MIXED_TEXT = """gta mixed
clocks c, d
location p initial
location q
trans p -> q label: a reset: d
trans q -> p label: b guard: c < 1 && d < 1
"""


def test_parse_pretty_round_trip(fig1, fig3):
    # after `a` resets d inside (0,1), the summary guards edges with both c>0
    # and the diagonal c>d+0: one `right` is None, the other a clock
    mixed = summary_automaton(apply_loopback(build_layers(parse_model(MIXED_TEXT))))
    assert any(
        Atom("c", ">", None, 0) in tr.guard and Atom("c", ">", "d", 0) in tr.guard
        for tr in mixed.transitions
    )
    # fig1's summary carries relabeled labels such as s4#1
    summary = summary_automaton(apply_loopback(build_layers(fig1)))
    assert any("#" in tr.label for tr in summary.transitions if tr.label)
    for a in (fig1, fig3, mixed, summary):
        text = pretty_model(a)
        again = parse_model(text)
        assert same_model(again, a)
        assert pretty_model(again) == text  # canonical form is a fixpoint


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_round_trip_random(seed):
    a = random_gta(seed)
    text = pretty_model(a)
    again = parse_model(text)
    assert same_model(again, a)
    assert pretty_model(again) == text


def test_parse_lbta():
    b = parse_model(LBTA_TEXT.replace("stop??", "go??"))
    assert b.kind == "lbta" and b.broadcasts == ("go",)
    assert b.transitions[0].sync == ("go", "!!")
    assert b.transitions[1].sync == ("go", "??")
    assert same_model(parse_model(pretty_model(b)), b)


def test_atom_text():
    assert Atom("c", "<=", None, 3).text() == "c<=3"
    assert Atom("c", "<", "d", 1).text() == "c<d+1"


@pytest.mark.parametrize(
    "snippet,msg",
    [
        ("location q initial inv: c >= 1", "lower bound in invariant"),
        ("location q initial inv: c <= d + 1", "diagonal atom in invariant"),
        ("clocks t", "reserved for the global clock"),
        ("location q initial\ntrans q -> q guard: c % 3", "bad atom 'c % 3'"),
        ("location q initial\ntrans q -> q label: a b", "bad label 'a b'"),
        ("location q initial\ntrans q -> q guard: x >= 1", "undeclared clock 'x'"),
        ("location q initial\ntrans q -> q reset: x", "undeclared clock 'x' in reset"),
        ("location q initial\ntrans q -> r", "undeclared location 'r'"),
        ("location q initial\ntrans q -> q locguard: r", "undeclared location 'r'"),
        ("location q initial\nlocation q", "duplicate declaration of 'q'"),
        ("location q initial\nlocation r initial", "second initial location"),
        ("location q initial\ntrans q -> q sync: go!!", "only valid in lbta"),
        ("location q initial\nfrobnicate q", "unknown keyword 'frobnicate'"),
        ("location q", "no initial location"),
    ],
)
def test_parse_errors(snippet, msg):
    with pytest.raises(ModelError, match=msg):
        parse_model("gta M\nclocks c\n" + snippet + "\n")


TA_OWN_T = """ta M
clocks t
location q initial inv: t <= 2
location r
trans q -> r label: go guard: t >= 1 reset: t
"""


def test_ta_model_cannot_declare_t():
    # a ta model's own t would be aliased with the engines' global clock
    with pytest.raises(ModelError, match="reserved for the global clock"):
        parse_model(TA_OWN_T)
    renamed = parse_model(
        TA_OWN_T.replace("clocks t", "clocks c").replace("t <=", "c <=")
        .replace("t >=", "c >=").replace("reset: t", "reset: c"))
    assert renamed.clocks == ("c",)
    assert check_label_reachable(renamed, "go")["result"] == "reachable"


def test_unguard_reserves_t():
    # TA_OWN_T built through the library, past the parser's check: its t
    # would be aliased with the global clock, and the engines would miss "go"
    a = Automaton("ta", "M", ("t",), ("q", "r"), "q",
                  {"q": (Atom("t", "<=", None, 2),)},
                  (Transition("q", "r", "go", (Atom("t", ">=", None, 1),), ("t",)),))
    for check in (lambda a: check_label_reachable(a, "go"),
                  lambda a: check_global(a, "#r>=1")):
        with pytest.raises(ModelError, match="reserved for the global clock"):
            check(a)


def test_parse_errors_header():
    with pytest.raises(ModelError, match="first line must be"):
        parse_model("clocks c\n")
    with pytest.raises(ModelError, match="empty model"):
        parse_model("# nothing here\n")
    with pytest.raises(ModelError, match="locguard is only valid in gta"):
        parse_model("lbta M\nlocation q initial\ntrans q -> q locguard: q\n")
    with pytest.raises(ModelError, match="need a sync field"):
        parse_model("lbta M\nlocation q initial\ntrans q -> q\n")
    with pytest.raises(ModelError, match="undeclared broadcast 'go'"):
        parse_model("lbta M\nlocation q initial\ntrans q -> q sync: go!!\n")


def test_error_carries_position():
    try:
        parse_model("gta M\nclocks c\nlocation q initial inv: c >= 1\n")
    except ModelError as e:
        assert e.line == 3 and "line 3" in str(e)
    else:
        pytest.fail("expected ModelError")


def test_relabel_unique():
    a = parse_model(
        "gta M\nclocks c\nlocation q initial\n"
        "trans q -> q label: a\n"
        "trans q -> q label: a reset: c\n"
        "trans q -> q label: b\n"
        "trans q -> q\n"
    )
    out, mapping = relabel_unique(a)
    labels = [tr.label for tr in out.transitions]
    assert labels == ["a#1", "a#2", "b", "eps#1"]
    assert mapping == {"a#1": "a", "a#2": "a", "b": "b", "eps#1": None}
    assert len(set(labels)) == len(labels)


def relabel_is_injective(a):
    """relabel_unique gives every transition its own internal label, which
    the map sends back to the transition's label."""
    out, mapping = relabel_unique(a)
    internal = [tr.label for tr in out.transitions]
    return len(set(internal)) == len(internal) and \
        [mapping[label] for label in internal] == [tr.label for tr in a.transitions]


def test_relabel_unique_skips_user_labels():
    # a suffix that would make a user label is skipped, so no two
    # transitions share an internal label
    dup = parse_model("gta M\nclocks c\nlocation p initial\nlocation q\nlocation r\n"
                      "trans p -> q label: a\ntrans q -> r label: a\n"
                      "trans r -> p label: a#1\n")
    silent = parse_model("gta M\nclocks c\nlocation p initial\nlocation q\n"
                         "trans p -> q\ntrans q -> p label: eps#1\n")
    for a, want in ((dup, ["a#2", "a#3", "a#1"]), (silent, ["eps#2", "eps#1"])):
        assert [tr.label for tr in relabel_unique(a)[0].transitions] == want
        assert relabel_is_injective(a)
    last = check_label_reachable(dup, "a#1")["witness"][-2:]
    assert [step["loc"] for step in last] == ["r", "p"]
    assert (last[-1]["internal_label"], last[-1]["label"]) == ("a#1", "a#1")
    # random gTAs given a user label <base>#1, base a repeated label or eps
    collide = 0
    for seed in range(60):
        a = random_gta(seed)
        labels = [tr.label for tr in a.transitions]
        base = next(("eps" if label is None else label for label in labels
                     if label is None or labels.count(label) > 1), None)
        collide += base is not None
        a = replace(a, transitions=a.transitions + (
            Transition(a.initial, a.initial, f"{base or 'a'}#1", (), (), None),))
        assert relabel_is_injective(a), seed
    assert collide == 33


def test_duplicated_suffixed_labels_parse_again():
    # a duplicated user label that ends in #k takes the next free suffix of
    # its base, not a second suffix the parser would reject in the summary
    d = parse_model("gta D\nclocks c\nlocation p initial\nlocation q\n"
                    "trans p -> q label: a#1\ntrans q -> p label: a#1\n")
    assert relabel_unique(d)[1] == {"a#2": "a#1", "a#3": "a#1"}
    assert relabel_is_injective(d)
    summary = summary_automaton(apply_loopback(build_layers(d)))
    assert {tr.label for tr in summary.transitions} == {"a#2", "a#3", None}
    assert same_model(parse_model(pretty_model(summary)), summary)
    out = check_label_reachable(d, "a#1")
    assert out["result"] == "reachable" and out["witness"][-1]["label"] == "a#1"


def test_unguard_and_strips(fig1):
    s = strip_guarded(fig1)
    assert s.kind == "ta" and s.clocks == fig1.clocks
    assert len(s.transitions) == sum(
        1 for tr in fig1.transitions if tr.locguard is None
    )

    b = parse_model(LBTA_TEXT.replace("stop??", "go??"))
    r = strip_receives(b)
    assert [tr.label for tr in r.transitions] == ["a"]


def test_compute_bounds(fig1):
    assert compute_bounds(fig1) == {"c": 3}
    a = parse_model(
        "gta M\nclocks c, d\nlocation q initial\n"
        "trans q -> q guard: c <= d + 2\n"
    )
    assert compute_bounds(a) == {"c": 2, "d": 2}


def test_labels_sorted(fig1):
    assert fig1.labels() == sorted(set(fig1.labels()))
    assert "serr" in fig1.labels()


def test_validate_fig3_refuted(fig3):
    report = validate(fig3)
    assert report.timelock_free == "refuted"
    assert "Assumption 1 refuted at (q1, c=1)" in report.summary()


def test_validate_fig1_proved(fig1):
    report = validate(fig1)
    assert report.timelock_free == "proved"
    assert report.witness is None
    assert report.relabel_map["serr"] == "serr"


def test_validate_runs_the_explorer_only_where_the_lemma_declines(fig1, fig3,
                                                                  monkeypatch):
    from dtnmc import region_graph

    explorer, calls = region_graph.check_timelock_free, []

    def refuse(a, max_states=None):
        raise AssertionError("the region explorer ran")

    def counted(a, max_states=None):
        calls.append(a.name)
        return explorer(a, max_states)

    monkeypatch.setattr(region_graph, "check_timelock_free", refuse)
    assert validate(fig1).timelock_free == "proved"
    monkeypatch.setattr(region_graph, "check_timelock_free", counted)
    assert validate(fig3) == ValidationReport(
        "refuted", ("q1", "c=1"), {"eps#1": None, "eps#2": None, "eps#3": None},
        ["Assumption 1 does not hold; layer construction may under-approximate"])
    assert calls == ["fig3"]


def test_validate_lbta_orphan_receive():
    b = parse_model(LBTA_TEXT.replace("stop??", "go??") + "broadcasts stop\n")
    b2 = parse_model(pretty_model(b).replace("sync: go??", "sync: stop??", 1))
    report = validate(b2)
    assert any("no matching sender" in d for d in report.diagnostics)


def test_transition_keeps_the_dataclass_contract():
    tr = Transition("a", "b", "go", (Atom("c", ">=", None, 1),), ("c",), "b")
    assert_record_contract(
        tr, "Transition(src='a', dst='b', label='go', guard=(Atom(left='c', op='>=', "
            "right=None, d=1),), resets=('c',), locguard='b', sync=None)")
    assert tr._replace(locguard=None) == Transition("a", "b", "go", tr.guard, ("c",))


# the initial location's invariant fails at time 0, so neither model has a run
BAD_START = {
    "gta": "gta bad\nclocks c\nlocation p initial inv: c < 0\nlocation q\n"
           "trans p -> q label: go\n",
    "lbta": "lbta bad\nclocks c\nbroadcasts go\nlocation p initial inv: c < 0\n"
            "location q\ntrans p -> q label: go sync: go!!\n",
}


@pytest.mark.parametrize("kind", ["gta", "lbta"])
def test_initial_invariant_must_hold_at_time_zero(kind, tmp_path, capsys):
    from dtnmc.cli import main
    from dtnmc.oracle import explore_network

    text = BAD_START[kind]
    with pytest.raises(ModelError, match=r"initial location 'p' breaks its "
                                         r"invariant c<0 at time 0"):
        parse_model(text)
    # c <= 0 holds at 0; the same model built in the library is refused too
    fine = parse_model(text.replace("c < 0", "c <= 0"))
    bad = replace(fine, invariants={"p": (Atom("c", "<", None, 0),)})
    assert explore_network(fine, 2, slot_cap=1).states_explored > 1
    calls = [lambda: explore_network(bad, 2, slot_cap=1)]
    if kind == "gta":
        assert check_label_reachable(fine, "go")["result"] == "reachable"
        calls += [lambda: check_label_reachable(bad, "go"),
                  lambda: check_global(bad, "#q>=1"), lambda: validate(bad)]
    for call in calls:
        with pytest.raises(ModelError, match="breaks its invariant"):
            call()
    path = tmp_path / f"bad.{kind}"
    path.write_text(text)
    for argv in (["validate", str(path)], ["oracle", str(path), "-n", "2"]):
        assert main(argv) == 2
        assert "breaks its invariant c<0 at time 0" in capsys.readouterr().err
