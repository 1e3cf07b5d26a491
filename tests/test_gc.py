"""The engines leave no cyclic garbage, and `regions.nogc` keeps the caller's
collector state.

`nogc` pauses the cyclic collector in the loops that build the engines'
records.  That is only safe while every object a library call allocates goes
by reference counting alone, so the first test runs a representative set of
calls with the collector off and asks it for garbage afterwards.  The CLI is
left out: argparse parsers are reference cycles of their own.
"""

import gc

import pytest

from conftest import MODELS, random_gta
from dtnmc import dtn_local, oracle, region_graph
from dtnmc.dtn_global import (build_global_layers, check_global,
                              find_guard_timelock, parse_constraint,
                              reachable_location_sets)
from dtnmc.dtn_local import (apply_loopback, build_layers, check_label_reachable,
                             dra_to_dot, reachable_labels, summary_automaton)
from dtnmc.lbta_bridge import gta_to_lbta, lbta_to_gta
from dtnmc.model import BudgetExceeded, parse_file, strip_guarded, validate
from dtnmc.oracle import (concretize, explore_network, simulate_trace,
                          witness_region_path)
from dtnmc.region_graph import check_timelock_free

FIG3_UNREACHABLE = "#q1>=1 && #init>=1 && #q1==0"


def _budgeted(call, *args, **kwargs):
    """call(...), or "budget" when it raises BudgetExceeded."""
    try:
        return call(*args, **kwargs)
    except BudgetExceeded:
        return "budget"


def _library_calls(a, outcomes):
    """The representative calls on `a`; each result is dropped at once, and
    the global verdicts are noted in `outcomes`."""
    validate(a)
    dra = apply_loopback(build_layers(a))
    summary_automaton(dra)
    dra_to_dot(dra)
    labels = sorted(reachable_labels(a))
    for label in labels:
        for streaming in (False, True):
            check_label_reachable(a, label, streaming=streaming)
    queries = [f"#{q}>=1 && #{a.initial}==0" for q in a.locations]
    if a.name == "fig3":
        queries.append(FIG3_UNREACHABLE)
    for text in queries:
        for streaming in (False, True):
            out = _budgeted(check_global, a, text, streaming, max_states=3_000)
            outcomes.add(out if out == "budget" else out["result"])
    _budgeted(build_global_layers, a, max_states=3_000)
    _budgeted(reachable_location_sets, a, max_states=3_000)
    _budgeted(find_guard_timelock, a, max_states=3_000)
    res = explore_network(a, 2, slot_cap=2)
    assert res.loc_sets and res.supports
    explore_network(a, 2, slot_cap=2, target=parse_constraint(queries[0]))
    for label in labels[:2]:
        steps = witness_region_path(a, 2, label, slot_cap=2)
        if steps is not None:
            simulate_trace(a, 2, concretize(a, 2, steps))
    b = gta_to_lbta(a)
    explore_network(b, 2, slot_cap=1)
    lbta_to_gta(b)


def test_engines_leave_no_cyclic_garbage():
    outcomes = set()
    gc.collect()
    gc.disable()
    try:
        for a in [parse_file(MODELS / "fig1.gta"), parse_file(MODELS / "fig3.gta")] \
                + [random_gta(seed) for seed in (1, 3, 13)]:
            _library_calls(a, outcomes)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert outcomes == {"reachable", "unreachable", "budget"}
    assert garbage == 0


def test_lemma_decided_validate_leaves_no_cyclic_garbage(monkeypatch):
    # the location-graph lemma decides fig1 and random_gta's models, so the
    # region explorer, which pauses the collector, must not run
    def refuse(a, max_states=None):
        raise AssertionError("the region explorer ran")

    models = [parse_file(MODELS / "fig1.gta")] + [random_gta(s) for s in (1, 3)]
    monkeypatch.setattr(region_graph, "check_timelock_free", refuse)
    try:
        for enabled in (True, False):
            gc.collect()
            (gc.enable if enabled else gc.disable)()
            for a in models:
                assert validate(a).timelock_free == "proved"
            assert gc.isenabled() == enabled
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_paused_calls_keep_the_callers_collector_state(monkeypatch):
    inside = []  # gc.isenabled() at each step the paused loops compute

    def spy(module, name):
        step = getattr(module, name)

        def spied(*args):
            inside.append(gc.isenabled())
            return step(*args)
        monkeypatch.setattr(module, name, spied)

    # a fresh model's tables are empty, so every loop computes its steps
    spy(region_graph, "immediate_time_successor")  # build and timelock check
    spy(dtn_local, "region_to_atoms")  # summary_automaton
    spy(oracle, "_region")  # explore_network
    calls = [  # (call on a fresh fig3, raises BudgetExceeded)
        (lambda a: summary_automaton(apply_loopback(build_layers(a))), False),
        (lambda a: check_global(a, FIG3_UNREACHABLE, max_states=100), True),
        (lambda a: check_timelock_free(strip_guarded(a)), False),
        (lambda a: check_timelock_free(strip_guarded(a), max_states=3), True),
        (lambda a: explore_network(a, 2, slot_cap=2), False),
        (lambda a: explore_network(a, 2, target=parse_constraint("#q1>=1")), False),
    ]
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for call, raises in calls:
                inside.clear()
                if raises:
                    with pytest.raises(BudgetExceeded):
                        call(parse_file(MODELS / "fig3.gta"))
                else:
                    call(parse_file(MODELS / "fig3.gta"))
                assert inside and not any(inside)
                assert gc.isenabled() is enabled
    finally:
        gc.enable()
