"""Choose the benchmark's query sets and pin their expected outcomes.

    python3 perfbench/pin.py          # rewrites perfbench/expected.json

Run it once per change to the query sets, never to make a failing run pass:
a run fails when the checker's verdicts or counts move away from the pins.

Before writing, the script cross-checks the engines against the brute-force
oracle at network sizes n <= 3 and fails on any disagreement:
  - every label the oracle fires is reported reachable by the local engine,
    and the dra and streaming modes agree on every label;
  - every `#q>=1 && #q'==0` constraint the oracle satisfies is reported
    reachable by the global engine;
  - the ROADMAP anchors hold: fig1 `serr` in 5 layers and 64 states, the
    unreachable fig3 constraint in 7 layers and 4477 supports, and 18702
    states for fig1 at n=3 with slot cap 2.
It also asks every query under two spellings and requires equal outcomes,
and records each query's reference time: the median of three timings of the
frozen copy in `dtnmc_ref`, which weighs the query in the run's metrics.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import workloads as W
from dtnmc import check_global, check_label_reachable, model
from dtnmc.dtn_global import build_global_layers
from dtnmc.oracle import eval_constraint_on_locs, explore_network

LOCAL_MODELS = 100  # random seeds 0..99, 2-3 clocks, constants up to 4
LOCAL_BUDGET = 20_000  # states per local query
GLOBAL_BUDGET = 5_000  # supports per global query
GLOBAL_SEEDS = 120  # random one-clock seeds scanned for global queries
HITS = 200  # early-hit constraint queries: over 90% of the set, so p90 is theirs
HIT_SUPPORTS = 300  # an early hit stops within this many supports
BLOWUPS = (5, 18, 20, 28)  # seeds the ROADMAP reports as global blow-ups
BLOWUP_BUDGET = 2_000  # supports before a blow-up query stops
ORACLE_SEEDS = 16  # random one-clock seeds 0..15, as gta and as lbta
ORACLE_BUDGET = 1_000  # product states per random oracle query
FIG_BUDGET = 20_000  # product states per fig1/fig3 oracle query
REF_TIMINGS = 3


def canonical(spec) -> model.Automaton:
    return model.parse_model(W.model_text(spec))


def local_random():
    models = {"fig1": {"gen": ["fig1"]}}
    for s in range(LOCAL_MODELS):
        models[f"r{s}"] = {"gen": ["random", s, 2 + s % 2, 6, 12, 4]}
    queries = []
    for mid, spec in models.items():
        queries.append({"id": f"{mid}/build", "kind": "build", "model": mid,
                        "args": {"max_states": LOCAL_BUDGET}})
        for label in canonical(spec["gen"]).labels():
            for streaming in (False, True):
                mode = "streaming" if streaming else "dra"
                queries.append({"id": f"{mid}/{label}/{mode}", "kind": "label",
                                "model": mid,
                                "args": {"label": label, "streaming": streaming,
                                         "max_states": LOCAL_BUDGET}})
    return {"models": models, "queries": queries}


def _pairs(a):
    return [(q, q2) for q in a.locations for q2 in a.locations if q != q2]


def global_random():
    models = {"fig3": {"gen": ["fig3"]}}
    queries = [
        {"id": "fig3/unreachable", "kind": "constraint", "model": "fig3",
         "args": {"atoms": [["some", "q1"], ["some", "init"], ["none", "q1"]],
                  "max_states": GLOBAL_BUDGET}},
        {"id": "fig3/reachable", "kind": "constraint", "model": "fig3",
         "args": {"atoms": [["some", "q1"], ["none", "init"]],
                  "max_states": GLOBAL_BUDGET}},
    ]
    hits = 0
    for s in range(GLOBAL_SEEDS):
        spec = ["random", s, 1, 4, 6, 3]
        a, mid = canonical(spec), f"r{s}"
        used = False
        try:
            g = build_global_layers(a, max_states=GLOBAL_BUDGET)
            if g.supports_total >= 50:
                queries.append({"id": f"{mid}/fixpoint", "kind": "fixpoint",
                                "model": mid, "args": {"max_states": GLOBAL_BUDGET}})
                used = True
        except model.BudgetExceeded:
            if s in BLOWUPS:
                queries.append({"id": f"{mid}/blowup", "kind": "fixpoint",
                                "model": mid, "args": {"max_states": BLOWUP_BUDGET}})
                used = True
        for q, q2 in _pairs(a):
            if hits >= HITS:
                break
            try:
                r = check_global(a, f"#{q}>=1 && #{q2}==0", max_states=HIT_SUPPORTS)
            except model.BudgetExceeded:
                continue
            if r["result"] == "reachable":
                queries.append({"id": f"{mid}/{q}/not-{q2}", "kind": "constraint",
                                "model": mid,
                                "args": {"atoms": [["some", q], ["none", q2]],
                                         "max_states": GLOBAL_BUDGET}})
                hits += 1
                used = True
        if used:
            models[mid] = {"gen": spec}
    return {"models": models, "queries": queries}


def oracle_fixed_n():
    models = {"fig3": {"gen": ["fig3"]}, "fig1": {"gen": ["fig1"]}}
    queries = []
    # fig1 at n=3 runs with slot cap 1 (3724 states, about 2 s): at slot cap 2
    # (18702 states, the ROADMAP anchor, checked below) one call takes 8-10 s,
    # too few samples per run to see through the host's drift.
    for mid, cap in (("fig3", 4), ("fig1", 1)):
        for n in (1, 2, 3):
            queries.append({"id": f"{mid}/n{n}", "kind": "explore", "model": mid,
                            "args": {"lbta": False, "n": n, "slot_cap": cap,
                                     "max_states": FIG_BUDGET}})
    queries.append({"id": "fig1/witness-serr", "kind": "witness", "model": "fig1",
                    "args": {"n": 3, "label": "serr", "slot_cap": 2,
                             "max_states": 10 ** 6}})
    for s in range(ORACLE_SEEDS):
        mid = f"r{s}"
        models[mid] = {"gen": ["random", s, 1, 4, 6, 2], "lbta": True}
        for lbta in (False, True):
            for n in (1, 2, 3):
                kind = "lbta" if lbta else "gta"
                queries.append({"id": f"{mid}/{kind}/n{n}", "kind": "explore",
                                "model": mid,
                                "args": {"lbta": lbta, "n": n, "slot_cap": 4,
                                         "max_states": ORACLE_BUDGET}})
    return {"models": models, "queries": queries}


# -- cross-checks ----------------------------------------------------------------


def check_labels(a, mid, fired, verdicts):
    """Oracle-fired labels are engine-reachable; dra and streaming agree."""
    for label in a.labels():
        dra, streaming = verdicts.get((mid, label, False)), verdicts.get((mid, label, True))
        if dra is None:
            dra = check_label_reachable(a, label, max_states=LOCAL_BUDGET)["result"]
            streaming = check_label_reachable(a, label, streaming=True,
                                              max_states=LOCAL_BUDGET)["result"]
        if dra != streaming:
            sys.exit(f"{mid} {label}: dra {dra} but streaming {streaming}")
        if label in fired and dra != "reachable":
            sys.exit(f"{mid} {label}: the oracle fires it, the engine says {dra}")


def anchor(what, got: dict, want: dict):
    """Fail unless a ROADMAP anchor reproduces."""
    if any(got.get(k) != v for k, v in want.items()):
        sys.exit(f"{what}: {got} does not reproduce the anchor {want}")


def cross_check(name, wl, outcomes):
    by_id = {q["id"]: q for q in wl["queries"]}
    if name == "local-random":
        verdicts = {}
        for qid, out in outcomes.items():
            q = by_id[qid]
            if q["kind"] == "label":
                verdicts[(q["model"], q["args"]["label"], q["args"]["streaming"])] = \
                    out["result"]
        for mid, spec in wl["models"].items():
            a = canonical(spec["gen"])
            fired = set()
            for n in (1, 2, 3):
                fired |= explore_network(a, n, slot_cap=2, max_states=600).labels
            check_labels(a, mid, fired, verdicts)
        anchor("fig1 serr", outcomes["fig1/serr/dra"],
               {"result": "reachable", "layers_built": 5, "states_total": 64})
    elif name == "global-random":
        for mid, spec in wl["models"].items():
            a = canonical(spec["gen"])
            explored = [explore_network(a, n, slot_cap=3, max_states=5_000)
                        for n in (1, 2, 3)]
            for q, q2 in _pairs(a):
                text = f"#{q}>=1 && #{q2}==0"
                if not any(eval_constraint_on_locs(a, text, r) for r in explored):
                    continue
                try:
                    verdict = check_global(a, text, max_states=GLOBAL_BUDGET)["result"]
                except model.BudgetExceeded:
                    print(f"{mid} {text}: the oracle satisfies it, the engine "
                          "runs out of budget", flush=True)
                    continue
                if verdict != "reachable":
                    sys.exit(f"{mid} {text}: the oracle satisfies it, "
                             f"the engine says {verdict}")
            if mid == "fig3":
                text = "#q1>=1 && #init>=1 && #q1==0"
                if any(eval_constraint_on_locs(a, text, r) for r in explored):
                    sys.exit(f"fig3 {text}: the oracle satisfies it")
        anchor("fig3 unreachable", outcomes["fig3/unreachable"],
               {"result": "unreachable", "layers_built": 7, "supports_total": 4477})
    else:
        for mid, spec in wl["models"].items():
            a = canonical(spec["gen"])
            fired = set()
            for qid, out in outcomes.items():
                q = by_id[qid]
                if q["model"] == mid and q["kind"] == "explore" and not q["args"]["lbta"]:
                    fired |= set(out["labels"])
            check_labels(a, mid, fired, {})
        fig1 = explore_network(canonical(["fig1"]), 3, slot_cap=2)
        anchor("fig1 n=3 slot cap 2", vars(fig1),
               {"exhausted": False, "states_explored": 18702})


def pin(name, wl):
    for spec in wl["models"].values():
        spec["timelock"] = model.validate(canonical(spec["gen"])).timelock_free
    outcomes = {}
    for seed in ("pin-a", "pin-b"):
        models = W.setup(W.CURRENT, wl["models"], seed)
        for q in wl["queries"]:
            out = W.ask(W.CURRENT, q, models)
            if outcomes.setdefault(q["id"], out) != out:
                sys.exit(f"{q['id']}: outcome depends on spelling: "
                         f"{outcomes[q['id']]} vs {out}")
    cross_check(name, wl, outcomes)
    times, setups = {}, []
    for i in range(REF_TIMINGS):
        t = time.perf_counter()
        models = W.setup(W.REFERENCE, wl["models"], f"pin-ref-{i}")
        setups.append(time.perf_counter() - t)
        for q in wl["queries"]:
            t = time.perf_counter()
            if W.ask(W.REFERENCE, q, models) != outcomes[q["id"]]:
                sys.exit(f"{q['id']}: the reference copy disagrees")
            times.setdefault(q["id"], []).append(time.perf_counter() - t)
    wl["ref_setup_ms"] = round(statistics.median(setups) * 1e3, 4)
    for q in wl["queries"]:
        q["expect"] = outcomes[q["id"]]
        q["ref_ms"] = round(statistics.median(times[q["id"]]) * 1e3, 4)
    undecided = sum(o["result"] == "undecided" for o in outcomes.values())
    print(f"{name}: {len(wl['models'])} models, {len(wl['queries'])} queries, "
          f"{undecided} undecided", flush=True)
    return wl


def main():
    pinned = {
        "local-random": pin("local-random", local_random()),
        "global-random": pin("global-random", global_random()),
        "oracle-fixed-n": pin("oracle-fixed-n", oracle_fixed_n()),
    }
    with open(W.EXPECTED, "w", encoding="utf-8") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
