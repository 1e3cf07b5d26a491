"""How the benchmark sets up its models and asks its queries.

A workload is the pinned record in `expected.json`: the model specs, and
for every query its kind, arguments, budget, expected outcome and reference
time.  Each pass respells every model from the run's seed (see
`gen.respell`), parses and validates the text, and then asks every query
once, in a seeded order.

An engine is one copy of the checker's modules: `CURRENT` is `src/dtnmc`,
`REFERENCE` the frozen copy in `dtnmc_ref`.  Queries call through module
attributes (`eng.dtn_local.build_layers`, not a name bound at import), so
the traced run's wrappers see every call.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402

EXPECTED = HERE / "expected.json"
MODULES = ("model", "dtn_local", "dtn_global", "lbta_bridge", "oracle")


def engine(package: str) -> SimpleNamespace:
    return SimpleNamespace(**{m: importlib.import_module(f"{package}.{m}")
                              for m in MODULES})


CURRENT = engine("dtnmc")
REFERENCE = engine("dtnmc_ref")


class SetupError(Exception):
    """A generated model failed to parse or validate as pinned."""


@dataclass
class Model:
    gta: object  # the engine's Automaton
    lbta: Optional[object]  # gta_to_lbta(gta), when a query needs it
    names: dict  # canonical identifier -> respelled identifier


def load(workload: str) -> dict:
    with open(EXPECTED, encoding="utf-8") as f:
        return json.load(f)[workload]


def model_text(spec) -> str:
    if spec[0] == "fig1":
        return gen.FIG1
    if spec[0] == "fig3":
        return gen.FIG3
    _, seed, clocks, max_locs, max_trans, max_const = spec
    return gen.random_gta_text(seed, clocks, max_locs, max_trans, max_const)


def setup(eng, models: dict, seed: str) -> dict:
    """Generate, respell, parse and validate every model of a workload."""
    out = {}
    for mid, spec in models.items():
        text, names = gen.respell(model_text(spec["gen"]), f"{seed}/{mid}")
        a = eng.model.parse_model(text)
        verdict = eng.model.validate(a).timelock_free
        if verdict != spec["timelock"]:
            raise SetupError(f"model {mid}: timelock-freedom {verdict}, "
                             f"pinned {spec['timelock']}")
        b = eng.lbta_bridge.gta_to_lbta(a) if spec.get("lbta") else None
        out[mid] = Model(a, b, names)
    return out


def order(queries: list, seed: str) -> list:
    """The queries in the order one pass asks them."""
    out = list(queries)
    random.Random(seed).shuffle(out)
    return out


def _constraint(atoms, names) -> str:
    return " && ".join(
        f"#{names[q]}>=1" if op == "some" else f"#{names[q]}==0" for op, q in atoms
    )


def _counts(r: dict, total: str) -> dict:
    return {"result": r["result"], total: r[total], "layers_built": r["layers_built"],
            "i0": r["i0"], "l0": r["l0"], "shift": r["shift"]}


def ask(eng, q: dict, models: dict) -> dict:
    """Ask one query; the outcome uses canonical names, so it compares to the pin.

    A budget overrun is the outcome {"result": "undecided"}.
    """
    m = models[q["model"]]
    args = q["args"]
    kind = q["kind"]
    try:
        if kind == "build":
            b = eng.dtn_local.build_layers(m.gta, max_states=args["max_states"])
            s = eng.dtn_local.summary_automaton(eng.dtn_local.apply_loopback(b))
            return {"result": "built", "states_total": b.states_total,
                    "layers_built": len(b.layers), "i0": b.i0, "l0": b.l0,
                    "shift": b.shift, "summary_locations": len(s.locations),
                    "summary_transitions": len(s.transitions)}
        if kind == "label":
            r = eng.dtn_local.check_label_reachable(
                m.gta, m.names[args["label"]], streaming=args["streaming"],
                max_states=args["max_states"])
            return _counts(r, "states_total")
        if kind == "constraint":
            r = eng.dtn_global.check_global(m.gta, _constraint(args["atoms"], m.names),
                                        max_states=args["max_states"])
            return _counts(r, "supports_total")
        if kind == "fixpoint":
            g = eng.dtn_global.build_global_layers(m.gta, max_states=args["max_states"])
            return {"result": "built", "supports_total": g.supports_total,
                    "layers_built": len(g.layers), "i0": g.i0, "l0": g.l0,
                    "shift": g.shift}
        if kind == "explore":
            a = m.lbta if args["lbta"] else m.gta
            r = eng.oracle.explore_network(a, args["n"], slot_cap=args["slot_cap"],
                                       max_states=args["max_states"])
            canonical = {v: k for k, v in m.names.items()}
            return {"result": "undecided" if r.exhausted else "explored",
                    "states_explored": r.states_explored,
                    "labels": sorted(canonical[x] for x in r.labels),
                    "loc_sets": len(r.loc_sets)}
        if kind == "witness":
            n, label = args["n"], m.names[args["label"]]
            steps = eng.oracle.witness_region_path(m.gta, n, label,
                                               slot_cap=args["slot_cap"],
                                               max_states=args["max_states"])
            if steps is None:
                return {"result": "undecided"}
            trace = eng.oracle.concretize(m.gta, n, steps)
            snaps = eng.oracle.simulate_trace(m.gta, n, trace)
            return {"result": "replayed", "steps": len(steps), "trace": len(trace),
                    "time": str(snaps[-1][0])}
    except eng.model.BudgetExceeded:
        return {"result": "undecided"}
    raise ValueError(f"unknown query kind {kind!r}")

