#!/usr/bin/env python3
"""Walkthrough: the ping-pong model (models/fig3.gta).

Two locations, one clock. The invariant on q1 forces a move that only a
witness at init allows, so the guard-stripped automaton has a timelock.
The global layers tell us whether the bad configuration (everyone at q1,
nobody left at init) is actually reachable in some network.
"""

from pathlib import Path

from dtnmc import check_global, find_guard_timelock, parse_file, validate
from dtnmc.dtn_global import build_global_layers
from dtnmc.dtn_local import build_layers
from dtnmc.oracle import eval_constraint_on_locs, explore_network

ROOT = Path(__file__).resolve().parent.parent
a = parse_file(ROOT / "models" / "fig3.gta")

print("== validation ==")
print(validate(a).summary())

print()
print("== per-process layers ==")
build = build_layers(a)
for layer in build.layers:
    print(f"  W{layer.number} slot {layer.slot}: {len(layer.ids)} region states")
print(f"  loops back from layer {build.l0 - 1} to layer {build.i0}")

print()
print("== can every process gather at q1? ==")
query = "#q1>=1 && #init==0"
rep = check_global(a, query)
print(f"{query}: {rep['result']} (layer {rep.get('layer')})")
print("supporting configuration:",
      ", ".join(f"{m['loc']} with {m['region']}" for m in rep["support"]))

oracle = explore_network(a, 2, slot_cap=3)
print("two-process brute force agrees:",
      eval_constraint_on_locs(a, query, oracle))

print()
print("== where the guards stop helping ==")
hit = find_guard_timelock(a)
if hit["found"]:
    members = ", ".join(f"({m['loc']}, {m['region']})" for m in hit["support"])
    print(f"layer {hit['layer']} holds a support whose time cannot advance:")
    print(f"  {members}")
else:
    print("every reachable support can let time diverge")

print()
print("== global layer growth ==")
g = build_global_layers(a)
print("supports per layer:", [layer.count for layer in g.layers])
