#!/usr/bin/env python3
"""Walkthrough: the news feed model (models/fig1.gta).

A writer posts, readers react before a deadline, and `serr` fires only when
a reader catches a stale `done`. No fixed network size exhibits every
behaviour, so we ask the parameterized checker first and then replay its
answer concretely with three processes.
"""

from dataclasses import replace
from pathlib import Path

from dtnmc import check_label_reachable, parse_file, validate
from dtnmc.model import Atom
from dtnmc.oracle import concretize, simulate_trace, witness_region_path

ROOT = Path(__file__).resolve().parent.parent
a = parse_file(ROOT / "models" / "fig1.gta")

print("== the model ==")
print(validate(a).summary())

print()
print("== can any reader ever reach `error`? ==")
verdict = check_label_reachable(a, "serr")
print(f"serr is {verdict['result']} "
      f"(layers built: {verdict['layers_built']}, "
      f"states: {verdict['states_total']})")

print()
print("== a concrete run with three processes ==")
steps = witness_region_path(a, 3, "serr", slot_cap=2)
trace = concretize(a, 3, steps)
now = 0
for entry in trace:
    now += entry["delay"]
    print(f"  t={now}: process {entry['process']} fires {entry['label']}")
final_time, final_locs = simulate_trace(a, 3, trace)[-1]
print(f"  final configuration at t={final_time}: {', '.join(final_locs)}")

print()
print("== slowing the system down ==")
# a guard c >= 3 on listen->post and reading->error starves the error
late = Atom("c", ">=", None, 3)
slowed = replace(a, transitions=tuple(
    tr._replace(guard=tr.guard + (late,))
    if (tr.src, tr.dst) in (("listen", "post"), ("reading", "error")) else tr
    for tr in a.transitions))
print("with guard c>=3 on listen->post and reading->error:",
      check_label_reachable(slowed, "serr")["result"])

# without deadlines on post and done a witness can wait forever
relaxed = replace(slowed, invariants={
    q: inv for q, inv in slowed.invariants.items() if q not in ("post", "done")})
print("same guards, but no invariants on post and done:",
      check_label_reachable(relaxed, "serr")["result"])
