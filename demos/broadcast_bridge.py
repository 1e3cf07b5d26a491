#!/usr/bin/env python3
"""Walkthrough: location guards versus lossy broadcast.

A location guard ("someone else is at q") and a lossy broadcast ("a sender
fires q!!, any subset of listeners follows q??") express the same kind of
coordination. The bridge rewrites one into the other; reachable label sets
survive the round trip.
"""

from pathlib import Path

from dtnmc import gta_to_lbta, lbta_to_gta, parse_file, pretty_model
from dtnmc.dtn_local import reachable_labels
from dtnmc.oracle import explore_network

ROOT = Path(__file__).resolve().parent.parent
a = parse_file(ROOT / "models" / "fig1.gta")

print("== guards to broadcasts ==")
b = gta_to_lbta(a)
print(pretty_model(b))

print("== three processes, both semantics ==")
user = lambda labels: sorted(l for l in labels if l)
print("gTA fires: ", ", ".join(user(explore_network(a, 3, slot_cap=2).labels)))
print("LBTA fires:", ", ".join(user(explore_network(b, 3, slot_cap=2).labels)))

print()
print("== and back again ==")
back = lbta_to_gta(b)
trimmed = {l.split("#", 1)[0] for l in reachable_labels(back)
           if not l.startswith("eps#")}
print("round trip keeps the user labels:",
      ", ".join(sorted(trimmed)))
print("round trip matches the original:",
      trimmed == set(reachable_labels(a)))
