"""Model checking for networks of timed automata with location guards.

The main entry points answer reachability questions for one process in a
network of arbitrary size (`check_label_reachable`) and for counting
constraints over the whole network (`check_global`); `oracle` explores
fixed-size networks concretely for cross-checking.
"""

from .model import (
    Atom,
    Automaton,
    BudgetExceeded,
    ModelError,
    Transition,
    parse_file,
    parse_model,
    pretty_model,
    relabel_unique,
    unguard,
    validate,
)
from .dtn_local import (
    build_layers,
    apply_loopback,
    check_label_reachable,
    k_product,
    reachable_labels,
    summary_automaton,
)
from .dtn_global import (check_global, find_guard_timelock, parse_constraint,
                         reachable_location_sets)
from .lbta_bridge import gta_to_lbta, lbta_to_gta
from .oracle import explore_network

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Automaton",
    "BudgetExceeded",
    "ModelError",
    "Transition",
    "apply_loopback",
    "build_layers",
    "check_global",
    "check_label_reachable",
    "explore_network",
    "find_guard_timelock",
    "gta_to_lbta",
    "k_product",
    "lbta_to_gta",
    "parse_constraint",
    "parse_file",
    "parse_model",
    "pretty_model",
    "reachable_labels",
    "reachable_location_sets",
    "relabel_unique",
    "summary_automaton",
    "unguard",
    "validate",
]
