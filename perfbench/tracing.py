"""Timing and counting wrappers for the benchmark's traced run.

`Tracer.install` replaces the listed public functions of the dtnmc modules,
in every module that holds a reference to them (`immediate_time_successor`
is imported by name into `dtn_local` and `dtn_global`), and the listed
`Region` methods; `Tracer.remove` puts the originals back.

Three kinds of wrapper:
  SPAN  times the call and records a span (name, parent span, query, start,
        end, self time) in memory; for functions called a few times per query;
  TIME  times the call and adds it to per-function totals, without a span;
  COUNT only counts calls: its time stays in the caller's self time.
A call's self time is its duration minus that of the wrapped calls inside it.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict

from dtnmc import dtn_global, dtn_local, lbta_bridge, model, oracle, region_graph
from dtnmc.regions import Region

SPAN, TIME, COUNT = "span", "time", "count"

MODULES = ("model", "regions", "region_graph", "dtn_local", "dtn_global", "oracle",
           "lbta_bridge")

# (module, function, wrapper, outcome count of a result or None)
FUNCTIONS = (
    (model, "parse_model", SPAN, None),
    (model, "validate", SPAN, None),
    (lbta_bridge, "gta_to_lbta", SPAN, None),
    (region_graph, "check_timelock_free", SPAN, None),
    (region_graph, "immediate_time_successor", TIME, None),
    (dtn_local, "build_layers", SPAN, None),
    (dtn_local, "apply_loopback", SPAN, None),
    (dtn_local, "summary_automaton", SPAN, None),
    (dtn_local, "check_label_reachable", SPAN, None),
    (dtn_global, "check_global", SPAN, None),
    (dtn_global, "build_global_layers", SPAN, None),
    (dtn_global, "rule1_steps", TIME, len),
    (dtn_global, "rule2_steps", TIME, len),
    (dtn_global, "boundary_support", TIME, lambda r: r is not None),
    (dtn_global, "support_key", TIME, None),
    (oracle, "explore_network", SPAN, None),
    (oracle, "witness_region_path", SPAN, None),
    (oracle, "concretize", SPAN, None),
    (oracle, "simulate_trace", SPAN, None),
)

# Region methods run hundreds of thousands of times per query; the cheap ones
# are only counted so that tracing does not swamp the layers above them.
METHODS = (
    ("key", TIME),
    ("rename", TIME),
    ("reset", COUNT),
    ("satisfies", COUNT),
    ("delay_successor", COUNT),
)


class Tracer:
    def __init__(self):
        self.query = None  # id of the query being asked, stamped on spans
        self.spans = []  # (id, parent id, name, query, start, end, self)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)  # outermost calls only, per function
        self.self_time = defaultdict(float)
        self.outcomes = defaultdict(int)
        self.module_self = defaultdict(float)
        self.module_incl = defaultdict(float)  # outermost calls, per module
        self._stack = []  # open calls: [child time, span id]
        self._active = defaultdict(int)  # open calls per function and module
        self._ids = itertools.count()
        self._undo = []

    def _timed(self, name, module, fn, span, outcome):
        clock = time.perf_counter
        stack, active = self._stack, self._active

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            sid = next(self._ids) if span else parent
            frame = [0.0, sid]
            stack.append(frame)
            active[name] += 1
            active[module] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                active[name] -= 1
                active[module] -= 1
                self.calls[name] += 1
                self.self_time[name] += own
                self.module_self[module] += own
                if not active[name]:
                    self.total[name] += dur
                if not active[module]:
                    self.module_incl[module] += dur
                if span:
                    self.spans.append((sid, parent, name, self.query, start, end, own))
            if outcome is not None:
                self.outcomes[name] += outcome(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        holders = [m for n, m in sys.modules.items()
                   if n == "dtnmc" or n.startswith("dtnmc.")]
        for mod, fname, kind, outcome in FUNCTIONS:
            orig = getattr(mod, fname)
            module = mod.__name__.rsplit(".", 1)[-1]
            wrapped = self._timed(fname, module, orig, kind == SPAN, outcome)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        self._undo.append((holder, attr, orig))
                        setattr(holder, attr, wrapped)
        for meth, kind in METHODS:
            orig = Region.__dict__[meth]
            name = f"Region.{meth}"
            if kind == COUNT:
                wrapped = self._counted(name, orig)
            else:
                wrapped = self._timed(name, "regions", orig, False, None)
            self._undo.append((Region, meth, orig))
            setattr(Region, meth, wrapped)

    def remove(self) -> None:
        while self._undo:
            holder, attr, orig = self._undo.pop()
            setattr(holder, attr, orig)

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "query", "start", "end", "self")
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")
