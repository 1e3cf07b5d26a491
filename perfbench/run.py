"""Run one dtnmc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload local-random --seed 1 --seconds 40 --trace 0

One client in one thread asks the workload's pinned queries in a closed
loop: each query starts when the previous one has returned.  A pass sets up
fresh respelled models from the seed and asks every query once.

An untraced run (`--trace 0`) makes one warm-up pass of the current code,
which also gives the peak memory, then makes reference passes until the next
one would end after `--seconds` (at least one).  A reference pass runs every
set-up and query twice, on the current code and on the frozen copy in
`dtnmc_ref`, back to back, in an order that alternates from query to query
and from pass to pass.  A query's latency is its pinned reference time times
the geometric mean of its current-to-reference time ratios, so the host's
speed drift cancels out (see README.md).

A traced run (`--trace 1`) makes one plain pass, then one pass with the
tracing wrappers installed, whatever `--seconds` says, so its counts cover
exactly one pass.

Every outcome is compared with its pin in `expected.json`; a crash or a
difference is a failed query and makes the exit code 1.  Every metric is
printed by name with its unit, and the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_SECONDS = 0.25  # an untraced pass sets up at least once and this long
SHORT_MS, SHORT_REPEATS = 3.0, 3  # reference passes ask short queries 3 times


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("local-random", "global-random", "oracle-fixed-n"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Pass:
    """One pass: set-ups, then every query once.

    `rows` holds (query, outcome, seconds on the current code, seconds on the
    reference copy or None); `setups` holds (current, reference or None).
    """

    def __init__(self, W, wl, seed, number, reference=False, tracer=None):
        clock = time.perf_counter
        t0 = clock()
        seed = f"{seed}/{number}"

        def timed(i, fn):
            """Run fn on the current code and, if asked, on the reference copy.

            Which runs first alternates with i and flips from one pass to the
            next, so that neither copy is favoured by running second.
            """
            order = [0, 1] if reference else [0]
            if (i + number) % 2:
                order.reverse()
            out = [(None, None), (None, None)]
            for k in order:
                t = clock()
                out[k] = (fn((W.CURRENT, W.REFERENCE)[k]), clock() - t)
            return out

        self.setups = []
        # one set-up when traced, so the traced counts cover exactly one pass
        while not self.setups or (tracer is None and
                                  sum(c for c, _ in self.setups) < SETUP_SECONDS):
            k = len(self.setups)
            (models, cur), (ref_models, ref) = timed(
                k, lambda eng: W.setup(eng, wl["models"], f"{seed}/{k}"))
            self.setups.append((cur, ref))
        self.rows = []
        self.failures = []
        start = clock()
        index = {q["id"]: i for i, q in enumerate(wl["queries"])}
        for q in W.order(wl["queries"], seed):
            if tracer is not None:
                tracer.query = q["id"]

            def ask(eng):
                try:
                    return W.ask(eng, q, models if eng is W.CURRENT else ref_models)
                except Exception as e:  # a crash is a failed query, not a stop
                    return {"result": f"crash: {type(e).__name__}: {e}"}

            # short queries are timed more often: a burst of the host
            # weighs most on them
            reps = SHORT_REPEATS if reference and q["ref_ms"] < SHORT_MS else 1
            for rep in range(reps):
                (out, cur), (ref_out, ref) = timed(index[q["id"]] + rep, ask)
                self.rows.append((q, out, cur, ref))
                for got in (out, ref_out) if reference else (out,):
                    if got != q["expect"]:
                        self.failures.append((q["id"], got, q["expect"]))
                        break
        self.wall_s = clock() - start
        self.total_s = clock() - t0

    def seconds(self, pred) -> float:
        return sum(cur for q, _, cur, _ in self.rows if pred(q))


def _percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _ratio_of_pairs(pairs) -> float:
    """Geometric mean of current over reference time across back-to-back pairs."""
    return math.exp(statistics.fmean(math.log(c / r) for c, r in pairs))


def end_to_end(wl, warm, passes, peak_rss):
    """Reference-weighted latencies: ref_ms times the current-to-reference
    ratio of each query over the run's reference passes."""
    pairs = {}
    for p in passes:
        for q, _, c, r in p.rows:
            pairs.setdefault(q["id"], []).append((c, r))
    lat = [q["ref_ms"] * _ratio_of_pairs(pairs[q["id"]]) for q in wl["queries"]]
    setup = _ratio_of_pairs(s for p in passes for s in p.setups)
    decided = sum(o["result"] != "undecided" for _, o, _, _ in warm.rows)
    return {
        "wall_s": (sum(lat) / 1e3, "s"),
        "query_p50_ms": (_percentile(lat, 50), "ms"),
        "query_p90_ms": (_percentile(lat, 90), "ms"),
        "decided_frac": (decided / len(warm.rows), "ratio"),
        "peak_rss_mb": (peak_rss, "MB"),
        "setup_s": (wl["ref_setup_ms"] * setup / 1e3, "s"),
    }


def _sum(rows, key, kinds, budget_plus_one=False):
    total = 0
    for q, out, _, _ in rows:
        if q["kind"] not in kinds:
            continue
        if key in out:
            total += out[key]
        elif budget_plus_one:  # a construction stops one past its budget
            total += q["args"]["max_states"] + 1
    return total


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tr, traced: Pass, plain: Pass):
    """Layer metrics: times and counts from the traced pass, rates untraced."""
    rows = traced.rows
    local, glob = ("build", "label"), ("constraint", "fixpoint")
    states = _sum(rows, "states_total", local)
    supports = _sum(rows, "supports_total", glob, budget_plus_one=True)
    explored = _sum(rows, "states_explored", ("explore",))

    def explore_rate(lbta):
        pick = [(out, dt) for q, out, dt, _ in plain.rows
                if q["kind"] == "explore" and q["args"]["lbta"] == lbta]
        return _ratio(sum(o["states_explored"] for o, _ in pick), sum(dt for _, dt in pick))

    attempts = sum(tr.outcomes[f] for f in ("rule1_steps", "rule2_steps",
                                            "boundary_support"))
    dra = plain.seconds(lambda q: q["kind"] == "label" and not q["args"]["streaming"])
    m = {
        "dtn_local.check_s": (tr.total["check_label_reachable"], "s"),
        "dtn_local.build_s": (tr.total["build_layers"], "s"),
        "dtn_local.loopback_summary_s":
            (tr.total["apply_loopback"] + tr.total["summary_automaton"], "s"),
        "dtn_local.states_total": (states, "count"),
        "dtn_local.layers_built": (_sum(rows, "layers_built", local), "count"),
        "dtn_local.states_per_s":
            (_ratio(states, plain.seconds(lambda q: q["kind"] in local)), "1/s"),
        "dtn_local.streaming_over_dra": (_ratio(plain.seconds(
            lambda q: q["kind"] == "label" and q["args"]["streaming"]), dra), "ratio"),
        "region_graph.its_calls": (tr.calls["immediate_time_successor"], "count"),
        "region_graph.its_s": (tr.total["immediate_time_successor"], "s"),
        "dtn_global.check_s": (tr.total["check_global"], "s"),
        "dtn_global.supports_total": (supports, "count"),
        "dtn_global.supports_per_s":
            (_ratio(supports, plain.seconds(lambda q: q["kind"] in glob)), "1/s"),
        "dtn_global.layers_built": (_sum(rows, "layers_built", glob), "count"),
        "dtn_global.rule1_s": (tr.total["rule1_steps"], "s"),
        "dtn_global.rule1_outcomes": (tr.outcomes["rule1_steps"], "count"),
        "dtn_global.rule2_s": (tr.total["rule2_steps"], "s"),
        "dtn_global.rule2_outcomes": (tr.outcomes["rule2_steps"], "count"),
        "dtn_global.boundary_s": (tr.total["boundary_support"], "s"),
        "dtn_global.support_key_calls": (tr.calls["support_key"], "count"),
        "dtn_global.support_key_s": (tr.total["support_key"], "s"),
        "dtn_global.new_ratio": (_ratio(supports, attempts), "ratio"),
        "oracle.explore_s": (tr.total["explore_network"], "s"),
        "oracle.states_explored": (explored, "count"),
        "oracle.gta_states_per_s": (explore_rate(False), "1/s"),
        "oracle.lbta_states_per_s": (explore_rate(True), "1/s"),
        "oracle.rename_per_state": (_ratio(tr.calls["Region.rename"], explored), "ratio"),
        "oracle.witness_s": (sum(tr.total[f] for f in (
            "witness_region_path", "concretize", "simulate_trace")), "s"),
        "regions.key_calls": (tr.calls["Region.key"], "count"),
        "regions.key_s": (tr.total["Region.key"], "s"),
        "regions.rename_calls": (tr.calls["Region.rename"], "count"),
        "regions.rename_s": (tr.total["Region.rename"], "s"),
        "regions.reset_calls": (tr.calls["Region.reset"], "count"),
        "regions.satisfies_calls": (tr.calls["Region.satisfies"], "count"),
        "regions.delay_successor_calls": (tr.calls["Region.delay_successor"], "count"),
        "model.parse_s": (tr.total["parse_model"], "s"),
        "model.validate_s": (tr.total["validate"], "s"),
        "lbta_bridge.translate_s": (tr.total["gta_to_lbta"], "s"),
    }
    from tracing import MODULES

    for mod in MODULES:
        m[f"{mod}.self_share"] = (_ratio(tr.module_self[mod], traced.total_s), "ratio")
        m[f"{mod}.incl_share"] = (_ratio(tr.module_incl[mod], traced.total_s), "ratio")
    m["trace.wall_s"] = (traced.wall_s, "s")
    m["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    m["trace.spans"] = (len(tr.spans), "count")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dtnmc" / "__init__.py").is_file():
        print(f"perfbench: no dtnmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads as W

    wl = W.load(args.workload)
    seed = f"{args.workload}/{args.seed}"
    failures = []
    if args.trace:
        from tracing import Tracer

        plain = Pass(W, wl, seed, 0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = Pass(W, wl, seed, 1, tracer=tracer)
        finally:
            tracer.remove()
        passes = [plain, traced]
        metrics = per_layer(tracer, traced, plain)
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        deadline = time.perf_counter() + args.seconds
        passes = [Pass(W, wl, seed, 0)]
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(passes) < 2 or time.perf_counter() + passes[-1].total_s <= deadline:
            passes.append(Pass(W, wl, seed, len(passes), reference=True))
        metrics = end_to_end(wl, passes[0], passes[1:], peak_rss)
        raw = statistics.median(p.seconds(lambda q: True) for p in passes[1:])
        ref = statistics.median(sum(r for *_, r in p.rows) for p in passes[1:])
        print(f"raw seconds of a reference pass: current {raw:.6g}, reference {ref:.6g}")
    for p in passes:
        failures += p.failures
    attempted = sum(len(p.rows) for p in passes)
    for qid, got, want in failures[:10]:
        print(f"FAILED {qid}: got {got}, pinned {want}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(wl['queries'])} queries per pass, {attempted} asked")
    print(f"failed_frac {len(failures) / attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
