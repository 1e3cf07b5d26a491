"""Command-line front end.

Subcommands: validate, check-local, check-global, build-dra, summary,
product, translate, oracle.  Every subcommand accepts --json <path> and
--dot <path>; the layer builders (check-local, check-global, build-dra,
summary, product) also take --max-layers and --max-states, and oracle takes
--max-states; a negative budget is a usage error.  Results printed to
stdout are JSON (sorted keys) unless the artifact is a model or a report.
Exit codes: 0 query answered, 1 unreachable under --fail-on-unreachable,
2 usage or model error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .dtn_global import check_global, constraint_node
from .dtn_local import (
    apply_loopback,
    build_layers,
    check_label_reachable,
    dra_to_dot,
    k_product,
    summary_automaton,
)
from .lbta_bridge import gta_to_lbta, lbta_to_gta
from .model import (
    Automaton,
    BudgetExceeded,
    ModelError,
    parse_file,
    pretty_model,
    validate,
)
from .oracle import concretize, explore_network
from .regions import NonUniformGuard


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dtnmc",
        description="Reachability checking for networks of guarded timed automata.",
    )
    p.add_argument("--version", action="version", version=f"dtnmc {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, layers=False, states=False, unreachable=False, streaming=False):
        sp.add_argument("file", help="model file")
        if layers:
            sp.add_argument("--max-layers", type=int, default=None, metavar="N",
                            help="build layers 0..N at most (N+1 layers); exit 3 "
                                 "if layer N+1 is needed (default: no cap)")
        if states:
            sp.add_argument("--max-states", type=int, default=None,
                            help="abort after this many stored states "
                                 "(env DTNMC_MAX_STATES)")
        sp.add_argument("--json", metavar="PATH", default=None,
                        help="also write the result object to PATH")
        sp.add_argument("--dot", metavar="PATH", default=None,
                        help="write a Graphviz view of the run's artifact")
        if unreachable:
            sp.add_argument("--fail-on-unreachable", action="store_true",
                            help="exit 1 when the answer is unreachable")
        if streaming:
            sp.add_argument("--streaming", action="store_true",
                            help="keep one layer in memory; no witness or DOT")

    sp = sub.add_parser("validate", help="parse a model and check assumptions")
    common(sp)

    sp = sub.add_parser("check-local", help="label reachability for one process")
    sp.add_argument("--label", required=True)
    common(sp, layers=True, states=True, unreachable=True, streaming=True)

    sp = sub.add_parser("check-global", help="counting-constraint reachability")
    sp.add_argument("--constraint", required=True,
                    help='e.g. "#q1>=1 && #init==0"')
    common(sp, layers=True, states=True, unreachable=True, streaming=True)

    sp = sub.add_parser("build-dra", help="build the looping region automaton")
    common(sp, layers=True, states=True)

    sp = sub.add_parser("summary", help="print the one-process summary automaton")
    common(sp, layers=True, states=True)

    sp = sub.add_parser("product", help="print the k-fold asynchronous product")
    sp.add_argument("-k", type=int, required=True)
    common(sp, layers=True, states=True)

    sp = sub.add_parser("translate", help="convert between gta and lbta")
    sp.add_argument("--to", choices=("gta", "lbta"), required=True, dest="to")
    common(sp)

    sp = sub.add_parser("oracle", help="explore a fixed-size network concretely")
    sp.add_argument("-n", type=int, required=True, help="number of processes")
    sp.add_argument("--label", default=None)
    sp.add_argument("--constraint", default=None)
    sp.add_argument("--slot-cap", type=int, default=8)
    common(sp, states=True, unreachable=True)
    return p


def _budgets(args):
    """(--max-layers, --max-states or DTNMC_MAX_STATES), None where the
    subcommand has no such flag."""
    cap = getattr(args, "max_layers", None)
    if not hasattr(args, "max_states"):
        return cap, None
    max_states = args.max_states
    if max_states is None:
        env = os.environ.get("DTNMC_MAX_STATES")
        if env is not None:
            try:
                max_states = int(env)
            except ValueError:
                raise ValueError(f"DTNMC_MAX_STATES is not an integer: {env!r}")
    return cap, max_states


def _model_dot(a: Automaton) -> str:
    lines = ["digraph model {", "  rankdir=LR;", "  node [shape=ellipse];"]
    for q in sorted(a.locations):
        extra = []
        if q == a.initial:
            extra.append("initial")
        inv = a.invariant(q)
        if inv:
            extra.append(" & ".join(at.text() for at in inv))
        label = q if not extra else q + "\\n" + ", ".join(extra)
        shape = ', peripheries=2' if q == a.initial else ""
        lines.append(f'  "{q}" [label="{label}"{shape}];')
    for tr in sorted(a.transitions, key=lambda t: (t.src, t.dst, str(t.label))):
        parts = [tr.label or "eps"]
        if tr.guard:
            parts.append(" & ".join(at.text() for at in tr.guard))
        if tr.resets:
            parts.append("reset " + ",".join(tr.resets))
        if tr.locguard:
            parts.append("@" + tr.locguard)
        if tr.sync:
            parts.append(tr.sync[0] + tr.sync[1])
        lines.append(f'  "{tr.src}" -> "{tr.dst}" [label="{" | ".join(parts)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _run(args):
    """Returns (payload dict, stdout text or None, dot text or None)."""
    a = parse_file(args.file)
    cap, max_states = _budgets(args)

    if args.command == "validate":
        report = validate(a)
        payload = {
            "model": a.name,
            "kind": a.kind,
            "locations": len(a.locations),
            "transitions": len(a.transitions),
            "timelock_free": report.timelock_free,
            "relabelled": sorted(
                k for k, v in report.relabel_map.items() if k != v
            ),
            "diagnostics": list(report.diagnostics),
        }
        if report.witness:
            payload["witness"] = list(report.witness)
        return payload, report.summary(), _model_dot(a)

    if args.command == "check-local":
        res = check_label_reachable(a, args.label, streaming=args.streaming,
                                    cap=cap, max_states=max_states)
        dot = None
        if args.dot:
            if args.streaming:
                print("note: --dot needs the full build; skipped in streaming "
                      "mode", file=sys.stderr)
            else:
                dot = dra_to_dot(apply_loopback(
                    build_layers(a, cap=cap, max_states=max_states)))
        return res, None, dot

    if args.command == "check-global":
        res = check_global(a, args.constraint, streaming=args.streaming,
                           cap=cap, max_states=max_states)
        dot = None
        if args.dot:
            if args.streaming:
                print("note: --dot needs the full build; skipped in streaming "
                      "mode", file=sys.stderr)
            else:
                dot = _model_dot(a)
        return res, None, dot

    if args.command == "build-dra":
        build = build_layers(a, cap=cap, max_states=max_states)
        dra = apply_loopback(build)
        payload = {
            "model": a.name,
            "layers": len(dra.layers),
            "i0": dra.i0,
            "l0": dra.l0,
            "shift": dra.shift,
            "states": sum(len(l.ids) for l in dra.layers),
            "slots": [str(l.slot) for l in dra.layers],
        }
        return payload, None, dra_to_dot(dra)

    if args.command == "summary":
        build = build_layers(a, cap=cap, max_states=max_states)
        s = summary_automaton(apply_loopback(build))
        text = pretty_model(s)
        return {"model": text}, text, _model_dot(s)

    if args.command == "product":
        if args.k < 1:
            raise ValueError("product size k must be >= 1")
        build = build_layers(a, cap=cap, max_states=max_states)
        s = summary_automaton(apply_loopback(build))
        prod = k_product(s, args.k, max_states=max_states)
        text = pretty_model(prod)
        return {"model": text}, text, _model_dot(prod)

    if args.command == "translate":
        if args.to == "lbta":
            out = gta_to_lbta(a)
        else:
            out = lbta_to_gta(a)
        text = pretty_model(out)
        return {"model": text}, text, _model_dot(out)

    if args.command == "oracle":
        if args.label is not None and args.constraint is not None:
            raise ValueError("--label and --constraint are mutually exclusive")
        if args.label is not None and args.label not in {
            tr.label for tr in a.transitions if tr.label
        }:
            raise ValueError(f"unknown label {args.label!r}")
        target = args.label if args.constraint is None else \
            constraint_node(a, args.constraint)
        budget = max_states if max_states is not None else 10 ** 6
        res = explore_network(a, args.n, slot_cap=args.slot_cap,
                              max_states=budget, target=target)
        payload = {
            "model": a.name,
            "n": args.n,
            "slot_cap": args.slot_cap,
            "states_explored": res.states_explored,
            "exhausted": res.exhausted,
            "labels": sorted(res.labels),
        }
        if target is not None:
            payload["query"] = args.constraint or args.label
            payload["result"] = "unreachable" if res.witness is None else "reachable"
            if res.witness is not None:
                payload["trace"] = [dict(e, delay=str(e["delay"]))
                                    for e in concretize(a, args.n, res.witness)]
            elif res.exhausted:
                raise BudgetExceeded(f"oracle exploration at n={args.n} exceeds "
                                     f"{budget} states after expanding "
                                     f"{res.states_explored}; the query is undecided")
        return payload, None, _model_dot(a)

    raise AssertionError(args.command)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help, 2 for usage errors; keep its code
        return int(e.code or 0)
    try:
        payload, text, dot = _run(args)
    except (ModelError, NonUniformGuard, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    blob = json.dumps(payload, indent=2, sort_keys=True)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(blob + "\n")
    if args.dot and dot:
        with open(args.dot, "w") as fh:
            fh.write(dot)
    try:
        print(text if text is not None else blob)
        sys.stdout.flush()
    except BrokenPipeError:
        # reader went away (e.g. piping into head); silence the exit flush too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if getattr(args, "fail_on_unreachable", False) and \
            payload.get("result") == "unreachable":
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
