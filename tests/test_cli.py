import json
import os
import re
import subprocess
import sys

import pytest

import dtnmc
from conftest import MODELS
from dtnmc import cli
from dtnmc.cli import main
from dtnmc.dtn_global import constraint_node, eval_constraint
from dtnmc.dtn_global import build_global_layers, check_global, reachable_location_sets
from dtnmc.dtn_local import (apply_loopback, build_layers, check_label_reachable,
                             k_product, summary_automaton)
from dtnmc.model import BudgetExceeded, ModelError, parse_file, parse_model
from dtnmc.oracle import explore_network, simulate_trace
from dtnmc.region_graph import check_timelock_free

FIG1 = str(MODELS / "fig1.gta")
FIG3 = str(MODELS / "fig3.gta")

LONELY = """gta L
clocks c
location p initial
location q
location r
trans p -> q label: a locguard: r
"""


# nothing sends foo, so no process can ever fire x
DEAF = """lbta deaf
clocks c
broadcasts foo
location a initial
location b
trans a -> b label: x sync: foo??
"""


@pytest.fixture
def lonely(tmp_path):
    path = tmp_path / "lonely.gta"
    path.write_text(LONELY)
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_check_local_reachable(capsys):
    rc, out, _ = run(capsys, "check-local", FIG1, "--label", "serr")
    assert rc == 0
    payload = json.loads(out)
    assert payload["result"] == "reachable"
    assert payload["witness"][-1]["label"] == "serr"


def test_check_local_unknown_label(capsys):
    rc, _, err = run(capsys, "check-local", FIG1, "--label", "nosuch")
    assert rc == 2
    assert "error: unknown label 'nosuch'" in err


def test_validate_text(capsys):
    rc, out, _ = run(capsys, "validate", FIG3)
    assert rc == 0
    assert "timelock-free: refuted" in out
    assert "Assumption 1 refuted at (q1, c=1)" in out
    rc, out, _ = run(capsys, "validate", FIG1)
    assert rc == 0 and "timelock-free: proved" in out


def test_fail_on_unreachable(capsys, lonely):
    rc, out, _ = run(capsys, "check-local", lonely, "--label", "a")
    assert rc == 0 and json.loads(out)["result"] == "unreachable"
    rc, _, _ = run(capsys, "check-local", lonely, "--label", "a",
                   "--fail-on-unreachable")
    assert rc == 1


def test_budget_exit_code(capsys):
    rc, _, err = run(capsys, "check-local", FIG1, "--label", "serr",
                     "--max-states", "10")
    assert rc == 3
    assert err.startswith("budget exceeded:")


def test_max_layers_builds_layers_zero_to_n(capsys):
    # the unreachable fig3 query loops back at layer 6, so it needs 7 layers
    query = ("check-global", FIG3, "--constraint", "#q1>=1 && #q1==0")
    rc, _, err = run(capsys, *query, "--max-layers", "5")
    assert rc == 3 and "building layer 6" in err
    rc, out, _ = run(capsys, *query, "--max-layers", "6")
    assert rc == 0 and json.loads(out)["layers_built"] == 7


def test_budget_flags_only_where_read(capsys, monkeypatch):
    # the oracle has no layers, and validate and translate build nothing
    assert main(["oracle", FIG3, "-n", "2", "--max-layers", "0"]) == 2
    assert main(["validate", FIG3, "--max-states", "5"]) == 2
    assert main(["translate", FIG1, "--to", "lbta", "--max-layers", "1"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    # nor does the environment's state budget reach them
    monkeypatch.setenv("DTNMC_MAX_STATES", "lots")
    rc, out, _ = run(capsys, "validate", FIG3)
    assert rc == 0 and "timelock-free: refuted" in out


def test_env_budget(capsys, monkeypatch):
    monkeypatch.setenv("DTNMC_MAX_STATES", "10")
    rc, _, err = run(capsys, "check-local", FIG1, "--label", "serr")
    assert rc == 3 and "budget exceeded" in err
    # an explicit flag wins over the environment
    monkeypatch.setenv("DTNMC_MAX_STATES", "10")
    rc, _, _ = run(capsys, "check-local", FIG1, "--label", "serr",
                   "--max-states", "100000")
    assert rc == 0
    monkeypatch.setenv("DTNMC_MAX_STATES", "lots")
    rc, _, err = run(capsys, "check-local", FIG1, "--label", "serr")
    assert rc == 2 and "not an integer" in err


LAYER_COMMANDS = [("check-local", FIG1, "--label", "serr"),
                  ("check-global", FIG3, "--constraint", "#q1>=1 && #q1==0"),
                  ("build-dra", FIG3), ("summary", FIG3), ("product", FIG3, "-k", "2")]


@pytest.mark.parametrize("command", LAYER_COMMANDS, ids=lambda c: c[0])
def test_negative_budgets_are_usage_errors(capsys, monkeypatch, command):
    # a negative layer cap or state budget used to exit 3 as if it were spent
    for flag, message in (("--max-layers", "the layer cap must be >= 0, not -1"),
                          ("--max-states", "the max_states must be >= 0, not -1")):
        rc, out, err = run(capsys, *command, flag, "-1")
        assert (rc, out) == (2, "") and err == f"error: {message}\n", (flag, err)
    monkeypatch.setenv("DTNMC_MAX_STATES", "-1")
    rc, out, err = run(capsys, *command)
    assert rc == 2 and "max_states must be >= 0" in err
    # zero stays a budget: layer 0 alone, or not one state, is too little
    monkeypatch.delenv("DTNMC_MAX_STATES")
    for flag in ("--max-layers", "--max-states"):
        rc, _, err = run(capsys, *command, flag, "0")
        assert rc == 3 and err.startswith("budget exceeded"), (flag, err)


def test_oracle_rejects_a_negative_budget(capsys, monkeypatch):
    # it used to report one state explored and exit 0
    rc, out, err = run(capsys, "oracle", FIG3, "-n", "2", "--max-states", "-3")
    assert (rc, out) == (2, "") and "max_states >= 0, not -3" in err
    monkeypatch.setenv("DTNMC_MAX_STATES", "-1")
    rc, out, err = run(capsys, "oracle", FIG3, "-n", "2")
    assert (rc, out) == (2, "") and "max_states >= 0, not -1" in err
    rc, out, _ = run(capsys, "oracle", FIG3, "-n", "2", "--max-states", "0")
    payload = json.loads(out)
    assert rc == 0 and (payload["states_explored"], payload["exhausted"]) == (1, True)


def test_library_calls_reject_negative_budgets():
    a = parse_file(FIG3)
    calls = [lambda **kw: build_layers(a, **kw),
             lambda **kw: check_label_reachable(parse_file(FIG1), "serr", **kw),
             lambda **kw: build_global_layers(a, **kw),
             lambda **kw: check_global(a, "#q1>=1", **kw),
             lambda **kw: check_global(a, "#q1>=1", streaming=True, **kw),
             lambda **kw: reachable_location_sets(a, **kw)]
    for call in calls:
        for budget in ({"cap": -1}, {"max_states": -1}, {"cap": -2, "max_states": 5}):
            with pytest.raises(ValueError, match="must be >= 0, not -"):
                call(**budget)
    with pytest.raises(ValueError, match="max_states >= 0, not -1"):
        explore_network(a, 2, max_states=-1)
    assert explore_network(a, 2, max_states=0).exhausted
    # these raised BudgetExceeded, as if a budget of -1 had been spent
    summary = summary_automaton(apply_loopback(build_layers(a)))
    for call in (lambda m: k_product(summary, 2, max_states=m),
                 lambda m: check_timelock_free(a, max_states=m)):
        with pytest.raises(ValueError, match=r"^the max_states must be >= 0, not -1$"):
            call(-1)
        with pytest.raises(BudgetExceeded):
            call(0)


def test_json_is_byte_deterministic(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    rc1, out1, _ = run(capsys, "check-local", FIG1, "--label", "serr",
                       "--json", str(p1))
    rc2, out2, _ = run(capsys, "check-local", FIG1, "--label", "serr",
                       "--json", str(p2))
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == json.loads(out1)


@pytest.mark.parametrize("mode", [[], ["--streaming"]], ids=["dra", "streaming"])
@pytest.mark.parametrize("query", ["#q1>=1 && #init==0",
                                   "#q1>=1 && #init>=1 && #q1==0"])
def test_check_global_json_is_byte_deterministic_across_processes(tmp_path, mode,
                                                                  query):
    # fresh interpreters differ in string hashing and object addresses, so
    # this catches output that follows set iteration order
    src = str(MODELS.parent / "src")
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
        path = tmp_path / f"{seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "dtnmc.cli", "check-global", FIG3,
             "--constraint", query, "--json", str(path), *mode],
            env=env, capture_output=True, timeout=120, check=True)
        outs.append((proc.stdout, path.read_bytes()))
    assert outs[0] == outs[1]
    assert json.loads(outs[0][1])["query"] == query


@pytest.mark.parametrize("command", [["build-dra", "--dot"], ["summary", "--json"]],
                         ids=["build-dra", "summary"])
@pytest.mark.parametrize("model", [FIG1, FIG3], ids=["fig1", "fig3"])
def test_local_outputs_are_byte_deterministic_across_processes(tmp_path, command,
                                                               model):
    src = str(MODELS.parent / "src")
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
        path = tmp_path / f"{seed}.out"
        proc = subprocess.run(
            [sys.executable, "-m", "dtnmc.cli", command[0], model, command[1],
             str(path)],
            env=env, capture_output=True, timeout=120, check=True)
        outs.append((proc.stdout, path.read_bytes()))
    assert outs[0] == outs[1]
    assert outs[0][1]


@pytest.mark.parametrize("argv, rc", [
    (["check-local", FIG1, "--label", "serr"], 0),
    (["check-global", FIG3, "--constraint", "#q1>=1 && #init>=1 && #q1==0",
      "--fail-on-unreachable"], 1),
    (["check-local", FIG1, "--label", "nope"], 2),
    (["check-local", FIG1, "--label", "serr", "--max-states", "10"], 3),
], ids=["reachable", "unreachable", "usage", "budget"])
def test_python_m_dtnmc_runs_the_console_script(argv, rc):
    # `python -m dtnmc` from the source tree answers as the installed `dtnmc`
    # script does; that script calls the entry point pyproject.toml declares
    root = MODELS.parent
    module, func = re.search(r'^dtnmc = "([\w.]+):(\w+)"$',
                             (root / "pyproject.toml").read_text(), re.M).groups()
    script = f"import sys; from {module} import {func}; sys.exit({func}())"
    src = str(root / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    procs = [subprocess.run([sys.executable, *how, *argv], env=env, cwd=root,
                            capture_output=True, timeout=120)
             for how in (["-m", "dtnmc"], ["-c", script])]
    assert [p.returncode for p in procs] == [rc, rc]
    assert procs[0].stdout == procs[1].stdout
    assert procs[0].stderr == procs[1].stderr
    assert procs[0].stdout or procs[0].stderr


def test_build_dra_and_dot(capsys, tmp_path):
    dot = tmp_path / "dra.dot"
    rc, out, _ = run(capsys, "build-dra", FIG3, "--dot", str(dot))
    assert rc == 0
    payload = json.loads(out)
    assert payload["layers"] == 6 and payload["states"] == 43
    assert payload["slots"][0] == "[0,0]"
    assert dot.read_text().startswith("digraph")


def test_streaming_skips_dot(capsys, tmp_path):
    dot = tmp_path / "x.dot"
    rc, out, err = run(capsys, "check-local", FIG1, "--label", "serr",
                       "--streaming", "--dot", str(dot))
    assert rc == 0
    assert json.loads(out)["mode"] == "streaming"
    assert "skipped in streaming mode" in err
    assert not dot.exists()


def test_check_global_writes_the_model_dot_in_both_modes(capsys, tmp_path):
    # check-global's DOT is the input model's, so a streaming run writes it too
    query = ["check-global", FIG3, "--constraint", "#q1>=1 && #init==0", "--dot"]
    dots = []
    for mode in ([], ["--streaming"]):
        dot = tmp_path / f"global{len(dots)}.dot"
        rc, _, err = run(capsys, *query, str(dot), *mode)
        assert (rc, err) == (0, "")
        dots.append(dot.read_bytes())
    rc, _, _ = run(capsys, "validate", FIG3, "--dot", str(tmp_path / "model.dot"))
    assert dots[0] == dots[1] == (tmp_path / "model.dot").read_bytes()


# one run of each subcommand
SUBCOMMANDS = [
    ["validate", FIG3],
    ["check-local", FIG1, "--label", "serr"],
    ["check-global", FIG3, "--constraint", "#q1>=1 && #init==0"],
    ["build-dra", FIG3],
    ["summary", FIG3],
    ["product", FIG3, "-k", "2"],
    ["translate", FIG3, "--to", "lbta"],
    ["oracle", FIG3, "-n", "2", "--slot-cap", "2"],
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=[argv[0] for argv in SUBCOMMANDS])
def test_dot_is_rendered_only_when_asked(capsys, monkeypatch, argv):
    want = run(capsys, *argv)

    def refuse(*_):
        raise AssertionError("a DOT view was rendered without --dot")
    monkeypatch.setattr(cli, "dra_to_dot", refuse)
    monkeypatch.setattr(cli, "_model_dot", refuse)
    assert run(capsys, *argv) == want
    assert want[0] == 0


def test_check_global(capsys):
    rc, out, _ = run(capsys, "check-global", FIG3, "--constraint",
                     "#q1>=1 && #init==0")
    assert rc == 0
    assert json.loads(out)["result"] == "reachable"
    rc, _, err = run(capsys, "check-global", FIG3, "--constraint", "#zz>=1")
    assert rc == 2 and "unknown location" in err


def test_layer_engines_refuse_lbta(capsys, tmp_path):
    b = parse_model(DEAF)
    assert not explore_network(b, 2).labels
    calls = [
        lambda: dtnmc.build_layers(b),
        lambda: dtnmc.check_label_reachable(b, "x"),
        lambda: dtnmc.check_label_reachable(b, "x", streaming=True),
        lambda: dtnmc.reachable_labels(b),
        lambda: dtnmc.check_global(b, "#b>=1"),
        lambda: build_global_layers(b),
        lambda: dtnmc.reachable_location_sets(b),
        lambda: dtnmc.find_guard_timelock(b),
    ]
    for call in calls:
        with pytest.raises(ModelError, match="translate --to gta"):
            call()
    path = tmp_path / "deaf.lbta"
    path.write_text(DEAF)
    for argv in (["check-local", str(path), "--label", "x"],
                 ["check-global", str(path), "--constraint", "#b>=1"],
                 ["build-dra", str(path)], ["summary", str(path)]):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "" and "translate --to gta" in err, argv
    rc, out, _ = run(capsys, "validate", str(path))
    assert rc == 0
    assert out == ("timelock-free: proved\nreceive foo?? has no matching sender "
                   "(harmless, lossy semantics)\n")


def test_translate_both_ways(capsys, tmp_path):
    rc, out, _ = run(capsys, "translate", FIG1, "--to", "lbta")
    assert rc == 0 and out.startswith("lbta fig1")
    lb = tmp_path / "fig1.lbta"
    lb.write_text(out)
    rc, out2, _ = run(capsys, "translate", str(lb), "--to", "gta")
    assert rc == 0 and out2.startswith("gta fig1")
    assert "locguard: snd_" in out2


def test_summary_and_product(capsys):
    rc, out, _ = run(capsys, "summary", FIG3)
    assert rc == 0 and out.startswith("ta fig3_summary")
    rc, out, _ = run(capsys, "product", FIG3, "-k", "2")
    assert rc == 0 and out.startswith("ta fig3_summary_x2")
    rc, _, err = run(capsys, "product", FIG3, "-k", "0")
    assert rc == 2 and "k must be >= 1" in err


def test_oracle_subcommand(capsys):
    rc, out, _ = run(capsys, "oracle", FIG1, "-n", "3", "--label", "serr",
                     "--slot-cap", "2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["result"] == "reachable"
    assert payload["trace"][-1]["label"] == "serr"
    rc, _, err = run(capsys, "oracle", FIG1, "-n", "1", "--label", "serr",
                     "--slot-cap", "2", "--fail-on-unreachable")
    assert rc == 1
    rc, _, err = run(capsys, "oracle", FIG1, "-n", "1", "--label", "x",
                     "--constraint", "#init>=1")
    assert rc == 2 and "mutually exclusive" in err


def test_oracle_budget_leaves_the_query_undecided(capsys):
    # serr fires at n=3, but not within 50 states: exit 3, not "unreachable"
    query = ("oracle", FIG1, "-n", "3", "--slot-cap", "2", "--max-states", "50")
    rc, out, err = run(capsys, *query, "--label", "serr", "--fail-on-unreachable")
    assert rc == 3 and out == ""
    assert err.startswith("budget exceeded:") and "n=3" in err and "expanding 22" in err
    rc, _, err = run(capsys, *query, "--constraint", "#error>=1")
    assert rc == 3 and "expanding 22" in err
    # a label fired before the budget ran out is still reachable; the search
    # stops at it, after expanding the initial state
    rc, out, _ = run(capsys, *query, "--label", "s0", "--fail-on-unreachable")
    payload = json.loads(out)
    assert rc == 0 and not payload["exhausted"] and payload["result"] == "reachable"
    assert payload["states_explored"] == 1
    # serr first fires within 1980 orbits, and its witness search finds it
    # within the same budget
    rc, out, err = run(capsys, "oracle", FIG1, "-n", "3", "--slot-cap", "2",
                       "--max-states", "1980", "--label", "serr")
    payload = json.loads(out)
    assert rc == 0 and payload["result"] == "reachable" and err == ""
    assert payload["trace"][-1]["label"] == "serr"


def test_oracle_stops_at_the_answer(capsys):
    # s0 fires from the initial state: one state expanded, not the 271,092
    # of the whole exploration at slot cap 8
    rc, out, _ = run(capsys, "oracle", FIG1, "-n", "3", "--label", "s0")
    payload = json.loads(out)
    assert rc == 0 and payload["states_explored"] == 1
    assert payload["labels"] == ["s0"] and not payload["exhausted"]
    assert [e["dst"] for e in payload["trace"]] == ["listen"]


@pytest.mark.parametrize("model,n,constraint", [
    (FIG1, 3, "#reading>=1 && #init==0"),
    (FIG3, 2, "#q1>=1 && #init==0"),
])
def test_oracle_constraint_trace_replays(capsys, model, n, constraint):
    rc, out, _ = run(capsys, "oracle", model, "-n", str(n), "--slot-cap", "2",
                     "--constraint", constraint, "--fail-on-unreachable")
    payload = json.loads(out)
    assert rc == 0 and payload["result"] == "reachable" and payload["trace"]
    a = parse_file(model)
    _, locs = simulate_trace(a, n, payload["trace"])[-1]
    assert eval_constraint(locs, constraint_node(a, constraint))


@pytest.mark.parametrize("args", [("-n", "0"), ("-n", "-2"),
                                  ("-n", "3", "--slot-cap", "-1")])
def test_oracle_rejects_bad_sizes(capsys, args):
    # n=0 used to die with a TypeError in the delay step, and a negative slot
    # cap explored slot 0
    rc, out, err = run(capsys, "oracle", FIG1, *args)
    assert rc == 2 and out == ""
    assert err.startswith("error: the oracle needs n >= 1 and a slot cap >= 0")


def test_oracle_checks_the_query_before_exploring(capsys, monkeypatch):
    def explore(*args, **kwargs):
        raise AssertionError("explored before checking the query")

    monkeypatch.setattr("dtnmc.cli.explore_network", explore)
    rc, _, err = run(capsys, "oracle", FIG1, "-n", "3", "--label", "zz")
    assert rc == 2 and "error: unknown label 'zz'" in err
    rc, _, err = run(capsys, "oracle", FIG1, "-n", "3", "--constraint", "#zz>=1")
    assert rc == 2 and "error: unknown location 'zz' in constraint" in err


def test_usage_errors(capsys):
    assert main(["check-local", FIG1]) == 2  # --label is required
    assert main(["no-such-command"]) == 2
    assert main(["--version"]) == 0
    out = capsys.readouterr()
    assert "dtnmc" in out.out


def test_missing_file(capsys):
    rc, _, err = run(capsys, "validate", "/no/such/file.gta")
    assert rc == 2 and err.startswith("error:")


# past both bounds c <= d + 1 holds on part of the region c>1 d>1 only
DIAGONAL = """gta D
clocks c, d
location q initial
trans q -> q guard: c <= d + 1 reset: c
"""


@pytest.mark.parametrize("command, extra", [
    (["validate"], ""),
    # z labels a transition no process reaches, so the query builds every layer
    (["check-local", "--label", "z"], "location r\ntrans r -> q label: z\n"),
], ids=["validate", "check-local"])
def test_non_uniform_guard_is_a_model_error(capsys, tmp_path, command, extra):
    path = tmp_path / "diagonal.gta"
    path.write_text(DIAGONAL + extra)
    rc, out, err = run(capsys, command[0], str(path), *command[1:])
    assert (rc, out) == (2, "")
    assert err == "error: atom c <= d + 1 is not uniform on c>1 d>1 0<t<1\n"


def test_public_names_resolve():
    missing = [name for name in dtnmc.__all__ if not hasattr(dtnmc, name)]
    assert not missing
