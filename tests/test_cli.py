import hashlib
import json

import pytest

from consrep import consensus_model as cm
from consrep import repsem, verifier
from consrep.cli import main
from consrep.lts import action_str
from conftest import calculus_successors
from test_explore_oracle import reference_explore


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_explore_single_agent(capsys):
    code, out, _ = run(capsys, "explore", "--n", "1", "--values", "4")
    assert code == 0
    assert "states: 3" in out
    assert "decided_values: {'4': 1}" in out


def test_explore_json_output(capsys, tmp_path):
    target = tmp_path / "graph.json"
    code, _, _ = run(capsys, "explore", "--n", "1", "--values", "4",
                     "--format", "json", "--output", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["stats"][0]["states"] == 3
    assert len(payload["graph"]["nodes"]) == 3


def test_explore_output_is_byte_stable(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "explore", "--n", "2", "--values", "5,7", "--format", "json",
        "--output", str(a))
    run(capsys, "explore", "--n", "2", "--values", "5,7", "--format", "json",
        "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_explore_dot_output(capsys):
    code, out, _ = run(capsys, "explore", "--n", "1", "--values", "4",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.rstrip().endswith("}")
    assert out.count("->") == 3


def test_explore_both_modes_agree(capsys, tmp_path):
    # explore prints the representative graph only; the calculus graph of
    # the same instance, explored in tests, has the same node ids, initials
    # and (source, action, target) edges.
    target = tmp_path / "graph.json"
    code, _, _ = run(capsys, "explore", "--n", "2", "--values", "5,7",
                     "--format", "json", "--output", str(target))
    assert code == 0
    printed = json.loads(target.read_text())["graph"]
    calculus = reference_explore(cm.build_system(cm.make_instance(2, [5, 7])),
                                 calculus_successors)
    assert not printed["truncated"] and not calculus.truncated
    assert printed["initials"] == [calculus.node_ids[r]
                                   for r in calculus.initials]
    assert len(printed["nodes"]) == len(calculus.node_ids)
    assert {(e["source"], e["action"], e["target"])
            for e in printed["edges"]} == {
        (calculus.node_ids[t.source], action_str(t.action),
         calculus.node_ids[t.target]) for t in calculus.edges}


def test_budget_above_limit_is_a_config_error(capsys):
    code, _, err = run(capsys, "explore", "--n", "2", "--values", "5,7",
                       "--budget", "2")
    assert code == 1
    assert "crash budget" in err


def test_missing_instance_is_a_usage_error(capsys):
    code, _, err = run(capsys, "explore")
    assert code == 1
    assert "--n" in err


@pytest.mark.parametrize("argv", [
    ["explore", "--n", "1", "--values", "4", "--mutate", "bogus"],
    ["explore", "--n", "one", "--values", "4"],
    ["frobnicate"],
    # Flags a command would accept and then ignore are not offered.
    ["verify", "--n", "1", "--values", "4", "--format", "dot"],
    ["trace", "--n", "1", "--values", "4", "--max-states", "10"],
    # explore follows the representative semantics only.
    ["explore", "--n", "1", "--values", "4", "--mode", "calculus"],
    # A state bound below 1 cannot hold one state.
    ["verify", "--n", "1", "--values", "4", "--max-states=-1"],
    ["explore", "--n", "1", "--values", "4", "--max-states", "0"],
])
def test_bad_arguments_are_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "usage: consrep" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0
    assert "--max-states" in out and "--format" not in out


def test_bound_exceeded_exit_code(capsys):
    code, _, _ = run(capsys, "explore", "--n", "2", "--values", "5,7",
                     "--max-states", "10")
    assert code == 2


def test_verify_skips_whole_graph_checks_past_the_bound(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--values", "5,7",
                       "--max-states", "10")
    assert code == 2
    statuses = [(r["check"], r["status"]) for r in json.loads(out)["reports"]]
    assert statuses == [("correspondence", "pass"), ("confluence", "skipped"),
                        ("normal-forms", "skipped"), ("properties", "skipped"),
                        ("bisimulation", "skipped")]


def test_verify_reports_the_confluence_configuration_bound(capsys, monkeypatch):
    # The graph is complete, so only confluence's own bound on distinct
    # configurations stops it; the report names that bound.
    real = verifier.check_confluence
    monkeypatch.setattr(verifier, "check_confluence",
                        lambda sys_, graph, max_configs=10: real(sys_, graph, 10))
    code, out, _ = run(capsys, "verify", "--n", "1", "--values", "4")
    assert code == 2
    reports = {r["check"]: r for r in json.loads(out)["reports"]}
    assert reports["confluence"]["status"] == "skipped"
    assert reports["confluence"]["details"] == {
        "reason": "configuration bound exceeded"}
    assert all(r["status"] == "pass" for check, r in reports.items()
               if check != "confluence")


def counting(monkeypatch, *targets) -> dict:
    """Count the calls of each (module, name) in ``targets``."""
    calls = {name: 0 for _, name in targets}
    for module, name in targets:
        original = getattr(module, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("mutation, explorations", [(None, 0),
                                                     ("sr1-deletes-in1", 1)])
def test_verify_explores_the_state_space_once(capsys, monkeypatch, mutation,
                                              explorations):
    # The correspondence check hands its graph to the later checks; only a
    # check that fails (here a mutation that breaks the correspondence)
    # leaves them to a fresh exploration.
    calls = counting(monkeypatch, (repsem, "rep_successors"),
                     (verifier, "explore"))
    argv = ["verify", "--n", "2", "--values", "5,7", "--budget", "1"]
    code, out, _ = run(capsys, *argv, *(["--mutate", mutation] if mutation else []))
    reports = {r["check"]: r for r in json.loads(out)["reports"]}
    checked = reports["correspondence"]["details"]["states_checked"]
    assert calls["explore"] == explorations
    if mutation is None:
        assert code == 0
        assert calls["rep_successors"] == checked
        assert checked == reports["properties"]["details"]["states"]
    else:
        assert code == 3 and reports["correspondence"]["status"] == "fail"
        assert calls["rep_successors"] == (
            checked + reports["properties"]["details"]["states"])


@pytest.mark.parametrize("mutation", [None, "sr1-deletes-in1"])
def test_verify_walks_the_graph_it_holds_for_confluence_once(
        capsys, monkeypatch, mutation):
    # Confluence walks the one graph the later checks share: the
    # correspondence check's, or a fresh one where that check fails.
    calls = counting(monkeypatch, (verifier, "check_confluence"),
                     (verifier, "_confluence_starts"))
    argv = ["verify", "--n", "2", "--values", "5,7", "--budget", "1"]
    code, out, _ = run(capsys, *argv, *(["--mutate", mutation] if mutation else []))
    reports = {r["check"]: r for r in json.loads(out)["reports"]}
    assert reports["confluence"]["status"] == "pass"
    assert code == (0 if mutation is None else 3)
    assert calls == {"check_confluence": 1, "_confluence_starts": 1}


def test_verify_past_the_state_bound_builds_no_confluence_closure(
        capsys, monkeypatch):
    # The truncated correspondence graph already shows the bound exceeded:
    # no second exploration, and no confluence work whose report is skipped.
    calls = counting(monkeypatch, (verifier, "explore"),
                     (verifier, "check_confluence"))
    code, _, _ = run(capsys, "verify", "--n", "2", "--values", "5,7",
                     "--max-states", "10")
    assert code == 2
    assert calls == {"explore": 0, "check_confluence": 0}


def test_verify_single_agent(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1", "--values", "4")
    assert code == 0
    payload = json.loads(out)
    statuses = {r["check"]: r["status"] for r in payload["reports"]}
    assert statuses == {
        "correspondence": "pass",
        "confluence": "pass",
        "normal-forms": "pass",
        "properties": "pass",
        "bisimulation": "pass",
    }


def test_verify_mutated_system_fails(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--values", "5,7",
                       "--mutate", "no-ti-protection")
    assert code == 3
    payload = json.loads(out)
    statuses = {r["check"]: r["status"] for r in payload["reports"]}
    assert statuses["properties"] == "fail"
    assert statuses["bisimulation"] == "fail"
    assert statuses["correspondence"] == "pass"


def test_trace_empty_schedule_lists_initials(capsys):
    code, out, _ = run(capsys, "trace", "--n", "2", "--values", "5,7")
    assert code == 0
    assert "-- initial after ti=1" in out
    assert "-- initial after ti=2" in out


def test_trace_full_run_to_ok(capsys):
    code, out, _ = run(capsys, "trace", "--n", "1", "--values", "4",
                       "ti=1", "SR2' q=1 p=1", "SRW1 j=1 v=4")
    assert code == 0
    assert "observer ok!" in out
    assert "enabled: Snd ok" in out


# A schedule of n=2 (5,7) through a crash, suspicions of the crashed agent
# in both phases, a decision the observer accepts, the observer passing the
# crashed agent, and the `ok` send.
PINNED_SCHEDULE = ["ti=1", "SR7 p=2", "SR1 q=1 p=1 r=1", "SR6 q=1 p=2 r=1",
                   "SR1' q=1 p=1", "SR5' q=1 p=2", "SRW1 j=1 v=5", "SRW2 j=2",
                   "Snd ok"]


def test_trace_bytes_are_pinned(capsys):
    code, out, _ = run(capsys, "trace", "--n", "2", "--values", "5,7",
                       *PINNED_SCHEDULE)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2be2ae15988603820df434bf1095d7463f98cee8381cd65b2a0579f8fc6b14c0")


# A schedule of n=2 (5,7) under no-ti-protection to a sync collector whose
# decision is undefined: its round-phase suspicion hit the trusted immortal.
UNDEFINED_SCHEDULE = ["ti=1", "SR4 q=2 p=1 r=1", "SR3 q=2 p=2 r=1",
                      "SR1 q=1 p=1 r=1", "SR6 q=1 p=2 r=1", "SR1' q=2 p=1"]


@pytest.mark.parametrize("past", [[], ["SR7 p=2"]])
def test_trace_stops_where_the_algorithm_is_undefined(capsys, past):
    # Steps scheduled past the undefined state are not replayed: the
    # replay up to it is printed either way, and the run exits 3.
    code, out, err = run(capsys, "trace", "--n", "2", "--values", "5,7",
                         "--budget", "1", "--mutate", "no-ti-protection",
                         *UNDEFINED_SCHEDULE, *past)
    assert code == 3 and err == ""
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("-- ")] == [
        *(f"-- {step}" for step in UNDEFINED_SCHEDULE),
        "-- enabled: undefined (no known entry to decide on)"]


def test_trace_rejects_disabled_step(capsys):
    code, _, err = run(capsys, "trace", "--n", "1", "--values", "4",
                       "ti=1", "SR7 p=1")
    assert code == 1
    assert "not enabled" in err
    assert "SR2' q=1 p=1" in err


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 1, "values": [4], "format": "text"}))
    code, out, _ = run(capsys, "explore", "--config", str(cfg))
    assert code == 0
    assert "states: 3" in out
    code, out, _ = run(capsys, "explore", "--config", str(cfg),
                       "--values", "9")
    assert code == 0
    assert "decided_values: {'9': 1}" in out


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 1, "values": [4], "wat": 1}))
    code, _, err = run(capsys, "explore", "--config", str(cfg))
    assert code == 1
    assert "unknown config keys" in err


@pytest.mark.parametrize("command, key, value", [
    ("verify", "format", "dot"),
    ("trace", "max_states", 1),
    ("trace", "format", "json"),
])
def test_config_file_rejects_keys_the_command_has_no_flag_for(
        capsys, tmp_path, command, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 1, "values": [4], key: value}))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 1
    assert repr(key) in err and command in err
    assert out == ""


@pytest.mark.parametrize("command", ["explore", "verify", "trace"])
def test_config_file_rejects_the_retired_mode_key(capsys, tmp_path, command):
    # Only the representative semantics is explored; the calculus one is
    # compared with it inside verify's correspondence check.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 1, "values": [4], "mode": "calculus"}))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 1
    assert "unknown config keys: ['mode']" in err
    assert out == ""


@pytest.mark.parametrize("key, value", [
    ("values", [True, 2]),
    ("values", 57),
    ("max_states", "10"),
    ("max_states", True),
    ("format", "xml"),
    ("output", 7),
    ("n", True),
    ("budget", False),
    ("mutate", "skip-correct"),
    ("mutate", [["skip-correct"]]),
    # A state bound below 1 cannot hold one state.
    ("max_states", 0),
    ("max_states", -1),
])
def test_config_file_values_are_checked_as_their_flags(capsys, tmp_path, key,
                                                       value):
    # Each value is one no flag could give: the run stops before exploring,
    # where it would otherwise mistake True for 1, 7 for a file descriptor
    # or ignore an unknown format.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 2, "values": [5, 7], key: value}))
    code, out, err = run(capsys, "explore", "--config", str(cfg))
    assert code == 1
    assert err.startswith(f"error: config key {key!r} must be ")
    assert out == ""


def test_config_file_keys_follow_the_command_flags(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 1, "values": [4], "max_states": 100}))
    code, _, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0


def test_the_parser_is_built_once_and_parses_afresh(capsys):
    from consrep import cli

    assert cli._parser() is cli._parser()
    mutated = ["verify", "--n", "2", "--values", "5,7", "--mutate", "skip-correct"]
    # An appended flag starts empty on every parse.
    assert cli._parser().parse_args(mutated).mutate == ["skip-correct"]
    assert cli._parser().parse_args(mutated).mutate == ["skip-correct"]
    assert cli._parser().parse_args(mutated[:-2]).mutate is None
    # A usage error leaves the parser as it was.
    assert main(["verify", "--n", "x"]) == 1
    assert main(["trace", "--n", "1", "--values", "4"]) == 0
    assert "-- initial after ti=1" in capsys.readouterr().out
