import hashlib
import json

import pytest

from consrep import consensus_model as cm
from consrep import repsem, verifier
from consrep.calculus_ast import chan_b, cond, lit, located, nat, npar, out_atom
from consrep.errors import BoundExceeded, GraphTruncated
from consrep.evaluation import eval_steps, evaluate
from test_bisim_oracle import reference_weak_bisim


def test_explore_is_deterministic(sys2):
    a = verifier.explore(sys2, "representative")
    b = verifier.explore(sys2, "representative")
    assert a.node_ids == b.node_ids
    assert a.edges == b.edges


def test_explore_bound_carries_partial_graph(sys2):
    with pytest.raises(BoundExceeded) as exc:
        verifier.explore(sys2, "representative", max_states=10)
    graph = exc.value.graph
    assert graph.truncated
    assert len(graph.node_ids) == 10
    # No dangling edges: the partial graph still exports cleanly.
    assert all(tr.source in graph.node_ids and tr.target in graph.node_ids
               for tr in graph.edges)
    assert verifier.export_dot(graph).startswith("digraph")


def test_node_set_monotone_in_budget():
    lo = verifier.explore(cm.build_system(cm.make_instance(2, [5, 7], budget=0)))
    hi = verifier.explore(cm.build_system(cm.make_instance(2, [5, 7], budget=1)))
    assert len(lo.node_ids) <= len(hi.node_ids)
    # Every crash-free run exists verbatim at the higher budget, one crash
    # still in hand.
    shifted = {rep._replace(budget=rep.budget + 1) for rep in lo.nodes}
    assert shifted <= set(hi.nodes)


def test_confluence_small_instances(sys1, sys2, graph1, graph2):
    for sys_, graph in ((sys1, graph1), (sys2, graph2)):
        report = verifier.check_confluence(sys_, graph)
        assert report.passed
        assert report.details["diamonds"] > 0


def test_confluence_reports_every_diamond_that_does_not_join(
        sys2, graph2, monkeypatch):
    # With evaluation stopped, the two branches of each diamond are their
    # own distinct "fixed points".
    monkeypatch.setattr(verifier, "evaluate", lambda cfg, defs: cfg)
    report = verifier.check_confluence(sys2, graph2)
    assert report.passed is False
    assert report.details["diamonds"] > 0
    assert len(report.counterexamples) == report.details["diamonds"]


def test_two_conditionals_form_a_joining_diamond(sys2):
    # Two independent redexes: resolving in either order joins.
    left = located(1, cond(lit(nat(1)), out_atom(chan_b(1, 1), lit(nat(2))), ("nil",)))
    right = located(2, cond(lit(nat(0)), ("nil",), out_atom(chan_b(2, 1), lit(nat(3)))))
    cfg = cm.make_initial(sys2.inst)._replace(ti=1, net=npar(left, right))
    steps = eval_steps(cfg, sys2.defs)
    assert len(steps) == 2
    joined = {evaluate(c, sys2.defs) for _, c in steps}
    assert len(joined) == 1
    assert joined.pop() == evaluate(cfg, sys2.defs)


def test_correspondence_exact_on_small_instances(sys1, sys2):
    for sys_ in (sys1, sys2):
        report = verifier.check_correspondence(sys_)
        assert report.passed and not report.truncated
        assert report.checked > 0


def test_correspondence_validates_each_state_once(monkeypatch):
    # Past the bound, targets are met again and again from the states still
    # being checked; each is validated only the first time.
    validated = []
    original = repsem.validate_rep

    def counted(sys_, rep, source=None):
        validated.append(rep)
        return original(sys_, rep, source)

    monkeypatch.setattr(repsem, "validate_rep", counted)
    report = verifier.check_correspondence(
        cm.build_system(cm.make_instance(3, [1, 2, 3])), max_states=200)
    assert report.passed and report.truncated and report.checked == 200
    assert len(validated) > report.checked
    assert len(validated) == len(set(validated))


def test_correspondence_flags_missing_suspicion_rules():
    sys_ = cm.build_system(cm.make_instance(2, [5, 7]), ["no-phase1-susp"])
    report = verifier.check_correspondence(sys_)
    assert not report.passed
    assert report.complete_failures and not report.sound_failures


def test_correspondence_flags_overeager_consumption():
    sys_ = cm.build_system(cm.make_instance(2, [5, 7]), ["sr1-deletes-in1"])
    report = verifier.check_correspondence(sys_)
    assert not report.passed
    assert report.sound_failures


def test_normal_forms_round_trip(sys2, graph2):
    report = verifier.check_normal_forms(sys2, graph2)
    assert report.passed


def test_properties_single_agent(sys1, graph1):
    report = verifier.check_properties(sys1, graph1)
    assert report.passed
    assert report.details["decided_values"] == {"4": 1}


def test_properties_two_agents(sys2, graph2):
    report = verifier.check_properties(sys2, graph2)
    assert report.passed
    decided = set(report.details["decided_values"])
    assert decided == {"5", "7"}


def test_properties_need_full_graph(sys2):
    with pytest.raises(BoundExceeded) as exc:
        verifier.explore(sys2, "representative", max_states=10)
    with pytest.raises(GraphTruncated):
        verifier.check_properties(sys2, exc.value.graph)
    with pytest.raises(GraphTruncated):
        verifier.check_confluence(sys2, exc.value.graph)


def test_unprotected_immortal_breaks_the_algorithm():
    sys_ = cm.build_system(cm.make_instance(2, [5, 7]), ["no-ti-protection"])
    graph = verifier.explore(sys_, "representative")
    report = verifier.check_properties(sys_, graph)
    assert not report.passed
    text = " ".join(report.counterexamples)
    assert "agreement broken" in text
    assert "algorithm undefined" in text
    assert "maximal run ends undecided" in text


def test_skipping_erasure_breaks_agreement():
    sys_ = cm.build_system(cm.make_instance(2, [5, 7]), ["skip-correct"])
    graph = verifier.explore(sys_, "representative")
    report = verifier.check_properties(sys_, graph)
    assert not report.passed
    assert any("agreement broken" in c for c in report.counterexamples)
    # Both semantics carry the same mutation, so they still correspond.
    assert verifier.check_correspondence(sys_).passed


def test_bisimulation_reflexive(sys1, graph1):
    ok, _ = reference_weak_bisim(graph1, graph1)
    assert ok


def test_bisimulation_with_ok_spec(sys1, sys2, graph1, graph2):
    for sys_, graph in ((sys1, graph1), (sys2, graph2)):
        ok, relation = verifier.weak_bisim(graph)
        assert ok
        assert len(relation) == len(graph.node_ids)


def test_bisimulation_counterexample_mentions_ok():
    sys_ = cm.build_system(cm.make_instance(2, [5, 7]), ["skip-correct"])
    graph = verifier.explore(sys_, "representative")
    ok, evidence = verifier.weak_bisim(graph)
    assert not ok
    assert "ok" in evidence


def test_dot_export_is_wellformed(graph1):
    dot = verifier.export_dot(graph1)
    assert dot.startswith("digraph") and dot.endswith("}")
    assert dot.count("->") == len(graph1.edges)
    assert verifier.export_dot(graph1) == dot


def test_graph_json_is_byte_stable(sys2, graph2):
    a = json.dumps(verifier.graph_jsonable(graph2), sort_keys=True)
    fresh = verifier.explore(sys2, "representative")
    b = json.dumps(verifier.graph_jsonable(fresh), sort_keys=True)
    assert a == b


def test_graph_json_bytes_are_pinned(graph2):
    # n=2, values (5,7), budget 1: 230 states, 470 transitions.  A change
    # of numbering, edge order or encoding changes this digest.
    data = json.dumps(verifier.graph_jsonable(graph2), sort_keys=True).encode()
    assert hashlib.sha256(data).hexdigest() == (
        "1d25c986f7dced5e3890d62b59df7a200dd715b9b16d603934e331d45af9fe11")


def test_dot_bytes_are_pinned(graph2):
    # The same graph as DOT: its node labels, and each edge's rule family
    # and action.
    data = verifier.export_dot(graph2).encode()
    assert hashlib.sha256(data).hexdigest() == (
        "70b0e1c2611d356f351bf13d613ebb56a112661de721212736987efe98112288")


def test_graph_stats(graph1):
    stats = verifier.graph_stats(graph1)
    assert stats["states"] == 3
    assert stats["transitions"] == 3
    assert stats["terminal_states"] == 1
    assert stats["decided_values"] == {"4": 1}
