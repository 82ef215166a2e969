"""``verifier.check_properties`` against the per-state, per-edge check.

``reference_properties`` is the check as it read before validity was
judged per entry: per node it decodes every relay and knowledge vector of
every entry (``reference_validity_violations``), and per edge it reads the
source and target representatives themselves, building a set of each live
set.  The check judges each entry once and reads int columns (live
bitmask, budget, ti) per edge, and must give the same report,
counterexamples in order, on the seven n<=2 acceptance instances,
unmutated and under each mutation, and on a BFS prefix of the n=3
instance.  Hand-built states and edges break each validity message and
each trace invariant.  ``reference_tau_cycle`` is the internal-step cycle
search over per-node lists of τ-targets; ``verifier._tau_cycle`` walks
the edge columns and must find the same cycle on seeded random graphs.
``reference_rule_facts`` is the rule-text parser the check used before
rules were records (``repsem.Rule``): on every label of those runs, the
record's fields must say what the parse of its text says.
"""

import random
from array import array
from itertools import pairwise

import pytest

from consrep import consensus_model as cm
from consrep import lts, repsem, verifier
from consrep.calculus_ast import BOT, CHAN_OK, nat, value_str
from consrep.errors import BoundExceeded, GraphTruncated
from consrep.graph import Edges, LtsGraph
from consrep.lts import OK, TAU, action_str
from conftest import edges_from_transitions, tau_targets
from test_acceptance import INSTANCE_3, INSTANCES_1, INSTANCES_2

N3_BOUND = 3000


def _rule_family(rule: str) -> str:
    return rule.split()[0]


def _rule_params(rule: str) -> dict:
    params = {}
    for part in rule.split()[1:]:
        if "=" in part:
            k, v = part.split("=", 1)
            params[k] = v
    return params


_SUSPICION_FAMILIES = {"SR4", "SR5", "SR6", "SR4'", "SR5'", "Susp"}
_PERFECT_FAMILIES = {"SRW2", "PSusp"}
_CRASH_FAMILIES = {"SR7", "Stop"}


def reference_rule_facts(rule: str) -> tuple:
    """What the check once parsed out of a rule's text: its family, the
    agent a suspicion suspects (None if none), the agent a perfect
    suspicion passes (None if none), and whether it crashes an agent."""
    family = _rule_family(rule)
    params = _rule_params(rule)
    suspected = perfect = None
    if family in _SUSPICION_FAMILIES:
        suspected = int(params.get("p") or params.get("k"))
    if family in _PERFECT_FAMILIES:
        perfect = int(params.get("j") or params.get("k"))
    return family, suspected, perfect, family in _CRASH_FAMILIES


def reference_label_checks(action, rule: str) -> tuple:
    _, suspected, perfect, crash = reference_rule_facts(rule)
    foreign = action != TAU and action != OK
    return action, rule, foreign, suspected, perfect, crash


def reference_validity_violations(sys, rep) -> list:
    uvals = {("nat", v) for v in sys.u}
    bad = []
    for p, i, r, dv in rep.out1:
        if not verifier._valid_relay(sys, dv):
            bad.append(f"round message {p}->{i} r{r} carries an invalid vector")
    for p, i, vv in rep.out2:
        if not verifier._valid_know(sys, vv):
            bad.append(f"sync message {p}->{i} carries an invalid vector")
    for p, v in rep.out3:
        if v not in uvals:
            bad.append(f"agent {p} decided unproposed value {value_str(v)}")
    for p, r, vv, msgs, _ in rep.in1:
        if not verifier._valid_know(sys, vv) or not verifier._valid_msgs(sys, msgs):
            bad.append(f"collector {p} r{r} holds invalid state")
    for p, vv, msgs, _ in rep.in2:
        if not verifier._valid_know(sys, vv) or not verifier._valid_msgs(sys, msgs):
            bad.append(f"collector {p} holds invalid state")
    ww = rep.wrap[1]
    if ww != BOT and ww not in uvals:
        bad.append(f"observer remembers unproposed value {value_str(ww)}")
    return bad


def reference_safety_subset(sys, reps) -> verifier.CheckReport:
    failures: list = []
    count = 0
    for rep in reps:
        count += 1
        failures.extend(reference_validity_violations(sys, rep))
        if rep.wrap[2] == 0:
            failures.append(
                f"agreement broken: observer went inert at {repsem.rep_digest(rep)}"
            )
    return verifier.CheckReport(
        name="safety-subset",
        passed=not failures,
        details={"states": count},
        counterexamples=failures,
    )


def reference_tau_cycle(edges):
    """One internal-step cycle as node ids, or None: a depth-first search
    over each node's list of τ-targets."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = bytearray(len(edges.nodes))
    for root in range(len(colour)):
        if colour[root] != WHITE:
            continue
        colour[root] = GREY
        trail = [root]
        stack = [iter(tau_targets(edges, root))]
        while stack:
            for child in stack[-1]:
                if colour[child] == GREY:
                    return trail[trail.index(child):] + [child]
                if colour[child] == WHITE:
                    colour[child] = GREY
                    trail.append(child)
                    stack.append(iter(tau_targets(edges, child)))
                    break
            else:
                colour[trail.pop()] = BLACK
                stack.pop()
    return None


def reference_properties(sys, graph) -> verifier.CheckReport:
    if graph.truncated:
        raise GraphTruncated("properties need a fully explored graph")
    failures: list = []

    for rep, diagnosis in graph.defects:
        failures.append(
            f"algorithm undefined at {repsem.rep_digest(rep)}: {diagnosis}"
        )
    failures.extend(reference_safety_subset(sys, graph.nodes).counterexamples)

    edges = graph.edges
    nodes, targets, label_ids = edges.nodes, edges.targets, edges.label_ids
    checks = [reference_label_checks(action, rule) for action, rule in edges.labels]
    for source, (lo, hi) in zip(nodes, pairwise(edges.offsets)):
        for i in range(lo, hi):
            target = nodes[targets[i]]
            action, rule, foreign, suspected, perfect, crash = checks[label_ids[i]]
            if foreign:
                failures.append(f"observable other than ok: {action_str(action)}")
            if suspected == source.ti:
                failures.append(f"trusted immortal suspected via {rule}")
            if perfect in source.live:
                failures.append(f"live agent {perfect} perfectly suspected")
            if target.live != source.live and not set(target.live) <= set(source.live):
                failures.append(f"live set grew across {rule}")
            if target.budget > source.budget:
                failures.append(f"crash budget grew across {rule}")
            if (target.budget < source.budget) != crash:
                failures.append(f"budget change does not match rule {rule}")

    cycle = reference_tau_cycle(edges)
    if cycle is not None:
        failures.append(
            "internal-step cycle through "
            + " -> ".join(repsem.rep_digest(nodes[s]) for s in cycle)
        )
    stuck = 0
    for s, rep in enumerate(nodes):
        if not tau_targets(edges, s) and not lts.emits_ok(rep):
            stuck += 1
            failures.append(f"maximal run ends undecided at {repsem.rep_digest(rep)}")
    return verifier.CheckReport(
        name="properties",
        passed=not failures,
        details={
            "states": len(graph.node_ids),
            "transitions": len(graph.edges),
            "decided_values": verifier._decided_values(graph),
            "undecided_maximal_states": stuck,
        },
        counterexamples=failures,
    )


def assert_same(sys_, graph):
    fast = verifier.check_properties(sys_, graph)
    slow = reference_properties(sys_, graph)
    assert (fast.passed, fast.details, fast.counterexamples) == (
        slow.passed, slow.details, slow.counterexamples)
    return fast


def graph_of(transitions, *extra):
    """The graph of ``transitions`` (grouped by source) over their states
    and ``extra``, numbered in order of first appearance."""
    node_ids: dict = {}
    for source, _, target, _ in transitions:
        node_ids.setdefault(source, len(node_ids))
        node_ids.setdefault(target, len(node_ids))
    for rep in extra:
        node_ids.setdefault(rep, len(node_ids))
    transitions = sorted(transitions, key=lambda tr: node_ids[tr[0]])
    return LtsGraph(tuple(node_ids)[:1], node_ids,
                    edges_from_transitions(node_ids, transitions))


@pytest.mark.parametrize("mutation", [None, *sorted(cm.MUTATIONS)])
def test_check_agrees_with_the_reference_on_n12(mutation):
    failing = 0
    for inst in INSTANCES_1 + INSTANCES_2:
        sys_ = cm.build_system(inst, [mutation] if mutation else [])
        graph = verifier.explore(sys_, "representative")
        failing += not assert_same(sys_, graph).passed
        # The memo on the System gives the same verdicts a second time.
        assert_same(sys_, graph)
    # Every mutation breaks some property on some instance.
    assert (failing > 0) == (mutation is not None)


def test_check_agrees_with_the_reference_on_an_n3_prefix():
    sys3 = cm.build_system(INSTANCE_3)
    with pytest.raises(BoundExceeded) as exc:
        verifier.explore(sys3, "representative", max_states=N3_BOUND)
    graph = exc.value.graph
    safety = verifier.check_safety_subset(sys3, graph.nodes)
    assert safety.passed and safety.details["states"] == N3_BOUND
    assert safety == reference_safety_subset(sys3, graph.nodes)
    # The frontier past the bound has no edges, so it ends maximal runs
    # undecided; the two checks must still read the same.
    graph.truncated = False
    report = assert_same(sys3, graph)
    assert report.details["undecided_maximal_states"] > 0


def test_rule_records_agree_with_their_text():
    """Every label's rule is a ``repsem.Rule`` whose fields say what the
    reference parse reads off its text, on the seven n<=2 instances,
    unmutated and under each mutation, and on the n=3 prefix."""
    graphs = [verifier.explore(cm.build_system(inst, [mutation] if mutation else []))
              for mutation in [None, *sorted(cm.MUTATIONS)]
              for inst in INSTANCES_1 + INSTANCES_2]
    with pytest.raises(BoundExceeded) as exc:
        verifier.explore(cm.build_system(INSTANCE_3), max_states=N3_BOUND)
    graphs.append(exc.value.graph)
    families = set()
    for graph in graphs:
        for _, rule in graph.edges.labels:
            assert type(rule) is repsem.Rule
            family, suspected, perfect, crash = reference_rule_facts(rule)
            assert (rule.family, rule.suspected, rule.perfect or None,
                    rule.key[0] == "x") == (family, suspected, perfect, crash)
            families.add(family)
    assert len(graphs) == 5 * 7 + 1
    assert families == {"SR1", "SR2", "SR3", "SR4", "SR5", "SR6", "SR1'",
                        "SR2'", "SR4'", "SR5'", "SR7", "SRW1", "SRW2", "Snd"}


def test_tau_cycle_agrees_with_the_reference_on_random_graphs():
    """The same cycle, or none, on seeded random graphs whose edges mix τ,
    ok and another action, with self-loops and parallel edges."""
    rng = random.Random(20261019)
    labels = ((TAU, "a"), (TAU, "b"), (OK, "Snd ok"),
              (lts.act_send(CHAN_OK, nat(1)), "Snd x"))
    found = 0
    for _ in range(400):
        n = rng.randint(1, 12)
        offsets, targets, label_ids = array("I", [0]), array("I"), array("I")
        for _ in range(n):
            for _ in range(rng.randint(0, 3)):
                targets.append(rng.randrange(n))
                label_ids.append(rng.randrange(len(labels)))
            offsets.append(len(targets))
        edges = Edges(list(range(n)), offsets, targets, label_ids, labels)
        cycle = verifier._tau_cycle(edges)
        assert cycle == reference_tau_cycle(edges)
        found += cycle is not None
    assert 0 < found < 400


def _states(graph2):
    full = next(r for r in graph2.nodes if r.live == (1, 2) and r.budget == 1
                and r.ti == 1 and r.out1 and r.in1)
    crashed = next(r for r in graph2.nodes if r.live == (1,) and r.budget == 0
                   and r.ti == 1)
    return full, crashed


def _bad_vectors():
    """An out1, out2, out3, in1 and in2 entry of the (5,7) instance, each
    invalid, with the message the check gives it."""
    five, seven, nine = nat(5), nat(7), nat(9)
    good_know = cm.know_vec([(1, five, 0), (2, seven, 0)])
    slot_swapped = cm.know_vec([(1, seven, 0), (2, five, 0)])
    late = cm.know_vec([(1, five, 2), (2, BOT, 0)])          # round past n-1
    return [
        ("out1", (1, 2, 1, cm.relay_vec([(1, nine), (2, BOT)])),
         "round message 1->2 r1 carries an invalid vector"),
        ("out2", (2, 1, slot_swapped), "sync message 2->1 carries an invalid vector"),
        ("out3", (1, nine), "agent 1 decided unproposed value 9"),
        ("in1", (1, 1, late, ("set", ()), 2), "collector 1 r1 holds invalid state"),
        ("in2", (2, good_know, cm.msg_add2(("set", ()), good_know, 3), 1),
         "collector 2 holds invalid state"),
    ]


def test_validity_is_judged_once_per_entry(monkeypatch):
    sys_ = cm.build_system(INSTANCES_2[1])
    graph = verifier.explore(sys_, "representative")
    judged = []

    def counted(judge):
        return lambda sys, entry: judged.append(entry) or judge(sys, entry)

    monkeypatch.setattr(verifier, "_ENTRY_VALIDITY",
                        tuple(map(counted, verifier._ENTRY_VALIDITY)))
    entries = [e for rep in graph.nodes for field in rep[3:8] for e in field]
    assert verifier.check_properties(sys_, graph).passed
    assert len(judged) == len({id(e) for e in entries}) < len(entries)
    # A second check reads every verdict off the System's memo.
    verifier.check_properties(sys_, graph)
    assert len(judged) == len({id(e) for e in entries})


@pytest.mark.parametrize("field, entry, message",
                         _bad_vectors(), ids=[f for f, _, _ in _bad_vectors()])
def test_an_invalid_entry_is_named_once_per_occurrence(sys2, graph2, field,
                                                       entry, message):
    full, crashed = _states(graph2)
    broken = full._replace(**{field: getattr(full, field) + (entry,)})
    other = crashed._replace(**{field: (entry,) + getattr(crashed, field)})
    # The same entry object in two states is named in each.
    report = verifier.check_safety_subset(sys2, [broken, full, other])
    assert report == reference_safety_subset(sys2, [broken, full, other])
    assert report.counterexamples == [message, message]
    assert_same(sys2, graph_of([], broken, other))


@pytest.mark.parametrize("wrap, message", [
    ((1, nat(9), 1), "observer remembers unproposed value 9"),
    ((1, nat(5), 0), "agreement broken: observer went inert at {}"),
], ids=["unproposed", "inert"])
def test_the_observer_is_judged_per_state(sys2, graph2, wrap, message):
    full, _ = _states(graph2)
    broken = full._replace(wrap=wrap)
    report = assert_same(sys2, graph_of([], broken))
    assert message.format(repsem.rep_digest(broken)) in report.counterexamples


def _trace_cases(graph2):
    full, crashed = _states(graph2)
    poorer = full._replace(budget=0)
    # The rule records of the graph's own edges, looked up by their text.
    rule = {rule: rule for _, rule in graph2.edges.labels}.__getitem__
    sr1, sr7 = rule("SR1 q=1 p=1 r=1"), rule("SR7 p=2")
    return {
        "foreign": ([(full, lts.act_send(CHAN_OK, nat(1)), full, rule("Snd ok"))],
                    "observable other than ok: ok!1"),
        "suspected-ti": ([(full, TAU, full, rule("SR4 q=2 p=1 r=1"))],
                         "trusted immortal suspected via SR4 q=2 p=1 r=1"),
        "perfect-live": ([(full, TAU, full, rule("SRW2 j=2"))],
                         "live agent 2 perfectly suspected"),
        "live-grew": ([(crashed, TAU, full, sr1)],
                      "live set grew across SR1 q=1 p=1 r=1"),
        "budget-grew": ([(poorer, TAU, full, sr1)],
                        "crash budget grew across SR1 q=1 p=1 r=1"),
        "crash-kept-budget": ([(full, TAU, full, sr7)],
                              "budget change does not match rule SR7 p=2"),
        "budget-dropped": ([(full, TAU, poorer, sr1)],
                           "budget change does not match rule SR1 q=1 p=1 r=1"),
        "tau-cycle": ([(full, TAU, crashed, sr7), (crashed, TAU, full, sr7)],
                      "internal-step cycle through {} -> {} -> {}".format(
                          *map(repsem.rep_digest, (full, crashed, full)))),
        "undecided": ([(full, TAU, crashed, sr7)],
                      f"maximal run ends undecided at {repsem.rep_digest(crashed)}"),
    }


@pytest.mark.parametrize("case", ["foreign", "suspected-ti", "perfect-live",
                                  "live-grew", "budget-grew",
                                  "crash-kept-budget", "budget-dropped",
                                  "tau-cycle", "undecided"])
def test_each_trace_invariant_is_caught(sys2, graph2, case):
    transitions, message = _trace_cases(graph2)[case]
    report = assert_same(sys2, graph_of(transitions))
    assert message in report.counterexamples
