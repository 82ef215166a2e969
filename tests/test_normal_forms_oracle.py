"""``verifier.check_normal_forms`` against the whole-term round trip.

``reference_normal_forms`` is the loop the check replaced: per node it
expands the representative (``sfi``), extracts it again (``sf``) and
evaluates the expansion.  The check reads the same facts off the slot memo
and ``_assemble`` (the compositionality lemma in ``evaluation``), and must
give the same report, counterexamples in order, on the seven n<=2
acceptance instances, unmutated and under each mutation, and on a BFS
prefix of the n=3 instance.  Two hand-built graphs make it fail: a node
whose round messages are out of order, and a node that keeps a message of
an agent missing from its live set.
"""

import pytest

from consrep import consensus_model as cm
from consrep import repsem, verifier
from consrep.errors import BoundExceeded
from consrep.evaluation import evaluate
from consrep.graph import LtsGraph
from conftest import edges_from_transitions
from test_acceptance import INSTANCE_3, INSTANCES_1, INSTANCES_2

N3_BOUND = 3000


def reference_normal_forms(sys, graph):
    failures = []
    for rep in graph.nodes:
        expanded = repsem.sfi(sys, rep)
        if repsem.sf(sys, expanded) != rep:
            failures.append(f"round trip broke at {repsem.rep_digest(rep)}")
        fixed = evaluate(expanded, sys.defs)
        if fixed != expanded:
            failures.append(
                f"expansion of {repsem.rep_digest(rep)} is not fully evaluated"
            )
    return verifier.CheckReport(
        name="normal-forms",
        passed=not failures,
        details={"states": len(graph.node_ids)},
        counterexamples=failures,
    )


def assert_same(sys_, graph):
    fast = verifier.check_normal_forms(sys_, graph)
    slow = reference_normal_forms(sys_, graph)
    assert (fast.passed, fast.details, fast.counterexamples) == (
        slow.passed, slow.details, slow.counterexamples)
    return fast


def one_node_graph(rep):
    node_ids = {rep: 0}
    return LtsGraph((rep,), node_ids, edges_from_transitions(node_ids, []))


@pytest.mark.parametrize("mutation", [None, *sorted(cm.MUTATIONS)])
def test_check_agrees_with_the_reference_on_n12(mutation):
    for inst in INSTANCES_1 + INSTANCES_2:
        sys_ = cm.build_system(inst, [mutation] if mutation else [])
        report = assert_same(sys_, verifier.explore(sys_, "representative"))
        assert report.passed


def test_check_agrees_with_the_reference_on_an_n3_prefix():
    sys3 = cm.build_system(INSTANCE_3)
    with pytest.raises(BoundExceeded) as exc:
        verifier.explore(sys3, "representative", max_states=N3_BOUND)
    report = assert_same(sys3, exc.value.graph)
    assert report.passed and report.details["states"] == N3_BOUND


def test_out_of_order_messages_break_the_round_trip(sys2, graph2):
    rep = next(r for r in graph2.nodes if len(set(r.out1)) > 1)
    broken = rep._replace(out1=rep.out1[::-1])
    report = assert_same(sys2, one_node_graph(broken))
    assert report.counterexamples == [
        f"round trip broke at {repsem.rep_digest(broken)}"]


def test_a_message_of_a_dead_agent_is_not_fully_evaluated(sys2, graph2):
    # A state after agent 2 crashed, given back a round message agent 2
    # sends in some other reachable state.
    crashed = next(r for r in graph2.nodes if r.live == (1,))
    message = next(m for r in graph2.nodes for m in r.out1 if m[0] == 2)
    broken = crashed._replace(out1=tuple(sorted(crashed.out1 + (message,))))
    report = assert_same(sys2, one_node_graph(broken))
    digest = repsem.rep_digest(broken)
    assert report.counterexamples == [
        f"round trip broke at {digest}",
        f"expansion of {digest} is not fully evaluated"]
