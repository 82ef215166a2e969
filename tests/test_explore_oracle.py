"""``verifier.explore`` against the breadth-first loop that stores every
transition as the successor function returns it.

``reference_explore`` is that loop, over a given successor function; its
graph stores the transitions through ``conftest.edges_from_transitions``.
Over ``lts.successors`` it is the oracle of ``verifier.explore``, which must
give the same nodes in the same order, the same edges (as columns and as
``Transition``s, edge by edge), truncation flag and defects, while
holding one object per state, per rule and per action: every edge's
source and target are the stored nodes.  The same states
back the fact that lets ``repsem.rep_successors`` skip deduplication:
within one state its rule instances are pairwise distinct.  Over
``conftest.calculus_successors`` it explores the calculus semantics, which
no code under ``src`` explores as a graph.

``verifier.check_correspondence`` runs the same loop, and a report that
passes and is not truncated carries the graph ``explore`` builds; on
every other run it carries none.
"""

from collections import deque

import pytest

from consrep import consensus_model as cm
from consrep import lts, repsem, verifier
from consrep.errors import BoundExceeded, EmptyKnowledge
from conftest import edges_from_transitions
from test_acceptance import INSTANCE_3, INSTANCES_1, INSTANCES_2

N3_PREFIX = 3000


def reference_explore(sys, successors, max_states=verifier.DEFAULT_MAX_STATES):
    """The graph of the states reachable under ``successors`` (a function
    of a System and a state, returning its sorted ``Transition``s)."""
    initials = tuple(lts.initial_reps(sys))
    node_ids: dict = {}
    edges: list = []
    defects: list = []
    queue: deque = deque()
    for rep in initials:
        if rep not in node_ids:
            node_ids[rep] = len(node_ids)
            queue.append(rep)
    while queue:
        rep = queue.popleft()
        try:
            succs = successors(sys, rep)
        except EmptyKnowledge as exc:
            defects.append((rep, str(exc)))
            continue
        for tr in succs:
            if tr.target not in node_ids:
                repsem.validate_rep(sys, tr.target)
                if len(node_ids) >= max_states:
                    graph = verifier.LtsGraph(
                        initials, node_ids, edges_from_transitions(node_ids, edges),
                        truncated=True, defects=tuple(defects))
                    raise BoundExceeded(graph, max_states)
                node_ids[tr.target] = len(node_ids)
                queue.append(tr.target)
            edges.append(tr)
    return verifier.LtsGraph(initials, node_ids,
                             edges_from_transitions(node_ids, edges),
                             defects=tuple(defects))


def bounded(explorer, *args):
    try:
        return explorer(*args)
    except BoundExceeded as exc:
        return exc.graph


def n12_systems():
    for mutation in [None] + sorted(cm.MUTATIONS):
        for inst in INSTANCES_1 + INSTANCES_2:
            yield cm.build_system(inst, [mutation] if mutation else [])


@pytest.fixture(scope="module")
def explored():
    """(system, explored graph, reference graph) for every n<=2 instance
    under every mutation, then the n=3 (1,2,3) prefix."""
    runs = [(sys_, verifier.DEFAULT_MAX_STATES) for sys_ in n12_systems()]
    runs.append((cm.build_system(INSTANCE_3), N3_PREFIX))
    return [(sys_, bounded(verifier.explore, sys_, "representative", bound),
             bounded(reference_explore, sys_, lts.successors, bound))
            for sys_, bound in runs]


def test_explore_agrees_and_shares(explored):
    assert len(explored) == 5 * 7 + 1
    assert any(graph.defects for _, graph, _ in explored)
    assert explored[-1][1].truncated
    for _, fast, slow in explored:
        assert list(fast.node_ids.items()) == list(slow.node_ids.items())
        assert fast.edges == slow.edges
        assert list(fast.edges) == list(slow.edges)
        assert (fast.truncated, fast.defects) == (slow.truncated, slow.defects)

        stored = {rep: rep for rep in fast.node_ids}
        for tr in fast.edges:
            assert stored[tr.source] is tr.source
            assert stored[tr.target] is tr.target
        for name in ("rule", "action"):
            values = [getattr(tr, name) for tr in fast.edges]
            assert len({id(v) for v in values}) == len(set(values))


def test_rep_successor_rules_are_distinct(explored):
    states = 0
    for sys_, graph, _ in explored:
        defective = {rep for rep, _ in graph.defects}
        for rep in graph.nodes:
            if rep in defective:
                continue
            succs = repsem.rep_successors(sys_, rep)
            rules = [rule for rule, _ in succs]
            assert len(set(rules)) == len(rules)
            assert sorted(succs) == sorted(set(succs))
            states += 1
    assert states > N3_PREFIX


def test_correspondence_carries_the_explored_graph(explored):
    handed = with_defects = 0
    for sys_, graph, _ in explored:
        bound = N3_PREFIX if sys_.n == 3 else verifier.DEFAULT_MAX_STATES
        report = verifier.check_correspondence(sys_, bound)
        if not report.passed:
            assert report.graph is None
            continue
        if report.truncated:
            assert report.graph.truncated
            continue
        carried = report.graph
        assert list(carried.node_ids.items()) == list(graph.node_ids.items())
        assert carried.initials == graph.initials
        edges, expected = carried.edges, graph.edges
        assert edges.nodes == expected.nodes and edges.labels == expected.labels
        assert (edges.offsets, edges.targets, edges.label_ids) == (
            expected.offsets, expected.targets, expected.label_ids)
        assert (carried.truncated, carried.defects) == (False, graph.defects)
        handed += 1
        with_defects += bool(graph.defects)
    # Every unmutated run hands its graph over, and so does a run where both
    # semantics are undefined on the same states; the two mutations that
    # break the correspondence do not, on any n=2 instance.
    assert handed == len(explored) - 1 - 2 * 6
    assert with_defects > 0
