"""The int columns of an explored graph's edges (``consrep.graph.Edges``).

``explore`` builds the columns from (action, target,
rule) triples.  ``len``, ``hash`` and ``==`` on ``graph.edges`` read the
columns, and so do the checks that walk the edges (``check_properties``,
``weak_bisim`` passing and failing, ``graph_stats``) and
``check_normal_forms``: neither they nor that ``explore`` builds an
``lts.Transition``, which is counted by replacing the class with a
subclass that counts its instances.  The columns are a value: a graph
rebuilt from its transitions is equal and hashes equal.  A graph cut by the state bound keeps, for the
source that overflowed, the edges it had before the first target past the
bound, and no edges for the nodes after it.
"""

from itertools import takewhile

import pytest

from consrep import consensus_model as cm
from consrep import lts, verifier
from consrep.errors import BoundExceeded
from conftest import edges_from_transitions
from test_acceptance import INSTANCE_3, INSTANCES_1, INSTANCES_2


@pytest.fixture
def transitions_built(monkeypatch):
    built = [0]

    class Counted(lts.Transition):
        def __new__(cls, *args):
            built[0] += 1
            return super().__new__(cls, *args)

    monkeypatch.setattr(lts, "Transition", Counted)
    return built


def _bounded(sys_, bound):
    with pytest.raises(BoundExceeded) as exc:
        verifier.explore(sys_, "representative", max_states=bound)
    return exc.value.graph


def _graphs():
    for inst in INSTANCES_1 + INSTANCES_2:
        sys_ = cm.build_system(inst)
        yield sys_, verifier.explore(sys_, "representative")
    sys3 = cm.build_system(INSTANCE_3)
    yield sys3, _bounded(sys3, 500)


def test_columns_hash_and_compare_like_the_transitions():
    for _, graph in _graphs():
        transitions = list(graph.edges)
        assert len(graph.edges) == len(transitions)
        rebuilt = edges_from_transitions(graph.node_ids, transitions)
        assert rebuilt == graph.edges and list(rebuilt) == transitions
        assert hash(rebuilt) == hash(graph.edges)
        if len(transitions) > 1:
            shorter = edges_from_transitions(graph.node_ids, transitions[:-1])
            assert shorter != graph.edges
            with pytest.raises(ValueError):
                edges_from_transitions(graph.node_ids, transitions[::-1])


def test_len_hash_eq_and_the_checks_build_no_transition(transitions_built):
    sys_ = cm.build_system(INSTANCES_2[1])
    graph = verifier.explore(sys_, "representative")
    again = verifier.explore(sys_, "representative")
    failing = verifier.explore(cm.build_system(INSTANCES_2[1], ["skip-correct"]))
    truncated = _bounded(cm.build_system(INSTANCE_3), 300)
    transitions_built[0] = 0

    assert len(graph.edges) > 0 and len(truncated.edges) > 0
    hash(graph.edges)
    hash((tuple(truncated.node_ids), truncated.edges))
    assert graph.edges == again.edges
    assert graph.edges != truncated.edges
    assert verifier.check_properties(sys_, graph).passed
    assert verifier.weak_bisim(graph)[0]
    assert not verifier.weak_bisim(failing)[0]
    assert verifier.check_normal_forms(sys_, graph).passed
    verifier.graph_stats(graph)
    assert transitions_built[0] == 0

    # The counter sees the transitions that iteration builds.
    assert len(list(graph.edges)) == transitions_built[0] == len(graph.edges)


def test_representative_explore_builds_no_transition(transitions_built):
    # _graphs explores every n<=2 instance and the 500-state n=3 prefix.
    graphs = list(_graphs())
    assert transitions_built[0] == 0
    assert sum(len(graph.edges) for _, graph in graphs) > 0


@pytest.mark.parametrize("inst, bound", [(INSTANCES_2[1], 10), (INSTANCE_3, 300)])
def test_bound_exceeded_graph_keeps_the_partial_source(inst, bound):
    sys_ = cm.build_system(inst)
    graph = _bounded(sys_, bound)
    edges = graph.edges
    nodes = edges.nodes
    assert len(nodes) == len(graph.node_ids) == bound
    assert len(edges.offsets) == bound + 1

    def out_edges(s):
        return [tr for tr in graph.edges if tr.source is nodes[s]]

    # Every node before the overflowing source is fully expanded.
    s = 0
    while True:
        succs = lts.successors(sys_, nodes[s])
        if not all(tr.target in graph.node_ids for tr in succs):
            break
        assert out_edges(s) == succs
        s += 1
    # The overflowing source keeps what it had before the first target
    # past the bound; the nodes after it were never expanded.
    partial = list(takewhile(lambda tr: tr.target in graph.node_ids, succs))
    assert out_edges(s) == partial
    assert edges.offsets[s + 1] - edges.offsets[s] == len(partial)
    assert set(edges.offsets[s + 1:]) == {len(edges)}
