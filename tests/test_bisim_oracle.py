"""``verifier.weak_bisim`` against a generic weak-bisimulation checker.

``reference_weak_bisim`` is the checker ``weak_bisim`` replaced: partition
refinement over the τ-closure of every state of two graphs, here run
against ``ok_spec_graph``, the one-state specification with an ``ok``
self-loop.  ``weak_bisim`` decides the same question by one reverse BFS
over the τ-edges (the lemma in its docstring), and must give the same
verdict on the seven n<=2 acceptance instances, unmutated and under each
mutation, and on hand-built graphs that emit a foreign action or never
reach ``ok``; on a pass its relation must be as long as the reference's.
On a failure its evidence names the nearest bad state and the shortest
schedule to it, which must replay along the graph's edges.
"""

import shlex
from itertools import pairwise

import pytest

from consrep import consensus_model as cm
from consrep import lts, repsem, verifier
from consrep.calculus_ast import BOT, chan_c, nat
from consrep.errors import GraphTruncated
from consrep.graph import LtsGraph
from consrep.lts import TAU, action_str
from conftest import edges_from_transitions
from test_acceptance import INSTANCES_1, INSTANCES_2


def ok_spec_graph(sys: cm.System) -> LtsGraph:
    """The specification: an observer standing at the public ok output,
    nothing else, no crashes left."""
    spec_rep = repsem.Representative(
        live=tuple(range(1, sys.n + 1)),
        budget=0,
        ti=1,
        out1=(), out2=(), out3=(), in1=(), in2=(),
        wrap=(0, BOT, 1),
    )
    node_ids = {spec_rep: 0}
    edges = edges_from_transitions(node_ids, lts.successors(sys, spec_rep))
    return LtsGraph((spec_rep,), node_ids, edges)


def reference_weak_bisim(g1: LtsGraph, g2: LtsGraph):
    """Decide weak bisimilarity of the initial states of two graphs.

    Returns (True, relation) with the relation as cross-graph node-id
    pairs, or (False, description of a distinguishing observation path).
    """
    if g1.truncated or g2.truncated:
        raise GraphTruncated("bisimulation needs fully explored graphs")

    # State k is node k of g1, or node k - n1 of g2.
    n1 = len(g1.node_ids)
    size = n1 + len(g2.node_ids)
    graphs = (g1, g2)
    bases = (0, n1)

    tau_succ: list = [[] for _ in range(size)]
    visible: dict = {}
    for base, g in zip(bases, graphs):
        edges = g.edges
        labels, targets, label_ids = edges.labels, edges.targets, edges.label_ids
        for s, (lo, hi) in enumerate(pairwise(edges.offsets), base):
            for i in range(lo, hi):
                action = labels[label_ids[i]][0]
                dst = base + targets[i]
                if action == TAU:
                    tau_succ[s].append(dst)
                else:
                    if action not in visible:
                        visible[action] = [[] for _ in range(size)]
                    visible[action][s].append(dst)

    def closure(start: int) -> frozenset:
        seen = {start}
        frontier = [start]
        while frontier:
            s = frontier.pop()
            for t in tau_succ[s]:
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        return frozenset(seen)

    tclo = [closure(k) for k in range(size)]
    weak_moves: dict = {}
    for action, succ in sorted(visible.items()):
        moves = []
        for k in range(size):
            reach: set = set()
            for x in tclo[k]:
                for y in succ[x]:
                    reach |= tclo[y]
            moves.append(frozenset(reach))
        weak_moves[action] = moves

    labels = sorted(weak_moves)
    block = [0] * size
    history = [block]
    while True:
        sigs = {}
        new_block = []
        for k in range(size):
            sig = (
                block[k],
                frozenset(block[x] for x in tclo[k]),
                tuple(frozenset(block[x] for x in weak_moves[a][k]) for a in labels),
            )
            if sig not in sigs:
                sigs[sig] = len(sigs)
            new_block.append(sigs[sig])
        if new_block == block:
            break
        block = new_block
        history.append(block)

    initials = [base + g.node_ids[r] for base, g in zip(bases, graphs)
                for r in g.initials]
    if len({block[k] for k in initials}) == 1:
        relation = [(i, j) for i in range(n1) for j in range(size - n1)
                    if block[i] == block[n1 + j]]
        return True, relation

    def distinguish(s: int, t: int) -> list:
        """A distinguishing observation path, replayed off the refinement.

        The two states first get different classes in some refinement
        round; at the round before, their signatures differ on a label.
        A visible difference ends the path; a silent one steps into the
        class only one side reaches, where the states already differ one
        round earlier, so the replay terminates."""
        path: list = []
        rnd = next(r for r, blk in enumerate(history) if blk[s] != blk[t])
        while True:
            prev = history[rnd - 1]
            for label in labels:
                sblocks = {prev[x] for x in weak_moves[label][s]}
                tblocks = {prev[x] for x in weak_moves[label][t]}
                if sblocks != tblocks:
                    side = "left" if sblocks - tblocks else "right"
                    detail = ("the other side cannot do it at all"
                              if not (sblocks and tblocks)
                              else "into a class the other side cannot reach")
                    return path + [f"the {side} side weakly does "
                                   f"{action_str(label)} ({detail})"]
            sclo = {prev[x] for x in tclo[s]}
            tclo_blocks = {prev[x] for x in tclo[t]}
            diff = sclo - tclo_blocks
            if diff:
                s = min(x for x in tclo[s] if prev[x] in diff)
                path.append("left takes internal steps")
            else:
                t = min(x for x in tclo[t] if prev[x] in tclo_blocks - sclo)
                path.append("right takes internal steps")
            rnd = next(r for r, blk in enumerate(history) if blk[s] != blk[t])

    s0 = initials[0]
    bad = next((k for k in initials if block[k] != block[s0]), None)
    path = distinguish(s0, bad) if bad is not None else ["initials differ"]
    return False, " ; ".join(path)


def graph_from(graph, transitions):
    """A graph over the nodes of ``graph`` with other transitions."""
    order = sorted(transitions, key=lambda tr: graph.node_ids[tr.source])
    return LtsGraph(graph.initials, graph.node_ids,
                    edges_from_transitions(graph.node_ids, order))


def replayed(graph, evidence):
    """The state the evidence's schedule reaches along the graph's edges,
    after checking that it is the state the evidence names, and the
    schedule's number of steps."""
    digest = evidence.split()[1]
    first, *rules = shlex.split(evidence.split("shortest schedule: ", 1)[1])
    edges = graph.edges
    node = next(graph.node_ids[r] for r in graph.initials if f"ti={r.ti}" == first)
    for rule in rules:
        node = next(edges.targets[i]
                    for i in range(edges.offsets[node], edges.offsets[node + 1])
                    if edges.labels[edges.label_ids[i]][1] == rule)
    assert repsem.rep_digest(edges.nodes[node]) == digest
    return edges.nodes[node], len(rules)


def nearest_bad(graph):
    """The BFS depth of the nearest states that cannot weakly emit ok or
    emit a visible action other than ok, and those states, from the
    transitions."""
    transitions = list(graph.edges)
    emits_ok = {tr.source for tr in transitions if tr.action == lts.OK}
    while True:
        more = {tr.source for tr in transitions
                if tr.action == TAU and tr.target in emits_ok} - emits_ok
        if not more:
            break
        emits_ok |= more
    foreign = {tr.source for tr in transitions if tr.action not in (TAU, lts.OK)}
    depth = {r: 0 for r in graph.initials}
    queue = list(depth)
    for r in queue:
        for tr in transitions:
            if tr.source == r and tr.target not in depth:
                depth[tr.target] = depth[r] + 1
                queue.append(tr.target)
    bad = {r: d for r, d in depth.items() if r not in emits_ok or r in foreign}
    nearest = min(bad.values())
    return nearest, {r for r, d in bad.items() if d == nearest}


def assert_same_verdict(sys_, graph):
    ok, evidence = verifier.weak_bisim(graph)
    ref_ok, ref_evidence = reference_weak_bisim(graph, ok_spec_graph(sys_))
    assert ok == ref_ok, (evidence, ref_evidence)
    if ok:
        assert len(evidence) == len(ref_evidence) == len(graph.node_ids)
    else:
        assert "ok" in evidence
        state, steps = replayed(graph, evidence)
        depth, states = nearest_bad(graph)
        assert steps == depth and state in states
    return ok


@pytest.mark.parametrize("mutation", [None, *sorted(cm.MUTATIONS)])
def test_check_agrees_with_the_reference_on_n12(mutation):
    verdicts = []
    for inst in INSTANCES_1 + INSTANCES_2:
        sys_ = cm.build_system(inst, [mutation] if mutation else [])
        verdicts.append(assert_same_verdict(
            sys_, verifier.explore(sys_, "representative")))
    if mutation is None:
        assert all(verdicts)
    if mutation in ("no-ti-protection", "skip-correct"):
        # (5,7) with one crash, the instance of the acceptance suite.
        assert not verdicts[2]


def test_check_agrees_with_the_reference_on_built_graphs(sys1, graph1):
    transitions = list(graph1.edges)
    ok_edge = next(tr for tr in transitions if tr.action == lts.OK)
    last = ok_edge.source
    first = graph1.initials[0]
    foreign = lts.Transition(first, lts.act_send(chan_c(1), nat(4)), first, "Snd c1")
    cases = {
        "foreign action": (transitions + [foreign], False),
        "no ok edge": ([tr for tr in transitions if tr is not ok_edge], False),
        "τ-cycle through ok": (transitions + [lts.Transition(last, TAU, first, "back")],
                               True),
        "τ-cycle without ok": ([tr for tr in transitions if tr is not ok_edge]
                               + [lts.Transition(last, TAU, first, "back")], False),
    }
    for name, (edges, expected) in cases.items():
        assert assert_same_verdict(sys1, graph_from(graph1, edges)) is expected, name
    _, evidence = verifier.weak_bisim(graph_from(graph1, cases["foreign action"][0]))
    assert f"emits {action_str(foreign.action)}, a visible action other than ok" \
        in evidence


def test_truncated_graph_is_refused(sys2):
    graph = verifier.explore(sys2, "representative")
    truncated = LtsGraph(graph.initials, graph.node_ids, graph.edges, truncated=True)
    with pytest.raises(GraphTruncated):
        verifier.weak_bisim(truncated)
