"""The collector-local steps of the move rules against the model's
helpers.

A collector's step in the representative semantics depends only on its
own entry and the payload it receives, so ``repsem`` computes it once per
collector move (the entry and the transit entry it consumes, or None for
a suspicion) and keeps it in the move's rule record on the System.  Every
collector-move rule after exploration must hold the step recomputed from
the ``consensus_model`` helpers for its payload (the transit entry's
vector, or bot), with the collector's next round entry left out of an SR1
move under the sr1-deletes-in1 mutation, as (field index, entries) pairs
of just the fields it adds to; and a warm System must give the same
successors as a fresh one.
"""

import random

import pytest

from consrep import consensus_model as cm
from consrep import repsem, verifier
from consrep.calculus_ast import BOT
from consrep.errors import BoundExceeded, EmptyKnowledge
from consrep.repsem import Representative
from test_acceptance import INSTANCE_3, INSTANCES_1, INSTANCES_2
from test_rep_successors_oracle import COLLECTOR_FAMILIES

IN1, IN2, OUT1, OUT2, OUT3 = map(Representative._fields.index,
                                 ("in1", "in2", "out1", "out2", "out3"))


def _phase1_oracle(sys_, entry, delta) -> dict:
    n = sys_.n
    q, r, vv, msgs, i = entry
    msgs2 = cm.msg_add1(msgs, delta, r, i)
    if i < n:
        return {IN1: ((q, r, vv, msgs2, i + 1),)}
    vv2 = cm.updatek(r, msgs2, vv)
    if r < n - 1:
        dd2 = cm.updater(r, msgs2, vv)
        return {IN1: ((q, r + 1, vv2, msgs2, 1),),
                OUT1: tuple((q, j, r + 1, dd2) for j in range(1, n + 1))}
    return {IN2: ((q, vv2, msgs2, 1),),
            OUT2: tuple((q, j, vv2) for j in range(1, n + 1))}


def _phase2_oracle(sys_, entry, payload) -> dict:
    q, vv, msgs, i = entry
    msgs2 = cm.msg_add2(msgs, payload, i)
    if i < sys_.n:
        return {IN2: ((q, vv, msgs2, i + 1),)}
    if "skip-correct" not in sys_.mutations:
        vv = cm.correct_fn(msgs2, vv)
    return {OUT3: ((q, cm.getfst(vv)),)}


def _assert_memo_matches_helpers(sys_) -> int:
    fresh = cm.build_system(sys_.inst, sys_.mutations)
    moves = [rule for rule in sys_._rules.values()
             if rule.family in COLLECTOR_FAMILIES]
    for move in moves:
        entry, consumed = move.entry, move.consumed
        if len(entry) == 5:
            oracle = _phase1_oracle(fresh, entry, consumed[3] if consumed else BOT)
            if (move.startswith("SR1 ")
                    and "sr1-deletes-in1" in sys_.mutations):
                del oracle[IN1]
        else:
            oracle = _phase2_oracle(fresh, entry, consumed[2] if consumed else BOT)
        assert len(dict(move.adds)) == len(move.adds), move
        assert oracle == dict(move.adds), move
    return len(moves)


@pytest.mark.parametrize("mutation", [None, *sorted(cm.MUTATIONS)])
def test_memo_matches_helpers_on_n12(mutation):
    mutations = [mutation] if mutation else []
    for inst in INSTANCES_1 + INSTANCES_2:
        sys_ = cm.build_system(inst, mutations)
        graph = verifier.explore(sys_, "representative")
        assert _assert_memo_matches_helpers(sys_) > 0
        # An undefined decision is never stored: every state that reaches
        # it raises again, on a warm System as on a fresh one.
        for rep, _ in graph.defects:
            for system in (sys_, cm.build_system(inst, mutations)):
                with pytest.raises(EmptyKnowledge):
                    repsem.rep_successors(system, rep)


@pytest.fixture(scope="module")
def warm_n3():
    sys3 = cm.build_system(INSTANCE_3)
    with pytest.raises(BoundExceeded) as exc:
        verifier.explore(sys3, "representative", max_states=3000)
    return sys3, exc.value.graph


def test_memo_matches_helpers_on_n3_prefix(warm_n3):
    sys3, _ = warm_n3
    assert _assert_memo_matches_helpers(sys3) > 0


def test_warm_successors_equal_fresh_on_sampled_n3(warm_n3):
    sys3, graph = warm_n3
    nodes = sorted(graph.nodes, key=graph.node_ids.get)
    for rep in random.Random(20261018).sample(nodes, 500):
        fresh = cm.build_system(INSTANCE_3)
        assert (sorted(repsem.rep_successors(fresh, rep))
                == sorted(repsem.rep_successors(sys3, rep)))
