"""Incremental extraction of calculus-step targets against full extraction.

Calculus-mode successors evaluate and classify only the components a step
replaces.  Full extraction, ``repsem.sf`` applied to the raw configuration
of every step, stays the definition; the two must agree on every state,
including on the states where the algorithm is undefined.
"""

import random

import pytest

from consrep import consensus_model as cm
from consrep import lts, repsem, verifier
from consrep.errors import BoundExceeded, ConsrepError, EmptyKnowledge
from test_acceptance import INSTANCE_3, INSTANCES_1, INSTANCES_2


def _full(sys_, rep) -> list:
    return sorted({
        lts.Transition(rep, action, repsem.sf(sys_, raw), rule)
        for rule, action, raw in lts.calculus_raw_successors(sys_, rep)
    })


def _incremental(sys_, rep) -> list:
    return lts.successors(sys_, rep, "calculus")


def _outcome(successors, sys_, rep):
    try:
        return successors(sys_, rep)
    except ConsrepError as exc:
        return type(exc)


def _assert_agree(sys_, reps) -> list:
    """Compare both paths on every state; return the outcomes."""
    outcomes = []
    for rep in reps:
        full = _outcome(_full, sys_, rep)
        assert _outcome(_incremental, sys_, rep) == full, repsem.rep_str(rep)
        outcomes.append(full)
    return outcomes


@pytest.mark.parametrize("mutation", [None, *sorted(cm.MUTATIONS)])
def test_incremental_matches_full_extraction_on_n12(mutation):
    mutations = [mutation] if mutation else []
    undefined = 0
    for inst in INSTANCES_1 + INSTANCES_2:
        sys_ = cm.build_system(inst, mutations)
        graph = verifier.explore(sys_, "representative")
        outcomes = _assert_agree(sys_, graph.nodes)
        undefined += outcomes.count(EmptyKnowledge)
    # The empty decision is reachable only when suspicion may hit the
    # trusted immortal; the comparison must cover that outcome too.
    assert (undefined > 0) == (mutation == "no-ti-protection")


def test_incremental_matches_full_extraction_on_sampled_n3():
    sys3 = cm.build_system(INSTANCE_3)
    with pytest.raises(BoundExceeded) as exc:
        verifier.explore(sys3, "representative", max_states=3000)
    nodes = sorted(exc.value.graph.nodes, key=exc.value.graph.node_ids.get)
    sample = random.Random(20261017).sample(nodes, 500)
    assert all(isinstance(o, list) for o in _assert_agree(sys3, sample))
