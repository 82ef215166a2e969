"""Incremental extraction of calculus-step targets against full extraction.

Calculus-semantics successors patch the source representative with what a step
changes (``repsem.sf_step``), evaluating and classifying only the leaves
the step leaves behind.  Full extraction, ``repsem.sf`` applied to the raw
configuration of every step, stays the definition; the two must agree on
every state, including on the states where the algorithm is undefined and
on the hand-built steps below that no reachable state takes.
"""

import random

import pytest

from consrep import consensus_model as cm
from consrep import lts, repsem, verifier
from consrep.errors import (
    BoundExceeded,
    ConsrepError,
    EmptyKnowledge,
    NotReachableShape,
)
from conftest import calculus_successors, raw_config
from test_acceptance import INSTANCE_3, INSTANCES_1, INSTANCES_2


def _full(sys_, rep) -> list:
    return sorted({
        lts.Transition(rep, action, repsem.sf(sys_, raw), rule)
        for rule, action, raw in lts.calculus_raw_successors(sys_, rep)
    })


def _incremental(sys_, rep) -> list:
    return calculus_successors(sys_, rep)


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


def _step_target_pair(sys_, rep, step):
    """(patched target, full ``sf`` of the raw configuration) of one
    ``lts.keyed_steps`` record."""
    return (repsem.sf_step(sys_, rep, step),
            repsem.sf(sys_, raw_config(sys_, rep, step)))


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


def _walk(sys_, rng) -> list:
    """The states of one seeded crash-free walk of the representative
    semantics from an initial state, to a state with no other successor
    or an undefined one.  It takes a phase-1 suspicion or a phase-2
    reception whenever one is enabled: an n=3 decision is empty only after
    whole rounds of suspicion, which a breadth-first prefix of a few
    thousand states does not reach.  Never crashing keeps the budget, so
    every state met on the way still has its crash steps."""
    states = []
    rep = rng.choice(lts.initial_reps(sys_))
    while True:
        states.append(rep)
        try:
            succs = [s for s in sorted(repsem.rep_successors(sys_, rep))
                     if not s[0].startswith("SR7")]
        except EmptyKnowledge:
            return states
        if not succs:
            return states
        preferred = [s for s in succs
                     if s[0].split()[0] in ("SR4", "SR5", "SR6", "SR1'", "SR2'")]
        rep = rng.choice(preferred or succs)[1]


def _n3_states(sys3) -> list:
    """200 states sampled from a 1,000-state breadth-first prefix (the
    whole space where it is smaller), then the states of ten walks."""
    try:
        graph = verifier.explore(sys3, "representative", max_states=1000)
    except BoundExceeded as exc:
        graph = exc.graph
    nodes = sorted(graph.nodes, key=graph.node_ids.get)
    rng = random.Random(20261019)
    states = rng.sample(nodes, min(200, len(nodes)))
    for _ in range(10):
        states += _walk(sys3, rng)
    return states


def test_incremental_matches_full_extraction_on_sampled_n3():
    _assert_agree_on_sampled_n3(None)


@pytest.mark.parametrize("mutation", sorted(cm.MUTATIONS))
def test_incremental_matches_full_extraction_on_sampled_n3_mutated(mutation):
    _assert_agree_on_sampled_n3(mutation)


def _assert_agree_on_sampled_n3(mutation) -> None:
    sys3 = cm.build_system(INSTANCE_3, [mutation] if mutation else [])
    outcomes = _assert_agree(sys3, _n3_states(sys3))
    # Crash steps are compared, and so are the n=3 states where the
    # decision is undefined, which only no-ti-protection reaches.
    assert any(tr.rule.startswith("Stop") for o in outcomes
               if isinstance(o, list) for tr in o)
    assert (EmptyKnowledge in outcomes) == (mutation == "no-ti-protection")
    assert all(isinstance(o, list) or o is EmptyKnowledge for o in outcomes)


@pytest.fixture(scope="module")
def sys3():
    return cm.build_system(INSTANCE_3)


def test_a_second_observer_raises(sys3):
    # Replacing a round message with an observer leaves two observers.
    rep = lts.initial_reps(sys3)[0]
    slot = repsem.expansion(sys3, rep)[0][0]
    assert slot[0] == "out1"
    step = (("s", id(slot[1])), cm.wrap_wait_comp(sys3, 2, cm.BOT), "test",
            lts.TAU, (slot,))
    with pytest.raises(NotReachableShape, match="two observer components"):
        repsem.sf_step(sys3, rep, step)
    with pytest.raises(NotReachableShape, match="two observer components"):
        repsem.sf(sys3, raw_config(sys3, rep, step))


def test_a_consumed_observer_is_restored_to_ok(sys3):
    rep = lts.initial_reps(sys3)[0]
    assert rep.wrap == (1, cm.BOT, 1)
    slot = repsem.expansion(sys3, rep)[-1][0]
    assert slot == ("wrap", rep.wrap)
    step = (("snd", id(rep.wrap)), None, "test", lts.TAU, (slot,))
    patched, full = _step_target_pair(sys3, rep, step)
    assert patched == full == rep._replace(wrap=(0, cm.BOT, 1))
    # Both restore the System's one observer at `ok`.
    assert patched.wrap is full.wrap is sys3._entries[0, cm.BOT, 1]
    # Untouched fields stay the source's own tuples.
    assert all(patched[k] is rep[k] for k in range(8))


def test_a_stop_step_drops_what_the_crashed_agent_owns(sys3):
    fields = ("out1", "out2", "out3", "in1", "in2")
    stops = 0
    for rep in set(_n3_states(sys3)):
        if rep.budget == 0:
            continue
        for p in rep.live:
            owned = [f for f in fields if any(e[0] == p for e in getattr(rep, f))]
            if p == rep.ti or len(owned) < 3:
                continue
            step = (("x", p), None, f"Stop l={p}", lts.TAU, ())
            patched, full = _step_target_pair(sys3, rep, step)
            assert patched == full
            assert patched.live == tuple(x for x in rep.live if x != p)
            assert patched.budget == rep.budget - 1
            for f in fields:
                assert getattr(patched, f) == tuple(
                    e for e in getattr(rep, f) if e[0] != p)
            stops += 1
    assert stops > 0
