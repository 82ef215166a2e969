"""The per-component memos of calculus-side canonicalisation against fresh
recomputation.

A process keeps its local state in the parameter list of its process
constant, so ``repsem`` expands each representative slot into a component
once per System (``_slot_comps``, round trip checked on entry) and
evaluates and classifies each replacement leaf of a calculus step once
per System (``_leaf_slots``, keyed by the identity of the leaf and holding
the leaf beside its slots); a leaf whose evaluation raises is recorded once
beside its message (``_leaf_raises``).  ``lts`` keeps the leaves a Com step leaves
behind per step key ("c", input owner, output owner) (``_received``),
where an owner is an entry's identity or the observer's wrap value, whose
offer record (``_offers``) holds the slot.
Every entry the memos hold after exploration must equal the component the
``consensus_model`` builders give, evaluated, classified or substituted
into again on a fresh System, and a warm System must give the same
calculus successors as a fresh one and evaluate no leaf again.
"""

import random

import pytest

from consrep import consensus_model as cm
from consrep import evaluation, lts, repsem, verifier
from consrep.calculus_ast import Config, substitute
from consrep.errors import BoundExceeded, EmptyKnowledge
from consrep.evaluation import evaluate, flatten_components, split_restriction
from conftest import calculus_successors
from test_acceptance import INSTANCE_3, INSTANCES_1, INSTANCES_2
from test_explore_oracle import reference_explore


def _alone(location, net) -> Config:
    """A configuration in which only ``location`` is live."""
    return Config(live=frozenset({location}), budget=0, ti=None, net=net)


def _built(sys_, kind, fields) -> tuple:
    match kind, fields:
        case "out1", _:
            return cm.out1_comp(*fields)
        case "out2", _:
            return cm.out2_comp(*fields)
        case "out3", _:
            return cm.out3_comp(*fields)
        case "in1", _:
            return cm.c1_wait_comp(sys_, *fields)
        case "in2", _:
            return cm.c2_wait_comp(sys_, *fields)
        case "wrap", (0, _, _):
            return cm.ok_comp()
        case "wrap", (wj, ww, 1):
            return cm.wrap_wait_comp(sys_, wj, ww)
        case "wrap", (wj, ww, 0):
            return cm.wrap_inert_comp(wj, ww)
    raise AssertionError(f"no builder for slot {kind} {fields}")


def _classified(sys_, location, net) -> tuple:
    fixed = evaluate(_alone(location, net), sys_.defs)
    return tuple(cm.classify_component(sys_, loc, proc)
                 for loc, proc in flatten_components(fixed.net))


def _assert_memos_match_recomputation(sys_) -> None:
    fresh = cm.build_system(sys_.inst, sys_.mutations)
    assert sys_._slot_comps and sys_._leaf_slots
    for (kind, fields), comp in sys_._slot_comps.items():
        assert _built(fresh, kind, fields) == comp, (kind, fields)
        # A fixed point that classifies back to its slot.
        assert _classified(fresh, comp[1], comp) == ((kind, fields),)
        assert evaluate(_alone(comp[1], comp), fresh.defs).net == comp
    for key, (leaf, slots) in sys_._leaf_slots.items():
        assert key == id(leaf)
        assert _classified(fresh, leaf[1], leaf) == slots, leaf
    # Each distinct leaf was evaluated and classified once: no two entries
    # hold equal leaves.
    leaves = [leaf for leaf, _ in sys_._leaf_slots.values()]
    assert len(set(leaves)) == len(leaves)
    for key, (leaf, message) in sys_._leaf_raises.items():
        assert key == id(leaf) and key not in sys_._leaf_slots
        with pytest.raises(EmptyKnowledge, match=message):
            _classified(fresh, leaf[1], leaf)
    raising = [leaf for leaf, _ in sys_._leaf_raises.values()]
    assert len(set(raising)) == len(raising)
    assert sys_._received
    for key, received in sys_._received.items():
        tag, in_owner, out_owner = key
        in_slot, out_slot = sys_._offers[in_owner][0], sys_._offers[out_owner][0]
        _, location, proc = _built(fresh, *in_slot)
        _, _, (_, channel, (_, value), _) = _built(fresh, *out_slot)
        assert tag == "c" and received == tuple(
            ("loc", location, substitute(leaf[3], leaf[2], value))
            for leaf in lts._guard_leaves(proc)
            if leaf[0] == "in" and leaf[1] == channel)
        assert len(received) == 1, key


@pytest.mark.parametrize("mutation", [None, *sorted(cm.MUTATIONS)])
def test_memos_match_recomputation_on_n12(mutation):
    mutations = [mutation] if mutation else []
    for inst in INSTANCES_1 + INSTANCES_2:
        sys_ = cm.build_system(inst, mutations)
        graph = reference_explore(sys_, calculus_successors)
        _assert_memos_match_recomputation(sys_)
        # A leaf whose evaluation raises is recorded exactly where the
        # algorithm is undefined, and every state that reaches it raises
        # again, on a warm System as on a fresh one.
        assert bool(sys_._leaf_raises) == bool(graph.defects)
        for rep, _ in graph.defects:
            for system in (sys_, cm.build_system(inst, mutations)):
                with pytest.raises(EmptyKnowledge):
                    calculus_successors(system, rep)


def test_correspondence_records_the_leaves_that_raise():
    # Under no-ti-protection each n=2 instance has two leaves whose
    # evaluation meets an empty decision; every other n<=2 run has none.
    for mutation in [None, *sorted(cm.MUTATIONS)]:
        mutations = [mutation] if mutation else []
        for inst in INSTANCES_1 + INSTANCES_2:
            sys_ = cm.build_system(inst, mutations)
            verifier.check_correspondence(sys_)
            expected = 2 if mutation == "no-ti-protection" and inst.n == 2 else 0
            assert len(sys_._leaf_raises) == expected, (mutation, inst)


def test_expansion_lays_out_sfi_on_n12():
    # repsem._slots alone decides which component sits at which index: the
    # expansion pairs each slot with its component in the order in which
    # sfi composes them.
    for inst in INSTANCES_1 + INSTANCES_2:
        sys_ = cm.build_system(inst)
        for rep in verifier.explore(sys_, "representative").nodes:
            pairs = repsem.expansion(sys_, rep)
            chans, core = split_restriction(repsem.sfi(sys_, rep).net)
            assert chans == sys_.restriction
            assert [("loc",) + c for c in flatten_components(core)] == [
                comp for _, comp in pairs]
            assert [slot for slot, _ in pairs] == repsem._slots(rep)


@pytest.fixture(scope="module")
def warm_n3():
    sys3 = cm.build_system(INSTANCE_3)
    with pytest.raises(BoundExceeded) as exc:
        verifier.explore(sys3, "representative", max_states=3000)
    graph = exc.value.graph
    nodes = sorted(graph.nodes, key=graph.node_ids.get)
    sample = random.Random(20261019).sample(nodes, 500)
    warm = [calculus_successors(sys3, rep) for rep in sample]
    return sys3, sample, warm


def test_memos_match_recomputation_on_sampled_n3(warm_n3):
    sys3, _, _ = warm_n3
    _assert_memos_match_recomputation(sys3)


def test_warm_calculus_successors_equal_fresh_on_sampled_n3(warm_n3):
    sys3, sample, warm = warm_n3
    for rep, successors in zip(sample, warm):
        # Recompute on the warm System too, now that its memos hold the
        # entries of every other sampled state.
        assert calculus_successors(sys3, rep) == successors
        fresh = cm.build_system(INSTANCE_3)
        assert calculus_successors(fresh, rep) == successors


def test_a_warm_system_evaluates_only_the_initial_states(monkeypatch):
    # A second correspondence check on the same System finds every leaf in
    # the memo: the only configurations it evaluates are the initial ones,
    # which ``lts.initial_reps`` extracts in full.
    for inst in INSTANCES_1 + INSTANCES_2:
        sys_ = cm.build_system(inst)
        first = verifier.check_correspondence(sys_)
        evaluated = []
        original = evaluation.evaluate

        def counted(cfg, defs, *args):
            evaluated.append(cfg)
            return original(cfg, defs, *args)

        for module in (evaluation, repsem, verifier):
            monkeypatch.setattr(module, "evaluate", counted)
        assert verifier.check_correspondence(sys_) == first
        monkeypatch.undo()
        assert evaluated == lts.select_ti(cm.make_initial(inst))
