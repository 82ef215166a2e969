import pytest

from consrep import consensus_model as cm
from consrep import lts, verifier
from consrep.calculus_ast import BOT, CHAN_OK
from consrep.errors import TiAlreadySet
from consrep.lts import TAU, action_str
from conftest import calculus_successors
from test_acceptance import INSTANCES_1, INSTANCES_2
from test_explore_oracle import reference_explore


def test_select_ti_one_per_live_agent():
    inst = cm.make_instance(3, [1, 2, 3])
    cfg = cm.make_initial(inst)
    chosen = lts.select_ti(cfg)
    assert [c.ti for c in chosen] == [1, 2, 3]
    assert all(c.net == cfg.net and c.live == cfg.live for c in chosen)


def test_select_ti_rejects_a_second_choice(sys1):
    cfg = cm.make_initial(sys1.inst)
    chosen = lts.select_ti(cfg)[0]
    with pytest.raises(TiAlreadySet):
        lts.select_ti(chosen)


def test_single_agent_initial_has_one_transition(sys1):
    rep = lts.initial_reps(sys1)[0]
    for successors in (lts.successors, calculus_successors):
        (tr,) = successors(sys1, rep)
        assert tr.action == TAU
        assert tr.target.out3 == ((1, cm.nat(4)),)


def test_zero_budget_means_no_crashes():
    inst = cm.make_instance(2, [5, 7], budget=0)
    sys_ = cm.build_system(inst)
    graph = verifier.explore(sys_, "representative")
    families = {tr.rule.split()[0] for tr in graph.edges}
    assert "SR7" not in families and "Stop" not in families


def test_final_state_emits_ok_and_nothing_else(sys1, graph1):
    final = next(rep for rep in graph1.nodes if rep.wrap[0] == 0)
    succs = lts.successors(sys1, final)
    assert [tr.action for tr in succs] == [("snd", CHAN_OK, BOT)]
    assert succs[0].target == final
    assert calculus_successors(sys1, final) == succs


def test_modes_agree_on_small_graphs():
    # The graph of the calculus semantics, explored in tests only, equals
    # the representative graph up to rule names on every n<=2 instance.
    for inst in INSTANCES_1 + INSTANCES_2:
        sys_ = cm.build_system(inst)
        graph = verifier.explore(sys_, "representative")
        calculus = reference_explore(sys_, calculus_successors)
        assert calculus.initials == graph.initials
        assert list(calculus.node_ids.items()) == list(graph.node_ids.items())
        assert {t[:3] for t in calculus.edges} == {t[:3] for t in graph.edges}
        assert not calculus.truncated and not calculus.defects


def test_only_ok_is_observable(graph2):
    for tr in graph2.edges:
        assert tr.action == TAU or tr.action == ("snd", CHAN_OK, BOT)


def test_action_rendering():
    assert action_str(TAU) == "tau"
    assert action_str(("snd", CHAN_OK, BOT)) == "ok!_"
    # No step receives visibly, so an input action has no rendering of its
    # own.
    rcv = ("rcv", ("b", 1, 2), cm.nat(3))
    assert action_str(rcv) == repr(rcv)
