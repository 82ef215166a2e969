"""``lts._calculus_steps`` over the per-slot offer memo (``System._offers``)
against the scan it replaced.

``reference_steps`` is that scan: it walks every expansion component's
guard leaves on every state and matches their patterns afresh.  The
memoised version must give equal ``Step`` lists, in order, on every state
of the n<=2 instances, unmutated and under each mutation, explored under
both semantics, and on a 1,000-state prefix of n=3, with the memo filling as
the states go by.
"""

import pytest

from consrep import consensus_model as cm
from consrep import lts, repsem, verifier
from consrep.calculus_ast import STAR, chan_str, substitute
from consrep.errors import BoundExceeded
from consrep.lts import TAU, Step, act_send
from conftest import calculus_successors
from test_acceptance import INSTANCE_3, INSTANCES_1, INSTANCES_2
from test_explore_oracle import reference_explore


def reference_steps(sys, rep, comps) -> list:
    live = rep.live
    outputs = []
    inputs = []
    steps = []
    for idx, (slot, (_, location, p)) in enumerate(comps):
        assert location == STAR or location in live
        match p:
            case ("out", ch, ("lit", v), ("nil",)):
                outputs.append((idx, ch, v))
                continue
            case ("const", "WRAP", _):
                continue
            case ("tau", cont):
                steps.append(Step(f"Tau l={location}", TAU,
                                  {idx: ("loc", location, cont)}))
                continue
        for li, leaf in enumerate(lts._guard_leaves(p)):
            match leaf:
                case ("in", ch, pattern, cont):
                    inputs.append((idx, li, location, ch, pattern, cont))
                case ("susp", k, cont):
                    if k != location and (k != rep.ti
                                          or "no-ti-protection" in sys.mutations):
                        steps.append(Step(f"Susp l={location} k={k}", TAU,
                                          {idx: ("loc", location, cont)}))
                case ("psusp", k, cont):
                    if k not in live:
                        steps.append(Step(f"PSusp l={location} k={k}", TAU,
                                          {idx: ("loc", location, cont)}))
    restricted = set(sys.restriction)
    for oidx, och, ov in outputs:
        for iidx, li, iloc, ich, pattern, cont in inputs:
            if och == ich:
                received = ("loc", iloc, substitute(cont, pattern, ov))
                steps.append(Step(f"Com {chan_str(och)}", TAU,
                                  {oidx: None, iidx: received}))
        if och not in restricted:
            steps.append(Step(f"Snd {chan_str(och)}", act_send(och, ov),
                              {oidx: None}))
    if rep.budget > 0:
        for location in live:
            if location == rep.ti:
                continue
            steps.append(Step(f"Stop l={location}", TAU, {}, location))
    return steps


def _assert_steps_agree(sys_, reps) -> int:
    count = 0
    for rep in reps:
        comps = repsem.expansion(sys_, rep)
        assert lts._calculus_steps(sys_, rep, comps) == reference_steps(sys_, rep, comps)
        count += 1
    return count


@pytest.mark.parametrize("mutation", [None, *sorted(cm.MUTATIONS)])
def test_offers_give_the_scanned_steps_on_n12(mutation):
    mutations = [mutation] if mutation else []
    for inst in INSTANCES_1 + INSTANCES_2:
        sys_ = cm.build_system(inst, mutations)
        reps = set(verifier.explore(sys_, "representative").nodes)
        reps |= set(reference_explore(sys_, calculus_successors).nodes)
        assert _assert_steps_agree(sys_, sorted(reps)) == len(reps)
        assert sys_._offers


def test_offers_give_the_scanned_steps_on_an_n3_prefix():
    sys3 = cm.build_system(INSTANCE_3)
    with pytest.raises(BoundExceeded) as exc:
        verifier.explore(sys3, "representative", max_states=1000)
    graph = exc.value.graph
    assert _assert_steps_agree(sys3, graph.edges.nodes) == 1000
