"""The keyed enumeration of calculus steps (``lts.keyed_steps``), over the
per-entry offer memo (``System._offers``), against the scan it replaced.

``reference_steps`` is that scan: it walks every expansion component's
guard leaves on every state and matches their patterns afresh, and gives
each step as a ``Step`` that names the components it replaces by their
index into ``repsem.expansion``.  The records must give the same steps,
in order, on every state of the n<=2 instances, unmutated and under each
mutation, explored under both semantics, on a 1,000-state prefix of n=3
and on 500 states sampled from the rest of a 3,000-state prefix, with
the memo filling as the states go by: the same rule and action, the
slots of the replaced components, through the expansion, as the slots
the record consumes, and the leaf the step leaves.  Each record's key
must name what its step consumes: the identities of the entries of the
components it replaces, the observer's included, or the agent it
crashes.
``reference_raw_config`` gives the configuration a reference step
reaches, before evaluation, for the confluence oracle.
"""

import random
from typing import NamedTuple

import pytest

from consrep import consensus_model as cm
from consrep import lts, repsem, verifier
from consrep.calculus_ast import (
    NNIL,
    STAR,
    Config,
    chan_str,
    npar_chain,
    res_chain,
    substitute,
)
from consrep.errors import BoundExceeded
from consrep.lts import TAU, act_send
from conftest import calculus_successors
from test_acceptance import INSTANCE_3, INSTANCES_1, INSTANCES_2
from test_explore_oracle import reference_explore


class Step(NamedTuple):
    """One calculus step of an expanded normal form, target not yet built."""
    rule: str
    action: tuple
    replaced: dict        # expansion index -> new located leaf, or None
    crashed: int | None = None  # the agent a Stop step crashes


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


def reference_raw_config(sys, rep, comps, step) -> Config:
    """The configuration ``step`` reaches from the expansion ``comps`` of
    ``rep``, before evaluation."""
    leaves = (step.replaced.get(idx, comp)
              for idx, (_, comp) in enumerate(comps))
    left = tuple(leaf for leaf in leaves if leaf is not None) or (NNIL,)
    live, budget = frozenset(rep.live), rep.budget
    if step.crashed is not None:
        live, budget = live - {step.crashed}, budget - 1
    return Config(live, budget, rep.ti,
                  net=res_chain(npar_chain(left), sys.restriction))


def _assert_key_names_the_step(record, step, comps) -> None:
    key, leaf = record[0], record[1]
    owners = [id(comps[idx][0][1]) for idx in step.replaced]
    match key:
        case ("s", owner):
            assert owners == [owner] and list(step.replaced.values()) == [leaf]
        case ("c", in_owner, out_owner):
            assert owners == [out_owner, in_owner]
            assert list(step.replaced.values()) == [None, leaf]
        case ("snd", owner):
            assert owners == [owner] and list(step.replaced.values()) == [None]
            assert leaf is None
        case ("x", agent):
            assert step.crashed == agent and not step.replaced and leaf is None
        case _:
            raise AssertionError(f"unknown step key {key!r}")


def _assert_record_is_the_step(record, step, comps) -> None:
    _, _, rule, action, consumed = record
    assert (rule, action) == (step.rule, step.action)
    assert consumed == tuple(comps[idx][0] for idx in step.replaced)


def _assert_steps_agree(sys_, reps) -> int:
    count = 0
    for rep in reps:
        comps = repsem.expansion(sys_, rep)
        records = lts.keyed_steps(sys_, rep)
        steps = reference_steps(sys_, rep, comps)
        assert len(records) == len(steps)
        for record, step in zip(records, steps):
            _assert_record_is_the_step(record, step, comps)
            _assert_key_names_the_step(record, step, comps)
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
        verifier.explore(sys3, "representative", max_states=3000)
    nodes = exc.value.graph.edges.nodes
    assert _assert_steps_agree(sys3, nodes[:1000]) == 1000
    sample = random.Random(0).sample(nodes[1000:3000], 500)
    assert _assert_steps_agree(sys3, sample) == 500
