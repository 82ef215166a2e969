from array import array

import pytest

from consrep import consensus_model as cm
from consrep import lts, repsem, verifier
from consrep.calculus_ast import Config, npar, npar_chain, res, res_chain
from consrep.evaluation import flatten_components, split_restriction
from consrep.graph import Edges


def shuffle_config(rng, cfg):
    """Randomly re-associate and commute the parallel components and the
    restriction order of a configuration; a congruence-class member."""
    chans, core = split_restriction(cfg.net)
    comps = [("loc",) + c for c in flatten_components(core)]
    rng.shuffle(comps)
    net = comps[0]
    for comp in comps[1:]:
        net = npar(comp, net) if rng.random() < 0.5 else npar(net, comp)
    order = list(chans)
    rng.shuffle(order)
    for ch in order:
        net = res(net, ch)
    return cfg._replace(net=net)


def congruent(sys, c1, c2) -> bool:
    """Structural congruence on reachable configurations, decided through
    equality of standard-form representatives."""
    return repsem.sf(sys, c1) == repsem.sf(sys, c2)


def calculus_successors(sys, rep) -> list:
    """Every transition of ``rep`` in the calculus semantics: the sorted set
    of (action, target, rule) of its steps, each wrapped in a
    ``Transition`` (two steps may reach one target under one rule)."""
    return [lts.Transition(rep, action, target, rule)
            for action, target, rule in sorted(
                {(step[3], repsem.sf_step(sys, rep, step), step[2])
                 for step in lts.keyed_steps(sys, rep)})]


def raw_config(sys, rep, step) -> Config:
    """The configuration the ``lts.keyed_steps`` record ``step`` of ``rep``
    reaches, before evaluation."""
    context, left = lts._step_start(rep, repsem.expansion(sys, rep), step)
    return Config(*context, net=res_chain(npar_chain(left), sys.restriction))


def edges_from_transitions(node_ids: dict, transitions) -> Edges:
    """The columns of ``transitions``, which must come grouped by source in
    the id order of ``node_ids`` and end at its nodes."""
    nodes = list(node_ids)
    offsets = array("I", [0])
    targets = array("I")
    label_ids = array("I")
    labels: dict = {}
    for source, action, target, rule in transitions:
        s = node_ids[source]
        if s < len(offsets) - 1:
            raise ValueError("transitions are not grouped by source in id order")
        offsets.extend([len(targets)] * (s + 1 - len(offsets)))
        targets.append(node_ids[target])
        label_ids.append(labels.setdefault((action, rule), len(labels)))
    offsets.extend([len(targets)] * (len(nodes) + 1 - len(offsets)))
    return Edges(nodes, offsets, targets, label_ids, tuple(labels))


def tau_targets(edges: Edges, node: int) -> list:
    """The target ids of the internal edges of node ``node``, in edge
    order."""
    labels, label_ids, targets = edges.labels, edges.label_ids, edges.targets
    return [targets[i] for i in range(edges.offsets[node], edges.offsets[node + 1])
            if labels[label_ids[i]][0] == lts.TAU]


@pytest.fixture(scope="session")
def sys1():
    return cm.build_system(cm.make_instance(1, [4]))


@pytest.fixture(scope="session")
def sys2():
    return cm.build_system(cm.make_instance(2, [5, 7]))


@pytest.fixture(scope="session")
def graph1(sys1):
    return verifier.explore(sys1, "representative")


@pytest.fixture(scope="session")
def graph2(sys2):
    return verifier.explore(sys2, "representative")
