import pytest

from consrep import consensus_model as cm
from consrep import repsem, verifier
from consrep.calculus_ast import npar, res
from consrep.evaluation import flatten_components, split_restriction


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
