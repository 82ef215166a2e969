"""The confluence check against a closure over whole terms.

``brute_force_confluence`` is the reference: it closes each raw
configuration (the chosen-immortal initials and the configurations the
calculus steps of the index-based reference scan reach) under single
evaluation steps of the whole term and keys every configuration by the
term itself.
``verifier.check_confluence`` starts from the same configurations taken
apart, each as its context and components (``_confluence_starts``), and
must agree with it on the verdict and the counts.  Counterexamples are
compared as multisets: each names only how many fixed points a diamond
joins on, and the order the two closures visit diamonds in is their own
(the check's follows sets of component ids).  The fixed point of every
configuration the reference visits must be that of its components' fixed
points, the lemma by which the check evaluates each component once per
live set.
"""

import pytest

from consrep import consensus_model as cm
from consrep import lts, repsem, verifier
from consrep.calculus_ast import (
    NIL,
    NNIL,
    Config,
    chan_b,
    cond,
    lit,
    located,
    nat,
    npar_chain,
    out_atom,
    par,
    res_chain,
)
from consrep.errors import BoundExceeded, EmptyKnowledge
from consrep.evaluation import evaluate, split_restriction
from test_acceptance import INSTANCE_3, INSTANCES_1, INSTANCES_2
from test_offer_memo import reference_raw_config, reference_steps


def raw_configs(sys, graph) -> list:
    """The freshly chosen-immortal initials, then the raw targets of the
    calculus transitions of every node of ``graph`` in id order, built
    from the index-based reference scan (``test_offer_memo``)."""
    raws = lts.select_ti(cm.make_initial(sys.inst))
    for rep in graph.nodes:
        comps = repsem.expansion(sys, rep)
        raws += [reference_raw_config(sys, rep, comps, step)
                 for step in reference_steps(sys, rep, comps)]
    return raws


def components(cfg) -> tuple:
    """The components along the right spine below the restriction chain."""
    _, net = split_restriction(cfg.net)
    comps = []
    while net[0] == "npar":
        comps.append(net[1])
        net = net[2]
    comps.append(net)
    return tuple(comps)


def start(cfg) -> tuple:
    """``cfg`` as ``verifier._confluence_starts`` yields it."""
    return (cfg.live, cfg.budget, cfg.ti), components(cfg)


def brute_force_confluence(sys, graph, configs=None):
    seen: set = set()
    diamonds = 0
    undefined = 0
    failures: list = []
    for cfg in raw_configs(sys, graph) if configs is None else configs:
        frontier = [cfg]
        while frontier:
            c = frontier.pop()
            if c in seen:
                continue
            seen.add(c)
            try:
                succs = sorted({target for _, target
                                in verifier.eval_steps(c, sys.defs)})
                if len(succs) > 1:
                    diamonds += 1
                    fixes = {verifier.evaluate(s, sys.defs) for s in succs}
                    if len(fixes) != 1:
                        failures.append(
                            f"a diamond joins on {len(fixes)} distinct fixed points"
                        )
            except EmptyKnowledge:
                undefined += 1
                continue
            frontier.extend(s for s in succs if s not in seen)
    return verifier.CheckReport(
        name="confluence",
        passed=not failures,
        details={"configurations": len(seen), "diamonds": diamonds,
                 "undefined": undefined},
        counterexamples=failures,
    )


def assert_agrees(sys_, graph, configs=None):
    fast = verifier.check_confluence(sys_, graph)
    slow = brute_force_confluence(sys_, graph, configs)
    assert (fast.passed, fast.details) == (slow.passed, slow.details)
    assert sorted(fast.counterexamples) == sorted(slow.counterexamples)
    return fast


def assert_agrees_from(configs, sys_, graph, monkeypatch):
    """``assert_agrees`` with both checks started from ``configs`` alone:
    the reference takes them whole, the check taken apart."""
    monkeypatch.setattr(verifier, "_confluence_starts",
                        lambda sys, graph: map(start, configs))
    return assert_agrees(sys_, graph, configs)


def assert_starts_are_the_raw_configurations(sys_, graph):
    # The check's starts are the reference's raw configurations taken
    # apart, in order; dropping the restriction loses nothing, since every
    # raw configuration carries the system's own.
    raws = raw_configs(sys_, graph)
    assert all(split_restriction(c.net)[0] == sys_.restriction for c in raws)
    assert list(verifier._confluence_starts(sys_, graph)) == list(map(start, raws))


@pytest.mark.parametrize("mutation", [None] + sorted(cm.MUTATIONS))
def test_agrees_on_n12(mutation):
    mutations = [mutation] if mutation else []
    for inst in INSTANCES_1 + INSTANCES_2:
        sys_ = cm.build_system(inst, mutations)
        assert_agrees(sys_, verifier.explore(sys_, "representative"))


@pytest.mark.parametrize("mutation", [None] + sorted(cm.MUTATIONS))
def test_starts_are_the_raw_configurations_on_n12(mutation):
    mutations = [mutation] if mutation else []
    for inst in INSTANCES_1 + INSTANCES_2:
        sys_ = cm.build_system(inst, mutations)
        assert_starts_are_the_raw_configurations(
            sys_, verifier.explore(sys_, "representative"))


def test_starts_are_the_raw_configurations_on_n3_prefix():
    sys3 = cm.build_system(INSTANCE_3)
    with pytest.raises(BoundExceeded) as exc:
        verifier.explore(sys3, "representative", max_states=300)
    assert_starts_are_the_raw_configurations(sys3, exc.value.graph)


# Confluence details (configurations, diamonds, undefined) of the n<=2
# acceptance instances, keyed by (values, budget).  A change to how the
# check counts must update these together with the verify-n12 report
# digests of the benchmark.
N12_DETAILS = {
    ((4,), 0): (40, 18, 0),
    ((5, 7), 0): (1412, 360, 0),
    ((5, 7), 1): (3892, 1905, 0),
    ((7, 5), 0): (1412, 360, 0),
    ((7, 5), 1): (3892, 1905, 0),
    ((3, 3), 0): (1412, 360, 0),
    ((3, 3), 1): (3872, 1902, 0),
}


def test_counts_on_n12_are_pinned():
    found = {}
    for inst in INSTANCES_1 + INSTANCES_2:
        sys_ = cm.build_system(inst)
        details = verifier.check_confluence(
            sys_, verifier.explore(sys_, "representative")).details
        found[inst.values, inst.budget] = (
            details["configurations"], details["diamonds"], details["undefined"])
    assert found == N12_DETAILS


def _with_component_fixed_points(cfg, defs):
    """``cfg`` with each component of the right spine below its restriction
    chain replaced by that component's own fixed point, evaluated alone
    under ``cfg.live``."""
    fixed = [evaluate(cfg._replace(net=c), defs).net for c in components(cfg)]
    return cfg._replace(net=res_chain(npar_chain(fixed),
                                      split_restriction(cfg.net)[0]))


def _evaluated(thunk):
    try:
        return thunk()
    except EmptyKnowledge:
        return EmptyKnowledge


@pytest.mark.parametrize("mutation", [None, "no-ti-protection"])
def test_fixed_point_is_that_of_the_component_fixed_points(mutation,
                                                           monkeypatch):
    # check_confluence normalises each diamond branch to its components'
    # fixed points before evaluating it; on every configuration the
    # whole-term closure visits, that must not change the fixed point, and
    # the whole must raise EmptyKnowledge exactly when some component does.
    visited = []
    real_eval_steps = verifier.eval_steps

    def recording_eval_steps(cfg, defs):
        visited.append(cfg)
        return real_eval_steps(cfg, defs)

    monkeypatch.setattr(verifier, "eval_steps", recording_eval_steps)
    mutations = [mutation] if mutation else []
    undefined = 0
    for inst in INSTANCES_1 + INSTANCES_2:
        sys_ = cm.build_system(inst, mutations)
        visited.clear()
        brute_force_confluence(sys_, verifier.explore(sys_, "representative"))
        assert visited
        for cfg in visited:
            whole = _evaluated(lambda: evaluate(cfg, sys_.defs))
            parts = _evaluated(lambda: evaluate(
                _with_component_fixed_points(cfg, sys_.defs), sys_.defs))
            assert whole == parts, cfg
            undefined += whole is EmptyKnowledge
    assert (undefined > 0) == (mutation == "no-ti-protection")


def test_agrees_with_identity_evaluate(sys2, graph2, monkeypatch):
    monkeypatch.setattr(verifier, "evaluate", lambda cfg, defs: cfg)
    report = assert_agrees(sys2, graph2)
    assert not report.passed
    assert len(report.counterexamples) == report.details["diamonds"] > 0


def test_agrees_on_n3_prefix():
    sys3 = cm.build_system(INSTANCE_3)
    with pytest.raises(BoundExceeded) as exc:
        verifier.explore(sys3, "representative", max_states=25)
    graph = exc.value.graph
    graph.truncated = False
    report = assert_agrees(sys3, graph)
    assert report.passed and report.details["diamonds"] > 0


def test_agrees_where_the_spine_end_steps(sys2, graph2, monkeypatch):
    # The observer ends every reachable configuration and never steps, so
    # only built ones reach the spine-end cases: a parallel composition
    # unfolded there (E1, re-flattened), its nil collected (E2) and then
    # dropped (E5); a dead location collected (E3) and dropped inside (E4).
    # The second configuration starts where E1 leads, so an unflattened
    # key would count that term twice.
    c, d = chan_b(1, 2), chan_b(2, 1)
    head = [
        located(1, cond(lit(nat(1)), out_atom(c, lit(nat(2))), NIL)),
        located(2, out_atom(d, lit(nat(3)))),
    ]
    ends = ([located(1, par(out_atom(d, lit(nat(4))), NIL))],
            [located(1, out_atom(d, lit(nat(4)))), located(1, NIL)])
    configs = [Config(frozenset({1}), 0, 1,
                      res_chain(npar_chain(head + end), (c, d)))
               for end in ends]
    report = assert_agrees_from(configs, sys2, graph2, monkeypatch)
    assert report.passed and report.details["diamonds"] > 0


def test_agrees_where_a_component_first_meets_a_dead_location(sys2, graph2,
                                                              monkeypatch):
    # A component's fixed point depends on the live set: at a dead location
    # it is nil (E3), at a live one it resolves its conditional.  The first
    # configuration meets ``x`` at dead location 2 inside a diamond, so its
    # fixed point there is computed first; the second meets the same term
    # live, in a diamond whose other branch has already stepped it.  A
    # fixed-point memo keyed without the live set would join that diamond
    # on two distinct fixed points.
    c, d = chan_b(1, 2), chan_b(2, 1)
    y = located(1, cond(lit(nat(1)), out_atom(c, lit(nat(2))), NIL))
    x = located(2, cond(lit(nat(1)), out_atom(d, lit(nat(3))), NIL))
    configs = [Config(frozenset(live), 0, 1,
                      res_chain(npar_chain([y, x]), (c, d)))
               for live in ({1}, {1, 2})]
    report = assert_agrees_from(configs, sys2, graph2, monkeypatch)
    assert report.passed and report.details["diamonds"] > 0


def test_agrees_where_adjacent_nnils_drop_to_one_configuration(sys2, graph2,
                                                              monkeypatch):
    # Both nnils between the two inert outputs drop (E4) to the same
    # configuration, so the first configuration has one successor and the
    # closure meets no diamond; the inert components are passed over.  The
    # same components with a second budget are a second context, whose
    # three configurations count again.
    c = chan_b(1, 2)
    x, y = located(1, out_atom(c, lit(nat(2)))), located(2, out_atom(c, lit(nat(3))))
    configs = [Config(frozenset({1, 2}), budget, 1,
                      res_chain(npar_chain([x, NNIL, NNIL, y]), (c,)))
               for budget in (0, 1)]
    report = assert_agrees_from(configs, sys2, graph2, monkeypatch)
    assert report.details == {"configurations": 6, "diamonds": 0, "undefined": 0}


def test_agrees_where_an_nnil_ends_the_spine_after_an_inert_component(
        sys2, graph2, monkeypatch):
    # The nnil at the spine's end drops (E5) and leaves the inert output
    # before it as the new end; the conditional ahead of both steps too, so
    # the first configuration is a diamond.
    c, d = chan_b(1, 2), chan_b(2, 1)
    z = located(1, cond(lit(nat(1)), out_atom(c, lit(nat(2))), NIL))
    y = located(2, out_atom(d, lit(nat(3))))
    configs = [Config(frozenset({1, 2}), 0, 1,
                      res_chain(npar_chain([z, y, NNIL]), (c, d)))]
    report = assert_agrees_from(configs, sys2, graph2, monkeypatch)
    assert report.passed
    assert report.details == {"configurations": 4, "diamonds": 1, "undefined": 0}


def test_bound_is_on_distinct_configurations(sys2, graph2):
    configs = verifier.check_confluence(sys2, graph2).details["configurations"]
    verifier.check_confluence(sys2, graph2, max_configs=configs)
    with pytest.raises(BoundExceeded):
        verifier.check_confluence(sys2, graph2, max_configs=configs - 1)
