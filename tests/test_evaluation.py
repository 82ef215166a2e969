import pytest

from consrep import consensus_model as cm
from consrep import lts
from consrep.calculus_ast import (
    NIL,
    NNIL,
    Config,
    Defs,
    chan_b,
    cond,
    const,
    inp,
    lit,
    located,
    nat,
    npar,
    out_atom,
    par,
    paire,
    res,
    var,
)
from consrep.errors import NonTermination
from consrep.evaluation import eval_steps, evaluate
from conftest import congruent

C = chan_b(1, 1)
D = chan_b(2, 1)

TOY = Defs(
    equations={
        "SPIN": ("x", const("SPIN", ("call", "add", paire(var("x"), lit(nat(1)))))),
        "STAY": ("x", cond(lit(nat(0)), NIL, const("STAY", var("x")))),
    },
    ftable=cm.FTABLE,
    cache={},
)


def cfgof(net, live={1, 2}, budget=0, ti=1):
    return Config(live=frozenset(live), budget=budget, ti=ti, net=net)


def test_nil_component_is_collected():
    steps = eval_steps(cfgof(located(1, NIL)), TOY)
    assert [(s, c.net) for s, c in steps] == [("E2", NNIL)]


def test_dead_location_is_collected():
    steps = eval_steps(cfgof(located(2, out_atom(C, lit(nat(1)))), live={1}), TOY)
    assert [(s, c.net) for s, c in steps] == [("E3", NNIL)]


def test_conditional_single_successor():
    body = cond(lit(nat(1)),
                par(out_atom(C, lit(nat(1))), inp(D, "x", NIL)),
                NIL)
    steps = eval_steps(cfgof(located(1, body)), TOY)
    assert len(steps) == 1
    assert steps[0][0] == "EIfTrue"


def test_worked_example_chain():
    # if 1 then (send of 1+1 | receive) else 0  evaluates to the split,
    # argument-evaluated components.
    body = cond(lit(nat(1)),
                par(out_atom(C, ("call", "add", paire(lit(nat(1)), lit(nat(1))))),
                    inp(D, "x", NIL)),
                NIL)
    got = evaluate(cfgof(located(1, body)), TOY)
    assert got.net == npar(located(1, out_atom(C, lit(nat(2)))),
                           located(1, inp(D, "x", NIL)))


def test_evaluate_fixed_point_is_stable():
    cfg = cfgof(located(1, out_atom(C, lit(nat(2)))))
    fixed = evaluate(cfg, TOY)
    assert fixed == cfg
    assert eval_steps(fixed, TOY) == []


def test_divergent_constant_hits_step_budget():
    cfg = cfgof(located(1, const("SPIN", lit(nat(0)))))
    with pytest.raises(NonTermination):
        evaluate(cfg, TOY, max_steps=500)


def test_self_resolving_constant_is_inert():
    cfg = cfgof(located(1, const("STAY", lit(nat(7)))))
    assert evaluate(cfg, TOY) == cfg
    assert eval_steps(cfg, TOY) == []


def test_evaluate_initial_single_agent(sys1):
    cfg = cm.make_initial(sys1.inst)._replace(ti=1)
    fixed = evaluate(cfg, sys1.defs)
    comps = []
    net = fixed.net
    while net[0] == "res":
        net = net[1]
    stack = [net]
    while stack:
        n = stack.pop()
        if n[0] == "npar":
            stack.extend((n[1], n[2]))
        else:
            comps.append(n)
    kinds = sorted(cm.classify_component(sys1, c[1], c[2])[0] for c in comps)
    assert kinds == ["in2", "out2", "wrap"]


def test_congruent_reflexive_and_commutative(sys2):
    rep = lts.initial_reps(sys2)[0]
    from consrep.repsem import sfi

    cfg = sfi(sys2, rep)
    chans = []
    net = cfg.net
    while net[0] == "res":
        chans.append(net[2])
        net = net[1]
    comps = []
    stack = [net]
    while stack:
        n = stack.pop()
        if n[0] == "npar":
            stack.extend((n[1], n[2]))
        else:
            comps.append(n)
    swapped = comps[-1]
    for comp in comps[:-1]:
        swapped = npar(swapped, comp)
    for ch in chans:
        swapped = res(swapped, ch)
    other = cfg._replace(net=swapped)
    assert congruent(sys2, cfg, cfg)
    assert congruent(sys2, cfg, other)


def test_congruent_contains_evaluation(sys2):
    rep = lts.initial_reps(sys2)[0]
    raw = lts.calculus_raw_successors(sys2, rep)[0][2]
    stepped = eval_steps(raw, sys2.defs)[0][1]
    assert congruent(sys2, raw, stepped)
