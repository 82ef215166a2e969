import random

import pytest

from consrep import consensus_model as cm
from consrep import cli, lts, repsem, verifier
from consrep.calculus_ast import BOT, nat, npar, res
from consrep.errors import InvariantViolation, NotReachableShape
from consrep.evaluation import evaluate, split_restriction, flatten_components
from consrep.repsem import Representative, rep_key, rep_successors, sf, sfi
from conftest import calculus_successors
from test_explore_oracle import reference_explore

V1 = cm.know_vec([(1, nat(4), 0)])


def test_extraction_of_single_agent_initial(sys1):
    rep = lts.initial_reps(sys1)[0]
    assert rep == Representative(
        live=(1,), budget=0, ti=1,
        out1=(), out2=((1, 1, V1),), out3=(),
        in1=(), in2=((1, V1, cm.EMPTY_MSGS, 1),),
        wrap=(1, BOT, 1),
    )


def test_single_agent_run_to_ok(sys1):
    rep = lts.initial_reps(sys1)[0]
    (rule1, r1), = rep_successors(sys1, rep)
    assert rule1 == "SR2' q=1 p=1"
    assert r1.out3 == ((1, nat(4)),) and r1.in2 == () and r1.out2 == ()
    (rule2, r2), = rep_successors(sys1, r1)
    assert rule2 == "SRW1 j=1 v=4"
    assert r2.wrap == (0, BOT, 1)
    assert r2.out3 == ()
    assert rep_successors(sys1, r2) == []


def test_expansion_round_trip(sys1, sys2, graph2):
    for sys_, reps in ((sys1, lts.initial_reps(sys1)), (sys2, list(graph2.nodes))):
        for rep in reps:
            cfg = sfi(sys_, rep)
            assert sf(sys_, cfg) == rep
            assert evaluate(cfg, sys_.defs) == cfg


def test_extraction_constant_on_congruence_class(sys2):
    rng = random.Random(7)
    rep = lts.initial_reps(sys2)[0]
    cfg = sfi(sys2, rep)
    chans, core = split_restriction(cfg.net)
    comps = [("loc",) + c for c in flatten_components(core)]
    for _ in range(10):
        shuffled = list(comps)
        rng.shuffle(shuffled)
        net = shuffled[0]
        for comp in shuffled[1:]:
            net = npar(comp, net) if rng.random() < 0.5 else npar(net, comp)
        order = list(chans)
        rng.shuffle(order)
        for ch in order:
            net = res(net, ch)
        assert sf(sys2, cfg._replace(net=net)) == rep


def test_crash_removes_everything_owned(sys2):
    rep = lts.initial_reps(sys2)[0]  # trusted immortal 1
    crash = dict(rep_successors(sys2, rep))["SR7 p=2"]
    assert crash.live == (1,) and crash.budget == 0
    assert all(e[0] == 1 for e in crash.out1)
    assert {e[:3] for e in crash.out1} == {(1, 1, 1), (1, 2, 1)}
    assert [e[0] for e in crash.in1] == [1]
    assert crash.in2 == () and crash.out2 == () and crash.out3 == ()


def test_receive_requires_pointer_match(sys2):
    rep = lts.initial_reps(sys2)[0]
    # Both collectors await sender 1; the messages from sender 2 stay put.
    for rule, succ in rep_successors(sys2, rep):
        if not rule.startswith("SR7"):
            assert (2, 1, 1) in {e[:3] for e in succ.out1}
            assert (2, 2, 1) in {e[:3] for e in succ.out1}


def test_suspicion_twin_keeps_message(sys2):
    reps = lts.initial_reps(sys2)
    rep = next(r for r in reps if r.ti == 2)
    succs = dict(rep_successors(sys2, rep))
    recv = succs["SR1 q=2 p=1 r=1"]
    twin = succs["SR4 q=2 p=1 r=1"]
    assert (1, 2, 1) not in {e[:3] for e in recv.out1}
    assert (1, 2, 1) in {e[:3] for e in twin.out1}
    [recv_entry] = [e for e in recv.in1 if e[0] == 2]
    [twin_entry] = [e for e in twin.in1 if e[0] == 2]
    assert recv_entry[4] == twin_entry[4] == 2
    [(tag, vec, rnd, sender)] = cm.msg_entries(twin_entry[3])
    assert (tag, vec, rnd, sender) == (1, BOT, 1, 1)


def test_suspicion_spares_self_and_trusted_immortal(sys2):
    rep = lts.initial_reps(sys2)[0]  # trusted immortal 1; both await sender 1
    families = {rule.split()[0] for rule, _ in rep_successors(sys2, rep)}
    assert "SR4" not in families


def test_successors_are_deterministic(sys2):
    rep = lts.initial_reps(sys2)[0]
    assert rep_successors(sys2, rep) == rep_successors(sys2, rep)


def test_validation_rejects_broken_representatives(sys2):
    rep = lts.initial_reps(sys2)[0]
    with pytest.raises(InvariantViolation):
        repsem.validate_rep(sys2, rep._replace(ti=9))
    with pytest.raises(InvariantViolation):
        repsem.validate_rep(sys2, rep._replace(out3=((2, nat(5)), (2, nat(7)))))
    with pytest.raises(InvariantViolation):
        repsem.validate_rep(sys2, rep._replace(wrap=(0, nat(5), 1)))
    # An inert observer at ok is rejected as not accepting.
    with pytest.raises(InvariantViolation, match="^observer at ok must be accepting"):
        repsem.validate_rep(sys2, rep._replace(wrap=(0, BOT, 0)))
    dup = rep.out1 + ((1, 1, 1, rep.out1[0][3]),)
    with pytest.raises(InvariantViolation):
        repsem.validate_rep(sys2, rep._replace(out1=dup))


@pytest.mark.parametrize("field", ["live", "in1"])
def test_validation_rejects_a_reversed_field(sys2, field):
    # A field out of order would be a second key for one congruence class.
    rep = lts.initial_reps(sys2)[0]
    reversed_ = rep._replace(**{field: getattr(rep, field)[::-1]})
    assert reversed_ != rep
    with pytest.raises(InvariantViolation, match=f"^{field} not strictly increasing$"):
        repsem.validate_rep(sys2, reversed_)
    # An earlier check's message still comes first.
    with pytest.raises(InvariantViolation, match="^trusted immortal 9 not live$"):
        repsem.validate_rep(sys2, reversed_._replace(ti=9))


def test_invalid_successor_is_caught_where_it_is_discovered(
        sys1, monkeypatch, capsys):
    # Successors are validated by their consumers, once per new state; make
    # every state also step, by rule BAD, to a duplicate decision message.
    original = repsem.rep_successors

    def with_invalid_successor(sys_, rep):
        bad = rep._replace(out3=((rep.ti, nat(4)), (rep.ti, nat(4))))
        return original(sys_, rep) + [("BAD", bad)]

    monkeypatch.setattr(repsem, "rep_successors", with_invalid_successor)
    with pytest.raises(InvariantViolation, match="duplicate decision message"):
        verifier.explore(sys1, "representative")
    with pytest.raises(InvariantViolation, match="duplicate decision message"):
        verifier.check_correspondence(sys1)
    code = cli.main(["trace", "--n", "1", "--values", "4", "ti=1", "BAD"])
    assert code == cli.EXIT_CHECK_FAILED
    assert "duplicate decision message" in capsys.readouterr().err


def test_invalid_calculus_target_is_caught_where_it_is_discovered(
        sys1, monkeypatch):
    # Calculus-step targets are not validated where sf_step assembles them;
    # make every one carry a duplicate decision message.
    original = repsem.sf_step

    def with_duplicate_decision(sys_, *args):
        target = original(sys_, *args)
        return target._replace(out3=((target.ti, nat(4)), (target.ti, nat(4))))

    monkeypatch.setattr(repsem, "sf_step", with_duplicate_decision)
    with pytest.raises(InvariantViolation, match="duplicate decision message"):
        verifier.check_correspondence(sys1)
    with pytest.raises(InvariantViolation, match="duplicate decision message"):
        reference_explore(sys1, calculus_successors)


def test_extraction_rejects_foreign_terms(sys2):
    from consrep.calculus_ast import NIL, chan_b, inp, lit, located, out

    # An output with a continuation is no shape of the encoding.
    net = located(1, out(chan_b(1, 1), lit(nat(1)), inp(chan_b(1, 1), "x", NIL)))
    for ch in reversed(sys2.restriction):
        net = res(net, ch)
    cfg = cm.make_initial(sys2.inst)._replace(ti=1, net=net)
    with pytest.raises(NotReachableShape):
        sf(sys2, cfg)


def test_observer_restored_after_emission(sys1, sys2):
    # Extraction restores a consumed observer, so the configuration left
    # behind by the ok emission maps back to the ok-position representative.
    final = Representative(live=(1,), budget=0, ti=1, out1=(), out2=(),
                           out3=(), in1=(), in2=(), wrap=(0, BOT, 1))
    cfg = sfi(sys1, final)
    net = cfg.net
    stripped = net
    spine = []
    while stripped[0] == "res":
        spine.append(stripped[2])
        stripped = stripped[1]
    assert stripped[0] == "loc"  # just the pending ok output
    emptied = ("nnil",)
    for ch in reversed(spine):
        emptied = res(emptied, ch)
    assert sf(sys1, cfg._replace(net=emptied)) == final


def test_observer_conflict_goes_inert_in_both_semantics(sys2):
    # Unreachable without mutations, but well-formed: agent 2 announces 5
    # while the observer remembers 7.  Both semantics must agree that the
    # observer rejects it and goes inert, keeping the witness visible.
    rep = Representative(
        live=(1, 2), budget=0, ti=1,
        out1=(), out2=(), out3=((2, nat(5)),), in1=(), in2=(),
        wrap=(2, nat(7), 1),
    )
    (rule, succ), = rep_successors(sys2, rep)
    assert rule.startswith("SRW1")
    assert succ.wrap == (2, nat(7), 0)
    assert succ.out3 == ()
    from consrep import lts

    calc = [tr.target for tr in calculus_successors(sys2, rep)]
    assert calc == [succ]
    # The inert observer takes no further part.
    assert rep_successors(sys2, succ) == []
    assert calculus_successors(sys2, succ) == []
    assert sf(sys2, sfi(sys2, succ)) == succ


def test_canonical_key_is_stable(sys1):
    rep = lts.initial_reps(sys1)[0]
    assert rep_key(rep) == rep_key(rep)
    assert repsem.rep_digest(rep) == repsem.rep_digest(rep)
    data = repsem.rep_jsonable(rep)
    assert data["wrap"] == [1, None, 1]
    assert data["out2"] == [[1, 1, {"set": [[1, [4, 0]]]}]]
