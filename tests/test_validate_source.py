"""Validation against a source state, the calculus-side crash patch, and
the exploration loop's handling of the cyclic garbage collector.

``repsem.validate_rep(sys, rep, source)`` skips the checks whose inputs are
all ``source``'s own objects.  On every edge of the seven n<=2 instances,
unmutated and under each mutation, and of a 3,000-state n=3 prefix, it must
agree with ``validate_rep(sys, rep)``; so must a hand-built faulty target
per message of ``validate_rep``, each raising the same message on both
paths.  On the same states ``repsem.crash_target`` must equal the Stop
target ``repsem.sf_step`` built before it delegated to it (kept below as
``former_stop_target``) and full extraction of the raw Stop configuration.

``verifier._bfs`` and the checks after correspondence run with the cyclic
GC off; the walkers that once left a reference cycle per call no longer
do, and the GC's state is restored on every exit.
"""

import gc
import os
import types

import pytest

from consrep import cli, lts, repsem, verifier
from consrep import consensus_model as cm
from consrep.calculus_ast import BOT
from consrep.errors import (
    BoundExceeded,
    EmptyKnowledge,
    GraphTruncated,
    InvariantViolation,
)
from consrep.repsem import Representative
from conftest import raw_config
from test_acceptance import INSTANCE_3, INSTANCES_1, INSTANCES_2

N3_PREFIX = 3000


def nat(k):
    return ("nat", k)


def former_stop_target(rep, crashed):
    """The Stop target as ``sf_step`` built it before ``crash_target``: the
    crashed agent leaves the live set, the budget drops by one, and every
    entry the agent owns leaves its field; empty fields stay."""
    live = tuple([p for p in rep.live if p != crashed])
    fields = list(rep[3:])
    fields[:5] = [tuple([e for e in entries if e[0] != crashed])
                  if entries else entries for entries in fields[:5]]
    return Representative(live, rep.budget - 1, rep.ti, *fields)


def outcome(sys_, rep, source=None):
    try:
        repsem.validate_rep(sys_, rep, source)
    except InvariantViolation as exc:
        return str(exc)
    return None


def runs():
    """(system, explored states) for the 35 n<=2 runs and the n=3 prefix."""
    for mutation in [None] + sorted(cm.MUTATIONS):
        for inst in INSTANCES_1 + INSTANCES_2:
            yield cm.build_system(inst, [mutation] if mutation else []), None
    yield cm.build_system(INSTANCE_3), N3_PREFIX


def explored(sys_, bound):
    try:
        graph = verifier.explore(sys_, max_states=bound or verifier.DEFAULT_MAX_STATES)
    except BoundExceeded as exc:
        graph = exc.graph
    return list(graph.nodes)[:bound]


def test_source_validation_and_crash_target_agree_on_every_state():
    edges = crashes = 0
    for sys_, bound in runs():
        for rep in explored(sys_, bound):
            try:
                succs = lts.labelled_targets(sys_, rep)
            except EmptyKnowledge:
                continue
            for _, target, _ in succs:
                assert outcome(sys_, target, rep) == outcome(sys_, target) is None
                edges += 1
            for step in lts.keyed_steps(sys_, rep):
                if step[0][0] != "x":
                    continue
                agent = step[0][1]
                target = repsem.crash_target(rep, agent)
                assert target == former_stop_target(rep, agent)
                assert target == repsem.sf_step(sys_, rep, step)
                assert target == repsem.sf(sys_, raw_config(sys_, rep, step))
                crashes += 1
    assert edges > 4 * N3_PREFIX and crashes > N3_PREFIX


def _source(sys2, test):
    """The first explored state of ``sys2`` that ``test`` accepts."""
    return next(rep for rep in explored(sys2, None) if test(rep))


def _without(live, agent):
    return tuple(p for p in live if p != agent)


# Per validate_rep message: a source state and the faulty target built
# from it, sharing every field it does not change.
FAULTS = {
    "trusted immortal 9 not live": (
        lambda r: True, lambda r: r._replace(ti=9)),
    "trusted immortal 1 not live": (
        lambda r: r.ti == 1, lambda r: r._replace(live=_without(r.live, 1))),
    "negative crash budget": (
        lambda r: True, lambda r: r._replace(budget=-1)),
    "live set out of range": (
        lambda r: True, lambda r: r._replace(live=r.live + (4,))),
    "round message owned by dead agent 2": (
        lambda r: r.ti != 2 and any(e[0] == 2 for e in r.out1),
        lambda r: r._replace(live=_without(r.live, 2))),
    "round message (1,9,1) out of bounds": (
        lambda r: r.out1 and 1 in r.live,
        lambda r: r._replace(out1=r.out1 + ((1, 9, 1, BOT),))),
    "duplicate round message": (
        lambda r: r.out1, lambda r: r._replace(out1=r.out1 + r.out1[:1])),
    "sync message owned by dead agent 9": (
        lambda r: r.out2, lambda r: r._replace(out2=r.out2 + ((9, 1, BOT),))),
    "sync message (1,9) out of bounds": (
        lambda r: r.out2 and 1 in r.live,
        lambda r: r._replace(out2=r.out2 + ((1, 9, BOT),))),
    "duplicate sync message": (
        lambda r: r.out2, lambda r: r._replace(out2=r.out2 + r.out2[:1])),
    "duplicate decision message": (
        lambda r: r.out3, lambda r: r._replace(out3=r.out3 + r.out3[:1])),
    "decision message owned by dead agent": (
        lambda r: True, lambda r: r._replace(out3=r.out3 + ((9, nat(1)),))),
    "dead agent 9 collecting": (
        lambda r: r.in1, lambda r: r._replace(in1=r.in1 + ((9,) + r.in1[0][1:],))),
    "collector (1,9,i=1) out of bounds": (
        lambda r: r.in1 and 1 in r.live,
        lambda r: r._replace(in1=r.in1 + ((1, 9) + r.in1[0][2:4] + (1,),))),
    "dead agent 8 collecting": (
        lambda r: r.in2, lambda r: r._replace(in2=r.in2 + ((8,) + r.in2[0][1:],))),
    "collector (1,i=9) out of bounds": (
        lambda r: r.in2 and 1 in r.live,
        lambda r: r._replace(in2=r.in2 + ((1,) + r.in2[0][1:3] + (9,),))),
    "an agent holds two roles at once": (
        lambda r: r.in1, lambda r: r._replace(in1=r.in1 + r.in1[:1])),
    "observer flag 5": (
        lambda r: True, lambda r: r._replace(wrap=(1, BOT, 5))),
    "observer position 9": (
        lambda r: True, lambda r: r._replace(wrap=(9, BOT, 1))),
    "observer at ok must be accepting with no remembered value": (
        lambda r: True, lambda r: r._replace(wrap=(0, nat(1), 1))),
    **{f"{field} not strictly increasing": (
        lambda r, field=field: len(getattr(r, field)) > 1,
        lambda r, field=field: r._replace(**{field: getattr(r, field)[::-1]}))
       for field in ("live", "out1", "out2", "out3", "in1", "in2")},
}


@pytest.fixture(scope="module")
def sys2():
    # n=2 (5,7) with a crash budget: its states hold two decisions, two
    # sync collectors and crashed agents.
    return cm.build_system(INSTANCES_2[1])


@pytest.mark.parametrize("message", sorted(FAULTS))
def test_a_faulty_target_fails_alike_with_and_without_its_source(sys2, message):
    accepts, fault = FAULTS[message]
    source = _source(sys2, accepts)
    assert outcome(sys2, source) is None
    target = fault(source)
    assert outcome(sys2, target, source) == outcome(sys2, target)
    assert outcome(sys2, target).startswith(message)


def test_the_ti_check_reruns_under_the_same_live_tuple(sys2):
    source = lts.initial_reps(sys2)[0]
    target = source._replace(ti=9)
    assert target.live is source.live
    with pytest.raises(InvariantViolation, match="^trusted immortal 9 not live$"):
        repsem.validate_rep(sys2, target, source)


def test_a_shared_field_is_not_walked_again(sys2):
    # The checks skipped are those of the source's own objects: given a
    # source with a field out of order, which validation never passes, a
    # target sharing that field is not checked over it again.
    source = lts.initial_reps(sys2)[0]
    source = source._replace(in1=source.in1[::-1])
    target = source._replace(budget=source.budget)
    assert outcome(sys2, target) == "in1 not strictly increasing"
    assert outcome(sys2, target, source) is None


@pytest.mark.parametrize("enabled", [True, False])
def test_the_loop_restores_the_collectors_state(monkeypatch, enabled):
    sys2 = cm.build_system(INSTANCES_2[1])
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        verifier.explore(sys2)
        assert gc.isenabled() == enabled
        with pytest.raises(BoundExceeded):
            verifier.explore(sys2, max_states=5)
        assert gc.isenabled() == enabled

        validate = repsem.validate_rep

        def failing(sys_, rep, source=None):
            # Only the loop validates against a source.
            if source is None:
                return validate(sys_, rep)
            assert not gc.isenabled()
            raise InvariantViolation("planted")

        with monkeypatch.context() as m:
            m.setattr(repsem, "validate_rep", failing)
            with pytest.raises(InvariantViolation, match="planted"):
                verifier.check_correspondence(sys2)
        assert gc.isenabled() == enabled

        # The checks after correspondence pause the collector through the
        # same helper, and restore it when they raise.
        graph = verifier.explore(sys2)

        def planted(sys_, slot):
            assert not gc.isenabled()
            raise InvariantViolation("planted")

        with monkeypatch.context() as m:
            m.setattr(repsem, "_slot_component", planted)
            with pytest.raises(InvariantViolation, match="planted"):
                verifier.check_normal_forms(sys2, graph)
        assert gc.isenabled() == enabled
        graph.truncated = True
        with pytest.raises(GraphTruncated):
            verifier.weak_bisim(graph)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_checks_leave_no_cyclic_garbage_of_their_own(tmp_path):
    src = os.path.dirname(repsem.__file__)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = cli.main(["verify", "--n", "2", "--values", "5,7", "--budget", "1",
                         "--output", str(tmp_path / "report.json")])
        report = verifier.check_correspondence(cm.build_system(INSTANCE_3), 1000)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was:
            gc.enable()
    assert code == cli.EXIT_OK and report.passed
    ours = [f for f in garbage if isinstance(f, types.FunctionType)
            and f.__code__.co_filename.startswith(src)]
    assert not ours
    cells = [c for c in garbage if isinstance(c, types.CellType)
             and isinstance(c.cell_contents, types.FunctionType)
             and c.cell_contents.__code__.co_filename.startswith(src)]
    assert not cells
