"""Validation against a source state and the rule that built it, the
calculus-side crash patch, and the exploration loop's handling of the
cyclic garbage collector.

``repsem.validate_rep(sys, rep, source, rule)`` checks only what the
rule's ``repsem.Patch`` changed, and runs every check where that does not
accept ``rep``.  On every edge of the seven n<=2 instances, unmutated and
under each mutation, and of a 3,000-state n=3 prefix, it must agree with
``validate_rep(sys, rep)``; the patch must accept every rule-built edge,
each field it only drops from must be a sub-sequence of the source's (the
fact it is trusted for), and in ``explore`` every target validated against
its source and rule must take the patch path.  A hand-built faulty target per message of
``validate_rep``, and a fault planted in the step facts per kind of check
the patch makes, must raise the same message on every path.  On the same
states ``repsem.crash_target`` must equal the Stop target
``repsem.sf_step`` built before it delegated to it (kept below as
``former_stop_target``) and full extraction of the raw Stop configuration.

``verifier._bfs`` and the checks after correspondence run with the cyclic
GC off; the walkers that once left a reference cycle per call no longer
do, and the GC's state is restored on every exit.
"""

import gc
import os
import re
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


def outcome(sys_, rep, source=None, rule=None):
    try:
        repsem.validate_rep(sys_, rep, source, rule)
    except InvariantViolation as exc:
        return str(exc)
    return None


def is_subsequence(part, whole) -> bool:
    """Whether ``part`` is ``whole`` with some entries left out, compared by
    identity."""
    rest = iter(whole)
    return all(any(x is y for y in rest) for x in part)


def without(field, entries) -> tuple:
    """``field`` with each of ``entries`` taken out once."""
    kept = list(field)
    for entry in entries:
        kept.remove(entry)
    return tuple(kept)


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


def counting_patch_path(monkeypatch) -> dict:
    """Counts, from now on, the ``validate_rep`` calls given a source and a
    rule with a patch (``"built"``) and those the patch path accepted
    (``"patched"``)."""
    counts = {"built": 0, "patched": 0}
    validate, accepts = repsem.validate_rep, repsem._patch_accepts

    def validating(sys_, rep, source=None, rule=None):
        if source is not None and getattr(rule, "patch", None) is not None:
            counts["built"] += 1
        return validate(sys_, rep, source, rule)

    def accepting(*args):
        accepted = accepts(*args)
        counts["patched"] += accepted
        return accepted

    monkeypatch.setattr(repsem, "validate_rep", validating)
    monkeypatch.setattr(repsem, "_patch_accepts", accepting)
    return counts


def adds_of(sys_, rule) -> tuple:
    """The (field index, entries) pairs ``rule`` adds: those of its
    ``Move``, found by the identities its step key names, for a collector
    move; none for the observer and crash rules."""
    if rule.family in ("SRW1", "SRW2", "SR7"):
        return ()
    entry, *consumed = rule.key[1:]
    return sys_._moves[entry, consumed[0] if consumed else id(None)].adds


def assert_patch_holds(sys_, source, target, rule) -> None:
    """The facts ``_patch_accepts`` trusts: each field the rule only drops
    from (one it neither leaves alone nor adds to), and each field it adds
    to without what it adds, is a sub-sequence of the source's field."""
    adds = dict(adds_of(sys_, rule))
    for k in (0, *range(3, 8)):
        if k not in rule.patch.same:
            kept = without(target[k], adds.get(k, ()))
            assert is_subsequence(kept, source[k]), (source, target, k)


def test_source_validation_and_crash_target_agree_on_every_state(monkeypatch):
    edges = crashes = new = 0
    for sys_, bound in runs():
        with monkeypatch.context() as m:
            counts = counting_patch_path(m)
            states = explored(sys_, bound)
        # Every state explore met past the initials (and the first past a
        # bound) was built by a rule from its source, and the patch path
        # accepted each.
        initials = set(lts.initial_reps(sys_))
        assert (counts["patched"] == counts["built"]
                == len(states) - len(initials) + (bound is not None) > 0)
        new += counts["built"]
        for rep in states:
            try:
                succs = lts.labelled_targets(sys_, rep)
            except EmptyKnowledge:
                continue
            for _, target, rule in succs:
                assert (outcome(sys_, target, rep, rule)
                        == outcome(sys_, target, rep)
                        == outcome(sys_, target) is None)
                if rule.patch is not None:
                    assert repsem._patch_accepts(sys_.n, target, rep, rule.patch)
                    assert_patch_holds(sys_, rep, target, rule)
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
    assert edges > 4 * N3_PREFIX and crashes > N3_PREFIX and new > N3_PREFIX


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


def _plant_out1(entry):
    """A change to a round collector's local step that also sends
    ``entry(collector)`` as a round message."""
    def plant(sys_, q, local):
        return local._replace(
            out1=local.out1 + (repsem._intern(sys_, entry(q)),))
    return plant


# A relay vector that sorts after every one the n=2 instances send.
_LATE = ("set", (("pair", ("nat", 9), BOT),))

# Per kind of check the patch path makes: the message the full check
# raises (a pattern), whether the planted rule keeps a patch, and a change
# to a round collector's local step (``repsem._phase1_local``) that plants
# the fault in the entries its ``Move`` adds.  An entry out of bounds is a
# fact of the entry alone, so its rule gets no patch and every check.  The
# collector's own round-1 message is in transit until it receives it, so
# sending it again duplicates it, sorting before or after the first.
PLANTED = {
    "out of bounds": (r"round message \((\d),9,1\) out of bounds", False,
                      _plant_out1(lambda q: (q, 9, 1, BOT))),
    "dead owner": (r"round message owned by dead agent 9", True,
                   _plant_out1(lambda q: (9, 1, 1, BOT))),
    "in transit, sorting before": (
        r"duplicate round message \((\d),\1,1\)", True,
        _plant_out1(lambda q: (q, q, 1, BOT))),
    "in transit, sorting after": (
        r"duplicate round message \((\d),\1,1\)", True,
        _plant_out1(lambda q: (q, q, 1, _LATE))),
    "second role": (r"an agent holds two roles at once", True,
                    lambda sys_, q, local: local._replace(
                        out3=(repsem._intern(sys_, (q, BOT)),))),
}


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_a_fault_planted_in_a_move_fails_alike_on_every_path(monkeypatch,
                                                             fault):
    message, patched, plant = PLANTED[fault]
    instance = INSTANCES_2[1]
    states = explored(cm.build_system(instance), None)
    sys_ = cm.build_system(instance)  # its move memo fills planted
    local = repsem._phase1_local
    monkeypatch.setattr(repsem, "_phase1_local", lambda s, entry, delta:
                        plant(s, entry[0], local(s, entry, delta)))
    caught = 0
    for source in states:
        for rule, target in repsem.rep_successors(sys_, source):
            full = outcome(sys_, target)
            assert (outcome(sys_, target, source, rule)
                    == outcome(sys_, target, source) == full)
            if full is not None:
                assert re.fullmatch(message, full), full
                assert (rule.patch is not None) == patched
                caught += 1
    assert caught


def test_a_crash_target_that_keeps_an_entry_of_its_agent_fails_alike(sys2):
    caught = 0
    for source in explored(sys2, None):
        for rule, target in repsem.rep_successors(sys2, source):
            if rule.family != "SR7":
                continue
            agent = rule.key[1]
            for k in range(3, 8):
                if not any(e[0] == agent for e in source[k]):
                    continue
                # The field as it was: the agent's entries stay.
                kept = target._replace(**{target._fields[k]: source[k]})
                full = outcome(sys2, kept)
                assert "dead agent" in full
                assert (outcome(sys2, kept, source, rule)
                        == outcome(sys2, kept, source) == full)
                caught += 1
    assert caught


# The position of the agent index that ``_in_bounds`` checks in an entry
# of out1, out2, in1 and in2, by field name.
_AGENT_INDEX = {"out1": 1, "out2": 1, "in1": 4, "in2": 3}


def misbuilt(sys_, source, rule, target):
    """(target, the message the full check raises on it) per way to build
    ``target`` other than its rule does: a budget, a trusted immortal or an
    observer that the rule does not make; each field the rule adds to with
    its first added entry swapped for a twin out of bounds; and, after a
    crash, another agent gone from the live set, with or without the one
    that crashed, while it still owns entries."""
    yield target._replace(budget=-1), "negative crash budget"
    yield target._replace(ti=9), "trusted immortal 9 not live"
    yield target._replace(wrap=(1, BOT, 5)), "observer flag 5"
    for k, entries in adds_of(sys_, rule):
        name = target._fields[k]
        if name in _AGENT_INDEX:
            entry = entries[0]
            at = _AGENT_INDEX[name]
            twin = entry[:at] + (9,) + entry[at + 1:]
            field = tuple(sorted(twin if e is entry else e for e in target[k]))
            yield target._replace(**{name: field}), "out of bounds"
    if rule.patch.crashed:
        for q in source.live:
            if q not in (rule.patch.crashed, source.ti) and any(
                    e[0] == q for field in target[3:8] for e in field):
                for live in (_without(target.live, q),
                             _without(source.live, q)):
                    yield target._replace(live=live), "dead agent"


def test_a_target_its_rule_did_not_build_fails_alike():
    caught = set()
    for sys_, bound in ((cm.build_system(INSTANCES_2[1]), None),
                        (cm.build_system(INSTANCE_3), 300)):
        for source in explored(sys_, bound):
            for rule, target in repsem.rep_successors(sys_, source):
                for bad, message in misbuilt(sys_, source, rule, target):
                    full = outcome(sys_, bad)
                    assert message in full, (full, message)
                    # A rule that is a plain string carries no patch.
                    assert (outcome(sys_, bad, source, rule)
                            == outcome(sys_, bad, source, str(rule))
                            == outcome(sys_, bad, source) == full)
                    caught.add((rule.family, message))
    assert {family for family, _ in caught} >= {"SR1", "SR4", "SR7", "SRW1",
                                                "SRW2", "SR1'"}
    assert {message.split()[0] for _, message in caught} == {
        "negative", "trusted", "observer", "out", "dead"}


def test_the_ti_check_reruns_under_the_same_live_tuple(sys2):
    source = lts.initial_reps(sys2)[0]
    target = source._replace(ti=9)
    assert target.live is source.live
    with pytest.raises(InvariantViolation, match="^trusted immortal 9 not live$"):
        repsem.validate_rep(sys2, target, source)


def test_a_shared_field_is_not_walked_again(sys2):
    # A field the rule leaves alone is not checked again: given a source
    # with a transit field out of order, which validation never passes, the
    # target its rule built sharing that field passes against the source
    # and the rule, and fails alone.
    source, rule, target, k = next(
        (source, rule, target, k)
        for source in explored(sys2, None)
        for rule, target in repsem.rep_successors(sys2, source)
        for k in (3, 4) if k in rule.patch.same and len(source[k]) > 1)
    name = target._fields[k]
    source = source._replace(**{name: source[k][::-1]})
    target = target._replace(**{name: source[k]})
    assert outcome(sys2, target) == f"{name} not strictly increasing"
    assert outcome(sys2, target, source, rule) is None


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

        def failing(sys_, rep, source=None, rule=None):
            # Only the loop validates against a source.
            if source is None:
                return validate(sys_, rep, source, rule)
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
