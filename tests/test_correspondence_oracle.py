"""``verifier.check_correspondence`` against the loop that compares the
τ-targets of the calculus semantics (``conftest.calculus_successors``)
with those of the representative semantics, and admits the union's new
targets one by one.

``reference_correspondence`` is that loop.  No run below has a visible
step on one side only, so the check must give the same report, field by
field and in order, and must validate the same states in the same order:
the sequence of ``repsem.validate_rep`` arguments is recorded on both
sides.  ``lts.calculus_targets``, the calculus side of the check's full
comparison, must equal the τ-targets and the visible (action, target)
pairs of ``calculus_successors`` on every state the check meets, and
raise ``EmptyKnowledge`` on exactly the same states;
``calculus_successors`` must be the sorted set of the ``Transition`` of
every step.

The check also compares the visible steps, which the reference does not:
three faults in when `ok` fires, each passed by the reference, must each
fail it and name the action in the list of the side that has the extra
step.
"""

from collections import deque

import pytest

from consrep import consensus_model as cm
from consrep import lts, repsem, verifier
from consrep.errors import EmptyKnowledge
from consrep.lts import OK, TAU
from conftest import calculus_successors
from test_acceptance import INSTANCE_3, INSTANCES_1, INSTANCES_2

N3_BOUND = 300


def reference_correspondence(sys, max_states=verifier.DEFAULT_MAX_STATES):
    visited: set = set()
    admitted = 0
    queue: deque = deque()
    truncated = False
    sound: list = []
    complete: list = []
    defects: list = []
    checked = 0
    for rep in lts.initial_reps(sys):
        if rep not in visited:
            visited.add(rep)
            admitted += 1
            queue.append(rep)
    while queue:
        rep = queue.popleft()
        checked += 1
        try:
            rep_targets = {t for _, t in repsem.rep_successors(sys, rep)}
        except EmptyKnowledge:
            rep_targets = None
        try:
            calc_targets = {tr.target for tr in calculus_successors(sys, rep)
                            if tr.action == TAU}
        except EmptyKnowledge as exc:
            calc_targets = None
            defect = str(exc)
        if rep_targets is None or calc_targets is None:
            if rep_targets is not None:
                complete.append((rep, None))
            elif calc_targets is not None:
                sound.append((rep, None))
            else:
                defects.append((rep, defect))
            continue
        for t in sorted(rep_targets - calc_targets):
            sound.append((rep, t))
        for t in sorted(calc_targets - rep_targets):
            complete.append((rep, t))
        for t in sorted(rep_targets | calc_targets):
            if t not in visited:
                repsem.validate_rep(sys, t)
                visited.add(t)
                if admitted >= max_states:
                    truncated = True
                    continue
                admitted += 1
                queue.append(t)
    return verifier.CorrespondenceReport(checked, sound, complete, truncated, defects)


def recorded(checker, sys_, max_states):
    """The report of ``checker`` and the states it validated, in order."""
    validated = []
    original = repsem.validate_rep

    def recording(sys_, rep, source=None):
        validated.append(rep)
        return original(sys_, rep, source)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(repsem, "validate_rep", recording)
        report = checker(sys_, max_states)
    return report, validated


def runs():
    """(mutation, system, bound) for the seven n<=2 instances, unmutated and
    under each mutation, then the n=3 (1,2,3) prefix."""
    for mutation in [None] + sorted(cm.MUTATIONS):
        for inst in INSTANCES_1 + INSTANCES_2:
            yield (mutation, cm.build_system(inst, [mutation] if mutation else []),
                   verifier.DEFAULT_MAX_STATES)
    yield None, cm.build_system(INSTANCE_3), N3_BOUND


@pytest.fixture(scope="module")
def compared():
    """(mutation, system, fast report and validations, reference report and
    validations) per run."""
    return [(mutation, sys_,
             recorded(verifier.check_correspondence, sys_, bound),
             recorded(reference_correspondence, sys_, bound))
            for mutation, sys_, bound in runs()]


def test_check_agrees_with_the_reference_loop(compared):
    assert len(compared) == 5 * 7 + 1
    failures = {}
    for mutation, _, (fast, fast_validated), (slow, slow_validated) in compared:
        assert fast.checked == slow.checked
        assert fast.sound_failures == slow.sound_failures
        assert fast.complete_failures == slow.complete_failures
        assert fast.truncated == slow.truncated
        assert fast.defects == slow.defects
        assert fast_validated == slow_validated
        counts = failures.setdefault(mutation, [0, 0, 0])
        counts[0] += len(fast.sound_failures)
        counts[1] += len(fast.complete_failures)
        counts[2] += len(fast.defects)

    # Each path the check takes is taken somewhere: unmutated runs pass, the
    # two mutations that break the correspondence are caught, the empty
    # decision is met, and the n=3 prefix is cut at its bound.
    assert failures[None] == [0, 0, 0]
    assert min(failures["sr1-deletes-in1"][:2]) > 0
    assert failures["no-phase1-susp"][0] == 0 < failures["no-phase1-susp"][1]
    assert failures["no-ti-protection"][2] > 0
    n3_fast, n3_validated = compared[-1][2]
    assert n3_fast.truncated and n3_fast.checked == N3_BOUND
    assert len(n3_validated) > N3_BOUND


def reference_calculus_successors(sys, rep) -> list:
    """The sorted set of every step's ``Transition``, source included."""
    return sorted({lts.Transition(rep, step[3],
                                  repsem.sf_step(sys, rep, step), step[2])
                   for step in lts.keyed_steps(sys, rep)})


def test_calculus_targets_are_the_tau_targets_of_successors(compared):
    states = undefined = 0
    for _, sys_, _, (_, validated) in compared:
        for rep in lts.initial_reps(sys_) + validated:
            try:
                succs = calculus_successors(sys_, rep)
            except EmptyKnowledge:
                for undefined_on in (reference_calculus_successors,
                                     lts.calculus_targets):
                    with pytest.raises(EmptyKnowledge):
                        undefined_on(sys_, rep)
                undefined += 1
                continue
            assert succs == reference_calculus_successors(sys_, rep)
            assert lts.calculus_targets(sys_, rep) == (
                {tr.target for tr in succs if tr.action == TAU},
                {(tr.action, tr.target) for tr in succs if tr.action != TAU})
            states += 1
    assert states > N3_BOUND and undefined > 0


def _ok_also_at_an_inert_observer(m):
    original = lts.emits_ok
    m.setattr(lts, "emits_ok", lambda rep: rep.wrap[2] == 0 or original(rep))


def _calculus_drops_ok(m):
    # The enumeration behind both the keyed comparison and the full one; a
    # record carries its key first and its action fourth.
    original = lts.keyed_steps
    m.setattr(lts, "keyed_steps", lambda sys_, rep: [
        record for record in original(sys_, rep)
        if record[0][0] != "snd" or record[3] != OK])


def _representative_drops_ok(m):
    m.setattr(lts, "emits_ok", lambda rep: False)


@pytest.mark.parametrize("fault, mutation, side", [
    # skip-correct lets an observer go inert; the calculus emits nothing there.
    (_ok_also_at_an_inert_observer, "skip-correct", "sound"),
    # A representative step the calculus lacks is a sound failure too.
    (_calculus_drops_ok, None, "sound"),
    (_representative_drops_ok, None, "complete"),
], ids=["ok-at-an-inert-observer", "calculus-drops-ok", "representative-drops-ok"])
def test_visible_faults_are_caught_by_the_check_only(fault, mutation, side):
    sys_ = cm.build_system(INSTANCES_2[0], [mutation] if mutation else [])
    with pytest.MonkeyPatch.context() as m:
        fault(m)
        assert reference_correspondence(sys_).passed
        report = verifier.check_correspondence(sys_)
    assert not report.passed
    found = report.to_jsonable()
    other = "complete" if side == "sound" else "sound"
    assert found[f"{other}_failures"] == []
    failures = found[f"{side}_failures"]
    # Only the visible step differs: every entry names its action.
    assert failures and all(entry["action"] == "ok!_" for entry in failures)
