"""``verifier.check_correspondence``, which compares each state's steps per
step key, against the check it replaced, which built and compared every
calculus target of every state.

``oracle_correspondence`` is that check, unchanged: the same exploration
loop (``verifier._bfs``) with every state compared in full
(``lts.calculus_targets``).  On the seven n<=2 instances, unmutated and
under each mutation, and on a 3,000-state prefix of n=3, the two must give
the same report JSON, the same carried graph and the same sequence of
``repsem.validate_rep`` arguments.  Every state of the unmutated runs must
take the keyed path, and on the n=3 prefix the check may build a
non-crash calculus target at most once per distinct step key.  A
corrupted ``Move`` record and a corrupted leaf memo entry, each planted
before the check, must fail it exactly as they fail the oracle.

``step_keys`` is how the check once named the representative steps: a
second scan of each state that read the keys off the ``Move`` records.
On the same runs, the keys the rules of ``repsem.rep_successors`` carry
(``repsem.Rule``) must be the keys it names.
"""

import copy
import pickle
from bisect import bisect_left
from itertools import pairwise

import pytest

from consrep import consensus_model as cm
from consrep import lts, repsem, verifier
from consrep.calculus_ast import value_str
from consrep.errors import BoundExceeded, EmptyKnowledge
from consrep.lts import TAU
from consrep.repsem import _NONE, Representative
from test_acceptance import INSTANCE_3, INSTANCES_1, INSTANCES_2

N3_BOUND = 3000
# The index of the round collectors' field in a representative.
IN1 = Representative._fields.index("in1")


def step_keys(sys: cm.System, rep: Representative) -> dict | None:
    """The key of each internal step of ``rep`` that ``rep_successors``
    gives, mapped to its rule instance, in the key space of
    ``lts.keyed_steps``: the key of the calculus step that the rule
    matches.  A collector move is keyed from its ``Move`` record, which
    ``rep_successors`` filled: ``("c", id(entry), id(consumed))`` for a
    reception and ``("s", id(entry))`` for a suspicion.  The observer is
    keyed by its wrap value: ``("c", wrap, id(decision))`` for SRW1 and
    ``("s", wrap)`` for SRW2.  A crash is ``("x", agent)``.  None where an
    enabled move has no record."""
    n = sys.n
    moves = sys._moves
    live, budget, ti, out1, out2, out3, in1, in2, wrap = rep
    spared = ti if "no-ti-protection" not in sys.mutations else 0
    phase1_susp = "no-phase1-susp" not in sys.mutations
    keys: dict = {}
    # The awaited message is found as ``rep_successors`` finds it.
    for entry in in1:
        q, r, _, _, i = entry
        key = (i, q, r)
        j = bisect_left(out1, key)
        if j < len(out1) and out1[j][:3] == key:
            move = moves.get((id(entry), id(out1[j])))
            if move is None:
                return None
            keys["c", id(entry), id(out1[j])] = move.rule
        if i != q and i != spared and phase1_susp:
            move = moves.get((id(entry), _NONE))
            if move is None:
                return None
            keys["s", id(entry)] = move.rule
    for entry in in2:
        q, _, _, i = entry
        key = (i, q)
        j = bisect_left(out2, key)
        if j < len(out2) and out2[j][:2] == key:
            move = moves.get((id(entry), id(out2[j])))
            if move is None:
                return None
            keys["c", id(entry), id(out2[j])] = move.rule
        if i != q and i != spared:
            move = moves.get((id(entry), _NONE))
            if move is None:
                return None
            keys["s", id(entry)] = move.rule

    wj, ww, wb = wrap
    if wb == 1 and 1 <= wj <= n:
        decision = next((e for e in out3 if e[0] == wj), None)
        if decision is not None:
            keys["c", wrap, id(decision)] = f"SRW1 j={wj} v={value_str(decision[1])}"
        if wj not in live:
            keys["s", wrap] = f"SRW2 j={wj}"
    if budget > 0:
        for p in live:
            if p != ti:
                keys["x", p] = f"SR7 p={p}"
    return keys


def oracle_correspondence(sys: cm.System,
                          max_states: int = verifier.DEFAULT_MAX_STATES,
                          ) -> verifier.CorrespondenceReport:
    sound: list = []
    complete: list = []
    defects: list = []
    checked = 0

    def compare(rep, succs):
        nonlocal checked
        checked += 1
        try:
            calc_targets, calc_visible = lts.calculus_targets(sys, rep)
        except EmptyKnowledge as exc:
            # The algorithm itself is undefined here (empty decision); the
            # two semantics must at least be undefined on the same states.
            if succs is None:
                defects.append((rep, str(exc)))
            else:
                complete.append((rep, None))
            return None
        if succs is None:
            sound.append((rep, None))
            return None
        rep_targets = {t for a, t, _ in succs if a == TAU}
        rep_visible = {(a, t) for a, t, _ in succs if a != TAU}
        if rep_targets == calc_targets and rep_visible == calc_visible:
            return ()
        sound.extend((rep, t) for t in sorted(rep_targets - calc_targets))
        complete.extend((rep, t) for t in sorted(calc_targets - rep_targets))
        sound.extend((rep, t, a) for a, t in sorted(rep_visible - calc_visible))
        complete.extend((rep, t, a) for a, t in sorted(calc_visible - rep_visible))
        return sorted(rep_targets | calc_targets
                      | {t for _, t in rep_visible | calc_visible})

    graph = verifier._bfs(sys, max_states, compare, truncate=True)
    return verifier.CorrespondenceReport(checked, sound, complete,
                                         graph.truncated, defects,
                                         None if sound or complete else graph)


def observed(checker, sys_, max_states) -> tuple:
    """What a run of ``checker`` shows: its report JSON and failure lists,
    its carried graph, the states it validated in order, and how many
    states it compared in full."""
    validated = []
    full = 0
    validate, calculus_targets = repsem.validate_rep, lts.calculus_targets

    def recording(sys_, rep, source=None, rule=None):
        validated.append(rep)
        return validate(sys_, rep, source, rule)

    def counted(sys_, rep):
        nonlocal full
        full += 1
        return calculus_targets(sys_, rep)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(repsem, "validate_rep", recording)
        m.setattr(lts, "calculus_targets", counted)
        report = checker(sys_, max_states)
    graph = report.graph
    carried = graph and (list(graph.node_ids.items()), graph.edges.offsets,
                         graph.edges.targets, graph.edges.label_ids,
                         graph.edges.labels, graph.initials, graph.truncated,
                         graph.defects)
    shown = (report.to_jsonable(), report.checked, report.sound_failures,
             report.complete_failures, report.truncated, report.defects)
    return shown, carried, validated, full


def runs():
    """(mutation, instance, bound) for the seven n<=2 instances, unmutated
    and under each mutation, then the n=3 (1,2,3) prefix."""
    for mutation in [None] + sorted(cm.MUTATIONS):
        for inst in INSTANCES_1 + INSTANCES_2:
            yield mutation, inst, verifier.DEFAULT_MAX_STATES
    yield None, INSTANCE_3, N3_BOUND


def _system(inst, mutation):
    return cm.build_system(inst, [mutation] if mutation else [])


def test_rules_carry_the_keys_step_keys_names():
    states = 0
    for mutation, inst, bound in runs():
        sys_ = _system(inst, mutation)
        try:
            graph = verifier.explore(sys_, max_states=bound)
        except BoundExceeded as exc:
            graph = exc.graph
        for rep in graph.edges.nodes[:bound]:
            try:
                succs = repsem.rep_successors(sys_, rep)
            except EmptyKnowledge:
                # The undefined move is never stored.
                assert step_keys(sys_, rep) is None
                continue
            carried = {rule.key: rule for rule, _ in succs}
            assert len(carried) == len(succs)
            assert all(type(rule) is repsem.Rule for rule in carried.values())
            keys = step_keys(sys_, rep)
            if lts.emits_ok(rep):
                carried[lts.OK_RULE.key] = lts.OK_RULE
                keys["snd", rep.wrap] = lts.OK_RULE
            assert carried == keys
            states += 1
    assert states > N3_BOUND


def test_a_rule_pickles_and_copies_as_a_plain_str():
    sys_ = cm.build_system(INSTANCES_2[0])
    rule, _ = repsem.rep_successors(sys_, lts.initial_reps(sys_)[0])[0]
    assert type(rule) is repsem.Rule
    copies = [copy.copy(rule), copy.deepcopy(rule)]
    copies += [pickle.loads(pickle.dumps(rule, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is str and other == rule and hash(other) == hash(rule)


def test_check_agrees_with_the_oracle():
    full: dict = {}
    seen = 0
    for mutation, inst, bound in runs():
        new = observed(verifier.check_correspondence, _system(inst, mutation), bound)
        old = observed(oracle_correspondence, _system(inst, mutation), bound)
        assert new[:3] == old[:3], (mutation, inst)
        # The oracle compares every state in full, the check only where the
        # keyed comparison does not decide.
        assert old[3] == new[0][1]
        counts = full.setdefault(mutation, [0, 0])
        counts[0] += new[3]
        counts[1] += old[3]
        seen += 1
    assert seen == 5 * 7 + 1
    # Unmutated, every state takes the keyed path; the mutations that break
    # the correspondence send some states, not all, to the full comparison.
    assert full[None][0] == 0
    for mutation in ("sr1-deletes-in1", "no-phase1-susp"):
        assert 0 < full[mutation][0] < full[mutation][1]
    n3_report = new[0]
    assert n3_report[0]["status"] == "pass" and n3_report[1] == N3_BOUND
    assert new[1][6]  # the carried n=3 graph is truncated


def test_non_crash_targets_are_built_once_per_step_key():
    sys3 = cm.build_system(INSTANCE_3)
    built = 0
    sf_step = repsem.sf_step

    def counted(sys_, rep, step):
        nonlocal built
        built += step[0][0] != "x"
        return sf_step(sys_, rep, step)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(repsem, "sf_step", counted)
        report = verifier.check_correspondence(sys3, N3_BOUND)
    assert report.passed and report.checked == N3_BOUND
    keys = {record[0]
            for rep in report.graph.edges.nodes[:N3_BOUND]
            for record in lts.keyed_steps(sys3, rep)
            if record[0][0] != "x"}
    assert 0 < built <= len(keys)


def _twin_systems():
    """Two fresh Systems of the n=2 (5,7) budget-1 instance, whose memos
    then fill in the same order."""
    return [cm.build_system(INSTANCES_2[1]) for _ in range(2)]


def _assert_fails_as_the_oracle(new_sys, old_sys) -> None:
    new = observed(verifier.check_correspondence, new_sys,
                   verifier.DEFAULT_MAX_STATES)
    old = observed(oracle_correspondence, old_sys, verifier.DEFAULT_MAX_STATES)
    assert new[0][0]["status"] == "fail"
    assert new[0][0]["sound_failures"] and new[0][0]["complete_failures"]
    assert new[:3] == old[:3]


def test_a_corrupted_move_record_fails_as_in_the_oracle():
    # A move that drops the collector it advances, planted before the check
    # as the one record of its key.
    systems = _twin_systems()
    for sys_ in systems:
        for rep in lts.initial_reps(sys_):
            repsem.rep_successors(sys_, rep)
        key, move = next((k, mv) for k, mv in sys_._moves.items()
                         if mv.consumed is not None and IN1 in dict(mv.adds))
        sys_._moves[key] = move._replace(
            adds=tuple((f, entries) for f, entries in move.adds if f != IN1))
    _assert_fails_as_the_oracle(*systems)


def test_a_corrupted_leaf_memo_entry_fails_as_in_the_oracle():
    # A leaf whose memoised slots lose their last entry, planted before the
    # check as the one evaluation of that leaf.
    systems = _twin_systems()
    for sys_ in systems:
        for rep in verifier.explore(sys_).edges.nodes[:100]:
            lts.calculus_targets(sys_, rep)
        key, (leaf, slots) = next((k, v) for k, v in sys_._leaf_slots.items()
                                  if len(v[1]) > 1)
        sys_._leaf_slots[key] = (leaf, slots[:-1])
    _assert_fails_as_the_oracle(*systems)


def test_a_crash_that_keeps_its_budget_fails_as_in_the_oracle(monkeypatch):
    # Crashes are compared in every state, not once per key: a rule set
    # whose crash keeps the budget only where no round message is in
    # transit, which the initial states (the first to crash each agent)
    # are not, must be caught.
    original = repsem.rep_successors

    def keeping_budget(sys_, rep):
        return [(rule, target._replace(budget=rep.budget)
                 if rule.startswith("SR7") and not rep.out1 else target)
                for rule, target in original(sys_, rep)]

    monkeypatch.setattr(repsem, "rep_successors", keeping_budget)
    _assert_fails_as_the_oracle(*_twin_systems())


def test_rules_the_keys_do_not_name_are_compared_in_full(monkeypatch):
    # Rule names are left out of the correspondence, so a rule set that
    # names its crashes otherwise still passes.  A renamed crash is a plain
    # string, which carries no step key, so exactly the states with a crash
    # are compared in full.
    original = repsem.rep_successors
    monkeypatch.setattr(repsem, "rep_successors", lambda sys_, rep: [
        (rule.replace("SR7", "Crash") if rule.family == "SR7" else rule, target)
        for rule, target in original(sys_, rep)])
    new_sys, old_sys = _twin_systems()
    new = observed(verifier.check_correspondence, new_sys,
                   verifier.DEFAULT_MAX_STATES)
    old = observed(oracle_correspondence, old_sys, verifier.DEFAULT_MAX_STATES)
    assert new[0][0]["status"] == "pass" and new[:3] == old[:3]
    _, offsets, _, label_ids, labels = new[1][:5]
    crashing = sum(any(labels[label_ids[i]][1].startswith("Crash ")
                       for i in range(lo, hi))
                   for lo, hi in pairwise(offsets))
    assert 0 < new[3] == crashing < old[3]
