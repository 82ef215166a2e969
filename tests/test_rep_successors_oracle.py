"""``repsem.rep_successors`` against the successor function it replaced.

``reference_rep_successors`` below is the earlier ``rep_successors``, with
its ``_phase1_step`` and ``_phase2_step``, kept as it was but for reading
the local step as (field index, entries) pairs: per state it computes
each collector's local step, formats each rule instance afresh and merges
every collector field, looking no rule up.  It calls the same
``_phase1_local``/``_phase2_local`` (which
``tests/test_local_step_memo.py`` checks against the model's helpers), so
what it checks is the assembly: the rule text, the transit lookup and the
rebuilt fields.  The per-System rule records
that ``rep_successors`` reads must give the same (rule, target) list on
every state of the seven n<=2 instances, unmutated and under each of the
four mutations (where a decision is undefined, both raise), and on seeded
samples of an n=3 (1,2,3) prefix.  A representative rebuilt from plain
tuples must get the same successors as its interned twin, and every rule
record must hold the objects its key names, so no id in a key is reused
while the record exists.  ``rep_successors`` returns its pairs unordered,
so they are compared sorted.  Between them, the compared states fire
every collector family of both phases, so each entry of the move
builder's family table is checked.
"""

import random

import pytest

from consrep import consensus_model as cm
from consrep import repsem, verifier
from consrep.calculus_ast import BOT, value_str
from consrep.errors import BoundExceeded, EmptyKnowledge
from consrep.repsem import Representative, _drop, _phase1_local, _phase2_local
from test_acceptance import INSTANCE_3, INSTANCES_1, INSTANCES_2
from test_entry_intern import plain

N3_PREFIX = 3000
N3_SAMPLES = 500

# The rule families of the collector moves, round phase then sync phase.
COLLECTOR_FAMILIES = {"SR1", "SR2", "SR3", "SR4", "SR5", "SR6",
                      "SR1'", "SR2'", "SR4'", "SR5'"}


# The index of each entry field in a representative.
OUT1, OUT2, OUT3, IN1, IN2 = range(3, 8)


def _merge(entries: tuple, new: tuple) -> tuple:
    return tuple(sorted(entries + new)) if new else entries


def _phase1_step(sys, rep, entry, delta, consumed, rule, out):
    """Advance a round collector on ``delta``.  ``consumed`` is the transit
    entry to remove, if any."""
    q, r, _, _, i = entry
    step = dict(_phase1_local(sys, entry, delta))
    out1 = _drop(rep.out1, consumed) if consumed else rep.out1
    in1 = _drop(rep.in1, entry)
    if rule != "SR1" or "sr1-deletes-in1" not in sys.mutations:
        in1 = _merge(in1, step.get(IN1, ()))
    out.append((f"{rule} q={q} p={i} r={r}", Representative(
        rep.live, rep.budget, rep.ti,
        _merge(out1, step.get(OUT1, ())),
        _merge(rep.out2, step.get(OUT2, ())),
        rep.out3,
        in1,
        _merge(rep.in2, step.get(IN2, ())),
        rep.wrap,
    )))


def _phase2_step(sys, rep, entry, payload, consumed, rule, out):
    q, _, _, i = entry
    step = dict(_phase2_local(sys, entry, payload))
    out2 = _drop(rep.out2, consumed) if consumed else rep.out2
    out.append((f"{rule} q={q} p={i}", Representative(
        rep.live, rep.budget, rep.ti, rep.out1,
        out2,
        _merge(rep.out3, step.get(OUT3, ())),
        rep.in1,
        _merge(_drop(rep.in2, entry), step.get(IN2, ())),
        rep.wrap,
    )))


def _may_suspect(sys, rep, suspected: int, at: int) -> bool:
    if suspected == at:
        return False
    if suspected == rep.ti and "no-ti-protection" not in sys.mutations:
        return False
    return True


def reference_rep_successors(sys: cm.System, rep: Representative) -> list:
    """All internal steps of the representative semantics, as
    (rule instance, successor) pairs, canonically sorted.

    Within a validated state the rule instances are pairwise distinct
    (each agent holds one role, and the SRW1/SRW2/SR7 instances carry
    distinct parameters), so the list needs no deduplication and the sort
    orders by rule alone.  Successors are built with the positional
    constructor: ``_replace`` goes through a dict of all nine fields."""
    n = sys.n
    out: list = []

    out1_by_key = {e[:3]: e for e in rep.out1}
    for entry in rep.in1:
        q, r, _, _, i = entry
        transit = out1_by_key.get((i, q, r))
        if transit is not None:
            sr = "SR1" if i < n else ("SR2" if r < n - 1 else "SR3")
            _phase1_step(sys, rep, entry, transit[3], transit, sr, out)
        if _may_suspect(sys, rep, i, q) and "no-phase1-susp" not in sys.mutations:
            sr = "SR4" if i < n else ("SR5" if r < n - 1 else "SR6")
            _phase1_step(sys, rep, entry, BOT, None, sr, out)

    out2_by_key = {e[:2]: e for e in rep.out2}
    for entry in rep.in2:
        q, _, _, i = entry
        transit = out2_by_key.get((i, q))
        if transit is not None:
            _phase2_step(sys, rep, entry, transit[2], transit,
                         "SR1'" if i < n else "SR2'", out)
        if _may_suspect(sys, rep, i, q):
            _phase2_step(sys, rep, entry, BOT, None,
                         "SR4'" if i < n else "SR5'", out)

    wj, ww, wb = rep.wrap
    if wb == 1 and 1 <= wj <= n:
        decision = next((e for e in rep.out3 if e[0] == wj), None)
        if decision is not None:
            v = decision[1]
            if (ww == BOT and v != BOT) or ww == v:
                wrap2 = (wj + 1, v, 1) if wj + 1 <= n else (0, BOT, 1)
            else:
                wrap2 = (wj, ww, 0)
            out.append((f"SRW1 j={wj} v={value_str(v)}", Representative(
                rep.live, rep.budget, rep.ti, rep.out1, rep.out2,
                _drop(rep.out3, decision), rep.in1, rep.in2, wrap2)))
        if wj not in rep.live:
            wrap2 = (wj + 1, ww, 1) if wj + 1 <= n else (0, BOT, 1)
            out.append((f"SRW2 j={wj}", Representative(
                rep.live, rep.budget, rep.ti, rep.out1, rep.out2, rep.out3,
                rep.in1, rep.in2, wrap2)))

    if rep.budget > 0:
        for p in rep.live:
            if p == rep.ti:
                continue
            out.append((f"SR7 p={p}", Representative(
                tuple(x for x in rep.live if x != p),
                rep.budget - 1,
                rep.ti,
                tuple(e for e in rep.out1 if e[0] != p),
                tuple(e for e in rep.out2 if e[0] != p),
                tuple(e for e in rep.out3 if e[0] != p),
                tuple(e for e in rep.in1 if e[0] != p),
                tuple(e for e in rep.in2 if e[0] != p),
                rep.wrap,
            )))

    out.sort()
    return out


def _outcome(successors, sys_, rep):
    """The successor list, sorted, or the type and message of what was
    raised."""
    try:
        return sorted(successors(sys_, rep))
    except EmptyKnowledge as exc:
        return EmptyKnowledge, str(exc)


def _assert_same_successors(sys_, reps, families=None) -> int:
    """The reference on a fresh System and ``rep_successors`` on ``sys_``,
    on each of ``reps``; the latter also on the plain-tuple twin of each
    state.  Adds the family of each collector rule compared to
    ``families``, where given.  Returns the number of states where both
    raised."""
    fresh = cm.build_system(sys_.inst, sys_.mutations)
    undefined = 0
    for rep in reps:
        expected = _outcome(reference_rep_successors, fresh, rep)
        got = _outcome(repsem.rep_successors, sys_, rep)
        assert got == expected, rep
        assert _outcome(repsem.rep_successors, sys_, plain(rep)) == expected, rep
        if isinstance(got, tuple):
            undefined += 1
        else:
            # Equal in value is not enough for the state store: each
            # successor must be a Representative, as the old one built.
            assert all(type(target) is Representative for _, target in got)
            if families is not None:
                families.update(rule.family for rule, _ in got
                                if rule.family in COLLECTOR_FAMILIES)
    return undefined


def _assert_records_hold_their_keys(sys_) -> int:
    """Every rule in the System's rule memo is stored under its own key,
    and each id its key names is that of the object it holds: the entry
    that steps, a collector or the observer (the int after the key's tag),
    and the entry it consumes (the last int of a reception key), a transit
    entry or SRW1's decision.  A crash key names an agent, not an id."""
    for key, rule in sys_._rules.items():
        assert rule.key is key
        if key[0] == "x":
            assert rule.entry is None
        else:
            assert key[1] == id(rule.entry)
        if key[0] == "c":
            assert key[2] == id(rule.consumed)
        else:
            assert rule.consumed is None
    return len(sys_._rules)


def _graph(sys_, bound=verifier.DEFAULT_MAX_STATES):
    try:
        return verifier.explore(sys_, "representative", max_states=bound)
    except BoundExceeded as exc:
        return exc.graph


@pytest.mark.parametrize("mutation", [None, *sorted(cm.MUTATIONS)])
def test_every_n12_state_matches_the_reference(mutation):
    mutations = [mutation] if mutation else []
    undefined = 0
    families = set()
    for inst in INSTANCES_1 + INSTANCES_2:
        sys_ = cm.build_system(inst, mutations)
        graph = _graph(sys_)
        nodes = sorted(graph.nodes, key=graph.node_ids.get)
        undefined += _assert_same_successors(sys_, nodes, families)
        assert _assert_records_hold_their_keys(sys_) > 0
    # Only no-ti-protection reaches an undefined decision on these instances.
    assert (undefined > 0) == (mutation == "no-ti-protection")
    if mutation is None:
        # SR2 and SR5 roll a collector into a round after the first, which
        # needs n=3: the sampled n=3 states fire them.
        assert families == COLLECTOR_FAMILIES - {"SR2", "SR5"}


@pytest.fixture(scope="module")
def n3_prefix():
    sys3 = cm.build_system(INSTANCE_3)
    graph = _graph(sys3, N3_PREFIX)
    assert graph.truncated and len(graph.node_ids) == N3_PREFIX
    return sys3, sorted(graph.nodes, key=graph.node_ids.get)


def test_sampled_n3_states_match_the_reference(n3_prefix):
    sys3, nodes = n3_prefix
    sample = random.Random(20261019).sample(nodes, N3_SAMPLES)
    families = set()
    assert _assert_same_successors(sys3, sample, families) == 0
    assert {"SR2", "SR5"} <= families
    assert _assert_same_successors(cm.build_system(INSTANCE_3), sample) == 0
    # The plain-tuple twins filled records of their own, which hold the
    # twins' tuples, so no id in a key is reused while its record lives.
    assert any(type(rule.entry) is tuple for rule in sys3._rules.values())
    assert _assert_records_hold_their_keys(sys3) > 0
