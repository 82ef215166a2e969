"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS line (run pytest with -s to see them all).
The three-agent instance is explored up to a configurable partial bound,
CONSREP_ACCEPT_N3 states (default 4000); the checks on the explored
portion must be failure-free either way.  The instance is finite
(1,060,526 states, within the 5,000,000 hard bound) and the full
correspondence and property checks have been run to completion and pass;
CONSREP_ACCEPT_N3=1100000 reproduces those runs.  The full n=3
correspondence check, which also builds the representative graph, takes
51-58 s on a 2-core machine (``BENCH_correspondence.json``,
``per_move_correspondence``).
"""

import os
import random
import shlex

import pytest

from consrep import consensus_model as cm
from consrep import cli, repsem, verifier
from consrep.errors import BoundExceeded
from conftest import congruent, shuffle_config, tau_targets

N3_BOUND = int(os.environ.get("CONSREP_ACCEPT_N3", "4000"))

INSTANCES_1 = [cm.make_instance(1, [4], 0)]
INSTANCES_2 = [
    cm.make_instance(2, list(values), budget)
    for values in ((5, 7), (7, 5), (3, 3))
    for budget in (0, 1)
]
INSTANCE_3 = cm.make_instance(3, [1, 2, 3])


def _ok(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def systems_12():
    return [cm.build_system(inst) for inst in INSTANCES_1 + INSTANCES_2]


@pytest.fixture(scope="module")
def graphs_12(systems_12):
    return [(sys_, verifier.explore(sys_, "representative"))
            for sys_ in systems_12]


@pytest.fixture(scope="module")
def partial_3():
    sys3 = cm.build_system(INSTANCE_3)
    try:
        graph = verifier.explore(sys3, "representative", max_states=N3_BOUND)
    except BoundExceeded as exc:
        graph = exc.graph
    return sys3, graph


def test_criterion_1_correspondence(systems_12):
    checked = 0
    for sys_ in systems_12:
        report = verifier.check_correspondence(sys_)
        assert report.passed, report.to_jsonable()
        assert not report.truncated and not report.defects
        checked += report.checked

    sys3 = cm.build_system(INSTANCE_3)
    report3 = verifier.check_correspondence(sys3, max_states=N3_BOUND)
    assert report3.passed, report3.to_jsonable()
    assert not report3.defects
    checked += report3.checked
    partial = " (partial)" if report3.truncated else ""
    _ok(1, f"successor sets of both semantics equal on {checked} states; "
           f"three-agent instance{partial} clean at bound {N3_BOUND}")


def test_criterion_2_confluence(graphs_12):
    diamonds = 0
    configs = 0
    for sys_, graph in graphs_12:
        report = verifier.check_confluence(sys_, graph)
        assert report.passed, report.counterexamples[:3]
        diamonds += report.details["diamonds"]
        configs += report.details["configurations"]
    _ok(2, f"{diamonds} evaluation diamonds over {configs} configurations "
           f"all join on equal fixed points")


def test_criterion_3_normal_forms(graphs_12, partial_3):
    total = 0
    for sys_, graph in graphs_12:
        report = verifier.check_normal_forms(sys_, graph)
        assert report.passed, report.counterexamples[:3]
        total += report.details["states"]

    pool = [(sys_, rep) for sys_, graph in graphs_12 for rep in graph.nodes]
    sys3, graph3 = partial_3
    pool += [(sys3, rep) for rep in graph3.nodes]
    rng = random.Random(20240811)
    sample = rng.sample(pool, 1000)
    for k, (sys_, rep) in enumerate(sample):
        cfg = repsem.sfi(sys_, rep)
        c1 = shuffle_config(rng, cfg)
        c2 = shuffle_config(rng, cfg)
        c3 = shuffle_config(rng, cfg)
        # Representative equality decides congruence, so shuffles of one
        # expansion all extract to the same representative: that gives
        # reflexivity, symmetry and transitivity in one stroke.
        assert repsem.sf(sys_, c1) == rep
        assert repsem.sf(sys_, c2) == rep
        assert repsem.sf(sys_, c3) == rep
        assert repsem.sf(sys_, repsem.sfi(sys_, repsem.sf(sys_, c1))) == rep
        if k % 20 == 0:
            assert congruent(sys_, c1, c2) and congruent(sys_, c2, c3)
            assert congruent(sys_, c1, c1)
    _ok(3, f"extraction/expansion round-trips exact on {total} states; "
           f"congruence decided consistently on 1000 shuffled samples")


def test_criterion_4_properties(graphs_12, partial_3):
    for sys_, graph in graphs_12:
        report = verifier.check_properties(sys_, graph)
        assert report.passed, report.counterexamples[:3]
        proposed = {str(v) for v in sys_.u}
        assert set(report.details["decided_values"]) <= proposed
        assert report.details["undecided_maximal_states"] == 0

    sys3, graph3 = partial_3
    if graph3.truncated:
        safety = verifier.check_safety_subset(sys3, graph3.nodes)
        assert safety.passed, safety.counterexamples[:3]
        detail3 = (f"three-agent safety clean on {safety.details['states']} "
                   f"explored states (bound {N3_BOUND})")
    else:
        report3 = verifier.check_properties(sys3, graph3)
        assert report3.passed, report3.counterexamples[:3]
        detail3 = f"three-agent instance fully verified"
    _ok(4, "validity, agreement and termination hold on every full graph; "
           + detail3)


def test_criterion_5_weak_bisimulation(graphs_12):
    pairs = 0
    for sys_, graph in graphs_12:
        ok, relation = verifier.weak_bisim(graph)
        assert ok, relation
        pairs += len(relation)
    _ok(5, f"every instance weakly bisimilar to the one-state ok emitter "
           f"({pairs} related state pairs)")


def _replay(graph, evidence, mutations, tmp_path) -> tuple:
    """``consrep trace`` of the bisimulation evidence's schedule on the
    (5,7) instance with one crash: its exit code, and whether it ends at
    the state the evidence names."""
    digest = evidence.split()[1]
    schedule = shlex.split(evidence.split("shortest schedule: ", 1)[1])
    out = tmp_path / "trace.txt"
    argv = ["trace", "--n", "2", "--values", "5,7", "--budget", "1",
            "--output", str(out), *schedule]
    for m in mutations:
        argv += ["--mutate", m]
    code = cli.main(argv)
    # The last state printed precedes the list of enabled steps.
    last = out.read_text().split("\n-- ")[-2].split("\n", 1)[1]
    named = [r for r in graph.nodes if repsem.rep_digest(r) == digest]
    return code, len(named) == 1 and last == repsem.rep_str(named[0])


def test_criterion_6_mutation_sensitivity(tmp_path):
    inst = cm.make_instance(2, [5, 7], 1)

    # Suspicion allowed to hit the trusted immortal: agreement breaks,
    # runs dead-end undecided, and the empty decision becomes reachable.
    sys_a = cm.build_system(inst, ["no-ti-protection"])
    graph_a = verifier.explore(sys_a, "representative")
    report_a = verifier.check_properties(sys_a, graph_a)
    assert not report_a.passed
    assert len(graph_a.defects) == 12
    assert sum(1 for r in graph_a.nodes if r.wrap[2] == 0) == 11
    ok_a, evidence_a = verifier.weak_bisim(graph_a)
    assert not ok_a and "ok" in evidence_a
    # The nearest state that cannot weakly emit ok is one where the
    # algorithm is undefined; the schedule still replays to it, and the
    # trace exits 3 there.
    assert _replay(graph_a, evidence_a, ["no-ti-protection"], tmp_path) == (3, True)

    # Representative reception dropping the collector: soundness breaks.
    sys_b = cm.build_system(inst, ["sr1-deletes-in1"])
    report_b = verifier.check_correspondence(sys_b)
    assert not report_b.passed
    assert len(report_b.sound_failures) == 32
    assert len(report_b.complete_failures) == 32

    # Deciding without the erasure pass: both semantics mutate alike, so
    # correspondence still holds, but the observer sees a conflict.
    sys_c = cm.build_system(inst, ["skip-correct"])
    graph_c = verifier.explore(sys_c, "representative")
    report_c = verifier.check_properties(sys_c, graph_c)
    assert not report_c.passed
    conflicted = [r for r in graph_c.nodes if r.wrap[2] == 0]
    assert len(conflicted) == 3
    # The witness stays visible: the observer remembers the accepted value
    # and its position names the conflicting agent, while the rest of the
    # system still runs.
    assert {r.wrap for r in conflicted} == {(2, cm.nat(5), 0)}
    assert any(tau_targets(graph_c.edges, graph_c.node_ids[r]) for r in conflicted)
    assert any("agreement broken" in c for c in report_c.counterexamples)
    assert verifier.check_correspondence(sys_c).passed
    ok_c, evidence = verifier.weak_bisim(graph_c)
    assert not ok_c and "ok" in evidence
    assert _replay(graph_c, evidence, ["skip-correct"], tmp_path) == (0, True)

    # Losing the phase-1 suspicion rules: completeness breaks.
    sys_d = cm.build_system(inst, ["no-phase1-susp"])
    report_d = verifier.check_correspondence(sys_d)
    assert not report_d.passed
    assert not report_d.sound_failures
    assert len(report_d.complete_failures) == 13

    _ok(6, "all shipped mutations detected: no-ti-protection (agreement, "
           "termination, bisimulation), sr1-deletes-in1 (soundness), "
           "skip-correct (agreement, bisimulation), no-phase1-susp "
           "(completeness)")
