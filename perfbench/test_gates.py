"""Self-tests of the benchmark's correctness gates and memory guard.

    python3 -m pytest perfbench -q

Each fault-injection mutation must fail the verify gate, a tampered
digest must fail it, a run that hits the address-space cap must count as
failed, and the benchmark must refuse to run without the sources.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from consrep import consensus_model as cm  # noqa: E402
from consrep import verifier  # noqa: E402
from consrep.errors import BoundExceeded  # noqa: E402

MUTATED_INSTANCE = (2, (5, 7), 1)


def _verify(tmp_path, expected_sha, mutations=()):
    n, values, budget = MUTATED_INSTANCE
    _, errors, sha, _, _ = worker.verify_instance(
        n, values, budget, tmp_path / "report.json", expected_sha, mutations)
    return errors, sha


def _recorded_sha():
    return worker.load_digests()["verify-n12"][worker.instance_key(*MUTATED_INSTANCE)]


def test_clean_instance_passes_the_verify_gate(tmp_path):
    errors, sha = _verify(tmp_path, _recorded_sha())
    assert errors == []
    assert sha == _recorded_sha()


@pytest.mark.parametrize("mutation", sorted(cm.MUTATIONS))
def test_each_mutation_fails_the_verify_gate(tmp_path, mutation):
    errors, _ = _verify(tmp_path, _recorded_sha(), [mutation])
    assert "exit code 3" in errors
    assert any(e.startswith("checks not passing") for e in errors)


def test_tampered_report_digest_fails_the_verify_gate(tmp_path):
    tampered = "0" * 64
    errors, _ = _verify(tmp_path, tampered)
    assert errors == ["report bytes differ from the recorded digest"]


def _n3_prefix(bound):
    sys_ = cm.build_system(cm.make_instance(3, worker.n3_values(worker.DEFAULT_SEED)))
    with pytest.raises(BoundExceeded) as info:
        verifier.explore(sys_, "representative", max_states=bound)
    return info.value.graph


def test_explore_gate_checks_digest_and_repeat():
    graph = _n3_prefix(300)
    expected = {"transitions": len(graph.edges), "digest": worker.prefix_digest(graph)}
    errors, fingerprint = worker.explore_gate(graph, 300, expected, None)
    assert errors == []
    tampered = dict(expected, digest="0" * 64)
    errors, _ = worker.explore_gate(graph, 300, tampered, None)
    assert errors == ["prefix digest differs from the recorded one"]
    errors, _ = worker.explore_gate(graph, 300, None, fingerprint + 1)
    assert errors == ["prefix differs from the first op's"]
    errors, _ = worker.explore_gate(graph, 301, None, None)
    assert errors == ["300 states, expected 301"]


def test_corr_gate_fails_on_a_mutated_semantics():
    values = worker.n3_values(worker.DEFAULT_SEED)
    clean = cm.build_system(cm.make_instance(3, values))
    assert worker.corr_gate(verifier.check_correspondence(clean, max_states=200),
                            200) == []
    mutated = cm.build_system(cm.make_instance(3, values), ["sr1-deletes-in1"])
    errors = worker.corr_gate(verifier.check_correspondence(mutated, max_states=200),
                              200)
    assert errors and errors[0].startswith("correspondence failed")


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore-n3",
         "--seed", "0", "--trace", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_memory_cap_counts_the_run_as_failed(monkeypatch):
    monkeypatch.setattr(run, "MEM_CAP_MB", 40)
    result = run.run_workload("explore-n3", worker.DEFAULT_SEED, 1, False)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any("memory cap hit" in e for e in result["errors"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
