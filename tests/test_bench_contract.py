"""What the benchmark under ``perfbench/`` reads of the package.

``perfbench/tracer.py`` wraps each (module, function) of its ``TARGETS``
by name and, with ``--trace 1``, reads the sizes of ``System._wait_cache``
and ``System.defs.cache``.  A rename or a removed cache would break traced
runs without failing any other test.  The tracer is parsed, not imported.
The corr-n3 workload counts the successor pairs it compares by wrapping
``repsem.rep_successors``, so the check must look it up on the module.
The explore-n3 workload calls ``explore(sys_, "representative",
max_states=N)``, expects ``BoundExceeded`` with an N-state graph, and
fingerprints the graph by ``hash((tuple(graph.node_ids), graph.edges))``,
which must repeat on a fresh System.  The corr-n3 gate
(``worker.corr_gate``) reads ``passed``, ``sound_failures``,
``complete_failures``, ``defects`` and ``checked`` of the correspondence
report, and the tracer the ``configurations`` and ``diamonds`` details of
the confluence report; both are parsed and checked against real reports.
"""

import ast
import importlib
from pathlib import Path

import pytest

from consrep import consensus_model as cm
from consrep import repsem, verifier
from consrep.errors import BoundExceeded

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKER = PERFBENCH / "worker.py"


def _tracer_targets() -> tuple:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


def _function(path: Path, name: str) -> ast.FunctionDef:
    """The definition of ``name``, which takes the report as ``report``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            assert "report" in [arg.arg for arg in node.args.args], name
            return node
    raise AssertionError(f"no {name} in {path}")


def _attributes_read(func: ast.FunctionDef, name: str) -> set:
    return {node.attr for node in ast.walk(func)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == name}


def test_correspondence_report_keeps_what_the_corr_gate_reads():
    func = _function(WORKER, "corr_gate")
    read = _attributes_read(func, "report")
    assert read == {"passed", "sound_failures", "complete_failures", "defects",
                    "checked"}
    # The gate itself, compiled from its source, on a real report.
    namespace: dict = {}
    exec(compile(ast.Module(body=[func], type_ignores=[]), str(WORKER), "exec"),
         namespace)
    corr_gate = namespace["corr_gate"]
    report = verifier.check_correspondence(
        cm.build_system(cm.make_instance(2, [5, 7])), max_states=100)
    assert report.passed and report.truncated and report.checked == 100
    assert corr_gate(report, 100) == []
    assert corr_gate(report, 101) == ["checked 100 states, expected 101"]
    failed = report._replace(sound_failures=[("s", None)], defects=[("s", "d")])
    assert corr_gate(failed, 100) == ["correspondence failed: 1 sound, 0 complete",
                                      "1 defects"]


def test_confluence_report_keeps_the_details_the_tracer_reads():
    func = _function(TRACER, "_observe_confluence")
    keys = {node.slice.value for node in ast.walk(func)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "details"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "report"}
    assert keys == {"configurations", "diamonds"}
    sys_ = cm.build_system(cm.make_instance(2, [5, 7]))
    report = verifier.check_confluence(sys_, verifier.explore(sys_))
    assert report.passed
    for key in keys:
        assert isinstance(report.details[key], int) and report.details[key] > 0


def test_every_traced_function_resolves():
    targets = _tracer_targets()
    assert targets
    for module, func in targets:
        assert callable(getattr(importlib.import_module(f"consrep.{module}"), func)), (
            module, func)


def test_system_exposes_the_caches_the_tracer_counts():
    sys_ = cm.build_system(cm.make_instance(2, [5, 7]))
    assert isinstance(sys_._wait_cache, dict)
    assert isinstance(sys_.defs.cache, dict)


def test_correspondence_calls_rep_successors_through_the_module(monkeypatch):
    calls = 0
    original = repsem.rep_successors

    def counted(sys_, rep):
        nonlocal calls
        calls += 1
        return original(sys_, rep)

    monkeypatch.setattr(repsem, "rep_successors", counted)
    report = verifier.check_correspondence(cm.build_system(cm.make_instance(1, [4])))
    assert report.passed and report.checked > 0
    assert calls == report.checked


def test_explore_keeps_the_benchmark_call_form():
    bound = 500
    fingerprints = set()
    for _ in range(2):
        sys_ = cm.build_system(cm.make_instance(3, [1, 2, 3]))
        with pytest.raises(BoundExceeded) as exc:
            verifier.explore(sys_, "representative", max_states=bound)
        graph = exc.value.graph
        assert len(graph.node_ids) == bound and graph.truncated
        fingerprints.add(hash((tuple(graph.node_ids), graph.edges)))
    assert len(fingerprints) == 1
    with pytest.raises(ValueError, match="calculus"):
        verifier.explore(sys_, "calculus", max_states=bound)
