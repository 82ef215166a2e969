"""What the benchmark under ``perfbench/`` reads of the package.

``perfbench/tracer.py`` wraps each (module, function) of its ``TARGETS``
by name and, with ``--trace 1``, reads the sizes of ``System._wait_cache``
and ``System.defs.cache``.  A rename or a removed cache would break traced
runs without failing any other test.  The tracer is parsed, not imported.
The corr-n3 workload counts the successor pairs it compares by wrapping
``repsem.rep_successors``, so the check must look it up on the module.
"""

import ast
import importlib
from pathlib import Path

from consrep import consensus_model as cm
from consrep import repsem, verifier

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_targets() -> tuple:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


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
