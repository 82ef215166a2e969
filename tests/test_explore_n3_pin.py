"""The n=3 (1,2,3) exploration prefix, pinned to the benchmark's record.

``explore`` of the three-agent instance to 10,000 states must end in
``BoundExceeded`` with the state count, transition count and sha256
prefix digest that ``perfbench/digests.json`` records for the explore-n3
workload.  The explore oracle cannot see a change in n=3 successor order
or node numbering, since it reads the same ``rep_successors``; this pin
does.  The digest is computed here as the benchmark defines it, over the
representative keys in id order, then one line per edge, without
importing the benchmark package.
"""

import hashlib
import json
from pathlib import Path

import pytest

from consrep import consensus_model as cm
from consrep import lts, repsem, verifier
from consrep.errors import BoundExceeded
from test_acceptance import INSTANCE_3

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


def prefix_digest(graph) -> str:
    """sha256 over the representative keys in id order, then the edges."""
    ids = graph.node_ids
    h = hashlib.sha256()
    for rep in sorted(ids, key=ids.__getitem__):
        h.update(repsem.rep_key(rep).encode())
        h.update(b"\n")
    for tr in graph.edges:
        h.update(f"{ids[tr.source]} {ids[tr.target]} "
                 f"{lts.action_str(tr.action)} {tr.rule}\n".encode())
    return h.hexdigest()


def test_explore_n3_prefix_matches_the_recorded_digest():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))["explore-n3"]
    sys3 = cm.build_system(INSTANCE_3)
    with pytest.raises(BoundExceeded) as exc:
        verifier.explore(sys3, "representative", max_states=recorded["bound"])
    graph = exc.value.graph
    assert len(graph.node_ids) == recorded["states"] == recorded["bound"]
    assert len(graph.edges) == recorded["transitions"]
    assert not graph.defects
    assert prefix_digest(graph) == recorded["digest"]
