"""The explored graph: one object per state and the edges as int columns.

``verifier.explore`` builds an ``LtsGraph``; the checks in ``verifier``
read its ``Edges`` columns by node id, and only the DOT/JSON export
iterates them as ``lts.Transition``s.
"""

from __future__ import annotations

from array import array
from itertools import pairwise

from . import lts


class Edges:
    """The edges of an explored graph, as int columns in CSR form.

    ``nodes`` maps a node id to its stored node.  The edges of node ``s``
    are the indices ``offsets[s]`` up to ``offsets[s + 1]``: edges are kept
    grouped by source in id order, so no source column is needed.  Edge
    ``i`` goes to node ``targets[i]`` under the (action, rule) pair
    ``labels[label_ids[i]]``; ``labels`` holds each distinct pair once.

    Iteration gives the ``lts.Transition`` of each edge in that order,
    built on demand.  As a value it is its columns: ``len``, ``hash`` and
    ``==`` read the nodes, the labels and the three arrays, and build no
    ``Transition``."""

    __slots__ = ("nodes", "offsets", "targets", "label_ids", "labels")

    def __init__(self, nodes: list, offsets: array, targets: array,
                 label_ids: array, labels: tuple):
        self.nodes = nodes
        self.offsets = offsets
        self.targets = targets
        self.label_ids = label_ids
        self.labels = labels

    def __len__(self) -> int:
        return len(self.targets)

    def __iter__(self):
        transition = lts.Transition
        nodes, labels, targets, label_ids = (self.nodes, self.labels,
                                             self.targets, self.label_ids)
        for source, (lo, hi) in zip(nodes, pairwise(self.offsets)):
            for i in range(lo, hi):
                action, rule = labels[label_ids[i]]
                yield transition(source, action, nodes[targets[i]], rule)

    def _fields(self) -> tuple:
        return (tuple(self.nodes), self.labels, self.offsets.tobytes(),
                self.targets.tobytes(), self.label_ids.tobytes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Edges):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


class LtsGraph:
    """The explored graph: its initial states, the id of each stored node
    (``node_ids``, in discovery order), its edges over those ids, whether
    exploration stopped at a bound, and the (Representative, diagnosis)
    pairs of states where the algorithm is undefined.  Two graphs are
    equal when all five are."""

    __slots__ = ("initials", "node_ids", "edges", "truncated", "defects")

    def __init__(self, initials: tuple, node_ids: dict, edges: Edges,
                 truncated: bool = False, defects: tuple = ()):
        self.initials = initials
        self.node_ids = node_ids   # Representative -> discovery index
        self.edges = edges         # over the stored nodes, by node id
        self.truncated = truncated
        self.defects = defects

    def _value(self) -> tuple:
        return (self.initials, self.node_ids, self.edges, self.truncated,
                self.defects)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LtsGraph):
            return NotImplemented
        return self._value() == other._value()

    @property
    def nodes(self):
        return self.node_ids.keys()
