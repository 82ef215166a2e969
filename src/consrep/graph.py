"""The explored graph: one object per state and the edges as int columns.

``verifier.explore`` builds an ``LtsGraph``; the checks in ``verifier``
read its ``Edges`` columns by node id, and only the DOT/JSON export
iterates them as ``lts.Transition``s.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
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


@dataclass
class LtsGraph:
    initials: tuple
    node_ids: dict                 # Representative -> discovery index
    edges: Edges                   # over the stored nodes, by node id
    truncated: bool = False
    defects: tuple = ()            # (Representative, diagnosis) pairs

    @property
    def nodes(self):
        return self.node_ids.keys()
