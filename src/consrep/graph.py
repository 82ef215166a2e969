"""The explored graph: one object per state and the edges as int columns.

``verifier.explore`` builds an ``LtsGraph``; the checks in ``verifier``
read its ``Edges`` columns by node id, and only the API edge (DOT/JSON
export, the command line) iterates them as ``lts.Transition``s.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import pairwise

from . import lts
from .lts import TAU

# CPython's tuple hash (xxHash-based, 64-bit), so that ``Edges`` hashes
# like the tuple of its transitions without building one.
_MASK = (1 << 64) - 1
_XXPRIME_1 = 11400714785074694791
_XXPRIME_2 = 14029467366897019727
_XXPRIME_5 = 2870177450012600261


def _hash_lane(acc: int, lane: int) -> int:
    acc = (acc + (lane & _MASK) * _XXPRIME_2) & _MASK
    return ((acc << 31 | acc >> 33) & _MASK) * _XXPRIME_1 & _MASK


def _hash_end(acc: int, length: int) -> int:
    acc = (acc + (length ^ (_XXPRIME_5 ^ 3527539))) & _MASK
    return 1546275796 if acc == _MASK else acc


class Edges:
    """The edges of an explored graph, as int columns in CSR form.

    ``nodes`` maps a node id to its stored node.  The edges of node ``s``
    are the indices ``offsets[s]`` up to ``offsets[s + 1]``: edges are kept
    grouped by source in id order, so no source column is needed.  Edge
    ``i`` goes to node ``targets[i]`` under the (action, rule) pair
    ``labels[label_ids[i]]``; ``labels`` holds each distinct pair once.

    As a value it is the sequence of ``lts.Transition`` in that order:
    iteration builds each one on demand, while ``len``, ``hash`` and ``==``
    read the columns and build none."""

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

    def _rows(self):
        """(source, action, target, rule) per edge, in order."""
        nodes, labels, targets, label_ids = (self.nodes, self.labels,
                                             self.targets, self.label_ids)
        for source, (lo, hi) in zip(nodes, pairwise(self.offsets)):
            for i in range(lo, hi):
                action, rule = labels[label_ids[i]]
                yield source, action, nodes[targets[i]], rule

    def __iter__(self):
        transition = lts.Transition
        return (transition(*row) for row in self._rows())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Edges):
            return NotImplemented
        if self.nodes == other.nodes and self.labels == other.labels:
            # Nodes and labels are each distinct, so equal ids mean equal
            # transitions and unequal ids unequal ones.
            return (self.offsets == other.offsets and self.targets == other.targets
                    and self.label_ids == other.label_ids)
        return len(self) == len(other) and all(
            a == b for a, b in zip(self._rows(), other._rows()))

    def __hash__(self) -> int:
        node_hash = array("Q", [hash(node) & _MASK for node in self.nodes])
        label_hash = [(hash(action), hash(rule)) for action, rule in self.labels]
        targets, label_ids = self.targets, self.label_ids
        acc = _XXPRIME_5
        for s, (lo, hi) in enumerate(pairwise(self.offsets)):
            head = _hash_lane(_XXPRIME_5, node_hash[s])
            for i in range(lo, hi):
                action, rule = label_hash[label_ids[i]]
                edge = _hash_lane(_hash_lane(head, action), node_hash[targets[i]])
                acc = _hash_lane(acc, _hash_end(_hash_lane(edge, rule), 4))
        acc = _hash_end(acc, len(targets))
        return acc - (1 << 64) if acc >> 63 else acc

    def tau_targets(self, node: int) -> list:
        """The target ids of the internal edges of node ``node``, in edge
        order."""
        labels, label_ids, targets = self.labels, self.label_ids, self.targets
        return [targets[i] for i in range(self.offsets[node], self.offsets[node + 1])
                if labels[label_ids[i]][0] == TAU]


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
