"""Interned representative entries (``repsem.Entry``).

Each distinct out1/out2/out3/in1/in2 entry is one ``Entry`` per System,
made where a memo entry is filled or by ``sf``, and every state reuses
those objects.  On every state that ``explore``, a test-side exploration
of the calculus semantics and ``check_correspondence`` meet - the n<=2
instances, unmutated and under each mutation, and an n=3 (1,2,3) prefix -
each entry must be an ``Entry``, be the System's object for its value and
hash as the plain tuple of that value.  So a representative built by hand
from plain tuples must find an explored one in a dict, and the reverse.  An ``Entry``
pickles and copies as a plain ``tuple``, so no cached hash leaves the
process.
"""

import copy
import pickle
from functools import partial

import pytest

from consrep import consensus_model as cm
from consrep import lts, repsem, verifier
from consrep.errors import BoundExceeded
from consrep.repsem import Entry, Representative
from conftest import calculus_successors
from test_acceptance import INSTANCE_3, INSTANCES_1, INSTANCES_2
from test_explore_oracle import reference_explore

N3_PREFIX = 1000
MUTATIONS = [None, *sorted(cm.MUTATIONS)]


def plain(rep: Representative) -> Representative:
    """``rep`` rebuilt by hand from plain tuples."""
    return Representative(
        tuple(rep.live), rep.budget, rep.ti,
        *(tuple(tuple(entry) for entry in entries) for entries in rep[3:8]),
        tuple(rep.wrap))


def explored_states(sys_, max_states=verifier.DEFAULT_MAX_STATES) -> list:
    """Every state that ``explore`` under both semantics and
    ``check_correspondence`` meet on ``sys_``, in meeting order."""
    states = []
    for explorer in (partial(verifier.explore, sys_, "representative"),
                     partial(reference_explore, sys_, calculus_successors)):
        try:
            graph = explorer(max_states)
        except BoundExceeded as exc:
            graph = exc.graph
        states += graph.nodes
    states += lts.initial_reps(sys_)
    original = repsem.validate_rep

    def recording(system, rep, source=None, rule=None):
        states.append(rep)
        return original(system, rep, source, rule)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(repsem, "validate_rep", recording)
        verifier.check_correspondence(sys_, max_states)
    return states


def assert_interned(sys_, states) -> None:
    entries = sys_._entries
    by_plain = {plain(rep): i for i, rep in enumerate(states)}
    for i, rep in enumerate(states):
        for field in rep[3:8]:
            for entry in field:
                assert type(entry) is Entry, (rep, entry)
                assert entries[tuple(entry)] is entry, entry
                assert hash(entry) == tuple.__hash__(entry), entry
        assert type(rep.wrap) is tuple
        hand_built = plain(rep)
        assert hash(hand_built) == hash(rep)
        assert rep in by_plain and states[by_plain[rep]] == rep
    by_explored = {rep: i for i, rep in enumerate(states)}
    assert all(by_explored[plain(rep)] == by_explored[rep] for rep in states)


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_entries_are_interned_on_n12(mutation):
    for inst in INSTANCES_1 + INSTANCES_2:
        sys_ = cm.build_system(inst, [mutation] if mutation else [])
        states = explored_states(sys_)
        assert states and sys_._entries
        assert_interned(sys_, states)


def test_entries_are_interned_on_n3_prefix():
    sys3 = cm.build_system(INSTANCE_3)
    states = explored_states(sys3, N3_PREFIX)
    assert len(set(states)) > N3_PREFIX
    assert_interned(sys3, states)


def test_entry_pickles_and_copies_as_a_plain_tuple():
    sys_ = cm.build_system(INSTANCES_2[0])
    rep = lts.initial_reps(sys_)[0]
    entry = rep.in1[0]
    assert type(entry) is Entry
    copies = [copy.copy(entry), copy.deepcopy(entry)]
    copies += [pickle.loads(pickle.dumps(entry, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is tuple and other == entry
    restored = pickle.loads(pickle.dumps(rep))
    assert restored == rep and hash(restored) == hash(rep)
    assert all(type(e) is tuple for field in restored[3:8] for e in field)
