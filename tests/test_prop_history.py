"""Property tests for :class:`repro.core.history.History`.

Whatever the ops and the depths, the three views of the past agree:
the retained snapshots, a replay from the initial content, and a
history rebuilt from a prefix.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.content.kvstore import KVDelete, KVPut, KeyValueStore
from repro.content.queries import operation_from_wire
from repro.core.history import History

KEYS = st.sampled_from(["a", "b", "c", "d"])
OPS = st.lists(st.one_of(
    st.builds(KVPut, key=KEYS, value=st.integers(0, 9)),
    st.builds(KVDelete, key=KEYS)), max_size=12)


def committed(ops, depth):
    """A server's life in miniature: apply, then commit, per op."""
    initial = KeyValueStore({"a": 0})
    history, store = History(initial, depth), initial.clone()
    for version, op in enumerate(ops, 1):
        store.apply_write(operation_from_wire(op.to_wire()))
        history.commit(version, op.to_wire(), store, now=float(version))
    return initial, history, store


@settings(max_examples=150, deadline=None)
@given(ops=OPS, depth=st.integers(1, 6), log_depth=st.integers(1, 6))
def test_snapshots_ops_and_replay_agree(ops, depth, log_depth):
    initial, history, store = committed(ops, depth)
    newest = len(ops)
    assert len(history) == newest
    replay = {v: s.state_digest() for v, s in history.replay(initial)}
    assert sorted(replay) == list(range(newest + 1))
    assert replay[newest] == store.state_digest()
    for version in range(newest + 1):
        snapshot = history.store_at(version)
        if version > newest - depth:
            assert snapshot.state_digest() == replay[version]
        else:
            assert snapshot is None
    assert history.store_at(newest + 1) is None
    wires = [op.to_wire() for op in ops]
    for have in range(newest + 1):
        between = history.ops_between(have, newest, log_depth)
        if newest - have <= log_depth:
            assert between == tuple(wires[have:])
        else:
            assert between is None


@settings(max_examples=100, deadline=None)
@given(ops=OPS, depth=st.integers(1, 6), data=st.data())
def test_replayed_prefix_equals_committing_that_prefix(ops, depth, data):
    initial, history, _ = committed(ops, depth)
    version = data.draw(st.integers(0, len(ops)))
    _, expected, expected_store = committed(ops[:version], depth)
    seeded, store = history.replayed(initial, version)
    assert store.state_digest() == expected_store.state_digest()
    assert seeded.ops == expected.ops
    assert seeded.times == expected.times
    for v in range(len(ops) + 2):
        ours, theirs = seeded.store_at(v), expected.store_at(v)
        assert (ours is None) == (theirs is None)
        if ours is not None:
            assert ours.state_digest() == theirs.state_digest()
    # The seeded server's live store is its own, not a retained snapshot.
    store.apply_write(KVPut(key="z", value=1))
    assert seeded.store_at(version).state_digest() == \
        expected_store.state_digest()
