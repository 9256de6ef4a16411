"""Property tests for :meth:`KeyValueStore.snapshot`.

A snapshot is a delta, a clone is a copy; whatever is written
afterwards and whichever snapshots are dropped meanwhile, the two must
be indistinguishable to every read -- result *and* cost units, since
the cost becomes simulated service time.
"""

from __future__ import annotations

import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.content.kvstore import (
    KVAggregate,
    KVDelete,
    KVGet,
    KVMultiGet,
    KVPut,
    KVRange,
    KeyValueStore,
)

KEY_POOL = ["a", "ab", "b", "ba", "bb", "c"]
KEYS = st.sampled_from(KEY_POOL)
VALUES = st.one_of(st.integers(-5, 9), st.sampled_from([2.5, "text", True]))
OPS = st.lists(st.one_of(
    st.builds(KVPut, key=KEYS, value=VALUES),
    st.builds(KVDelete, key=KEYS)), max_size=14)

QUERIES = [
    *(KVGet(key=key) for key in [*KEY_POOL, "ghost"]),
    KVMultiGet(keys=(*KEY_POOL, "ghost")),
    KVRange(start="", end="zz"),
    KVRange(start="ab", end="bb"),
    KVRange(start="a", end="c", limit=2),
    KVRange(start="a", end="zz", limit=0),
    KVRange(start="c", end="a"),
    *(KVAggregate(prefix=prefix, func=func)
      for prefix in ("", "a", "b", "bb", "x")
      for func in ("count", "sum", "min", "max", "avg")),
]


def assert_same(view, clone):
    for query in QUERIES:
        ours, theirs = view.execute_read(query), clone.execute_read(query)
        assert ours.result == theirs.result, query
        assert ours.cost_units == theirs.cost_units, query
    assert view.state_items() == clone.state_items()
    assert view.state_digest() == clone.state_digest()
    assert view.snapshot_wire() == clone.snapshot_wire()


@settings(max_examples=200, deadline=None)
@given(ops=OPS, data=st.data())
def test_every_snapshot_equals_the_clone_taken_with_it(ops, data):
    store = KeyValueStore({"a": 1, "b": 2.5, "ba": "text"})
    held = [(store.snapshot(), store.clone())]
    for op in ops:
        store.apply_write(op)
        held.append((store.snapshot(), store.clone()))
        # Drop any of them, the newest and the oldest included.
        drop = data.draw(st.sets(st.integers(0, len(held) - 1), max_size=2))
        held = [pair for i, pair in enumerate(held) if i not in drop]
        for view, clone in held:
            assert_same(view, clone)
    assert_same(store, store.clone())  # and the live store is itself


@settings(max_examples=50, deadline=None)
@given(ops=OPS)
def test_a_snapshot_is_read_only_and_its_clone_is_independent(ops):
    store = KeyValueStore({"a": 1})
    view, frozen = store.snapshot(), store.clone()
    for op in ops:
        store.apply_write(op)
    with pytest.raises(TypeError):
        view.apply_write(KVPut(key="z", value=1))
    live_before = store.state_digest()
    copy = view.clone()
    assert isinstance(copy, KeyValueStore)
    assert_same(copy, frozen)
    copy.apply_write(KVPut(key="z", value=1))
    copy.apply_write(KVDelete(key="a"))
    assert copy.execute_read(KVGet(key="z")).result["found"]
    assert_same(view, frozen)
    assert store.state_digest() == live_before


@settings(max_examples=50, deadline=None)
@given(ops=OPS, data=st.data())
def test_dropped_snapshots_are_freed_and_recording_stops(ops, data):
    store = KeyValueStore({"a": 1})
    views = [store.snapshot()]
    for op in ops:
        store.apply_write(op)
        views.append(store.snapshot())
    refs = [weakref.ref(view) for view in views]
    order = data.draw(st.permutations(range(len(views))))
    alive = dict(enumerate(views))
    del views
    for index in order:
        del alive[index]
        # Links point forward only: a snapshot lives exactly as long as
        # it or an older one is held, with no collector pass.
        oldest = min(alive, default=len(refs))
        assert [ref() is not None for ref in refs] == \
            [i >= oldest for i in range(len(refs))]
    store.apply_write(KVPut(key="a", value=2))
    assert store._newest is None  # nobody to record for
