"""The planned dict walker against the walker it replaced.

``canonical_bytes`` frames a dict whose keys are all exactly ``str``
from a *plan*: that key set's canonical order and framed key bytes,
made the first time the key set is seen and found by the keys alone.
Nothing here may depend on the table: every byte must be what the
unplanned walker below produces, whether the table holds the plan, is
full, or refuses the dict (too many keys, too many key bytes, a key
that is not exactly a ``str``).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.content.kvstore import KVGet, KVPut
from repro.crypto import hashing
from repro.crypto.hashing import (
    PLAN_BYTES,
    PLAN_KEYS,
    PLAN_LIMIT,
    canonical_bytes,
)

from .conftest import make_system

# -- the walker before plans, frozen ------------------------------------------
#
# A verbatim copy of ``_serialise`` as it stood before dicts were framed
# from plans (scalar framers shared, they did not change).  It is the
# oracle of the tests below and nothing else may use it.

_SCALAR_FRAMERS = hashing._SCALAR_FRAMERS
_sort_key = hashing._sort_key


def _unplanned_serialise(value, out) -> None:
    cls = value.__class__
    if cls is str:
        data = value.encode("utf-8")
        out.append(b"S%d:%b" % (len(data), data))
        return
    framer = _SCALAR_FRAMERS.get(cls)
    if framer is not None:
        out.append(framer(value))
    elif isinstance(value, list):
        out.append(b"L%d;" % len(value))
        for item in value:
            _unplanned_serialise(item, out)
    elif isinstance(value, tuple):
        out.append(b"T%d;" % len(value))
        for item in value:
            _unplanned_serialise(item, out)
    elif isinstance(value, dict):
        out.append(b"D%d;" % len(value))
        for key in value:
            if key.__class__ is not str:
                keys = sorted(value, key=_sort_key)
                break
        else:
            keys = sorted(value, key=repr)
        for key in keys:
            _unplanned_serialise(key, out)
            _unplanned_serialise(value[key], out)
    elif isinstance(value, (set, frozenset)):
        out.append(b"E%d;" % len(value))
        for item in sorted(value, key=_sort_key):
            _unplanned_serialise(item, out)
    else:
        for base in cls.__mro__:
            if base in _SCALAR_FRAMERS:
                out.append(_SCALAR_FRAMERS[base](value))
                return
        raise TypeError(
            f"cannot canonically serialise {type(value).__name__!r}; "
            "query results must be built from plain data types"
        )


def unplanned_bytes(value) -> bytes:
    out: list[bytes] = []
    _unplanned_serialise(value, out)
    return b"".join(out)


@pytest.fixture(scope="module", autouse=True)
def module_plans():
    """This module's shapes go in a table of its own: the rest of the
    suite keeps the process's table, not one filled with random keys."""
    kept = hashing._PLANS
    hashing._PLANS = {}
    yield
    hashing._PLANS = kept


@pytest.fixture
def fresh_plans(monkeypatch) -> dict:
    """An empty plan table for one test; the process's own is kept."""
    table: dict = {}
    monkeypatch.setattr(hashing, "_PLANS", table)
    return table


# -- the property ---------------------------------------------------------------

#: Keys whose repr order differs from their string order, or whose
#: framing is easy to get wrong: the quote switch, escapes, NUL, a
#: non-ASCII character, ``!`` and space (which sort ahead of ``'``).
ADVERSARIAL_KEYS = ["", "a", "a!", "a'", 'a"', "\\", "\x00", "é", " "]
keys = st.sampled_from(ADVERSARIAL_KEYS) | st.text(max_size=4)
scalars = st.none() | st.booleans() | st.integers() \
    | st.floats(allow_nan=False) | st.just(-0.0) | st.text(max_size=8) \
    | st.binary(max_size=8)
values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=3)
    | st.tuples(children, children)
    | st.dictionaries(keys, children, max_size=5)
    | st.dictionaries(st.integers() | keys, children, max_size=3)
    | st.frozensets(st.integers() | st.text(max_size=3), max_size=3),
    max_leaves=12,
)


class TestPlannedWalker:
    @given(values)
    def test_same_bytes_as_the_unplanned_walker(self, value):
        # Twice: the first walk may make plans, the second uses them.
        assert canonical_bytes(value) == unplanned_bytes(value)
        assert canonical_bytes(value) == unplanned_bytes(value)

    @given(st.dictionaries(keys, scalars, max_size=9), st.randoms())
    def test_one_key_set_in_every_insertion_order(self, mapping, rnd):
        expected = unplanned_bytes(mapping)
        items = list(mapping.items())
        for _ in range(4):
            rnd.shuffle(items)
            assert canonical_bytes(dict(items)) == expected

    def test_the_adversarial_keys_together(self, fresh_plans):
        mapping = {key: index for index, key in enumerate(ADVERSARIAL_KEYS)}
        backwards = dict(reversed(list(mapping.items())))
        for value in (mapping, backwards, mapping):
            assert canonical_bytes(value) == unplanned_bytes(value)
        assert len(fresh_plans) == 2  # one per insertion order

    def test_a_subclassed_key_equal_to_a_planned_one(self, fresh_plans):
        class Label(str):
            pass

        canonical_bytes({"b": 1, "a": 2})  # plans ("b", "a")
        # Equal keys, so the probe finds that plan; but the mixed-type
        # order puts the ``Label`` first, as the unplanned walker does.
        value = {Label("b"): 1, "a": 2}
        assert canonical_bytes(value) == unplanned_bytes(value) \
            == b"D2;S1:bI1:1S1:aI1:2"
        assert list(fresh_plans) == [("b", "a")]

    @given(st.lists(st.integers() | st.text(max_size=3) | st.none(),
                    max_size=4, unique_by=repr))
    def test_mixed_keys_are_never_planned(self, key_list):
        value = {key: 0 for key in key_list}
        assert canonical_bytes(value) == unplanned_bytes(value)
        assert all(all(key.__class__ is str for key in shape)
                   for shape in hashing._PLANS)


class TestPlanBounds:
    def test_ten_thousand_shapes_fill_the_table_and_no_more(
            self, fresh_plans):
        rng = random.Random(33)
        alphabet = "ab'\"\\! é\x00"
        for _ in range(10_000):
            shape = {"".join(rng.choice(alphabet)
                             for _ in range(rng.randint(0, 4))): index
                     for index in range(rng.randint(0, 6))}
            assert canonical_bytes(shape) == unplanned_bytes(shape)
        assert len(fresh_plans) == PLAN_LIMIT
        # Full: a planned shape still uses its plan, a new one walks.
        planned = dict.fromkeys(next(iter(fresh_plans)), "v")
        fresh = {"not": 1, "seen": 2, "before": 3, "!": 4}
        for value in (planned, fresh):
            assert canonical_bytes(value) == unplanned_bytes(value)
        assert len(fresh_plans) == PLAN_LIMIT

    def test_a_ten_kib_key_is_walked_not_planned(self, fresh_plans):
        value = {"k" * 10_240: 1, "a": "b"}
        assert canonical_bytes(value) == unplanned_bytes(value)
        assert fresh_plans == {}

    def test_past_the_key_count_is_walked_not_planned(self, fresh_plans):
        value = {f"k{index}": index for index in range(PLAN_KEYS + 1)}
        assert canonical_bytes(value) == unplanned_bytes(value)
        assert fresh_plans == {}
        del value["k0"]
        canonical_bytes(value)
        assert len(fresh_plans) == 1

    def test_a_plan_holds_at_most_its_byte_bound(self, fresh_plans):
        # Each key frames to 4 + 63 = 67 B: three fit, four do not.
        key = "x" * 62
        three = {f"{key}{i}": i for i in range(3)}
        four = {f"{key}{i}": i for i in range(4)}
        for value in (three, four):
            assert canonical_bytes(value) == unplanned_bytes(value)
        assert list(fresh_plans) == [tuple(three)]
        (head, steps), = fresh_plans.values()
        assert sum(len(framed) for _, framed in steps) <= PLAN_BYTES


class TestPlanCount:
    def test_three_hundred_reads_plan_a_handful_of_shapes_early(
            self, fresh_plans, monkeypatch):
        """CI's count gate for the plan table: the protocol walks a few
        key sets (a query's, a result's), so a read workload fills a
        few plans in its first reads and never makes one after."""
        system = make_system(seed=24)
        made_at: list[float] = []
        make_plan = hashing._make_plan

        def counted(shape):
            plan = make_plan(shape)
            if plan is not None:
                made_at.append(system.metrics.count("reads_accepted"))
            return plan

        monkeypatch.setattr(hashing, "_make_plan", counted)
        system.start()
        t = system.now
        for i in range(300):
            t += 0.05
            system.schedule_op(system.clients[i % 4], t,
                               KVGet(key=f"k{i % 100:03d}"))
            if i % 50 == 25:
                system.schedule_op(system.clients[0], t,
                                   KVPut(key=f"w{i}", value=i))
        system.run_for(120.0)
        assert system.metrics.count("reads_accepted") == 300
        assert len(fresh_plans) <= 4, list(fresh_plans)
        assert len(made_at) == len(fresh_plans)
        assert max(made_at) < 100, made_at
