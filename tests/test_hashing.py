"""Unit tests for canonical serialisation and SHA-1 result hashing."""

from __future__ import annotations

import hashlib
from collections import namedtuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hashing import (
    canonical_bytes,
    canonical_record,
    record_template,
    sha1_digest,
    sha1_hex,
)


class TestCanonicalBytes:
    def test_none(self):
        assert canonical_bytes(None) == b"N"

    def test_bool_distinct_from_int(self):
        assert canonical_bytes(True) != canonical_bytes(1)
        assert canonical_bytes(False) != canonical_bytes(0)

    def test_int_distinct_from_float(self):
        assert canonical_bytes(1) != canonical_bytes(1.0)

    def test_int_distinct_from_str(self):
        assert canonical_bytes(1) != canonical_bytes("1")

    def test_str_distinct_from_bytes(self):
        assert canonical_bytes("ab") != canonical_bytes(b"ab")

    def test_list_distinct_from_tuple(self):
        assert canonical_bytes([1, 2]) != canonical_bytes((1, 2))

    def test_dict_key_order_irrelevant(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes(
            {"b": 2, "a": 1})

    def test_set_order_irrelevant(self):
        assert canonical_bytes({3, 1, 2}) == canonical_bytes({2, 3, 1})

    def test_nested_structures(self):
        value = {"rows": [(1, "x"), (2, "y")], "meta": {"count": 2}}
        assert canonical_bytes(value) == canonical_bytes(value)

    def test_framing_prevents_concatenation_ambiguity(self):
        # ["ab", "c"] must differ from ["a", "bc"].
        assert canonical_bytes(["ab", "c"]) != canonical_bytes(["a", "bc"])

    def test_list_nesting_unambiguous(self):
        assert canonical_bytes([[1], [2]]) != canonical_bytes([[1, 2]])
        assert canonical_bytes([[], [1]]) != canonical_bytes([[1], []])

    def test_negative_and_large_ints(self):
        assert canonical_bytes(-5) != canonical_bytes(5)
        big = 2 ** 200
        assert canonical_bytes(big) != canonical_bytes(big + 1)

    def test_float_round_trip_precision(self):
        assert canonical_bytes(0.1 + 0.2) != canonical_bytes(0.3)

    def test_unsupported_type_raises(self):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="canonically serialise"):
            canonical_bytes(Opaque())

    def test_unsupported_nested_type_raises(self):
        with pytest.raises(TypeError):
            canonical_bytes({"x": object()})

    def test_mixed_type_dict_keys(self):
        # Sorting must not crash on mixed-type keys.
        value = {1: "a", "1": "b", (1, 2): "c"}
        assert canonical_bytes(value) == canonical_bytes(value)

    def test_bytearray_same_as_bytes(self):
        assert canonical_bytes(bytearray(b"xy")) == canonical_bytes(b"xy")

    def test_deeply_nested_containers(self):
        value = {"a": [({"b": {1, 2}},), [None, (3.5, b"raw")]],
                 "c": {"d": [[["deep"]]]}}
        first = canonical_bytes(value)
        assert first == canonical_bytes(value)
        mutated = {"a": [({"b": {1, 2}},), [None, (3.5, b"raw")]],
                   "c": {"d": [[["deeq"]]]}}
        assert first != canonical_bytes(mutated)

    def test_bool_vs_int_inside_containers(self):
        # bool is an int subclass and hashes alike, so these collide in
        # a naive dict/set; the type tags must keep them apart.
        assert canonical_bytes([True, 0]) != canonical_bytes([1, 0])
        assert canonical_bytes({True: "x"}) != canonical_bytes({1: "x"})
        assert canonical_bytes((False,)) != canonical_bytes((0,))

    def test_negative_floats(self):
        assert canonical_bytes(-1.5) != canonical_bytes(1.5)
        assert canonical_bytes(-1.5) != canonical_bytes(-1)
        # -0.0 == 0.0 and replicas can reach either spelling through
        # arithmetic, so equal values must serialise identically.
        assert canonical_bytes(-0.0) == canonical_bytes(0.0)
        assert canonical_bytes([-0.0]) == canonical_bytes([0.0])

    def test_bytes_vs_str_inside_containers(self):
        assert canonical_bytes({"k": "ab"}) != canonical_bytes({"k": b"ab"})
        assert canonical_bytes(["1", 1]) != canonical_bytes([b"1", 1])

    def test_set_vs_frozenset_same_bytes(self):
        assert canonical_bytes({1, 2}) == canonical_bytes(frozenset({1, 2}))


class TestSha1:
    def test_matches_hashlib_over_canonical_form(self):
        value = {"found": True, "value": "hello"}
        expected = hashlib.sha1(canonical_bytes(value)).hexdigest()
        assert sha1_hex(value) == expected

    def test_digest_is_20_bytes(self):
        assert len(sha1_digest([1, 2, 3])) == 20

    def test_hex_is_40_chars(self):
        assert len(sha1_hex("x")) == 40

    def test_different_values_different_hashes(self):
        assert sha1_hex({"a": 1}) != sha1_hex({"a": 2})


def _same_shape(a, b) -> bool:
    """Recursively check that equal values also agree on types."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return all(
            any(other == key and type(other) is type(key)
                and _same_shape(a[key], b[other]) for other in b)
            for key in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            _same_shape(x, y) for x, y in zip(a, b))
    return True


# Reusable hypothesis strategy for plain data: what query results contain.
plain_data = st.recursive(
    st.none() | st.booleans() | st.integers() |
    st.floats(allow_nan=False) | st.text(max_size=20) |
    st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4)
    | st.tuples(children, children),
    max_leaves=12,
)


class TestCanonicalProperties:
    @given(plain_data)
    def test_deterministic(self, value):
        assert canonical_bytes(value) == canonical_bytes(value)

    @given(plain_data, plain_data)
    def test_equal_typed_values_equal_bytes(self, a, b):
        # Equal values hash identically only when their *types* also match
        # throughout (the encoding deliberately separates False/0/0.0 --
        # replicas reach identical typed results via deterministic
        # execution, so this is the property the protocol needs).
        if a == b and _same_shape(a, b):
            assert sha1_hex(a) == sha1_hex(b)

    @given(st.lists(st.integers(), max_size=8))
    def test_list_vs_reversed(self, values):
        if values != list(reversed(values)):
            assert (canonical_bytes(values)
                    != canonical_bytes(list(reversed(values))))

    @given(st.dictionaries(st.text(max_size=6), st.integers(), max_size=6))
    def test_dict_insertion_order_invariance(self, mapping):
        items = list(mapping.items())
        reordered = dict(reversed(items))
        assert canonical_bytes(mapping) == canonical_bytes(reordered)


# -- record templates --------------------------------------------------------

# Whatever can sit in a signed record's field: the scalar the protocol
# puts there, or anything a hostile peer substitutes for it.
field_values = plain_data | st.just(-0.0) | st.floats(allow_nan=True) \
    | st.binary(max_size=20).map(bytearray) \
    | st.text(alphabet="\u00e9\u2603\U0001f600k", max_size=6) \
    | st.frozensets(st.integers(), max_size=3)
field_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_ !\"&'\u00e9", min_size=1,
    max_size=10)


class TestRecordTemplates:
    @given(st.dictionaries(field_names, field_values, max_size=9))
    def test_record_equals_generic_serialisation(self, record):
        template = record_template(*record)
        assert canonical_record(template, record) == canonical_bytes(record)

    @given(st.dictionaries(field_names, field_values, min_size=2,
                           max_size=6))
    def test_declaration_order_is_irrelevant(self, record):
        forwards = record_template(*record)
        backwards = record_template(*reversed(list(record)))
        assert canonical_record(forwards, record) == \
            canonical_record(backwards, record)

    def test_scalar_subclasses_serialise_like_the_generic_path(self):
        class Label(str):
            pass

        class Count(int):
            def __str__(self) -> str:
                return "7"

        record = {"a": Label("x"), "b": Count(3), "c": True}
        assert canonical_record(record_template(*record), record) == \
            canonical_bytes(record)
        # Subclasses are framed as their base, through their own
        # ``str``/``encode`` (bytes pinned from the if-chain serialiser).
        assert canonical_bytes(Label("x")) == b"S1:x"
        assert canonical_bytes(Count(3)) == b"I1:7"
        assert canonical_bytes(bytearray(b"ab")) == b"Y2:ab"
        point = namedtuple("point", "x y")(1, Label("y"))
        assert canonical_bytes(point) == b"T2;I1:1S1:y"

    def test_unserialisable_field_raises_type_error(self):
        template = record_template("kind", "value")
        with pytest.raises(TypeError, match="canonically serialise"):
            canonical_record(template, {"kind": "k", "value": object()})
        with pytest.raises(TypeError, match="canonically serialise"):
            canonical_record(template, {"kind": "k", "value": [object()]})

    def test_fields_must_match_the_template(self):
        template = record_template("kind", "value")
        with pytest.raises(ValueError, match="fields"):
            canonical_record(template, {"kind": "k", "value": 1, "x": 2})
        with pytest.raises(KeyError):
            canonical_record(template, {"kind": "k", "other": 1})
        with pytest.raises(ValueError, match="duplicate"):
            record_template("kind", "kind")
