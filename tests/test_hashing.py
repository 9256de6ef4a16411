"""Unit tests for canonical serialisation and SHA-1 result hashing."""

from __future__ import annotations

import enum
import hashlib
import random
from collections import namedtuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.state_signing import SignedRoot
from repro.core.messages import Pledge, VersionStamp
from repro.crypto.certificates import Certificate
from repro.crypto.hashing import (
    canonical_bytes,
    record_template,
    sha1_digest,
    sha1_hex,
)
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import new_signer
from repro.shard.map import ShardMap


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


# -- the parent commit's serialiser, frozen -------------------------------
#
# A verbatim copy of ``crypto/hashing.py`` as it stood before the walker
# got its common case in line and ``record_template`` became a compiled
# encoder: the if-chain ``_serialise`` and ``canonical_record`` with its
# per-call dict.  It is the oracle of the differential tests below --
# what a peer running the previous build signs and hashes -- and nothing
# else may use it.


def _old_frame(tag: bytes, payload: bytes) -> bytes:
    return b"%b%d:%b" % (tag, len(payload), payload)


def _old_frame_count(count: int) -> bytes:
    return str(count).encode("ascii") + b";"


def _old_frame_none(value) -> bytes:
    return b"N"


def _old_frame_bool(value) -> bytes:
    return b"B" + (b"1" if value else b"0")


def _old_frame_int(value) -> bytes:
    return _old_frame(b"I", str(value).encode("ascii"))


def _old_frame_float(value) -> bytes:
    if value == 0.0:
        value = 0.0
    return _old_frame(b"F", repr(value).encode("ascii"))


def _old_frame_str(value) -> bytes:
    return _old_frame(b"S", value.encode("utf-8"))


def _old_frame_bytes(value) -> bytes:
    return _old_frame(b"Y", bytes(value))


_OLD_SCALAR_FRAMERS = {
    str: _old_frame_str,
    int: _old_frame_int,
    float: _old_frame_float,
    bool: _old_frame_bool,
    bytes: _old_frame_bytes,
    bytearray: _old_frame_bytes,
    type(None): _old_frame_none,
}


def _old_serialise(value, out) -> None:
    framer = _OLD_SCALAR_FRAMERS.get(value.__class__)
    if framer is not None:
        out.append(framer(value))
    elif isinstance(value, list):
        out.append(b"L" + _old_frame_count(len(value)))
        for item in value:
            _old_serialise(item, out)
    elif isinstance(value, tuple):
        out.append(b"T" + _old_frame_count(len(value)))
        for item in value:
            _old_serialise(item, out)
    elif isinstance(value, dict):
        out.append(b"D" + _old_frame_count(len(value)))
        for key in sorted(value, key=_old_sort_key):
            _old_serialise(key, out)
            _old_serialise(value[key], out)
    elif isinstance(value, (set, frozenset)):
        out.append(b"E" + _old_frame_count(len(value)))
        for item in sorted(value, key=_old_sort_key):
            _old_serialise(item, out)
    else:
        for base in value.__class__.__mro__:
            if base in _OLD_SCALAR_FRAMERS:
                out.append(_OLD_SCALAR_FRAMERS[base](value))
                return
        raise TypeError(
            f"cannot canonically serialise {type(value).__name__!r}; "
            "query results must be built from plain data types"
        )


def _old_sort_key(value):
    return (type(value).__name__, repr(value))


def old_canonical_bytes(value) -> bytes:
    out: list[bytes] = []
    _old_serialise(value, out)
    return b"".join(out)


def old_canonical_record(fields: dict) -> bytes:
    """The parent's ``canonical_record(record_template(*fields), fields)``."""
    out = [b"D" + _old_frame_count(len(fields))]
    for name in sorted(fields, key=_old_sort_key):
        value = fields[name]
        framer = _OLD_SCALAR_FRAMERS.get(value.__class__)
        out.append(_old_frame_str(name))
        out.append(framer(value) if framer is not None
                   else old_canonical_bytes(value))
    return b"".join(out)


def outcome(build, *args):
    """What ``build(*args)`` returns, or the ``TypeError`` it raises."""
    try:
        return build(*args)
    except TypeError as exc:
        return ("TypeError", str(exc))


# -- the walker against the frozen one ---------------------------------------

# Keys that sort differently by ``repr`` than by value: a quote switches
# the repr's delimiter, a backslash or a newline is escaped, ``!`` and
# space sort ahead of the closing quote.
tricky_text = st.text(
    alphabet="ab'\"\\! \né☃\U0001f600", max_size=6)
walked_scalars = st.none() | st.booleans() | st.integers() \
    | st.floats(allow_nan=True) | st.just(-0.0) \
    | st.text(max_size=12) | tricky_text \
    | st.just("x" * 1024) | st.binary(max_size=12) \
    | st.binary(max_size=12).map(bytearray)
hashable_scalars = st.none() | st.booleans() | st.integers() \
    | st.floats(allow_nan=False) | st.text(max_size=6) | tricky_text \
    | st.binary(max_size=6)
walked_values = st.recursive(
    walked_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(tricky_text, children, max_size=5)
    | st.dictionaries(hashable_scalars, children, max_size=4)
    | st.sets(hashable_scalars, max_size=4)
    | st.frozensets(hashable_scalars, max_size=4),
    max_leaves=14,
)


class TestWalkerAgainstTheParent:
    @given(walked_values)
    def test_same_bytes_as_the_frozen_serialiser(self, value):
        assert canonical_bytes(value) == old_canonical_bytes(value)

    @given(st.dictionaries(tricky_text, st.integers(), max_size=8))
    def test_str_keys_keep_their_repr_order(self, mapping):
        assert canonical_bytes(mapping) == old_canonical_bytes(mapping)

    def test_the_repr_order_trap(self):
        # Sorted as strings "a" comes first; sorted as the parent sorts,
        # by repr, "a!" does: ``!`` < ``'``.
        assert sorted(["a", "a!"]) == ["a", "a!"]
        value = {"a": 1, "a!": 2}
        assert canonical_bytes(value) == old_canonical_bytes(value) \
            == b"D2;S2:a!I1:2S1:aI1:1"

    @given(walked_values)
    def test_unserialisable_leaf_raises_the_same_error(self, value):
        for hostile in ([value, object()], {"k": value, "z": {1: object}},
                        (value, {object()})):
            assert outcome(canonical_bytes, hostile) \
                == outcome(old_canonical_bytes, hostile)
            assert outcome(canonical_bytes, hostile)[0] == "TypeError"

    def test_plain_scalar_subclasses_are_their_base(self):
        # Subclasses that override no printing: here the frozen
        # serialiser is still the oracle.  One that overrides
        # ``__str__``/``__repr__``/``encode`` is not in this test on
        # purpose -- the parent framed it through that override, which
        # is the bug this walker fixes (see
        # ``test_scalar_subclasses_serialise_like_the_generic_path``).
        class Label(str):
            pass

        class Count(int):
            pass

        class Ratio(float):
            pass

        class Blob(bytes):
            pass

        point = namedtuple("point", "x y")
        value = {Label("k"): [Count(3), Ratio(-0.0), Blob(b"ab")],
                 "p": point(Label("x"), Count(-1))}
        assert canonical_bytes(value) == old_canonical_bytes(value)


# -- record templates --------------------------------------------------------

# Whatever can sit in a signed record's field: the scalar the protocol
# puts there, or anything a hostile peer substitutes for it.
field_values = plain_data | st.just(-0.0) | st.floats(allow_nan=True) \
    | st.binary(max_size=20).map(bytearray) \
    | st.text(alphabet="é☃\U0001f600k", max_size=6) \
    | st.frozensets(st.integers(), max_size=3)
field_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_ !\"&'\\\né", min_size=1,
    max_size=10).filter(lambda name: name not in ("partial", "framed"))
records = st.dictionaries(field_names, field_values, max_size=9)


def encode_record(record: dict, constants=(), framed=(), run=()) -> bytes:
    """``record`` through a template compiled for it: ``constants`` are
    folded in, ``framed`` fields handed over as canonical bytes, and
    the ``run`` fields framed by a partial template and spliced in."""
    plain = [name for name in record
             if name not in constants and name not in run]
    fields = list(plain)
    values = [canonical_bytes(record[name]) if name in framed
              else record[name] for name in plain]
    if run:
        partial = record_template(*run, partial=True)
        fields.append(partial)
        values.append(partial.encode(*(record[name] for name in run)))
    template = record_template(
        *fields, framed=[name for name in framed if name in plain],
        **{name: record[name] for name in constants})
    return template.encode(*values)


class TestRecordTemplates:
    @given(records)
    def test_record_equals_generic_serialisation(self, record):
        assert encode_record(record) == canonical_bytes(record) \
            == old_canonical_record(record) == old_canonical_bytes(record)

    @given(st.dictionaries(field_names, field_values, min_size=2,
                           max_size=6))
    def test_declaration_order_is_irrelevant(self, record):
        backwards = dict(reversed(list(record.items())))
        assert encode_record(record) == encode_record(backwards)

    @given(records, st.data())
    def test_constants_framed_fields_and_runs_change_no_byte(self, record,
                                                             data):
        names = sorted(record, key=repr)
        subsets = st.sets(st.sampled_from(names)) if names \
            else st.just(set())
        constants = data.draw(subsets)
        framed = data.draw(subsets)
        # A run is any stretch of neighbours in emission order.
        first = data.draw(st.integers(0, len(names)))
        last = data.draw(st.integers(first, len(names)))
        run = names[first:last]
        if constants.intersection(run):
            run = []
        assert encode_record(record, constants, framed, run) \
            == old_canonical_record(record)

    def test_scalar_subclasses_serialise_like_the_generic_path(self):
        class Label(str):
            def encode(self, *args) -> bytes:
                return b"LOUD"

        class Count(int):
            def __str__(self) -> str:
                return "7"

            __repr__ = __str__

        class Ratio(float):
            def __repr__(self) -> str:
                return "ratio"

        class Blob(bytes):
            def __bytes__(self) -> bytes:
                return b"other"

        class Color(enum.IntEnum):
            A = 1

        record = {"a": Label("x"), "b": Count(3), "c": True}
        assert encode_record(record) == canonical_bytes(record)
        # A subclass instance is framed as its base, from the value it
        # holds: not through its own ``__str__``/``__repr__``/``encode``
        # (the parent printed ``Count(3)`` as ``I1:7``, and an IntEnum
        # member as ``I7:Color.A`` on Python 3.10 but ``I1:1`` on 3.12).
        assert canonical_bytes(Label("x")) == b"S1:x"
        assert canonical_bytes(Count(3)) == b"I1:3"
        assert canonical_bytes(Ratio(-0.0)) == b"F3:0.0"
        assert canonical_bytes(Ratio(1.5)) == b"F3:1.5"
        assert canonical_bytes(Blob(b"ab")) == b"Y2:ab"
        assert canonical_bytes(Color.A) == b"I1:1"
        assert canonical_bytes(bytearray(b"ab")) == b"Y2:ab"
        point = namedtuple("point", "x y")(1, Label("y"))
        assert canonical_bytes(point) == b"T2;I1:1S1:y"

    def test_unserialisable_field_raises_type_error(self):
        template = record_template("value", kind="k")
        with pytest.raises(TypeError, match="canonically serialise"):
            template.encode(object())
        with pytest.raises(TypeError, match="canonically serialise"):
            template.encode([object()])
        with pytest.raises(TypeError, match="canonically serialise"):
            record_template("value", partial=True).encode({1: object()})

    def test_fields_must_match_the_template(self):
        template = record_template("kind", "value")
        with pytest.raises(TypeError, match="positional argument"):
            template.encode("k", 1, 2)
        with pytest.raises(TypeError, match="positional argument"):
            template.encode("k")
        with pytest.raises(ValueError, match="duplicate"):
            record_template("kind", "kind")
        with pytest.raises(ValueError, match="duplicate"):
            record_template("kind", kind="k")
        with pytest.raises(ValueError, match="framed"):
            record_template("kind", framed=("value",))

    def test_a_run_is_partial_and_sorts_together(self):
        run = record_template("b_x", "b_y", partial=True)
        assert run.encode(1, "two") == b"S3:b_xI1:1S3:b_yS3:two"
        whole = record_template("a", run, "c")
        assert whole.names == ("a", "b_x", "b_y", "c")
        assert whole.encode(0, run.encode(1, "two"), None) \
            == canonical_bytes({"a": 0, "b_x": 1, "b_y": "two", "c": None})
        with pytest.raises(ValueError, match="sort apart"):
            record_template("a", run, "b_xx")
        with pytest.raises(ValueError, match="duplicate"):
            record_template("b_x", run)
        with pytest.raises(ValueError, match="whole record"):
            record_template("z", whole)


# -- the five signed records against the parent's dicts ----------------------

_MASTER = KeyPair("master-00", new_signer("hmac", rng=random.Random(1)))
_PUBLIC_KEY = _MASTER.public_key
_SIGNATURE = _MASTER.sign(b"anything")

#: One honest instance of each signed record, as constructor arguments.
_HONEST = {
    "VersionStamp": dict(version=5, timestamp=1.25, master_id="master-00",
                         signature=_SIGNATURE),
    "Pledge": dict(query_wire={"op": "kv.get", "key": "k1"},
                   result_hash="ab" * 20, slave_id="slave-00-00",
                   request_id="client-00-r000017", signature=_SIGNATURE),
    "Certificate": dict(subject_id="master-00", address="127.0.0.1:9001",
                        subject_public_key=_PUBLIC_KEY,
                        issuer_id="content-owner", issued_at=1.0,
                        expires_at=float("inf"), signature=_SIGNATURE),
    "ShardMap": dict(namespace="ns", epoch=2, seed=9,
                     shard_ids=("s0", "s1"),
                     assignments=(("s0", ("master-00",)),
                                  ("s1", ("master-01",))),
                     issuer_id="content-owner", issued_at=4.0,
                     signature=_SIGNATURE),
    "SignedRoot": dict(root=b"\x01" * 20, version=7, signature=_SIGNATURE),
}

#: A wrong-typed value (for a str slot and for every other), a
#: container and something no serialiser takes.
_HOSTILE = (7, "seven", -0.0, None, b"raw", ["x", {"y": (1, None)}],
            {"k": {2, 1}}, object(), [object()])


def _build(kind: str, fields: dict, stamp_fields: dict):
    """The signed bytes of one record, by this commit and by the
    parent's dict (copied from the parent's ``_payload`` builders)."""
    if kind == "VersionStamp":
        new = VersionStamp(**fields).signed_payload
        old = {"kind": "version_stamp", "version": fields["version"],
               "timestamp": fields["timestamp"],
               "master_id": fields["master_id"]}
    elif kind == "Pledge":
        stamp = VersionStamp(**stamp_fields)
        new = Pledge(stamp=stamp, **fields).signed_payload
        old = {"kind": "pledge", "query": fields["query_wire"],
               "result_hash": fields["result_hash"],
               "stamp_version": stamp.version,
               "stamp_timestamp": stamp.timestamp,
               "stamp_master": stamp.master_id,
               "stamp_signature": repr(stamp.signature),
               "slave_id": fields["slave_id"],
               "request_id": fields["request_id"]}
    elif kind == "Certificate":
        new = Certificate(**fields).signed_payload
        old = {"kind": "certificate", "subject_id": fields["subject_id"],
               "address": fields["address"],
               "public_key": repr(fields["subject_public_key"]),
               "issuer_id": fields["issuer_id"],
               "issued_at": fields["issued_at"],
               "expires_at": fields["expires_at"]}
    elif kind == "ShardMap":
        new = ShardMap(**fields).signed_payload
        old = {"kind": "shard_map", **{
            name: value for name, value in fields.items()
            if name != "signature"}}
    else:
        def new():
            return SignedRoot.payload(fields["root"], fields["version"])
        old = {"kind": "merkle_root", "root": fields["root"],
               "version": fields["version"]}
    return outcome(new), outcome(old_canonical_record, old)


class TestSignedRecordsAgainstTheParent:
    @pytest.mark.parametrize("kind", sorted(_HONEST))
    def test_honest_record_signs_the_parents_bytes(self, kind):
        new, old = _build(kind, _HONEST[kind], _HONEST["VersionStamp"])
        assert new == old and isinstance(new, bytes)

    @pytest.mark.parametrize("kind", sorted(_HONEST))
    def test_every_slot_in_turn_holding_a_hostile_value(self, kind):
        """The codec type-checks no decoded field, so whatever a peer
        put in a slot reaches the serialiser: it must sign the same
        bytes, or raise the same ``TypeError``, as the parent did."""
        slots = [(kind, name) for name in _HONEST[kind]]
        if kind == "Pledge":
            slots += [("VersionStamp", name)
                      for name in _HONEST["VersionStamp"]]
        raised = 0
        for owner, name in slots:
            for hostile in _HOSTILE:
                fields = dict(_HONEST[kind])
                stamp_fields = dict(_HONEST["VersionStamp"])
                (fields if owner == kind else stamp_fields)[name] = hostile
                new, old = _build(kind, fields, stamp_fields)
                assert new == old, (owner, name, hostile)
                raised += new[0] == "TypeError"
        # Both halves of "same bytes or same TypeError" were exercised.
        assert 0 < raised < len(slots) * len(_HOSTILE)
