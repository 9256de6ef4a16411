"""Tests for protolint v2: project model, cross-file rules, outputs.

Complements ``test_protolint.py`` (per-file rules, CLI exit codes,
live-tree-clean).  Here: the multi-file :class:`ProjectModel`, the
two-phase :class:`ProjectRule` driver, one fixture package per new rule
family (positive + negative + suppression), the wire-registry lockfile
workflow including a drift simulation against the *real* codec, and the
SARIF / GitHub output paths.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # `tools` lives at the repo root
    sys.path.insert(0, str(REPO_ROOT))

from tools.protolint.engine import (  # noqa: E402
    ProjectContext,
    lint_source,
    lint_sources,
)
from tools.protolint.output import render_github, render_sarif  # noqa: E402
from tools.protolint.project import (  # noqa: E402
    ProjectModel,
    build_module,
    module_name_for,
)
from tools.protolint.rules.pl301_trust_boundary import (  # noqa: E402
    verifier_closure,
)
from tools.protolint.wirelock import (  # noqa: E402
    extract_registry,
    format_lock,
    parse_lock,
)

PROJECT = ProjectContext()


def dedent(source: str) -> str:
    return textwrap.dedent(source)


def codes(source: str, path: str = "src/repro/net/example.py") -> list[str]:
    return [v.rule for v in
            lint_source(dedent(source), path, project=PROJECT)]


def multi_codes(*files: tuple[str, str],
                project: ProjectContext | None = None) -> list[str]:
    result = lint_sources([(path, dedent(src)) for path, src in files],
                          project=project or PROJECT)
    assert result.errors == []
    return [v.rule for v in result.violations]


# -- project model -------------------------------------------------------


class TestModuleNames:
    def test_src_layout_stripped(self):
        assert module_name_for(
            "/a/b/src/repro/core/messages.py") == "repro.core.messages"

    def test_no_src_uses_relative_path(self):
        assert module_name_for(
            "tools/protolint/engine.py") == "tools.protolint.engine"

    def test_init_names_the_package(self):
        assert module_name_for("src/repro/net/__init__.py") == "repro.net"


class TestProjectModel:
    def _model(self, *files: tuple[str, str]) -> ProjectModel:
        model = ProjectModel()
        for path, source in files:
            model.add(path, ast.parse(dedent(source)))
        return model

    def test_dataclass_init_fields_match_wire_tuple(self):
        info = build_module("src/repro/core/m.py", ast.parse(dedent("""
            from dataclasses import dataclass, field
            from typing import ClassVar

            @dataclass(frozen=True, slots=True)
            class Msg:
                a: int
                b: str
                kind: ClassVar[str] = "msg"
                _memo: object = field(default=None, init=False)
        """)))
        cls = info.classes["Msg"]
        assert cls.init_fields == ("a", "b")  # ClassVar + init=False out
        assert cls.is_dataclass and cls.frozen and cls.slots

    def test_plain_class_uses_init_params(self):
        info = build_module("x.py", ast.parse(dedent("""
            class Store:
                def __init__(self, items, *, depth=2):
                    self.items = items
        """)))
        assert info.classes["Store"].init_fields == ("items", "depth")

    def test_name_tuples_from_assign_and_annassign(self):
        info = build_module("x.py", ast.parse(dedent("""
            class A: pass
            class B: pass
            PLAIN = (A, B)
            ANNOTATED: tuple[type, ...] = (B, A)
        """)))
        assert info.name_tuples["PLAIN"] == ("A", "B")
        assert info.name_tuples["ANNOTATED"] == ("B", "A")

    def test_resolve_class_through_import_alias(self):
        model = self._model(
            ("src/repro/core/messages.py", """
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class Pledge:
                    slave_id: str
            """),
            ("src/repro/net/codec.py", """
                from repro.core.messages import Pledge
            """),
        )
        codec = model.by_path["src/repro/net/codec.py"]
        cls = model.resolve_class(codec, "Pledge")
        assert cls is not None and cls.init_fields == ("slave_id",)

    def test_module_suffix_matching(self):
        model = self._model(("deep/src/repro/core/messages.py", "x = 1"))
        assert model.module("repro.core.messages") is not None
        assert model.module("core.messages") is not None
        assert model.module("unrelated.module") is None

    def test_function_call_names_recorded(self):
        model = self._model(("x.py", """
            class C:
                def check(self, stamp):
                    return stamp.verify(self.keys, key)
        """))
        fn = model.by_path["x.py"].functions["C.check"]
        assert "verify" in fn.calls and fn.is_async is False


class TestLintSources:
    def test_syntax_error_collected_not_raised(self):
        result = lint_sources([("bad.py", "def broken(:")])
        assert result.violations == []
        assert len(result.errors) == 1 and "syntax error" in result.errors[0][1]

    def test_files_share_one_model(self):
        # PL201's extraction sees codec + messages passed as separate
        # in-memory files: resolution proves they landed in one model.
        model = ProjectModel()
        model.add("src/repro/core/messages.py", ast.parse(
            "class KeepAlive:\n    pass\n"))
        model.add("src/repro/net/codec.py", ast.parse(
            "from repro.core.messages import KeepAlive\n"))
        codec = model.by_path["src/repro/net/codec.py"]
        assert model.resolve_class(codec, "KeepAlive") is not None


# -- PL1xx: async atomicity ----------------------------------------------


class TestPL101AwaitStraddledState:
    def test_read_await_write_flagged(self):
        source = """
            import asyncio

            class Pool:
                async def aclose(self):
                    tasks = list(self._tasks)
                    for t in self._tasks:
                        t.cancel()
                    await asyncio.gather(*tasks)
                    self._tasks.clear()
        """
        assert "PL101" in codes(source)

    def test_guard_read_then_blind_write_after_await_flagged(self):
        source = """
            class Server:
                async def suspend(self):
                    if self._server is not None:
                        self._server.close()
                        await self._server.wait_closed()
                        self._server = None
        """
        assert "PL101" in codes(source)

    def test_write_before_await_clean(self):
        source = """
            class Server:
                async def suspend(self):
                    server, self._server = self._server, None
                    if server is not None:
                        server.close()
                        await server.wait_closed()
        """
        assert "PL101" not in codes(source)

    def test_lock_held_across_await_clean(self):
        source = """
            class Pool:
                async def bump(self):
                    async with self._lock:
                        count = self._count
                        await self._flush()
                        self._count = count + 1
        """
        assert "PL101" not in codes(source)

    def test_rmw_without_await_clean(self):
        source = """
            class Pool:
                async def bump(self):
                    self._count = self._count + 1
                    await self._flush()
        """
        assert "PL101" not in codes(source)

    def test_augassign_after_await_flagged(self):
        source = """
            class Node:
                async def step(self):
                    if self.version > 0:
                        await self.sync()
                        self.version += 1
        """
        assert "PL101" in codes(source)

    def test_assign_value_await_then_store_flagged(self):
        # ``self.x = await f()`` guarded by ``if self.x is None`` is the
        # classic lazy-init race: the read (guard) and write straddle
        # the await inside the assignment's value.
        source = """
            class Node:
                async def conn(self):
                    if self._conn is None:
                        self._conn = await self.dial()
                    return self._conn
        """
        assert "PL101" in codes(source)

    def test_suppression_comment_respected(self):
        source = """
            class Node:
                async def step(self):
                    v = self.version
                    await self.sync()
                    # single-writer: only the scheduler task calls step()
                    self.version = v + 1  # protolint: disable=PL101
        """
        assert "PL101" not in codes(source)


class TestPL102BlockingInAsync:
    def test_time_sleep_in_coroutine_flagged(self):
        source = """
            import time

            async def run():
                time.sleep(1.0)
        """
        assert codes(source) == ["PL102"]

    def test_from_import_alias_resolved(self):
        source = """
            from time import sleep

            async def run():
                sleep(0.1)
        """
        assert codes(source) == ["PL102"]

    def test_asyncio_sleep_clean(self):
        source = """
            import asyncio

            async def run():
                await asyncio.sleep(1.0)
        """
        assert codes(source) == []

    def test_sleep_in_sync_function_clean(self):
        source = """
            import time

            def run():
                time.sleep(1.0)
        """
        assert codes(source) == []

    def test_nested_sync_def_not_flagged(self):
        # A nested def runs on its caller's schedule (often an
        # executor); flagging it would punish run_in_executor prep.
        source = """
            import time

            async def run(loop):
                def blocking():
                    time.sleep(1.0)
                await loop.run_in_executor(None, blocking)
        """
        assert codes(source) == []


class TestPL103UntrackedTask:
    def test_bare_create_task_flagged(self):
        source = """
            import asyncio

            async def go(coro):
                asyncio.create_task(coro)
        """
        assert codes(source) == ["PL103"]

    def test_ensure_future_statement_flagged(self):
        source = """
            import asyncio

            def go(loop, coro):
                asyncio.ensure_future(coro, loop=loop)
        """
        assert codes(source) == ["PL103"]

    def test_retained_task_clean(self):
        source = """
            import asyncio

            async def go(self, coro):
                task = asyncio.create_task(coro)
                self._tasks.append(asyncio.create_task(coro))
                await task
        """
        assert codes(source) == []


class TestPL104LockDiscipline:
    def test_manual_acquire_in_coroutine_flagged(self):
        source = """
            async def go(lock):
                await lock.acquire()
                try:
                    pass
                finally:
                    lock.release()
        """
        assert codes(source) == ["PL104"]

    def test_async_with_clean(self):
        source = """
            async def go(lock):
                async with lock:
                    pass
        """
        assert codes(source) == []

    def test_sync_function_acquire_not_flagged(self):
        # threading-lock discipline in sync code is out of scope.
        source = """
            def go(lock):
                lock.acquire()
        """
        assert codes(source) == []


# -- PL2xx: wire-registry drift ------------------------------------------


CODEC_FIXTURE = ("src/repro/net/codec.py", """
    from dataclasses import dataclass

    from repro.core.messages import WIRE_MESSAGE_TYPES

    @dataclass(frozen=True, slots=True)
    class Hello:
        node_id: str
        version: int

    def _iter_registrations():
        yield (1, Hello, None, None)
        for offset, message_cls in enumerate(WIRE_MESSAGE_TYPES):
            yield (32 + offset, message_cls, None, None)
""")

MESSAGES_FIXTURE = ("src/repro/core/messages.py", """
    from dataclasses import dataclass

    @dataclass(frozen=True, slots=True)
    class Ping:
        nonce: int

    @dataclass(frozen=True, slots=True)
    class Pong:
        nonce: int
        echo: str

    WIRE_MESSAGE_TYPES: tuple[type, ...] = (Ping, Pong)
""")

GOOD_LOCK = (
    "# protolint wire-registry lock v1\n"
    "1\tHello\tnode_id,version\n"
    "32\tPing\tnonce\n"
    "33\tPong\tnonce,echo\n"
)


def lock_project(lock_text: str | None) -> ProjectContext:
    project = ProjectContext()
    project.wire_lock_text = lock_text
    return project


class TestPL201WireLock:
    def test_matching_lock_clean(self):
        assert multi_codes(CODEC_FIXTURE, MESSAGES_FIXTURE,
                           project=lock_project(GOOD_LOCK)) == []

    def test_missing_lock_flagged_when_codec_present(self):
        found = multi_codes(CODEC_FIXTURE, MESSAGES_FIXTURE,
                            project=lock_project(None))
        assert found == ["PL201"]

    def test_no_codec_module_inert(self):
        # Single-file fixture runs (every test in test_protolint.py)
        # must never trip the lock check.
        assert multi_codes(MESSAGES_FIXTURE,
                           project=lock_project(None)) == []

    def test_field_reorder_flagged(self):
        reordered = (MESSAGES_FIXTURE[0], MESSAGES_FIXTURE[1].replace(
            "nonce: int\n        echo: str", "echo: str\n        nonce: int"))
        found = multi_codes(CODEC_FIXTURE, reordered,
                            project=lock_project(GOOD_LOCK))
        assert found == ["PL201"]

    def test_id_reuse_flagged(self):
        codec = (CODEC_FIXTURE[0], CODEC_FIXTURE[1].replace(
            "yield (1, Hello, None, None)",
            "yield (1, Hello, None, None)\n"
            "        yield (1, Hello, None, None)"))
        found = multi_codes(codec, MESSAGES_FIXTURE,
                            project=lock_project(GOOD_LOCK))
        assert "PL201" in found

    def test_type_swap_under_locked_id_flagged(self):
        lock = GOOD_LOCK.replace("1\tHello\tnode_id,version",
                                 "1\tGoodbye\tnode_id,version")
        found = multi_codes(CODEC_FIXTURE, MESSAGES_FIXTURE,
                            project=lock_project(lock))
        assert found == ["PL201"]

    def test_removed_id_flagged(self):
        lock = GOOD_LOCK + "34\tGone\tfield_a\n"
        found = multi_codes(CODEC_FIXTURE, MESSAGES_FIXTURE,
                            project=lock_project(lock))
        assert found == ["PL201"]

    def test_unrecorded_append_flagged(self):
        messages = (MESSAGES_FIXTURE[0], MESSAGES_FIXTURE[1].replace(
            "WIRE_MESSAGE_TYPES: tuple[type, ...] = (Ping, Pong)",
            "@dataclass(frozen=True, slots=True)\n"
            "    class Probe:\n"
            "        ttl: int\n\n"
            "    WIRE_MESSAGE_TYPES: tuple[type, ...] = (Ping, Pong, Probe)"))
        found = multi_codes(CODEC_FIXTURE, messages,
                            project=lock_project(GOOD_LOCK))
        assert found == ["PL201"]

    def test_malformed_lock_flagged(self):
        found = multi_codes(CODEC_FIXTURE, MESSAGES_FIXTURE,
                            project=lock_project("1\tonly-two-fields\n"))
        assert found == ["PL201"]

    def test_sliced_block_skips_a_retired_id(self):
        codec = (CODEC_FIXTURE[0], CODEC_FIXTURE[1].replace(
            "        for offset, message_cls in enumerate(WIRE_MESSAGE_TYPES):\n"
            "            yield (32 + offset, message_cls, None, None)",
            "        for offset, message_cls in enumerate(WIRE_MESSAGE_TYPES[:1]):\n"
            "            yield (32 + offset, message_cls, None, None)\n"
            "        for offset, message_cls in enumerate(WIRE_MESSAGE_TYPES[1:]):\n"
            "            yield (34 + offset, message_cls, None, None)"))
        lock = GOOD_LOCK.replace("33\tPong", "34\tPong")
        assert multi_codes(codec, MESSAGES_FIXTURE,
                           project=lock_project(lock)) == []
        # Pong moved 33 -> 34: a removed id and an unrecorded one.
        assert multi_codes(codec, MESSAGES_FIXTURE,
                           project=lock_project(GOOD_LOCK)) \
            == ["PL201", "PL201"]

    @pytest.mark.parametrize("loop", [
        # A tuple of slices, as one codec draft had it.
        "        for base, block in ((32, WIRE_MESSAGE_TYPES[:1]),\n"
        "                            (33, WIRE_MESSAGE_TYPES[1:])):\n"
        "            for offset, message_cls in enumerate(block):\n"
        "                yield (base + offset, message_cls, None, None)",
        "        for offset, message_cls in enumerate(message_types()):\n"
        "            yield (32 + offset, message_cls, None, None)",
    ], ids=["tuple_of_slices", "call"])
    def test_unreadable_loop_flagged(self, loop):
        # Read as nothing, the loop would leave a lock of Hello alone
        # agreeing with the extraction, as ``--update-lock`` wrote it.
        codec = (CODEC_FIXTURE[0], CODEC_FIXTURE[1].replace(
            "        for offset, message_cls in enumerate(WIRE_MESSAGE_TYPES):\n"
            "            yield (32 + offset, message_cls, None, None)", loop))
        hello_only = GOOD_LOCK.split("32\t")[0]
        assert multi_codes(codec, MESSAGES_FIXTURE,
                           project=lock_project(hello_only)) == ["PL201"]

    def test_slice_without_literal_bounds_flagged(self):
        codec = (CODEC_FIXTURE[0], CODEC_FIXTURE[1].replace(
            "enumerate(WIRE_MESSAGE_TYPES)",
            "enumerate(WIRE_MESSAGE_TYPES[:CUT])"))
        assert "PL201" in multi_codes(codec, MESSAGES_FIXTURE,
                                      project=lock_project(GOOD_LOCK))


class TestPL202UnregisteredWireType:
    def test_frozen_dataclass_missing_from_tuple_flagged(self):
        messages = (MESSAGES_FIXTURE[0], MESSAGES_FIXTURE[1].replace(
            "WIRE_MESSAGE_TYPES: tuple[type, ...] = (Ping, Pong)",
            "WIRE_MESSAGE_TYPES: tuple[type, ...] = (Ping,)"))
        found = multi_codes(messages, project=lock_project(None))
        assert found == ["PL202"]

    def test_non_frozen_dataclass_exempt(self):
        messages = (MESSAGES_FIXTURE[0], MESSAGES_FIXTURE[1] + (
            "\n    @dataclass(slots=True)\n"
            "    class LocalBookkeeping:\n"
            "        count: int = 0\n"))
        assert multi_codes(messages, project=lock_project(None)) == []

    def test_suppression_respected(self):
        messages = (MESSAGES_FIXTURE[0], MESSAGES_FIXTURE[1].replace(
            "class Pong:",
            "class Pong:  # protolint: disable=PL202"
        ).replace(
            "WIRE_MESSAGE_TYPES: tuple[type, ...] = (Ping, Pong)",
            "WIRE_MESSAGE_TYPES: tuple[type, ...] = (Ping,)"))
        assert multi_codes(messages, project=lock_project(None)) == []


class TestLockAgainstLiveTree:
    """The committed lockfile and the real codec must agree -- and the
    acceptance-criterion failure modes must actually fail."""

    def _live_sources(self) -> list[tuple[str, str]]:
        return [
            (str(REPO_ROOT / rel),
             (REPO_ROOT / rel).read_text(encoding="utf-8"))
            for rel in ("src/repro/net/codec.py",
                        "src/repro/core/messages.py")
        ]

    def _live_project(self) -> ProjectContext:
        return ProjectContext.discover(REPO_ROOT / "src")

    def test_live_codec_matches_committed_lock(self):
        project = self._live_project()
        assert project.wire_lock_text is not None
        result = lint_sources(self._live_sources(), project=project)
        assert [v for v in result.violations if v.rule == "PL201"] == []

    def test_reordering_live_wire_field_fails(self):
        sources = self._live_sources()
        path, messages = sources[1]
        swapped = messages.replace(
            '"""Client -> slave: execute a read query."""\n\n'
            "    client_id: str\n    request_id: str",
            '"""Client -> slave: execute a read query."""\n\n'
            "    request_id: str\n    client_id: str")
        assert swapped != messages, "fixture drifted from messages.py"
        result = lint_sources([sources[0], (path, swapped)],
                              project=self._live_project())
        assert any(v.rule == "PL201" and "ReadRequest" in v.message
                   for v in result.violations)

    def test_reusing_live_codec_id_fails(self):
        sources = self._live_sources()
        path, codec = sources[0]
        reused = codec.replace(
            "yield (14, FrameBatch, None, None)",
            "yield (7, FrameBatch, None, None)")
        assert reused != codec, "fixture drifted from codec.py"
        result = lint_sources([(path, reused), sources[1]],
                              project=self._live_project())
        assert any(v.rule == "PL201" and "7" in v.message
                   for v in result.violations)

    def test_committed_lock_is_regeneration_stable(self):
        # The whole src tree: carriers like Certificate and TraceContext
        # live outside core/messages and must resolve.
        model = ProjectModel()
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            model.add(str(path), ast.parse(
                path.read_text(encoding="utf-8")))
        extraction = extract_registry(model)
        assert extraction is not None and extraction.problems == []
        committed = (REPO_ROOT / "tools/protolint/wire_registry.lock"
                     ).read_text(encoding="utf-8")
        assert format_lock(extraction.entries) == committed

    def test_lock_roundtrip(self):
        committed = (REPO_ROOT / "tools/protolint/wire_registry.lock"
                     ).read_text(encoding="utf-8")
        locked = parse_lock(committed)
        assert locked is not None
        assert locked[14] == ("FrameBatch", ("messages",))
        assert locked[7] == ("ContentStore", ())  # zero-field entry
        assert min(locked) == 1 and 32 in locked


# -- PL3xx: trust-boundary taint -----------------------------------------


TAINT_HELPERS = ("src/repro/core/verifyhelpers.py", """
    def check_stamp(keys, stamp, key):
        return stamp.verify(keys, key)
""")


class TestPL301TrustBoundary:
    def test_unverified_apply_write_flagged(self):
        source = """
            class Slave:
                def _handle_update(self, master_id, update: SlaveUpdate):
                    for op in update.ops_wire:
                        self.store.apply_write(op)
        """
        assert "PL301" in codes(source, path="src/repro/core/slave.py")

    def test_unverified_state_assign_flagged(self):
        source = """
            class Slave:
                def _handle_snapshot(self, master_id,
                                     message: SlaveSnapshot):
                    self.store = message.store.clone()
        """
        assert "PL301" in codes(source, path="src/repro/core/slave.py")

    def test_verify_guard_clears_taint(self):
        source = """
            class Slave:
                def _handle_update(self, master_id, update: SlaveUpdate):
                    if not self._stamp_ok(update.stamp):
                        return
                    for op in update.ops_wire:
                        self.store.apply_write(op)

                def _stamp_ok(self, stamp):
                    return stamp.verify(self.keys, self.master_key)
        """
        assert "PL301" not in codes(source, path="src/repro/core/slave.py")

    def test_cross_file_verifier_closure(self):
        # The guard lives in another module: the closure must still
        # recognise it as a verifier.
        slave = ("src/repro/core/slave.py", """
            from repro.core.verifyhelpers import check_stamp

            class Slave:
                def _handle_update(self, master_id, update: SlaveUpdate):
                    if not check_stamp(self.keys, update.stamp, self.key):
                        return
                    self.store.apply_write(update.ops_wire)
        """)
        assert multi_codes(slave, TAINT_HELPERS) == []

    def test_constant_time_equals_counts_as_guard(self):
        source = """
            from repro.crypto.hashing import constant_time_equals

            class Client:
                def _handle_read_reply(self, slave_id, reply: ReadReply):
                    if not constant_time_equals(self.expected,
                                                reply.result_hash):
                        return
                    self._finish_read(reply.result)
        """
        assert "PL301" not in codes(source, path="src/repro/core/client.py")

    def test_generic_message_param_tainted(self):
        source = """
            class Node:
                def on_message(self, src_id, message):
                    self.store.apply_write(message.op)
        """
        assert "PL301" in codes(source, path="src/repro/core/node.py")

    def test_trusted_origin_types_not_sources(self):
        # DoubleCheckReply comes signed from a *master*; committing it
        # without re-verification is the protocol's design, not a bug.
        source = """
            class Client:
                def _handle_double_check_reply(self, reply: DoubleCheckReply):
                    self._finish_read(reply.result)
        """
        assert codes(source, path="src/repro/core/client.py") == []

    def test_non_handler_function_not_analyzed(self):
        source = """
            class Slave:
                def _apply_update(self, update: SlaveUpdate):
                    self.store.apply_write(update.ops_wire)
        """
        assert codes(source, path="src/repro/core/slave.py") == []

    def test_buffering_is_not_a_sink(self):
        source = """
            class Slave:
                def _handle_update(self, master_id, update: SlaveUpdate):
                    self._pending[update.from_version] = update
        """
        assert codes(source, path="src/repro/core/slave.py") == []

    def test_taint_propagates_through_assignment(self):
        source = """
            class Master:
                def _handle_accusation(self, src_id, message: Accusation):
                    pledge = message.pledge
                    self.broadcast(pledge)
        """
        assert "PL301" in codes(source, path="src/repro/core/master.py")

    def test_suppression_respected(self):
        source = """
            class Node:
                def on_message(self, src_id, message):
                    # trusted origin: loopback self-delivery only
                    self.store.apply_write(message.op)  # protolint: disable=PL301
        """
        assert codes(source, path="src/repro/core/node.py") == []

    def test_verifier_closure_fixpoint(self):
        model = ProjectModel()
        model.add("a.py", ast.parse(dedent("""
            class S:
                def _stamp_ok(self, stamp):
                    return stamp.verify(self.keys, self.key)

                def accept(self, stamp):
                    return self._stamp_ok(stamp)

            def unrelated():
                return 1
        """)))
        verifiers = verifier_closure(model)
        assert "_stamp_ok" in verifiers
        assert "accept" in verifiers  # transitive
        assert "unrelated" not in verifiers


# -- outputs: SARIF / github ----------------------------------


class TestOutputs:
    def _violations(self):
        result = lint_sources([("src/repro/core/x.py", dedent("""
            import time

            async def tick(self):
                time.sleep(1)
        """))])
        assert result.violations
        return result.violations

    def test_sarif_is_valid_and_located(self):
        violations = self._violations()
        doc = json.loads(render_sarif(violations, "2.0.0"))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "protolint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "PL102" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "PL102"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/core/x.py"
        assert location["region"]["startLine"] == 5

    def test_github_annotations_format(self):
        lines = render_github(self._violations()).splitlines()
        assert lines[0].startswith("::error file=src/repro/core/x.py,line=5,")
        assert "PL102" in lines[0]



class TestCLIv2:
    def _run(self, *argv: str, cwd: Path = REPO_ROOT):
        return subprocess.run(
            [sys.executable, "-m", "tools.protolint", *argv],
            cwd=cwd, capture_output=True, text=True, timeout=120)

    def test_sarif_format_flag(self, tmp_path: Path):
        dirty = tmp_path / "src" / "repro" / "core" / "dirty.py"
        dirty.parent.mkdir(parents=True)
        dirty.write_text("import time\nasync def t():\n    time.sleep(1)\n")
        proc = self._run("--format", "sarif", "-q", str(dirty))
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["runs"][0]["results"][0]["ruleId"] == "PL102"

    def test_update_lock_regenerates_committed_file(self, tmp_path: Path):
        # Clone the src tree into a bare repo skeleton, regenerate the
        # lock there, and require byte-identity with the committed one.
        shutil.copytree(REPO_ROOT / "src", tmp_path / "src")
        (tmp_path / "tools" / "protolint").mkdir(parents=True)
        proc = self._run("--update-lock", str(tmp_path / "src"))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        regenerated = (tmp_path / "tools" / "protolint"
                       / "wire_registry.lock").read_text(encoding="utf-8")
        committed = (REPO_ROOT / "tools" / "protolint"
                     / "wire_registry.lock").read_text(encoding="utf-8")
        assert regenerated == committed

    def test_explain_new_rules(self):
        for code in ("PL101", "PL201", "PL301"):
            proc = self._run("--explain", code)
            assert proc.returncode == 0
            assert code in proc.stdout
