"""Tests for the protolint static-analysis pass (tools/protolint).

Each rule gets positive fixtures (code that must be flagged) and
negative fixtures (idiomatic code that must stay clean), all run through
:func:`tools.protolint.engine.lint_source` with a synthetic path so the
scoping logic is exercised without touching the filesystem.  The final
class pins the two repo-level guarantees: the live tree lints clean, and
the CLI's exit codes match its contract.
"""

from __future__ import annotations

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
    lint_paths,
    lint_source,
    parse_suppressions,
)
from tools.protolint.registry import REGISTRY, all_rules  # noqa: E402

#: Default synthetic location: inside every rule's scope.
CORE = "src/repro/core/example.py"
CRYPTO = "src/repro/crypto/example.py"

_CONFIG_SOURCE = '''
from dataclasses import dataclass

@dataclass(frozen=True)
class ProtocolConfig:
    max_latency: float = 4.0
    keepalive_interval: float = 1.0
    double_check_probability: float = 0.05

    def effective_client_max_latency(self) -> float:
        return self.max_latency
'''

PROJECT = ProjectContext.from_config_source(_CONFIG_SOURCE)


def codes(source: str, path: str = CORE,
          project: ProjectContext | None = None) -> list[str]:
    """Lint a dedented snippet; return the rule codes that fired."""
    violations = lint_source(textwrap.dedent(source), path,
                             project=project or PROJECT)
    return [v.rule for v in violations]


# -- registry / plumbing -------------------------------------------------


class TestRegistry:
    def test_all_rules_registered(self):
        all_rules()  # registration happens on first use, not on import
        assert set(REGISTRY) == {
            "PL001", "PL002", "PL003", "PL004", "PL005", "PL006",
            "PL007", "PL101", "PL102", "PL103", "PL104",
            "PL201", "PL202", "PL301"}

    def test_rules_sorted_by_code(self):
        rule_codes = [rule.code for rule in all_rules()]
        assert rule_codes == sorted(rule_codes)

    def test_violation_render_format(self):
        violations = lint_source("x = time.time()\nimport time\n", CORE,
                                 project=PROJECT)
        assert len(violations) == 1
        rendered = violations[0].render()
        assert rendered.startswith(f"{CORE}:1:")
        assert "PL001" in rendered

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            lint_source("def broken(:", CORE, project=PROJECT)


# -- PL001: determinism --------------------------------------------------


class TestPL001Determinism:
    def test_wall_clock_calls_flagged(self):
        source = """
            import time
            import datetime

            def stamp():
                a = time.time()
                b = time.monotonic_ns()
                c = datetime.datetime.now()
                d = datetime.date.today()
                return a, b, c, d
        """
        assert codes(source).count("PL001") == 4

    def test_import_alias_resolved(self):
        source = """
            import time as clock

            def stamp():
                return clock.perf_counter()
        """
        assert codes(source) == ["PL001"]

    def test_from_import_resolved(self):
        source = """
            from time import time

            def stamp():
                return time()
        """
        assert codes(source) == ["PL001"]

    def test_os_entropy_flagged(self):
        source = """
            import os
            import secrets
            import uuid

            def keygen():
                return os.urandom(16), secrets.token_bytes(8), uuid.uuid4()
        """
        assert codes(source).count("PL001") == 3

    def test_unseeded_random_instance_flagged(self):
        source = """
            import random

            def make_rng():
                return random.Random()
        """
        assert codes(source) == ["PL001"]

    def test_module_level_random_call_flagged(self):
        source = """
            import random

            def roll():
                return random.randint(1, 6)
        """
        assert codes(source) == ["PL001"]

    def test_seeded_random_and_instance_draws_clean(self):
        source = """
            import random

            def roll(rng: random.Random) -> float:
                fallback = random.Random(42)
                return rng.random() + fallback.random()
        """
        assert codes(source) == []

    def test_out_of_scope_path_not_flagged(self):
        source = """
            import time

            def bench():
                return time.perf_counter()
        """
        # Benchmark harness code measures real wall-clock on purpose.
        assert codes(source, path="benchmarks/bench_example.py") == []

    def test_scope_covers_all_protocol_packages(self):
        source = """
            import time

            def stamp():
                return time.time()
        """
        # The rule is path-scoped to all of src/repro/, not a module list:
        # packages added later are covered without touching the rule.
        for package in ("metrics", "content", "workloads", "analysis"):
            path = f"src/repro/{package}/example.py"
            assert codes(source, path=path) == ["PL001"], path

    def test_net_runtime_excluded(self):
        source = """
            import time

            def deadline():
                return time.monotonic() + 5.0
        """
        # The socket runtime legitimately lives on real time; the
        # exclusion carves it out of the otherwise-global scope.
        assert codes(source, path="src/repro/net/transport.py") == []
        # ...but the exclusion is exact: a sibling named similarly is
        # still in scope.
        assert codes(source, path="src/repro/network_sim/x.py") == ["PL001"]

    def test_obs_exemption_is_export_only(self):
        source = """
            import time

            def stamp():
                return time.time()
        """
        # The exporter module may stamp a Prometheus scrape with
        # wall-clock time (presentation only)...
        assert codes(source, path="src/repro/obs/export.py") == []
        # ...but the rest of the observability subsystem is protocol
        # code: span timestamps and sampling must stay deterministic.
        for module in ("spans", "collect", "context", "analyze", "admin"):
            assert codes(
                source, path=f"src/repro/obs/{module}.py") == ["PL001"], module

    def test_pyproject_scope_override_respected(self):
        source = """
            import time

            def stamp():
                return time.time()
        """
        pyproject = """
            [tool.protolint.scope.pl001]
            include = ["src/repro/core/"]
            exclude = ["src/repro/core/legacy/"]
        """
        from tools.protolint.engine import parse_scope_config

        overrides = parse_scope_config(textwrap.dedent(pyproject))
        if not overrides:  # Python 3.10: no tomllib, defaults apply
            pytest.skip("tomllib unavailable; class-default scopes in force")
        # Codes are normalised to upper case.
        assert overrides == {
            "PL001": (("src/repro/core/",), ("src/repro/core/legacy/",))}
        project = ProjectContext(
            config_fields=PROJECT.config_fields,
            config_methods=PROJECT.config_methods,
            rule_scopes=overrides)
        # Narrowed include: sim/ no longer in scope, core/ still is,
        # and the new exclude wins inside core/.
        assert codes(source, path="src/repro/sim/x.py",
                     project=project) == []
        assert codes(source, path="src/repro/core/x.py",
                     project=project) == ["PL001"]
        assert codes(source, path="src/repro/core/legacy/x.py",
                     project=project) == []

    def test_malformed_scope_config_falls_back_to_defaults(self):
        from tools.protolint.engine import parse_scope_config

        assert parse_scope_config("this is [not TOML") == {}
        assert parse_scope_config("[tool.other]\nx = 1\n") == {}

    def test_repo_pyproject_mirrors_class_defaults(self):
        # The TOML override and the 3.10 fallback (class attributes) must
        # agree, or behaviour would differ across Python versions.
        from tools.protolint.engine import parse_scope_config

        pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        overrides = parse_scope_config(pyproject)
        if not overrides:
            pytest.skip("tomllib unavailable; class-default scopes in force")
        rule = REGISTRY["PL001"]
        assert overrides["PL001"] == (rule.scope, rule.exclude)


# -- PL002: constant-time digest comparison ------------------------------


class TestPL002DigestCompare:
    def test_digest_name_equality_flagged(self):
        source = """
            def check(result_hash: str, trusted_hash: str) -> bool:
                return result_hash == trusted_hash
        """
        assert codes(source) == ["PL002"]

    def test_inequality_flagged(self):
        source = """
            def check(a_digest: str, expected: str) -> bool:
                return a_digest != expected
        """
        assert codes(source) == ["PL002"]

    def test_digest_method_call_flagged(self):
        source = """
            import hashlib

            def check(payload: bytes, expected: str) -> bool:
                return hashlib.sha1(payload).hexdigest() == expected
        """
        assert codes(source) == ["PL002"]

    def test_chained_comparison_flagged_once_per_bad_link(self):
        source = """
            def check(a_hash: str, b_hash: str, c_hash: str) -> bool:
                return a_hash == b_hash == c_hash
        """
        assert codes(source).count("PL002") == 2

    def test_constant_time_equals_clean(self):
        source = """
            from repro.crypto.hashing import constant_time_equals

            def check(result_hash: str, trusted_hash: str) -> bool:
                return constant_time_equals(result_hash, trusted_hash)
        """
        assert codes(source) == []

    def test_literal_comparison_clean(self):
        # `root == "/"` in path code must never fire; literals are not
        # attacker-timed secrets.
        source = """
            def check(result_hash: str) -> bool:
                return result_hash == ""
        """
        assert codes(source) == []

    def test_non_digest_names_clean(self):
        source = """
            def check(left: int, right: int) -> bool:
                return left == right
        """
        assert codes(source) == []

    def test_none_comparison_clean(self):
        source = """
            def check(signature) -> bool:
                return signature is None
        """
        assert codes(source) == []


# -- PL003: message/crypto dataclass shape -------------------------------


class TestPL003DataclassShape:
    def test_missing_slots_flagged(self):
        source = """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Ping:
                seq: int
        """
        assert codes(source, path=CRYPTO) == ["PL003"]

    def test_signed_payload_requires_frozen(self):
        source = """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class Stamp:
                version: int

                def signed_payload(self) -> bytes:
                    return b""
        """
        assert codes(source, path=CRYPTO) == ["PL003"]

    def test_cache_field_requires_init_false(self):
        source = """
            from dataclasses import dataclass, field

            @dataclass(frozen=True, slots=True)
            class Stamp:
                version: int
                _payload_cache: bytes | None = None

                def signed_payload(self) -> bytes:
                    return b""
        """
        assert codes(source, path=CRYPTO) == ["PL003"]

    def test_well_shaped_dataclass_clean(self):
        source = """
            from dataclasses import dataclass, field

            @dataclass(frozen=True, slots=True)
            class Stamp:
                version: int
                _payload_cache: bytes | None = field(
                    default=None, init=False, compare=False, repr=False)

                def signed_payload(self) -> bytes:
                    return b""
        """
        assert codes(source, path=CRYPTO) == []

    def test_plain_class_ignored(self):
        source = """
            class NotADataclass:
                def signed_payload(self) -> bytes:
                    return b""
        """
        assert codes(source, path=CRYPTO) == []

    def test_out_of_scope_module_not_flagged(self):
        source = """
            from dataclasses import dataclass

            @dataclass
            class RunRecord:
                name: str
        """
        # Analysis/metrics dataclasses are not wire messages.
        assert codes(source, path="src/repro/analysis/example.py") == []


# -- PL004: verification must go through scheme dispatch -----------------


class TestPL004VerifyDispatch:
    def test_verify_with_flagged(self):
        source = """
            def check(signer, public_key, message, signature):
                return signer.verify_with(public_key, message, signature)
        """
        assert codes(source) == ["PL004"]

    def test_raw_rsa_primitive_flagged(self):
        source = """
            from repro.crypto.rsa import rsa_verify

            def check(public_key, message, signature):
                return rsa_verify(public_key, message, signature)
        """
        assert codes(source) == ["PL004"]

    def test_keypair_verify_clean(self):
        source = """
            def check(keys, public_key, message, signature):
                return keys.verify(public_key, message, signature)
        """
        assert codes(source) == []

    def test_hmac_key_table_flagged(self):
        source = """
            from repro.crypto import signatures
            from repro.crypto.signatures import _HMAC_KEYS

            def forge(handle):
                return (_HMAC_KEYS[handle],
                        signatures._HMAC_KEYS.get(handle),
                        getattr(signatures, "_HMAC_KEYS"))
        """
        assert codes(source) == ["PL004"] * 4
        assert codes(source, path="benchmarks/bench_x.py") == ["PL004"] * 4

    def test_crypto_package_itself_exempt(self):
        # The dispatcher's own implementation must be allowed to call the
        # primitives it dispatches to, and to hold the key table.
        source = """
            _HMAC_KEYS: dict[bytes, bytes] = {}

            def _dispatch(signer, public_key, message, signature):
                _HMAC_KEYS.get(public_key.handle)
                return signer.verify_with(public_key, message, signature)
        """
        assert codes(source, path="src/repro/crypto/signatures.py") == []


# -- PL005: mutable default arguments ------------------------------------


class TestPL005MutableDefaults:
    def test_list_dict_set_displays_flagged(self):
        source = """
            def f(a=[], b={}, c=set()):
                return a, b, c
        """
        assert codes(source).count("PL005") == 3

    def test_constructor_call_defaults_flagged(self):
        source = """
            from collections import defaultdict

            def f(acc=defaultdict(list), buf=bytearray()):
                return acc, buf
        """
        assert codes(source).count("PL005") == 2

    def test_lambda_and_kwonly_defaults_flagged(self):
        source = """
            g = lambda xs=[]: xs

            def f(*, registry={}):
                return registry
        """
        assert codes(source).count("PL005") == 2

    def test_immutable_defaults_clean(self):
        source = """
            def f(a=(), b=None, c="x", d=0, e=frozenset()):
                return a, b, c, d, e
        """
        assert codes(source) == []


# -- PL007: self-re-arming timers ------------------------------------------


class TestPL007SelfRearmingTimer:
    def test_periodic_chain_flagged(self):
        source = """
            class Master:
                def _keepalive_loop(self, epoch=0):
                    if self.crashed or epoch != self._loop_epoch:
                        return
                    self.send_stamps()
                    self._handle = self.after(
                        self.config.keepalive_interval,
                        self._keepalive_loop, epoch)
        """
        assert codes(source) == ["PL007"]

    def test_chain_through_a_transport_flagged(self):
        source = """
            class Engine:
                def _tick(self):
                    self.heartbeat()
                    self.transport.after(self.heartbeat_interval, self._tick)
        """
        assert codes(source, path="src/repro/broadcast/example.py") \
            == ["PL007"]

    def test_retry_state_in_the_timer_arguments_flagged(self):
        source = """
            class Auditor:
                def _audit(self, entries, attempts=0):
                    unknown = self.sort(entries)
                    if unknown:
                        self.after(1.0, self._audit, unknown, attempts + 1)
                    self.finish(entries)
        """
        assert codes(source) == ["PL007"]

    def test_callback_keyword_flagged(self):
        source = """
            class Probe:
                def _probe(self):
                    self.sample()
                    self.after(delay=1.0, callback=self._probe)
        """
        assert codes(source) == ["PL007"]

    def test_deferral_is_not_a_chain(self):
        # The timer stands in for this very call; what it waits on is
        # a queue, or a requester who retries.
        source = """
            class Master:
                def _pump_writes(self):
                    if self.now < self.earliest:
                        self.after(self.earliest - self.now,
                                   self._pump_writes)
                        return
                    self.submit(self.queue.popleft())

                def _handle_resync(self, slave_id, message):
                    if not self.caught_up():
                        self.after(0.25, self._handle_resync, slave_id,
                                   message)
                        return
                    self.resync(slave_id, message)
        """
        assert codes(source) == []

    def test_declared_round_and_other_callbacks_clean(self):
        source = """
            class Master:
                def start(self):
                    self.every(self.config.keepalive_interval,
                               self._keepalive_round)

                def _keepalive_round(self):
                    self.send_stamps()

                def _request_map(self):
                    self.ask()
                    self.after(1.0, self._retry_map)

                def _retry_map(self):
                    if self.shard_map is None:
                        self._request_map()
        """
        assert codes(source) == []

    def test_scoped_to_the_protocol_packages(self):
        source = """
            class Node:
                def _run_every(self, interval, callback):
                    callback()
                    self.after(interval, self._run_every)
        """
        assert codes(source, path="src/repro/sim/network.py") == []
        assert codes(source, path="src/repro/shard/example.py") \
            == ["PL007"]

    def test_suppressed_with_a_reason(self):
        source = """
            class Engine:
                def _tick(self):
                    self.heartbeat()
                    # The host offers no periodic primitive here.
                    # protolint: disable-next-line=PL007
                    self.transport.after(self.heartbeat_interval, self._tick)
        """
        assert codes(source, path="src/repro/broadcast/example.py") == []


# -- PL006: config field references must exist ---------------------------


class TestPL006ConfigFields:
    def test_unknown_attribute_flagged_with_suggestion(self):
        source = """
            def deadline(config):
                return config.max_latncy
        """
        violations = lint_source(textwrap.dedent(source), CORE,
                                 project=PROJECT)
        assert [v.rule for v in violations] == ["PL006"]
        assert "max_latency" in violations[0].message  # difflib suggestion

    def test_known_field_and_method_clean(self):
        source = """
            def deadline(config):
                return config.max_latency + config.effective_client_max_latency()
        """
        assert codes(source) == []

    def test_constructor_kwargs_checked(self):
        source = """
            from repro.core.config import ProtocolConfig

            def make():
                return ProtocolConfig(keepalive_intervall=2.0)
        """
        assert codes(source) == ["PL006"]

    def test_fast_protocol_config_kwargs_checked(self):
        # Its keywords are forwarded to ProtocolConfig(**...), so a
        # deleted knob must not survive at a socket call site.
        source = """
            from repro.net.deploy import fast_protocol_config

            def make():
                return fast_protocol_config(max_latency=0.5,
                                            no_such_field=True)
        """
        violations = lint_source(textwrap.dedent(source), CORE,
                                 project=PROJECT)
        assert [v.rule for v in violations] == ["PL006"]
        assert "no_such_field" in violations[0].message

    def test_replace_kwargs_checked(self):
        source = """
            from dataclasses import replace

            def tweak(config):
                return replace(config, double_chek_probability=0.5)
        """
        assert codes(source) == ["PL006"]

    def test_getattr_literal_checked(self):
        source = """
            def peek(config):
                return getattr(config, "keepalive_intervall")
        """
        assert codes(source) == ["PL006"]

    def test_non_config_receiver_ignored(self):
        source = """
            def peek(settings):
                return settings.max_latncy
        """
        assert codes(source) == []

    def test_rule_inert_without_config_source(self):
        source = """
            def deadline(config):
                return config.definitely_not_a_field
        """
        assert codes(source, project=ProjectContext()) == []

    def test_project_context_parsed_fields(self):
        assert PROJECT.config_fields == {
            "max_latency", "keepalive_interval", "double_check_probability"}
        assert PROJECT.config_methods == {"effective_client_max_latency"}


# -- suppression comments ------------------------------------------------


class TestSuppressions:
    def test_same_line_suppression(self):
        source = """
            import time

            def stamp():
                return time.time()  # protolint: disable=PL001
        """
        assert codes(source) == []

    def test_next_line_suppression(self):
        source = """
            import time

            def stamp():
                # protolint: disable-next-line=PL001
                return time.time()
        """
        assert codes(source) == []

    def test_file_level_suppression(self):
        source = """
            # protolint: disable-file=PL001
            import time

            def stamp():
                return time.time() + time.monotonic()
        """
        assert codes(source) == []

    def test_all_keyword(self):
        source = """
            import time

            def stamp(result_hash, trusted_hash):
                return time.time(), result_hash == trusted_hash  # protolint: disable=all
        """
        assert codes(source) == []

    def test_suppression_is_code_specific(self):
        source = """
            import time

            def stamp(result_hash, trusted_hash):
                return time.time(), result_hash == trusted_hash  # protolint: disable=PL002
        """
        assert codes(source) == ["PL001"]

    def test_suppression_does_not_leak_to_other_lines(self):
        source = """
            import time

            def stamp():
                a = time.time()  # protolint: disable=PL001
                return a + time.time()
        """
        assert codes(source) == ["PL001"]

    def test_parse_suppressions_multiple_codes(self):
        sup = parse_suppressions(
            "x = 1  # protolint: disable=PL001, PL002\n")
        assert sup.by_line[1] == frozenset({"PL001", "PL002"})
        assert sup.file_level == frozenset()

    def test_ordinary_comments_never_suppress(self):
        source = """
            import time

            def stamp():
                return time.time()  # disable=PL001 (not a protolint marker)
        """
        assert codes(source) == ["PL001"]


# -- repo-level guarantees -----------------------------------------------


class TestLiveTree:
    def test_checked_tree_is_clean(self):
        """The committed source tree must lint clean — the CI gate.

        Covers all thirteen rules including the cross-file families:
        PL201 checks the live codec against the committed lockfile and
        PL301 taints every live handler, so this test is also the
        "wire registry matches the lock" and "no unverified acceptance
        path" repo-level assertion.
        """
        paths = [str(REPO_ROOT / name)
                 for name in ("src", "tools", "benchmarks", "examples")
                 if (REPO_ROOT / name).is_dir()]
        result = lint_paths(paths)
        assert result.errors == []
        rendered = "\n".join(v.render() for v in result.violations)
        assert result.violations == [], f"live tree has violations:\n{rendered}"
        assert result.files_checked > 50

    def test_project_context_discovered_from_repo(self):
        project = ProjectContext.discover(REPO_ROOT / "src")
        assert project.config_fields is not None
        assert "max_latency" in project.config_fields
        assert "effective_client_max_latency" in project.config_methods


class TestCLI:
    def _run(self, *argv: str, cwd: Path = REPO_ROOT):
        return subprocess.run(
            [sys.executable, "-m", "tools.protolint", *argv],
            cwd=cwd, capture_output=True, text=True, timeout=120)

    def test_exit_zero_on_clean_file(self, tmp_path: Path):
        clean = tmp_path / "src" / "repro" / "core" / "clean.py"
        clean.parent.mkdir(parents=True)
        clean.write_text("def f(rng):\n    return rng.random()\n")
        proc = self._run(str(clean))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_exit_one_on_violation(self, tmp_path: Path):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\n\ndef f():\n    return time.time()\n")
        proc = self._run(str(bad))
        assert proc.returncode == 1
        assert "PL001" in proc.stdout

    def test_exit_two_on_syntax_error(self, tmp_path: Path):
        broken = tmp_path / "src" / "repro" / "core" / "broken.py"
        broken.parent.mkdir(parents=True)
        broken.write_text("def broken(:\n")
        proc = self._run(str(broken))
        assert proc.returncode == 2

    def test_select_filters_rules(self, tmp_path: Path):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\n\ndef f():\n    return time.time()\n")
        proc = self._run("--select", "PL002", str(bad))
        assert proc.returncode == 0

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        for code in ("PL001", "PL002", "PL003", "PL004", "PL005", "PL006",
                     "PL007"):
            assert code in proc.stdout

    def test_explain_prints_rule_doc(self):
        proc = self._run("--explain", "PL002")
        assert proc.returncode == 0
        assert "compare_digest" in proc.stdout

    def test_explain_pl007_names_the_primitive(self):
        proc = self._run("--explain", "PL007")
        assert proc.returncode == 0
        assert "Node.every" in proc.stdout

    def test_explain_unknown_rule_errors(self):
        proc = self._run("--explain", "PL999")
        assert proc.returncode == 2
