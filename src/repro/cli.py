"""Command-line front-end: build and run deployments without writing code.

Five subcommands::

    repro-sim run   [topology/protocol/workload/adversary flags]
    repro-sim demo  [--scenario cdn|byzantine|quorum]
    repro-sim chaos [--scenario NAME]... [--seed N] [--list]
    repro-sim obs   [topology/traffic flags] [--out DIR]
    repro-sim lint  [-- protolint arguments]

``run`` builds a simulator deployment, drives a random read/write
workload and prints the run summary (counters, accepted-read
classification, auditor stats) as text or JSON.  ``demo`` runs a canned
scenario with a compromised replica and narrates what the protocol did
about it.  ``chaos`` plays named scenarios of
:mod:`repro.chaos.scenarios` over real sockets -- ``net_demo`` is the
fault-free write/read/audit cycle, ``shard_rebalance`` an online shard
move -- and prints their verdicts.  ``obs`` traces a socket cluster with
a lying slave; ``lint`` runs protolint.

Adversaries are specified as ``INDEX:KIND[:PARAM]``, e.g.::

    --adversary 0:always-lie --adversary 3:probabilistic:0.2
    --adversary 1:colluding:7 --adversary 2:unresponsive:0.5

``run`` exits 0 when its :class:`~repro.report.RunVerdict` passes (no
consistency-window violation, every wrongly accepted read detected by
the audit, the live masters converged, no ownership violation), 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Sequence

from repro.content.filesystem import FSGrep, FSRead, MemoryFileSystem
from repro.content.kvstore import KVAggregate, KVGet, KVPut, KeyValueStore
from repro.content.minidb import DBAggregate, DBSelect, MiniDB
from repro.core.adversary import (
    AdversaryStrategy,
    AlwaysLie,
    BrokenSignature,
    Colluding,
    ProbabilisticLie,
    Unresponsive,
)
from repro.core.config import ProtocolConfig
from repro.core.system import DeploymentSpec, ReplicationSystem
from repro.crypto.hashing import sha1_hex
from repro.report import judge_run, render_markdown_report
from repro.sim.failures import parse_crash_spec
from repro.workloads import (
    catalog_dataset,
    filesystem_dataset,
    publications_dataset,
)

_ADVERSARY_KINDS = ("always-lie", "probabilistic", "colluding",
                    "unresponsive", "broken-signature")


def parse_adversary(spec: str, rng: random.Random) -> tuple[int, AdversaryStrategy]:
    """Parse ``INDEX:KIND[:PARAM]`` into (slave index, strategy)."""
    parts = spec.split(":")
    if len(parts) < 2:
        raise argparse.ArgumentTypeError(
            f"adversary spec {spec!r} must look like INDEX:KIND[:PARAM]")
    try:
        index = int(parts[0])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"adversary index must be an integer, got {parts[0]!r}")
    kind = parts[1]
    param = parts[2] if len(parts) > 2 else None
    if kind == "always-lie":
        return index, AlwaysLie(rng=rng)
    if kind == "probabilistic":
        return index, ProbabilisticLie(float(param or 0.2), rng=rng)
    if kind == "colluding":
        return index, Colluding(group_seed=int(param or 1))
    if kind == "unresponsive":
        return index, Unresponsive(float(param or 1.0), rng=rng)
    if kind == "broken-signature":
        return index, BrokenSignature(float(param or 1.0), rng=rng)
    raise argparse.ArgumentTypeError(
        f"unknown adversary kind {kind!r}; expected one of "
        f"{_ADVERSARY_KINDS}")


def _store_factory(content: str, size: int, seed: int):
    rng = random.Random(seed)
    if content == "kv":
        items = {f"k{i:04d}": i for i in range(size)}
        return lambda: KeyValueStore(dict(items))
    if content == "catalog":
        items = catalog_dataset(size, rng)
        return lambda: KeyValueStore(dict(items))
    if content == "fs":
        files = filesystem_dataset(size, rng)
        return lambda: MemoryFileSystem(dict(files))
    if content == "db":
        ops = publications_dataset(size, rng)

        def factory() -> MiniDB:
            db = MiniDB()
            for op in ops:
                db.apply_write(op)
            return db

        return factory
    raise argparse.ArgumentTypeError(f"unknown content type {content!r}")


def _sample_read(content: str, size: int, rng: random.Random) -> Any:
    if content in ("kv",):
        return KVGet(key=f"k{rng.randrange(size):04d}")
    if content == "catalog":
        if rng.random() < 0.1:
            return KVAggregate(prefix="price/", func="avg")
        return KVGet(key=f"price/sku{rng.randrange(size):06d}")
    if content == "fs":
        if rng.random() < 0.2:
            return FSGrep(pattern="TODO", path="/src")
        return FSRead(path=f"/src/alpha/file{0:05d}.txt")
    if content == "db":
        if rng.random() < 0.3:
            return DBAggregate(table="papers", func="count",
                               group_by=("venue",))
        return DBSelect(table="papers",
                        where=(("year", ">=", 1995 + rng.randrange(9)),),
                        columns=("id", "title"), order_by="id", limit=20)
    raise ValueError(content)


def _sample_write(content: str, size: int, counter: int,
                  rng: random.Random) -> Any:
    if content in ("kv", "catalog"):
        return KVPut(key=f"k{rng.randrange(size):04d}",
                     value=f"update-{counter}")
    if content == "fs":
        from repro.content.filesystem import FSWrite

        return FSWrite(path=f"/updates/u{counter:04d}.txt",
                       content=f"TODO update {counter}")
    if content == "db":
        from repro.content.minidb import DBInsert

        return DBInsert.from_dicts("papers", [{
            "id": 10_000 + counter, "title": f"new paper {counter}",
            "year": 2003, "venue": "hotos",
            "author_id": rng.randrange(max(1, size // 4))}])
    raise ValueError(content)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Secure data replication over untrusted hosts "
                    "(HotOS 2003) -- simulation driver")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a custom deployment + workload")
    run.add_argument("--masters", type=int, default=3)
    run.add_argument("--slaves-per-master", type=int, default=4)
    run.add_argument("--clients", type=int, default=8)
    run.add_argument("--auditors", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--content", choices=("kv", "catalog", "fs", "db"),
                     default="kv")
    run.add_argument("--content-size", type=int, default=200,
                     help="items/files/rows in the initial content")
    run.add_argument("--reads", type=int, default=500)
    run.add_argument("--read-rate", type=float, default=20.0,
                     help="offered reads per second")
    run.add_argument("--write-every", type=int, default=0,
                     help="issue one write per N reads (0 = no writes)")
    run.add_argument("--double-check-probability", "-p", type=float,
                     default=0.05)
    run.add_argument("--max-latency", type=float, default=5.0)
    run.add_argument("--keepalive-interval", type=float, default=1.0)
    run.add_argument("--audit-fraction", type=float, default=1.0)
    run.add_argument("--read-quorum", type=int, default=1)
    run.add_argument("--adversary", action="append", default=[],
                     metavar="INDEX:KIND[:PARAM]",
                     help=f"kinds: {', '.join(_ADVERSARY_KINDS)}")
    run.add_argument("--crash", action="append", default=[],
                     metavar="NODE@T[,DURATION]",
                     help="benign crash schedule, e.g. master-01@20,10 "
                          "(crash 20s into the workload, recover after "
                          "10s; omit the duration to stay down)")
    run.add_argument("--churn-mtbf", type=float, default=0.0,
                     metavar="SECONDS",
                     help="drive every trusted server through an "
                          "exponential crash process with this mean time "
                          "between failures (requires --churn-mttr)")
    run.add_argument("--churn-mttr", type=float, default=0.0,
                     metavar="SECONDS",
                     help="mean time to repair for --churn-mtbf")
    run.add_argument("--json", action="store_true",
                     help="print the summary as JSON")
    run.add_argument("--report", metavar="FILE",
                     help="also write a markdown run report to FILE")

    demo = sub.add_parser("demo", help="run a canned narrated scenario")
    demo.add_argument("--scenario", choices=("cdn", "byzantine", "quorum"),
                      default="cdn")
    demo.add_argument("--seed", type=int, default=7)

    chaos = sub.add_parser(
        "chaos",
        help="play named scenarios over real sockets -- the Section 3.5 "
             "fault schedules, the fault-free net_demo cycle, an online "
             "shard move -- and check their obligations")
    chaos.add_argument("--scenario", action="append", default=[],
                       metavar="NAME",
                       help="scenario to run (repeatable; default: all)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--list", action="store_true",
                       help="list scenario names and exit")

    obs = sub.add_parser(
        "obs",
        help="boot a traced socket cluster with a lying slave, scrape "
             "spans over the admin plane and write exporter outputs plus "
             "a report checking the Section 3.4/3.5 invariants from "
             "spans alone")
    obs.add_argument("--seed", type=int, default=0)
    obs.add_argument("--masters", type=int, default=2)
    obs.add_argument("--slaves-per-master", type=int, default=2)
    obs.add_argument("--clients", type=int, default=2)
    obs.add_argument("--reads", type=int, default=12,
                     help="reads per client")
    obs.add_argument("--writes", type=int, default=3)
    obs.add_argument("--sample-rate", type=float, default=1.0)
    obs.add_argument("--out", default="obs-out", metavar="DIR",
                     help="directory for spans.jsonl, trace.json, "
                          "metrics.prom and report.json")
    obs.add_argument("--settle", type=float, default=1.0)

    lint = sub.add_parser(
        "lint",
        help="run protolint (the protocol-invariant linter) over the "
             "repository; extra arguments pass through, e.g. "
             "`repro-sim lint -- --format sarif src/`")
    lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                      help="arguments forwarded to protolint (default: "
                           "lint src/ tools/ benchmarks/ examples/ of "
                           "the enclosing repository)")
    return parser


def cmd_run(args: argparse.Namespace) -> int:
    adversary_rng = random.Random(args.seed + 1)
    adversaries = dict(
        parse_adversary(spec, adversary_rng) for spec in args.adversary)
    protocol = ProtocolConfig(
        double_check_probability=args.double_check_probability,
        max_latency=args.max_latency,
        keepalive_interval=args.keepalive_interval,
        audit_fraction=args.audit_fraction,
        read_quorum=args.read_quorum,
    )
    spec = DeploymentSpec(
        num_masters=args.masters,
        slaves_per_master=args.slaves_per_master,
        num_clients=args.clients,
        num_auditors=args.auditors,
        seed=args.seed,
        protocol=protocol,
        store_factory=_store_factory(args.content, args.content_size,
                                     args.seed),
        adversaries=adversaries,
    )
    system = ReplicationSystem.build(spec)
    system.start()

    rng = random.Random(args.seed + 2)
    t = system.now
    writes = 0
    for i in range(args.reads):
        t += 1.0 / args.read_rate
        client = system.clients[i % args.clients]
        system.schedule_op(client, t,
                           _sample_read(args.content, args.content_size,
                                        rng))
        if args.write_every and (i + 1) % args.write_every == 0:
            writes += 1
            system.schedule_op(
                system.clients[0], t,
                _sample_write(args.content, args.content_size, writes,
                              rng))
    if (args.churn_mtbf > 0) != (args.churn_mttr > 0):
        raise SystemExit("--churn-mtbf and --churn-mttr go together")
    if args.crash:
        nodes = {node.node_id: node
                 for node in (*system.masters, *system.auditors,
                              *system.slaves)}
        try:
            system.failures.apply_script(
                [parse_crash_spec(spec) for spec in args.crash], nodes)
        except (KeyError, ValueError) as exc:
            raise SystemExit(f"bad --crash schedule: {exc}")
    if args.churn_mtbf > 0:
        # Benign churn hits the trusted servers (the paper's crash-fault
        # set); Byzantine slave behaviour stays with --adversary.
        for node in (*system.masters, *system.auditors):
            system.failures.exponential_churn(
                node, args.churn_mtbf, args.churn_mttr, until=t)

    drain = 60.0 + writes * protocol.max_latency
    system.run_for(t - system.now + drain)

    verdict = judge_run(system)
    if args.json:
        print(json.dumps(verdict.summary, indent=2, default=str))
    else:
        _print_summary(verdict.summary)
    if getattr(args, "report", None):
        with open(args.report, "w") as handle:
            handle.write(render_markdown_report(system, verdict=verdict))
        print(f"report written to {args.report}")
    return 0 if verdict.passed else 1


def _print_summary(summary: dict) -> None:
    counters = summary["counters"]
    classification = summary["classification"]

    def c(name: str) -> int:
        return int(counters.get(name, 0))

    print(f"simulated time          : {summary['time']:.1f} s")
    print(f"reads accepted          : {c('reads_accepted')}")
    print(f"reads failed            : {c('reads_failed')}")
    print(f"writes committed        : {c('writes_committed')}")
    print(f"double-checks served    : {c('double_checks_served')}")
    print(f"lies served             : {c('slave_lies_served')}")
    print(f"immediate detections    : {c('immediate_detections')}")
    print(f"audit detections        : {summary['auditor']['detections']}")
    print(f"slaves excluded         : {c('exclusions')}")
    print(f"wrong answers accepted  : {classification['accepted_wrong']} "
          f"of {classification['accepted_total']}")
    print(f"window violations       : "
          f"{summary['consistency_window_violations']}")
    versions = ", ".join(f"{node} {version}" for node, version
                         in summary["versions"].items())
    print(f"master versions         : {versions}"
          + ("" if summary["masters_converged"] else " (DIVERGED)"))
    problems = summary["ownership_violations"]
    print(f"slave ownership         : "
          + ("one live master each, one auditor per client"
             if not problems
             else f"{len(problems)} violations: " + "; ".join(problems[:4])))
    per_auditor = Counter(summary["client_auditors"].values())
    print("clients per auditor     : "
          + ", ".join(f"{a} {n}" for a, n in sorted(per_auditor.items())))
    print(f"auditor coverage        : "
          f"{summary['auditor']['pledges_audited']}/"
          f"{summary['auditor']['pledges_received']} pledges, "
          f"cache hit rate {summary['auditor']['cache_hit_rate']:.2f}")
    failures = summary.get("failures", {})
    if failures.get("crashes") or failures.get("recoveries"):
        print(f"benign failures         : {failures['crashes']} crashes, "
              f"{failures['recoveries']} recoveries")
        for event in failures["events"][:12]:
            print(f"    {event['at']:>8.1f}s  {event['kind']:<8} "
                  f"{event['node']}")
        if len(failures["events"]) > 12:
            print(f"    ... {len(failures['events']) - 12} more events")


def cmd_demo(args: argparse.Namespace) -> int:
    presets = {
        "cdn": dict(adversary=["2:probabilistic:0.3"], reads=400,
                    content="catalog", content_size=150,
                    double_check_probability=0.05, read_quorum=1),
        "byzantine": dict(adversary=["0:always-lie"], reads=200,
                          content="kv", content_size=100,
                          double_check_probability=0.2, read_quorum=1),
        "quorum": dict(adversary=["0:colluding:5", "1:colluding:5"],
                       reads=200, content="kv", content_size=100,
                       double_check_probability=0.0, read_quorum=2),
    }
    preset = presets[args.scenario]
    print(f"scenario: {args.scenario}  "
          f"(adversaries: {preset['adversary']})\n")
    namespace = build_parser().parse_args(
        ["run", "--seed", str(args.seed),
         "--content", preset["content"],
         "--content-size", str(preset["content_size"]),
         "--reads", str(preset["reads"]),
         "-p", str(preset["double_check_probability"]),
         "--read-quorum", str(preset["read_quorum"]),
         "--slaves-per-master", "3"]
        + [flag for spec in preset["adversary"]
           for flag in ("--adversary", spec)])
    return cmd_run(namespace)


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import SCENARIOS, run_scenario_sync

    if args.list:
        for name in sorted(SCENARIOS):
            print(name)
        return 0
    names = args.scenario or sorted(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise SystemExit(f"unknown scenario(s) {unknown}; "
                         f"known: {sorted(SCENARIOS)}")
    verdicts = [run_scenario_sync(name, args.seed) for name in names]
    print(json.dumps([verdict.to_json() for verdict in verdicts],
                     indent=2, default=str))
    failed = [v.scenario for v in verdicts if not v.passed]
    if failed:
        print(f"FAILED: {failed}", file=sys.stderr)
    return 0 if not failed else 1


def cmd_obs(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from repro.net.deploy import (
        LocalCluster,
        NetDeploymentSpec,
        fast_protocol_config,
    )
    from repro.obs.admin import ObsDumpRequest, StatusRequest, span_from_wire
    from repro.obs.analyze import run_report
    from repro.obs.export import chrome_trace, prometheus_text, spans_jsonl
    from repro.obs.spans import Span

    async def drive() -> tuple[list[Span], dict[str, Any], Any]:
        config = fast_protocol_config()
        # The lying pair sits under the master client-00 deterministically
        # homes to (the same hash rule the client uses), so the immediate-
        # discovery path of Section 3.5 is guaranteed to fire; the other
        # client never double-checks, exercising the audit path.
        liar_master = int(sha1_hex("client-00")[:4], 16) % args.masters
        liars = {args.slaves_per_master * liar_master + i: AlwaysLie()
                 for i in range(args.slaves_per_master)}
        spec = NetDeploymentSpec(
            num_masters=args.masters,
            slaves_per_master=args.slaves_per_master,
            num_clients=args.clients,
            seed=args.seed, protocol=config,
            adversaries=liars,
            client_double_check_overrides={0: 1.0},
            obs_enabled=True, obs_sample_rate=args.sample_rate)
        cluster = await LocalCluster.launch(spec, settle=args.settle)
        try:
            for i in range(args.writes):
                await cluster.write(cluster.clients[0],
                                    KVPut(key=f"k{i}", value=f"v{i}"),
                                    timeout=20.0)
            await asyncio.sleep(config.max_latency)
            for i in range(args.reads):
                for client in cluster.clients:
                    try:
                        await cluster.read(client,
                                           KVGet(key=f"k{i % args.writes}"),
                                           timeout=10.0)
                    except (TimeoutError, asyncio.TimeoutError):
                        pass
            # Let the auditor's deliberate lag expire and audits drain.
            await asyncio.sleep(2 * (config.max_latency
                                     + config.audit_grace) + 0.5)
            spans: list[Span] = []
            health: dict[str, Any] = {}
            for node_id in sorted(cluster.servers):
                dump = await cluster.scrape(node_id, ObsDumpRequest())
                spans.extend(span_from_wire(wire) for wire in dump.spans)
                probe = await cluster.scrape(node_id, StatusRequest())
                health[node_id] = {
                    "spans_buffered": probe.spans_buffered,
                    "spans_dropped": probe.spans_dropped,
                    "contexts_received": probe.contexts_received,
                }
            report = run_report(spans, config.max_latency)
            report["section_3_5"] = {
                "immediate_detections":
                    cluster.metrics.count("immediate_detections"),
                "exclusions": cluster.metrics.count("exclusions"),
                "exclusion_spans": sum(
                    1 for s in spans if s.op == "master.exclusion"),
                "contexts_received":
                    sum(h["contexts_received"] for h in health.values()),
                "ok": cluster.metrics.count("exclusions") >= 1 and any(
                    s.op == "master.exclusion" for s in spans),
            }
            report["health"] = health
            report["ok"] = bool(report["ok"]
                                and report["section_3_5"]["ok"])
            return spans, report, cluster.metrics
        finally:
            await cluster.aclose()

    spans, report, metrics = asyncio.run(drive())
    os.makedirs(args.out, exist_ok=True)

    def emit(name: str, text: str) -> None:
        path = os.path.join(args.out, name)
        with open(path, "w") as handle:
            handle.write(text)
        print(f"wrote {path}")

    emit("spans.jsonl", spans_jsonl(spans))
    emit("trace.json", json.dumps(chrome_trace(spans), indent=2))
    emit("metrics.prom", prometheus_text(metrics))
    emit("report.json", json.dumps(report, indent=2, default=str))
    print(f"spans scraped           : {len(spans)}")
    print(f"audit lag ok (S3.4)     : {report['audit_lag']['ok']}")
    print(f"detections ok (S3.4)    : {report['detection']['ok']}")
    print(f"exclusions ok (S3.5)    : {report['section_3_5']['ok']}")
    return 0 if report["ok"] else 1


def cmd_lint(args: argparse.Namespace) -> int:
    """Alias for ``python -m tools.protolint``: ships the linter with
    the installed package.

    ``tools/`` is repository tooling rather than part of the ``repro``
    wheel, so locate it relative to a checkout: walk up from the CWD
    (and from this file, for editable installs) until a directory
    containing ``tools/protolint`` appears, put it on ``sys.path`` and
    delegate.  Default paths lint the whole checkout.
    """
    candidates = [Path.cwd(), *Path.cwd().parents,
                  Path(__file__).resolve(), *Path(__file__).resolve().parents]
    root = next((base for base in candidates
                 if (base / "tools" / "protolint" / "cli.py").is_file()),
                None)
    if root is None:
        print("repro-sim lint: no tools/protolint found above the current "
              "directory; run from a repository checkout", file=sys.stderr)
        return 2
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from tools.protolint.cli import main as protolint_main

    forwarded = [arg for arg in args.lint_args if arg != "--"]
    if not forwarded:
        forwarded = [str(root / part)
                     for part in ("src", "tools", "benchmarks", "examples")
                     if (root / part).is_dir()]
    return protolint_main(forwarded)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "demo":
        return cmd_demo(args)
    if args.command == "chaos":
        return cmd_chaos(args)
    if args.command == "obs":
        return cmd_obs(args)
    if args.command == "lint":
        return cmd_lint(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
