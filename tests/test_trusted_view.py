"""Unit tests for :class:`repro.core.view.TrustedView`, with no simulator.

The view is the trusted set's replicated decisions -- slave owners,
client auditors, exclusions -- as one value: each delivered notice
returns a new one, and every decision is a pure read of it.
"""

from __future__ import annotations

import ast
import pathlib
import random

import repro
from repro.core.view import TrustedView, _client_digest

MASTERS = ("master-00", "master-01", "master-02")
AUDITORS = ("zz-auditor-00", "zz-auditor-01", "zz-auditor-02")


def build(slaves_per_master=3, auditors=AUDITORS):
    """Every master enrolls its slaves, in rank order."""
    pairs = [(master, f"slave-{m:02d}-{s:02d}")
             for m, master in enumerate(MASTERS)
             for s in range(slaves_per_master)]
    return TrustedView(alive=(*MASTERS, *auditors)).enroll(pairs, auditors)


def client_hashed_to(index, auditors=AUDITORS):
    """A client id whose hash auditor is ``auditors[index]``."""
    return next(f"client-{i:02d}" for i in range(1000)
                if _client_digest(f"client-{i:02d}") % len(auditors)
                == index)


class TestOwnership:
    def test_a_home_that_is_up_owns_its_slaves(self):
        view = build()
        assert view.owners == {f"slave-{m:02d}-{s:02d}": master
                               for m, master in enumerate(MASTERS)
                               for s in range(3)}

    def test_a_down_homes_slaves_go_round_the_live_homes(self):
        view = build().down("master-01")
        live = ["master-00", "master-02"]
        for i in range(3):
            assert view.owners[f"slave-01-{i:02d}"] == live[i % len(live)]
        assert view.slaves_of("master-01") == []
        assert view.slaves_of("master-00") == [
            "slave-00-00", "slave-00-01", "slave-00-02",
            "slave-01-00", "slave-01-02"]

    def test_with_no_master_up_each_slave_names_its_home(self):
        view = build()
        for master in MASTERS:
            view = view.down(master)
        assert view.owners == build().owners

    def test_a_home_that_comes_back_takes_its_slaves_back(self):
        view = build()
        assert view.down("master-01").up("master-01") == view
        assert view.down("master-01").up("master-01").slaves_of(
            "master-01") == ["slave-01-00", "slave-01-01", "slave-01-02"]

    def test_an_auditor_down_moves_no_slave(self):
        assert build().down("zz-auditor-00").owners == build().owners

    def test_an_excluded_slave_is_served_by_nobody(self):
        view = build().exclude("slave-00-01")
        assert view.owners["slave-00-01"] == "master-00"
        assert view.slaves_of("master-00") == ["slave-00-00",
                                               "slave-00-02"]


class TestAuditors:
    def test_the_hash_auditor_while_it_is_up(self):
        view = build()
        for index, auditor in enumerate(AUDITORS):
            assert view.auditor_for(client_hashed_to(index)) == auditor

    def test_failover_to_the_auditors_up_by_the_same_digest(self):
        client = client_hashed_to(1)
        view = build().down("zz-auditor-01")
        alive = ["zz-auditor-00", "zz-auditor-02"]
        assert view.auditor_for(client) == \
            alive[_client_digest(client) % len(alive)]
        assert view.up("zz-auditor-01").auditor_for(client) == \
            "zz-auditor-01"

    def test_none_up_keeps_the_hash_auditor(self):
        view = build()
        for auditor in AUDITORS:
            view = view.down(auditor)
        for index, auditor in enumerate(AUDITORS):
            assert view.auditor_for(client_hashed_to(index)) == auditor

    def test_no_auditor_enrolled_names_none(self):
        assert build(auditors=()).auditor_for("client-00") == ""


class TestNotices:
    def test_down_and_up_are_idempotent(self):
        view = build()
        assert view.down("master-01") == view.down("master-01").down(
            "master-01")
        assert view.up("master-01") == view
        assert view.exclude("slave-00-00") == \
            view.exclude("slave-00-00").exclude("slave-00-00")

    def test_up_keeps_rank_order(self):
        view = build().down("master-00").up("master-00")
        assert view.alive == (*MASTERS, *AUDITORS)

    def test_slaves_of_keeps_enrollment_order(self):
        pairs = [("master-00", "slave-b"), ("master-00", "slave-a"),
                 ("master-00", "slave-c")]
        view = TrustedView(alive=MASTERS).enroll(pairs)
        assert view.slaves_of("master-00") == ["slave-b", "slave-a",
                                               "slave-c"]
        later = view.enroll([("master-00", "slave-0")])
        assert later.slaves_of("master-00") == ["slave-b", "slave-a",
                                                "slave-c", "slave-0"]

    def test_the_same_notices_in_the_same_order_give_equal_views(self):
        members = (*MASTERS, *AUDITORS)
        rng = random.Random(7)
        notices = []
        for _ in range(200):
            kind = rng.choice(("down", "up", "exclude"))
            notices.append((kind, rng.choice(members) if kind != "exclude"
                            else f"slave-{rng.randrange(3):02d}-00"))

        def fold():
            view = build()
            for kind, subject in notices:
                view = getattr(view, kind)(subject)
            return view

        first, second = fold(), fold()
        assert first == second and first is not second
        assert first.owners == second.owners
        assert [first.auditor_for(f"client-{i:02d}") for i in range(20)] \
            == [second.auditor_for(f"client-{i:02d}") for i in range(20)]


def test_only_the_broadcast_engine_reads_alive_view():
    """``alive_view`` is the engine's routing list, edited by a sequencer
    a call before it delivers the notice: a host that read it would act
    on a view no other member holds yet.  Hosts read ``view``."""
    src = pathlib.Path(repro.__file__).parent
    readers = sorted(
        f"{path.relative_to(src)}:{node.lineno}"
        for path in src.rglob("*.py")
        if path.relative_to(src).parts[0] != "broadcast"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "alive_view")
    assert readers == []
