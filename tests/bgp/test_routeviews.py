"""Tests for the collector fleet."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.messages import BGPUpdate, UpdateArchive, UpdateKind
from repro.bgp.routeviews import (
    COLLECTOR_SERVERS,
    TOTAL_SESSIONS,
    CollectorFleet,
    PeeringSession,
    default_sessions,
)
from repro.net.addressing import Prefix

P1 = Prefix.parse("10.1.0.0/24")


def make_fleet(seed=1):
    rng = random.Random(seed)
    archive = UpdateArchive(table_size=1000)
    sessions = default_sessions([7000, 7001, 7002], rng)
    return CollectorFleet(sessions, archive, rng), archive


class TestSessions:
    def test_default_session_count(self):
        sessions = default_sessions([7000], random.Random(0))
        assert len(sessions) == TOTAL_SESSIONS

    def test_sessions_spread_over_servers(self):
        sessions = default_sessions([7000], random.Random(0))
        servers = {s.server for s in sessions}
        assert servers == set(COLLECTOR_SERVERS)

    def test_unknown_server_rejected(self):
        with pytest.raises(ValueError):
            PeeringSession(session_id=0, server="bogus", peer_asn=7000)

    def test_needs_transits(self):
        with pytest.raises(ValueError):
            default_sessions([], random.Random(0))


class TestSeeding:
    def test_seed_announces_on_all_sessions(self):
        fleet, archive = make_fleet()
        fleet.seed_prefix(P1, [7000, 7001], [0.7, 0.3], timestamp=0.0)
        assert len(fleet.sessions_with_route(P1)) == TOTAL_SESSIONS
        assert len(archive) == TOTAL_SESSIONS
        assert P1 in fleet.tracked_prefixes()

    def test_limited_visibility(self):
        fleet, _ = make_fleet()
        fleet.seed_prefix(P1, [7000], [1.0], timestamp=0.0, visible_sessions=10)
        assert len(fleet.sessions_with_route(P1)) == 10

    def test_sessions_via_partition(self):
        fleet, _ = make_fleet()
        fleet.seed_prefix(P1, [7000, 7001], [0.5, 0.5], timestamp=0.0)
        via_a = set(fleet.sessions_via(P1, 7000))
        via_b = set(fleet.sessions_via(P1, 7001))
        assert via_a.isdisjoint(via_b)
        assert len(via_a) + len(via_b) == TOTAL_SESSIONS

    def test_attachment_list_validation(self):
        fleet, _ = make_fleet()
        with pytest.raises(ValueError):
            fleet.seed_prefix(P1, [7000], [0.5, 0.5], timestamp=0.0)
        with pytest.raises(ValueError):
            fleet.seed_prefix(P1, [], [], timestamp=0.0)


class TestWithdrawAnnounce:
    def test_withdraw_removes_routes(self):
        fleet, archive = make_fleet()
        fleet.seed_prefix(P1, [7000], [1.0], timestamp=0.0)
        sessions = fleet.sessions_with_route(P1)[:5]
        emitted = fleet.withdraw(P1, sessions, timestamp=100.0)
        assert emitted == 5
        assert len(fleet.sessions_with_route(P1)) == TOTAL_SESSIONS - 5

    def test_withdraw_idempotent_per_session(self):
        fleet, _ = make_fleet()
        fleet.seed_prefix(P1, [7000], [1.0], timestamp=0.0)
        sid = fleet.sessions_with_route(P1)[0]
        assert fleet.withdraw(P1, [sid], timestamp=10.0) == 1
        assert fleet.withdraw(P1, [sid], timestamp=20.0) == 0

    def test_flapping_emits_extra_messages(self):
        fleet, archive = make_fleet()
        fleet.seed_prefix(P1, [7000], [1.0], timestamp=0.0)
        sid = fleet.sessions_with_route(P1)[0]
        emitted = fleet.withdraw(P1, [sid], timestamp=10.0, flap_factor=3.0)
        assert emitted == 3

    def test_announce_restores(self):
        fleet, _ = make_fleet()
        fleet.seed_prefix(P1, [7000], [1.0], timestamp=0.0)
        sessions = fleet.sessions_with_route(P1)[:5]
        fleet.withdraw(P1, sessions, timestamp=10.0)
        fleet.announce(P1, sessions, timestamp=100.0)
        assert len(fleet.sessions_with_route(P1)) == TOTAL_SESSIONS


class TestReset:
    def test_reset_reannounces_and_records_storm(self):
        fleet, archive = make_fleet()
        fleet.seed_prefix(P1, [7000], [1.0], timestamp=0.0)
        before = len(archive)
        emitted = fleet.session_reset("eqix", timestamp=500.0)
        assert emitted > 0
        assert len(archive) == before + emitted
        stats = archive.global_stats()
        assert stats[0].unique_prefixes_announced >= archive.table_size - 1

    def test_reset_unknown_server(self):
        fleet, _ = make_fleet()
        with pytest.raises(ValueError):
            fleet.session_reset("bogus", timestamp=0.0)

    def test_fleet_needs_sessions(self):
        with pytest.raises(ValueError):
            CollectorFleet([], UpdateArchive(), random.Random(0))


# -- order equivalence against a full-scan reference ---------------------------


class _ScanReference:
    """The collector as a single insertion-ordered ``(sid, prefix)`` log.

    Every query is a full scan of the log filtered by prefix, which is
    the order the fleet's session lists must reproduce: the churn
    generator feeds them to ``rng.choice`` / ``rng.sample`` / slicing.
    It draws from its own rng in the same order as the fleet, so the
    updates it emits must match the fleet's exactly.
    """

    def __init__(self, sessions, seed):
        self.sessions = list(sessions)
        self.archive = UpdateArchive(table_size=1000)
        self.rng = random.Random(seed)
        self.routes = {}  # (sid, prefix) -> route present?
        self.transit = {}  # (sid, prefix) -> transit AS
        self.tracked = set()

    def _add(self, t, sid, prefix, kind, path=()):
        self.archive.add(BGPUpdate(t, sid, prefix, kind, path))

    def seed_prefix(self, prefix, asns, weights, t, visible_sessions=None):
        self.tracked.add(prefix)
        sessions = self.sessions
        if visible_sessions is not None and visible_sessions < len(sessions):
            sessions = self.rng.sample(self.sessions, visible_sessions)
        for s in sessions:
            transit = self.rng.choices(list(asns), weights=list(weights))[0]
            self.transit[(s.session_id, prefix)] = transit
            self.routes[(s.session_id, prefix)] = True
            self._add(t, s.session_id, prefix, UpdateKind.ANNOUNCE,
                      (s.peer_asn, transit))

    def withdraw(self, prefix, sids, t0, flap_factor):
        for sid in sids:
            if not self.routes.get((sid, prefix), False):
                continue
            self.routes[(sid, prefix)] = False
            t = t0
            for flap in range(max(1, round(flap_factor))):
                if flap > 0:
                    self._add(t, sid, prefix, UpdateKind.ANNOUNCE, (sid,))
                t += self.rng.uniform(1.0, 30.0)
                self._add(t, sid, prefix, UpdateKind.WITHDRAW)

    def announce(self, prefix, sids, t, spread):
        for sid in sids:
            self.routes[(sid, prefix)] = True
            self._add(t + self.rng.uniform(0.0, spread), sid, prefix,
                      UpdateKind.ANNOUNCE, (sid,))

    def session_reset(self, server, t):
        for s in self.sessions:
            if s.server != server:
                continue
            for prefix in self.tracked:
                if self.routes.get((s.session_id, prefix), False):
                    self._add(t + self.rng.uniform(0.0, 300.0), s.session_id,
                              prefix, UpdateKind.ANNOUNCE, (s.peer_asn,))
        self.archive.note_untracked_announcements(
            self.archive.hour_of(t), self.archive.table_size - len(self.tracked)
        )

    def sessions_with_route(self, prefix):
        return [sid for (sid, p), up in self.routes.items() if p == prefix and up]

    def sessions_via(self, prefix, asn):
        return [sid for (sid, p), via in self.transit.items()
                if p == prefix and via == asn]


_POOL = [Prefix.parse(f"10.{i}.0.0/24") for i in range(4)]
_TRANSITS = [7000, 7001, 7002]
_N_SESSIONS = 12
_sids = st.lists(st.integers(0, _N_SESSIONS + 2), max_size=8)  # some unknown
_ops = st.one_of(
    st.tuples(st.just("seed"), st.integers(0, 2),
              st.one_of(st.none(), st.integers(1, _N_SESSIONS + 1)),
              st.integers(1, 3)),
    st.tuples(st.just("withdraw"), st.integers(0, 3), _sids,
              st.sampled_from([1.0, 2.0, 3.0])),
    st.tuples(st.just("announce"), st.integers(0, 3), _sids,
              st.sampled_from([0.0, 120.0])),
    st.tuples(st.just("reset"), st.sampled_from(COLLECTOR_SERVERS)),
)


class TestOrderEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**16), ops=st.lists(_ops, max_size=25))
    def test_queries_and_updates_match_full_scan(self, seed, ops):
        # Prefix 3 is never seeded: announcing on it creates routes that
        # the fleet's per-prefix lists must still order by first insertion.
        sessions = default_sessions(_TRANSITS, random.Random(seed),
                                    total=_N_SESSIONS)
        fleet_rng = random.Random(seed + 1)
        fleet = CollectorFleet(sessions, UpdateArchive(table_size=1000),
                               fleet_rng)
        ref = _ScanReference(sessions, seed + 1)
        t = 0.0
        for op in ops:
            t += 500.0
            if op[0] == "seed":
                _, pi, visible, n_att = op
                asns, weights = _TRANSITS[:n_att], [1.0] * n_att
                fleet.seed_prefix(_POOL[pi], asns, weights, t, visible)
                ref.seed_prefix(_POOL[pi], asns, weights, t, visible)
            elif op[0] == "withdraw":
                _, pi, sids, flaps = op
                fleet.withdraw(_POOL[pi], sids, t, flap_factor=flaps)
                ref.withdraw(_POOL[pi], sids, t, flaps)
            elif op[0] == "announce":
                _, pi, sids, spread = op
                fleet.announce(_POOL[pi], sids, t, spread_seconds=spread)
                ref.announce(_POOL[pi], sids, t, spread)
            else:
                fleet.session_reset(op[1], t)
                ref.session_reset(op[1], t)
            for prefix in _POOL:
                assert (fleet.sessions_with_route(prefix)
                        == ref.sessions_with_route(prefix))
                for asn in _TRANSITS:
                    assert (fleet.sessions_via(prefix, asn)
                            == ref.sessions_via(prefix, asn))
            assert fleet.archive.updates == ref.archive.updates
        assert fleet.archive.global_stats() == ref.archive.global_stats()
