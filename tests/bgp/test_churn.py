"""Tests for churn generation and instability events."""

import random

import pytest

from repro.bgp.churn import (
    ChurnConfig,
    ChurnGenerator,
    InstabilityEvent,
    failure_weight_by_prefix_hour,
)
from repro.bgp.messages import UpdateArchive, UpdateKind
from repro.bgp.routeviews import CollectorFleet, default_sessions
from repro.net.addressing import Prefix

P1 = Prefix.parse("10.1.0.0/24")
P2 = Prefix.parse("10.2.0.0/24")


def make_generator(hours=168, config=None, seed=3):
    rng = random.Random(seed)
    archive = UpdateArchive(table_size=10_000)
    fleet = CollectorFleet(default_sessions([7000, 7001], rng), archive, rng)
    fleet.seed_prefix(P1, [7000, 7001], [0.7, 0.3], timestamp=0.0)
    fleet.seed_prefix(P2, [7000], [1.0], timestamp=0.0)
    generator = ChurnGenerator(
        fleet, config or ChurnConfig(), rng, hours
    )
    return generator, fleet, archive


ATTACHMENTS = {P1: [(7000, 0.7), (7001, 0.3)], P2: [(7000, 1.0)]}


class TestInstabilityEvent:
    def test_hour_overlap(self):
        event = InstabilityEvent(
            prefix=P1, start=1800.0, duration=3600.0,
            path_fail_fraction=1.0, withdrawing_sessions=70, kind="severe",
        )
        assert event.overlaps_hour(0) and event.overlaps_hour(1)
        assert not event.overlaps_hour(2)

    def test_failure_weight_scales_with_overlap(self):
        event = InstabilityEvent(
            prefix=P1, start=0.0, duration=1800.0,
            path_fail_fraction=0.8, withdrawing_sessions=70, kind="severe",
        )
        assert event.failure_weight_in_hour(0) == pytest.approx(0.4)
        assert event.failure_weight_in_hour(1) == 0.0


class TestGenerator:
    def test_run_produces_events_and_updates(self):
        config = ChurnConfig(
            severe_events_per_prefix=5.0, localized_events_per_prefix=3.0
        )
        generator, fleet, archive = make_generator(config=config)
        events = generator.run(ATTACHMENTS)
        assert events == sorted(events, key=lambda e: e.start)
        assert any(e.kind == "severe" for e in events)
        withdrawals = [
            u for u in archive.updates if u.kind is UpdateKind.WITHDRAW
        ]
        assert withdrawals

    def test_severe_events_withdraw_most_sessions(self):
        config = ChurnConfig(
            severe_events_per_prefix=10.0, localized_events_per_prefix=0.0,
            collector_resets=0,
        )
        generator, fleet, _ = make_generator(config=config)
        events = generator.run(ATTACHMENTS)
        severe = [e for e in events if e.kind == "severe"]
        assert severe
        for event in severe:
            assert event.withdrawing_sessions >= 60

    def test_localized_events_withdraw_few_sessions(self):
        config = ChurnConfig(
            severe_events_per_prefix=0.0, localized_events_per_prefix=10.0,
            collector_resets=0,
        )
        generator, fleet, _ = make_generator(config=config)
        events = generator.run(ATTACHMENTS)
        localized = [e for e in events if e.kind == "localized"]
        assert localized
        for event in localized:
            assert event.withdrawing_sessions <= 4
            assert event.prefix == P1  # single-homed P2 has no localized events

    def test_forced_events_realized(self):
        generator, fleet, archive = make_generator(
            config=ChurnConfig(
                severe_events_per_prefix=0.0, localized_events_per_prefix=0.0,
                collector_resets=0, background_rate=0.0,
            )
        )
        forced = InstabilityEvent(
            prefix=P1, start=7200.0, duration=1800.0,
            path_fail_fraction=0.95, withdrawing_sessions=70, kind="severe",
        )
        events = generator.run(ATTACHMENTS, forced_events=[forced])
        assert forced in events
        stats = archive.hourly_stats()
        assert stats[(P1, 2)].withdrawing_neighbors >= 60

    def test_rates_scale_with_duration(self):
        config = ChurnConfig(severe_events_per_prefix=30.0,
                             localized_events_per_prefix=0.0,
                             collector_resets=0, background_rate=0.0)
        short, _, _ = make_generator(hours=74, config=config, seed=5)
        long_, _, _ = make_generator(hours=744, config=config, seed=5)
        n_short = len(short.run(ATTACHMENTS))
        n_long = len(long_.run(ATTACHMENTS))
        assert n_long > 3 * n_short

    def test_hours_validated(self):
        rng = random.Random(0)
        archive = UpdateArchive()
        fleet = CollectorFleet(default_sessions([7000], rng), archive, rng)
        with pytest.raises(ValueError):
            ChurnGenerator(fleet, ChurnConfig(), rng, 0)


class TestFailureWeights:
    def test_weights_fold_and_saturate(self):
        events = [
            InstabilityEvent(P1, 0.0, 3600.0, 0.8, 70, "severe"),
            InstabilityEvent(P1, 0.0, 3600.0, 0.8, 70, "severe"),
        ]
        weights = failure_weight_by_prefix_hour(events, hours=2)
        assert weights[(P1, 0)] == 1.0  # saturated
        assert (P1, 1) not in weights

    def test_weights_respect_bounds(self):
        events = [InstabilityEvent(P1, 3000.0, 10_000.0, 0.5, 70, "severe")]
        weights = failure_weight_by_prefix_hour(events, hours=2)
        assert set(weights) <= {(P1, 0), (P1, 1)}
        assert all(0.0 < w <= 1.0 for w in weights.values())


class TestRouteLookupCost:
    def test_month_of_churn_does_not_scan_the_fleet(self, monkeypatch):
        """Each session-list lookup costs a bounded number of prefix
        comparisons, however many (session, prefix) routes the fleet holds.

        A lookup that scans every route compares ``prefix`` against all
        160 x 73 keys; the counting wrapper fails the test as soon as the
        comparisons outrun the lookups, without waiting for the month.
        """
        rng = random.Random(11)
        fleet = CollectorFleet(
            default_sessions([7000, 7001, 7002], rng),
            UpdateArchive(table_size=10_000), rng,
        )
        attachments = {}
        for i in range(160):
            prefix = Prefix(network=(10 << 24) | (i << 8), length=24)
            pairs = [(7000, 0.6), (7001 + i % 2, 0.4)]
            fleet.seed_prefix(prefix, [a for a, _ in pairs],
                              [w for _, w in pairs], timestamp=0.0)
            attachments[prefix] = pairs

        lookups = 0
        comparisons = 0
        per_lookup, slack = 4, 1000

        def counted(name):
            original = getattr(CollectorFleet, name)

            def wrapper(self, *args, **kwargs):
                nonlocal lookups
                lookups += 1
                return original(self, *args, **kwargs)

            return wrapper

        original_eq = Prefix.__eq__

        def counting_eq(self, other):
            nonlocal comparisons
            comparisons += 1
            assert comparisons <= per_lookup * lookups + slack, (
                f"{comparisons} prefix comparisons for {lookups} route lookups"
            )
            return original_eq(self, other)

        with monkeypatch.context() as patch:
            for name in ("sessions_with_route", "sessions_via"):
                patch.setattr(CollectorFleet, name, counted(name))
            patch.setattr(Prefix, "__eq__", counting_eq)
            events = ChurnGenerator(fleet, ChurnConfig(), rng, 744).run(
                attachments
            )

        assert events
        assert lookups > 10_000  # the month really exercised the lookups
        assert comparisons <= per_lookup * lookups + slack
