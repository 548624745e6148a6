"""Scenario engine: determinism, standing invariants, CLI exit codes."""

import random
import statistics
from math import ceil, floor

import pytest

from repro.cli import main
from repro.service.scenarios import (
    SCENARIOS,
    Checkpoint,
    ScenarioRunner,
    ScenarioSpec,
    Traffic,
    _tid_counter,
    percentile,
    run_scenario,
    zipf_index,
)


def _digests(report):
    return report.event_trace_digest, report.decision_digest


class TestDeterminism:
    def test_chaos_run_replays_exactly(self):
        """Chaos mid-scenario does not break same-seed reproducibility."""
        first = run_scenario("chaos-storm", seed=3, mode="manual")
        second = run_scenario("chaos-storm", seed=3, mode="manual")
        assert first.ok, first.violations()
        assert _digests(first) == _digests(second)
        assert first.faults_injected == second.faults_injected > 0

    def test_different_seed_differs(self):
        a = run_scenario("chaos-storm", seed=3, mode="manual")
        b = run_scenario("chaos-storm", seed=4, mode="manual")
        assert a.event_trace_digest != b.event_trace_digest


class TestStandingInvariants:
    def test_stale_cert_adversary_denied_and_replay_proof(self):
        report = run_scenario("stale-cert-adversary", seed=0, mode="manual")
        assert report.ok, report.violations()
        assert report.granted > 0 and report.denied > 0
        assert report.replays_sent > 0
        assert report.replays_denied == report.replays_sent
        assert report.revocations > 0

    def test_no_stale_grant_survives_worker_kill(self):
        """Regression: a mid-scenario worker kill must not let a request
        signed with a pre-re-key certificate through after the
        revocation barrier.  ``no-stale-grant`` is in chaos-storm's
        invariant set, so ``report.ok`` pins exactly that."""
        report = run_scenario("chaos-storm", seed=0, mode="threaded")
        assert report.ok, report.violations()
        assert report.kills >= 1
        assert report.restarts >= 1
        assert report.revocations > 0
        assert {inv["invariant"] for inv in report.invariants} >= {
            "accounting",
            "no-stale-grant",
            "replay-denied",
            "chaos-survival",
        }

    def test_membership_storm_publishes_atomic_rekeys(self):
        """Each membership event lands as one epoch via the bridge."""
        report = run_scenario("membership-storm", seed=0, mode="manual")
        assert report.ok, report.violations()
        assert report.rekeys >= 2
        assert report.revocations > 0
        # Every re-key is a single published epoch; traffic-driven
        # publications (if any) can only add to the count.
        assert report.epochs_published >= report.rekeys

    def test_flash_crowd_sheds_are_typed_and_denied(self):
        report = run_scenario("flash-crowd", seed=0, mode="manual")
        assert report.ok, report.violations()
        assert report.overloaded > 0
        assert report.submitted == report.evaluated + report.errored + report.overloaded


def _build_wrong_expectation(rng):
    tids = _tid_counter()
    return [
        # A 1-of-3 read by an on-ACL signer is granted; expecting a
        # deny forces an "expectations" violation on purpose.
        Traffic("read", "Obj0", (0,), "read", tid=next(tids), expect="denied"),
        Checkpoint(),
    ]


FAILING_SPEC = ScenarioSpec(
    name="always-wrong",
    description="deliberately wrong expectation (exit-code tests only)",
    build=_build_wrong_expectation,
    invariants=("accounting", "expectations"),
)


class TestViolationDetection:
    def test_failed_invariant_flips_ok(self):
        report = ScenarioRunner(mode="manual", seed=0).run(FAILING_SPEC)
        assert not report.ok
        assert any(v["invariant"] == "expectations" for v in report.violations())


class TestScenarioCLI:
    def test_list_exits_zero(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_clean_run_exits_zero(self, capsys):
        code = main(["scenario", "stale-cert-adversary", "--mode", "manual"])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_violation_exits_one(self, monkeypatch, capsys):
        monkeypatch.setitem(SCENARIOS, "always-wrong", FAILING_SPEC)
        code = main(["scenario", "always-wrong", "--mode", "manual"])
        assert code == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_unknown_scenario_exits_two(self, capsys):
        assert main(["scenario", "no-such-scenario"]) == 2

    def test_unknown_name_raises_for_library_callers(self):
        with pytest.raises(KeyError):
            run_scenario("no-such-scenario")

    def test_edge_requires_worker_mode(self):
        with pytest.raises(ValueError, match="worker mode"):
            ScenarioRunner(mode="manual", transport="edge")


class TestNearestRank:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_singleton(self):
        assert percentile([7.0], 0.0) == 7.0
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 1.0) == 7.0

    def test_extremes(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 1.0) == 4.0

    def test_fraction_above_one_raises(self):
        """q=95 for p95 is a unit bug, not a request for the max.

        The old rank clamp silently returned the max sample for any
        q > 1, so a caller passing percents got plausible-looking
        numbers that were all the same (wrong) order statistic.
        """
        data = [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="percent instead of a fraction"):
            percentile(data, 95)
        with pytest.raises(ValueError):
            percentile(data, 1.0000001)
        # Raises even for data shapes where the clamp was a no-op.
        with pytest.raises(ValueError):
            percentile([7.0], 2)
        with pytest.raises(ValueError):
            percentile([], 2)

    def test_boundaries_still_inclusive(self):
        # q=0 and q=1 are valid boundary fractions, n=1 serves both.
        assert percentile([5.0], 0) == 5.0
        assert percentile([5.0], 1) == 5.0
        assert percentile([1.0, 9.0], 1.0) == 9.0

    def test_exact_half_rank_takes_lower_sample(self):
        """ceil(0.5*4) = 2: the 2nd sample, deterministically.

        The old ``round()`` implementation hit banker's rounding here
        (round(1.5) == 2 but round(2.5) == 2 too), so adjacent sample
        counts disagreed about which side of a tie p50 lands on.
        """
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 0.5) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 0.5) == 4.0

    def test_matches_reference_definition_on_random_data(self):
        """percentile(v, q) is exactly the ceil(q*n)-th order statistic."""
        rng = random.Random(42)
        for n in (1, 2, 3, 10, 97, 250):
            data = sorted(rng.random() for _ in range(n))
            for q in (0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
                rank = min(n, max(1, ceil(q * n)))
                assert percentile(data, q) == data[rank - 1], (n, q)

    def test_parity_with_statistics_quantiles(self):
        """Nearest-rank and ``statistics.quantiles`` agree to one sample.

        The stdlib interpolates between order statistics while
        nearest-rank picks one, so exact equality is not expected —
        but both must land inside the same adjacent-sample window for
        every cut point, on random data.
        """
        rng = random.Random(7)
        data = sorted(rng.gauss(0, 1) for _ in range(500))
        n = len(data)
        cuts = statistics.quantiles(data, n=100, method="inclusive")
        for i, interpolated in enumerate(cuts, start=1):
            q = i / 100
            got = percentile(data, q)
            j = floor(q * (n - 1))
            lo = data[max(0, j - 1)]
            hi = data[min(n - 1, j + 2)]
            assert lo <= interpolated <= hi, q
            assert lo <= got <= hi, q

    def test_determinism_across_repeated_calls(self):
        rng = random.Random(3)
        data = sorted(rng.random() for _ in range(100))
        results = {percentile(data, 0.95) for _ in range(10)}
        assert len(results) == 1


class TestZipfKeyDistribution:
    def test_zipf_index_is_rank_biased(self):
        rng = random.Random(1)
        draws = [zipf_index(rng, 8, 1.5) for _ in range(2000)]
        counts = [draws.count(i) for i in range(8)]
        # Rank 0 dominates and the tail is strictly poorer than the head.
        assert counts[0] == max(counts)
        assert counts[0] > counts[7] * 3

    def test_zipf_index_rejects_empty_keyspace(self):
        with pytest.raises(ValueError, match="at least one item"):
            zipf_index(random.Random(0), 0, 1.1)
