"""The fault injector itself: determinism, every fault kind, integration.

Chaos findings are only trustworthy if the faults replay, so the
injector's counting semantics get the same test rigor as the service:
the n-th evaluation is the n-th evaluation on every run (serialized
modes), seeded probabilistic faults draw a reproducible stream, and a
``WorkerKilled`` can never be absorbed by per-ticket isolation.
"""

import pytest

from repro.coalition import build_joint_request
from repro.service import (
    ChaosConfig,
    Errored,
    FaultInjector,
    InjectedFault,
    WorkerKilled,
)


def _read(users, cert, obj, now, nonce):
    return build_joint_request(
        users[0], [], "read", obj, cert, now=now, nonce=nonce
    )


class TestInjectorSemantics:
    def test_worker_killed_escapes_fault_isolation(self):
        """The kill must not be catchable as an Exception — exactly the
        property that forces it down the crash/supervision path."""
        assert not issubclass(WorkerKilled, Exception)
        assert issubclass(WorkerKilled, BaseException)
        assert issubclass(InjectedFault, Exception)

    def test_raise_every_counts_globally(self):
        injector = FaultInjector(ChaosConfig(raise_every=3))
        outcomes = []
        for _ in range(9):
            try:
                injector.before_evaluate(ticket=None)
                outcomes.append("ok")
            except InjectedFault:
                outcomes.append("fault")
        assert outcomes == ["ok", "ok", "fault"] * 3
        assert injector.stats()["faults_raised"] == 3

    def test_seeded_probabilistic_faults_replay(self):
        def run():
            injector = FaultInjector(ChaosConfig(raise_prob=0.3, seed=42))
            hits = []
            for i in range(50):
                try:
                    injector.before_evaluate(ticket=None)
                except InjectedFault:
                    hits.append(i)
            return hits

        first, second = run(), run()
        assert first == second and first, "same seed, same fault ordinals"

    def test_slow_every_uses_injected_sleep(self):
        sleeps = []
        injector = FaultInjector(
            ChaosConfig(slow_every=2, slow_s=0.5), sleep=sleeps.append
        )
        for _ in range(6):
            injector.before_evaluate(ticket=None)
        assert sleeps == [0.5, 0.5, 0.5]
        assert injector.stats()["slows_injected"] == 3

    def test_loop_top_kill_fires_once_after_threshold(self):
        # kill_times=0 (the default) is no kill at all.
        FaultInjector(ChaosConfig(kill_after=2)).on_worker_loop(
            tickets_processed=5
        )
        injector = FaultInjector(ChaosConfig(kill_after=2, kill_times=1))
        injector.on_worker_loop(tickets_processed=1)  # below threshold
        with pytest.raises(WorkerKilled):
            injector.on_worker_loop(tickets_processed=2)
        # One-shot: the restarted decider lives.
        injector.on_worker_loop(tickets_processed=2)
        assert injector.stats()["kills_fired"] == 1

    def test_scripted_action_ordinals_are_one_based(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.at(0, lambda ticket: None)
        seen = []
        injector.at(2, seen.append)
        injector.before_evaluate("first")
        injector.before_evaluate("second")
        injector.before_evaluate("third")
        assert seen == ["second"]


class TestServiceIntegration:
    def test_kill_times_zero_is_no_kill(self, service_coalition):
        ctx, make_service = service_coalition
        injector = FaultInjector(ChaosConfig(kill_in_flight=True))
        service = make_service(mode="manual", chaos=injector)
        users, cert = ctx["users"], ctx["read_cert"]
        ticket = service.submit(_read(users, cert, "ObjectO", 5, "kz-0"), now=5)
        service.pump()
        assert ticket.result(0).granted
        assert injector.stats()["kills_fired"] == 0
        assert service.stats()["health"]["crashes"] == 0

    def test_injected_faults_replay_across_manual_runs(
        self, service_coalition
    ):
        ctx, make_service = service_coalition
        users, cert = ctx["users"], ctx["read_cert"]

        def run():
            service = make_service(
                mode="manual",
                queue_depth=32,
                chaos=FaultInjector(ChaosConfig(raise_every=4)),
            )
            tickets = [
                service.submit(
                    _read(users, cert, "ObjectO" if i % 2 else "ObjectP",
                          5, f"cr-{i}"),
                    now=5,
                )
                for i in range(12)
            ]
            service.pump()
            return [
                t.seq for t in tickets if isinstance(t.result(0), Errored)
            ]

        first, second = run(), run()
        assert first == second == [3, 7, 11]

    def test_epoch_swap_mid_flight_respects_admission_pinning(
        self, service_coalition
    ):
        """A scripted ACL change published between two queued tickets
        must not leak into either: both pinned their epoch at admission,
        before the swap."""
        ctx, make_service = service_coalition
        injector = FaultInjector()
        service = make_service(
            mode="manual", chaos=injector
        )
        users, cert = ctx["users"], ctx["read_cert"]
        # Before the 2nd evaluation, strip ObjectO's read permission.
        injector.at(
            2, lambda ticket: service.update_acl("ObjectO", [])
        )
        tickets = [
            service.submit(_read(users, cert, "ObjectO", 5, f"ep-{i}"), now=5)
            for i in range(3)
        ]
        service.pump()
        # All three admitted before the swap: all grant under their
        # pinned epoch, however late they evaluated.
        assert all(t.result(0).granted for t in tickets)
        # Traffic admitted after the swap sees the new epoch and denies.
        late = service.authorize(_read(users, cert, "ObjectO", 5, "ep-l"), now=5)
        assert not late.granted

    def test_threaded_chaos_run_strands_nothing(self, service_coalition):
        ctx, make_service = service_coalition
        injector = FaultInjector(ChaosConfig(raise_every=5))
        service = make_service(
            mode="threaded",
            queue_depth=64,
            chaos=injector,
        )
        users, cert = ctx["users"], ctx["read_cert"]
        tickets = [
            service.submit(
                _read(users, cert, "ObjectO" if i % 2 else "ObjectP",
                      5, f"ct-{i}"),
                now=5,
            )
            for i in range(40)
        ]
        assert service.drain(timeout=20)
        assert all(t.done() for t in tickets)
        stats = service.stats()["service"]
        assert stats["errored"] == injector.stats()["faults_raised"] > 0
        assert (
            stats["evaluated"] + stats["errored"] + stats["overloaded"]
            == stats["submitted"]
        )
        assert service.stats()["health"]["crashes"] == 0


class TestChaosGauges:
    def test_injector_counters_surface_in_metrics_snapshot(
        self, service_coalition
    ):
        """A chaos run is distinguishable from a clean one in the
        merged metrics registry, not only via the injector object."""
        ctx, make_service = service_coalition
        users, cert = ctx["users"], ctx["read_cert"]
        injector = FaultInjector(ChaosConfig(raise_every=4))
        fired = []
        injector.at(2, lambda ticket: fired.append(True))
        service = make_service(
            mode="manual", queue_depth=32, chaos=injector
        )
        for i in range(8):
            service.submit(
                _read(users, cert, "ObjectO", 5, f"cg-{i}"), now=5
            )
        service.pump()

        gauges = service.metrics_snapshot()["gauges"]
        assert gauges["service.chaos_evaluations"] == 8
        assert gauges["service.chaos_faults_raised"] == 2
        assert gauges["service.chaos_actions_fired"] == 1 == len(fired)
        assert gauges["service.chaos_kills_fired"] == 0
        assert gauges["service.chaos_slows_injected"] == 0

    def test_clean_service_has_no_chaos_gauges(self, service_coalition):
        _ctx, make_service = service_coalition
        service = make_service(mode="manual")
        gauges = service.metrics_snapshot()["gauges"]
        assert not any("chaos_" in k for k in gauges)
