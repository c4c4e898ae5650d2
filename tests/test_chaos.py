"""Chaos harness: verdict semantics, seeded plans, revertible injectors,
and a live mini-campaign with its SLO floor.

The verdict layer is pure (no deployment needed), so its taxonomy --
detected / masked / missed / silent-corruption -- is pinned down with
synthetic observations.  The live tests then prove the mechanics: plan
replay identity, injector restore really reverting state, and a short
in-process campaign holding the floor end to end.
"""

import numpy as np
import pytest

from repro.attacks.cves import TABLE1_CVES
from repro.chaos import (
    OUTCOME_DETECTED,
    OUTCOME_ERROR,
    OUTCOME_MASKED,
    OUTCOME_MISSED,
    OUTCOME_SILENT_CORRUPTION,
    ChaosCampaign,
    CveInjector,
    ForkInjector,
    InjectionError,
    InjectionTarget,
    ProbeResult,
    RollbackInjector,
    SlowVariantInjector,
    WindowObservation,
    WorkerKillInjector,
    judge,
)
from repro.clock import VirtualClock
from repro.mvx import MvteeSystem, ResponseAction
from repro.serving.engine import ServingPolicy


def deploy(small_resnet, mvx, seed=0, response=ResponseAction.DROP_VARIANT):
    system = MvteeSystem.deploy(
        small_resnet,
        num_partitions=3,
        mvx_partitions=mvx,
        seed=seed,
        verify_partitions=False,
        verify_variants=False,
    )
    system.monitor.response_action = response
    return system


CORRUPTION_CVE = next(c for c in TABLE1_CVES if c.cve_id == "CVE-2022-41883")


class FakeIncident:
    def __init__(self, culprits, kind="divergence", incident_id="inc-1"):
        self.incident_id = incident_id
        self.kind = kind
        self.suspected_culprits = tuple(culprits)


class FakeInjector:
    detection = "incident"

    def __init__(self, targets=("v1",), detection=None):
        self.targets = list(targets)
        if detection is not None:
            self.detection = detection


CLEAN_COUNTS = {"ok": 20, "corrupt": 0, "failed": 0, "timeout": 0, "shed": 0}


class TestJudge:
    def test_masked_when_incident_names_target_and_service_clean(self):
        verdict = judge(
            "cve:x", "cve", FakeInjector(["v1"]),
            WindowObservation(incidents=[FakeIncident(["v1"])], counts=dict(CLEAN_COUNTS)),
        )
        assert verdict.outcome == OUTCOME_MASKED
        assert verdict.culprit_correct is True
        assert verdict.passed

    def test_detected_but_not_masked_when_requests_failed(self):
        counts = dict(CLEAN_COUNTS, failed=2)
        verdict = judge(
            "kill", "worker-kill", FakeInjector(["v1"]),
            WindowObservation(incidents=[FakeIncident(["v1"], kind="crash")], counts=counts),
        )
        assert verdict.outcome == OUTCOME_DETECTED
        assert verdict.passed  # detected-with-impact still holds the floor

    def test_missed_when_no_incident(self):
        verdict = judge(
            "cve:x", "cve", FakeInjector(["v1"]),
            WindowObservation(incidents=[], counts=dict(CLEAN_COUNTS)),
        )
        assert verdict.outcome == OUTCOME_MISSED
        assert not verdict.passed

    def test_silent_corruption_beats_detection(self):
        # One wrong answer served to a client fails the campaign even
        # though an incident fired: the voting layer exists precisely so
        # detection implies the served output stayed clean.
        counts = dict(CLEAN_COUNTS, corrupt=1)
        verdict = judge(
            "cve:x", "cve", FakeInjector(["v1"]),
            WindowObservation(incidents=[FakeIncident(["v1"])], counts=counts),
        )
        assert verdict.outcome == OUTCOME_SILENT_CORRUPTION
        assert not verdict.passed

    def test_corrupted_probe_is_silent_corruption(self):
        verdict = judge(
            "cve:x", "cve", FakeInjector(["v1"]),
            WindowObservation(
                incidents=[FakeIncident(["v1"])],
                counts=dict(CLEAN_COUNTS),
                probes=[ProbeResult(kind="malicious", completed=True, corrupted=True)],
            ),
        )
        assert verdict.outcome == OUTCOME_SILENT_CORRUPTION

    def test_wrong_culprit_fails_even_when_detected(self):
        verdict = judge(
            "cve:x", "cve", FakeInjector(["v1"]),
            WindowObservation(
                incidents=[FakeIncident(["innocent"])], counts=dict(CLEAN_COUNTS)
            ),
        )
        assert verdict.outcome == OUTCOME_MASKED  # detected, service clean
        assert verdict.culprit_correct is False
        assert not verdict.passed  # ...but attribution named only innocents

    def test_blown_recovery_budget_fails(self):
        verdict = judge(
            "kill", "worker-kill", FakeInjector(["v1"]),
            WindowObservation(
                incidents=[FakeIncident(["v1"], kind="crash")],
                counts=dict(CLEAN_COUNTS),
                recovered=False,
            ),
        )
        assert not verdict.passed

    def test_broken_audit_chain_fails(self):
        verdict = judge(
            "cve:x", "cve", FakeInjector(["v1"]),
            WindowObservation(
                incidents=[FakeIncident(["v1"])],
                counts=dict(CLEAN_COUNTS),
                chain_ok=False,
                chain_error="digest mismatch",
            ),
        )
        assert not verdict.passed

    def test_telemetry_mode_uses_injector_verdict(self):
        class TelemetryInjector(FakeInjector):
            detection = "telemetry"

            def telemetry_verdict(self, observation):
                return True, True, "heartbeat stalled"

        verdict = judge(
            "wedge", "worker-wedge", TelemetryInjector(["v1"]),
            WindowObservation(counts=dict(CLEAN_COUNTS)),
        )
        assert verdict.outcome == OUTCOME_MASKED
        assert verdict.detail == "heartbeat stalled"

    def _slow_variant(self):
        class OneVictim:
            def replicated(self):
                return [(1, "v1")]

        injector = SlowVariantInjector(added_latency_s=0.08)
        injector.resolve(OneVictim(), np.random.default_rng(0))
        return injector

    @staticmethod
    def _roundtrips(partition=1, count=6, **means):
        return {
            vid: {"partition": partition, "sum_s": mean * count, "count": count}
            for vid, mean in means.items()
        }

    def test_slow_variant_named_by_replica_skew(self):
        roundtrips = self._roundtrips(v1=0.09, v2=0.010, v3=0.012)
        # A slower replica in another partition is not the victim's sibling.
        roundtrips.update(self._roundtrips(partition=0, v9=0.5))
        verdict = judge(
            "slow-variant", "slow-variant", self._slow_variant(),
            WindowObservation(
                counts=dict(CLEAN_COUNTS),
                telemetry={"variant_roundtrip": roundtrips},
            ),
        )
        assert verdict.outcome == OUTCOME_MASKED
        assert verdict.culprit_correct is True
        assert verdict.passed

    def test_slow_variant_skew_with_slower_sibling_names_wrong_culprit(self):
        verdict = judge(
            "slow-variant", "slow-variant", self._slow_variant(),
            WindowObservation(
                counts=dict(CLEAN_COUNTS),
                telemetry={
                    "variant_roundtrip": self._roundtrips(v1=0.11, v2=0.0, v3=0.13)
                },
            ),
        )
        assert verdict.detected
        assert verdict.culprit_correct is False
        assert not verdict.passed

    def test_slow_variant_without_skew_is_missed_despite_timeouts(self):
        verdict = judge(
            "slow-variant", "slow-variant", self._slow_variant(),
            WindowObservation(
                counts=dict(CLEAN_COUNTS, timeout=5),
                telemetry={
                    "variant_roundtrip": self._roundtrips(v1=0.02, v2=0.02, v3=0.021)
                },
            ),
        )
        assert verdict.outcome == OUTCOME_MISSED
        assert not verdict.passed

    def test_direct_mode_reads_attack_result(self):
        class DirectInjector(FakeInjector):
            detection = "direct"
            direct_detected = True
            direct_detail = "rollback rejected"

        verdict = judge(
            "rollback", "storage", DirectInjector([]),
            WindowObservation(counts=dict(CLEAN_COUNTS)),
        )
        assert verdict.outcome == OUTCOME_MASKED
        assert verdict.passed

    def test_verdict_json_round_trip_fields(self):
        verdict = judge(
            "cve:x", "cve", FakeInjector(["v1"]),
            WindowObservation(incidents=[FakeIncident(["v1"])], counts=dict(CLEAN_COUNTS)),
        )
        doc = verdict.to_json()
        assert doc["outcome"] == OUTCOME_MASKED
        assert doc["passed"] is True
        assert doc["targets"] == ["v1"]


@pytest.fixture(scope="module")
def chaos_system(small_resnet):
    return deploy(small_resnet, {0: 3, 1: 3, 2: 3}, seed=1)


def roster():
    return [
        CveInjector(case=CORRUPTION_CVE),
        RollbackInjector(),
        ForkInjector(),
        SlowVariantInjector(added_latency_s=0.08),
    ]


class TestPlanning:
    def test_same_seed_same_plan(self, chaos_system, small_input):
        feeds = {"input": small_input}
        engine_a = chaos_system.serving_engine(policy=ServingPolicy(num_workers=2))
        engine_b = chaos_system.serving_engine(policy=ServingPolicy(num_workers=2))
        plan_a = ChaosCampaign(
            chaos_system, engine_a, roster(), benign_feeds=feeds, seed=99
        ).plan()
        plan_b = ChaosCampaign(
            chaos_system, engine_b, roster(), benign_feeds=feeds, seed=99
        ).plan()
        assert [p.to_json() for p in plan_a] == [p.to_json() for p in plan_b]
        assert len(plan_a) == 4

    def test_plan_is_cached(self, chaos_system, small_input):
        campaign = ChaosCampaign(
            chaos_system,
            chaos_system.serving_engine(),
            roster(),
            benign_feeds={"input": small_input},
            seed=5,
        )
        assert campaign.plan() is campaign.plan()

    def test_worker_faults_unsupported_in_process_are_skipped(
        self, chaos_system, small_input
    ):
        campaign = ChaosCampaign(
            chaos_system,
            chaos_system.serving_engine(),
            [WorkerKillInjector(), RollbackInjector()],
            benign_feeds={"input": small_input},
            seed=0,
        )
        names = [p.name for p in campaign.plan()]
        assert names == ["storage-rollback"]

    def test_halt_response_rejected(self, small_resnet, small_input):
        system = deploy(small_resnet, {1: 3}, seed=1, response=ResponseAction.HALT)
        with pytest.raises(ValueError, match="HALT"):
            ChaosCampaign(
                system,
                system.serving_engine(),
                roster(),
                benign_feeds={"input": small_input},
            )


class TestInjectorRestore:
    def test_cve_restore_reverts_to_clean_outputs(self, small_resnet, small_input):
        system = deploy(small_resnet, {0: 3, 1: 3, 2: 3}, seed=0)
        reference = system.infer({"input": np.array(small_input, copy=True)})
        engine = system.serving_engine()
        target = InjectionTarget(
            system=system, engine=engine, benign_feeds={"input": small_input}
        )
        injector = CveInjector(case=CORRUPTION_CVE)
        assert injector.supported(target)
        injector.resolve(target, np.random.default_rng(0))
        probe = injector.probes(target)[0]
        name = next(iter(reference))
        with injector.on(target):
            # Armed: the crafted probe diverges (and is detected).
            system.infer({k: np.array(v, copy=True) for k, v in probe.items()})
            assert system.monitor.incidents()
        # Restored: the same probe now computes cleanly on all variants.
        incidents_before = len(system.monitor.incidents())
        out = system.infer({k: np.array(v, copy=True) for k, v in probe.items()})
        assert len(system.monitor.incidents()) == incidents_before
        benign = system.infer({"input": np.array(small_input, copy=True)})
        assert np.allclose(benign[name], reference[name], rtol=1e-2, atol=1e-3)
        assert np.isfinite(out[name]).all()
        # Restore is idempotent.
        injector.restore(target)

    def test_slow_variant_restore_resets_latency(self, small_resnet, small_input):
        system = deploy(small_resnet, {1: 3}, seed=2)
        target = InjectionTarget(system=system, engine=system.serving_engine())
        injector = SlowVariantInjector(added_latency_s=0.05)
        injector.resolve(target, np.random.default_rng(3))
        victim = injector.targets[0]
        host = target.connection(victim).host
        assert host.simulated_latency == 0.0
        injector.inject(target)
        assert host.simulated_latency == 0.05 and host.realtime_latency
        injector.restore(target)
        assert host.simulated_latency == 0.0 and not host.realtime_latency
        injector.restore(target)  # idempotent
        assert host.simulated_latency == 0.0


class TestLiveCampaign:
    def test_inprocess_campaign_holds_the_floor(self, small_resnet, small_input):
        system = deploy(small_resnet, {0: 3, 1: 3, 2: 3}, seed=1)
        # One virtual clock for the engine and the campaign: request CPU
        # costs no time, only sleeps and timed waits do, so the floor is
        # judged the same way on a slow host as on a fast one.
        clock = VirtualClock()
        engine = system.serving_engine(
            policy=ServingPolicy(num_workers=2), clock=clock
        )
        campaign = ChaosCampaign(
            system,
            engine,
            roster(),
            benign_feeds={"input": small_input},
            seed=42,
            window_s=1.0,
            settle_s=0.2,
            recovery_timeout_s=10.0,
            rate_rps=6.0,
            deadline_s=3.0,
            clock=clock,
        )
        report = campaign.run()
        assert report.passed, [v.to_json() for v in report.failures()]
        assert len(report.verdicts) == 4
        # The CVE must be *masked* with correct attribution, not merely
        # detected: voting kept every served output clean.
        cve = next(v for v in report.verdicts if v.fault_class == "cve")
        assert cve.outcome == OUTCOME_MASKED
        assert cve.culprit_correct is True
        assert cve.incident_kinds  # divergence incidents were raised
        # Zero corrupt samples anywhere in the campaign.
        assert report.traffic is not None
        per_class = report.per_class()
        assert all(row["silent-corruption"] == 0 for row in per_class.values())
        # Chaos metrics flowed.
        injections = engine.registry.counter(
            "mvtee_chaos_injections_total", "Chaos injections applied by fault class"
        )
        assert injections.total() == 4
        # The deployment is back at full strength for whoever runs next.
        assert len(system.live_variants()[1]) == 3

    def test_error_verdict_on_uninjectable_fault(self, small_resnet, small_input):
        system = deploy(small_resnet, {1: 3}, seed=3)
        # Virtual time, like the campaign above: the offered load cannot
        # outrun a slow host.
        clock = VirtualClock()
        engine = system.serving_engine(
            policy=ServingPolicy(num_workers=2), clock=clock
        )

        class BrokenInjector(RollbackInjector):
            def inject(self, target):
                raise InjectionError("nothing to attack")

        campaign = ChaosCampaign(
            system,
            engine,
            [BrokenInjector()],
            benign_feeds={"input": small_input},
            seed=0,
            window_s=0.3,
            settle_s=0.1,
            recovery_timeout_s=4.0,
            rate_rps=6.0,
            clock=clock,
        )
        report = campaign.run()
        assert report.verdicts[0].outcome == OUTCOME_ERROR
        assert not report.passed
