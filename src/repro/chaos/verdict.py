"""Per-injection verdicts: did the SLO floor hold?

The campaign's contract (ROADMAP open item 4, paper §6.5) is a *floor*,
not an average: every single injection must end in one of the two
acceptable states --

- **detected** -- the deployment raised an incident whose culprit
  attribution names the attacked variant (or, for infrastructure faults
  with no voting surface, the telemetry unambiguously shows the fault
  and recovery);
- **masked** -- on top of detection, clients never noticed: every
  output served during the window was still correct and no request
  failed.

Everything else fails the campaign:

- **missed** -- the fault flew through the window with no signal;
- **silent-corruption** -- the unforgivable one: a wrong output was
  *served to a client*.  One corrupt sample anywhere in the window
  fails the whole campaign regardless of what else was detected;
- **error** -- the injection itself could not be applied or restored.

:func:`judge` turns one injection window's raw observations
(:class:`WindowObservation`) into an :class:`InjectionVerdict`.  It is
a pure function -- the campaign gathers, the verdict layer decides --
so verdict semantics are unit-testable without a live deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "InjectionVerdict",
    "OUTCOME_DETECTED",
    "OUTCOME_ERROR",
    "OUTCOME_MASKED",
    "OUTCOME_MISSED",
    "OUTCOME_SILENT_CORRUPTION",
    "ProbeResult",
    "WindowObservation",
    "judge",
]

OUTCOME_DETECTED = "detected"
OUTCOME_MASKED = "masked"
OUTCOME_MISSED = "missed"
OUTCOME_SILENT_CORRUPTION = "silent-corruption"
OUTCOME_ERROR = "error"


@dataclass(frozen=True)
class ProbeResult:
    """One crafted request sent through the window (e.g. a CVE payload)."""

    kind: str  # "malicious" | "benign"
    completed: bool
    #: Output wrong vs. the clean-deployment reference; None = no
    #: reference available (then corruption cannot be judged).
    corrupted: bool | None
    error: str = ""


@dataclass
class WindowObservation:
    """Everything the campaign saw between inject and recovery."""

    #: Monitor incidents newly captured during the window.
    incidents: list = field(default_factory=list)
    #: Traffic outcome histogram of the window
    #: (ok/corrupt/failed/timeout/shed counts from the open-loop trace).
    counts: dict = field(default_factory=dict)
    probes: list = field(default_factory=list)
    #: healthz() statuses sampled through the window, in order.
    health_path: list = field(default_factory=list)
    #: Peak heartbeat-age gauge of the target variant (cluster mode).
    heartbeat_peak_s: float | None = None
    #: FlightRecorder chain verification over the whole window.
    chain_ok: bool = True
    chain_error: str = ""
    recovered: bool = True
    recovery_s: float | None = None
    recovery_budget_s: float | None = None
    #: Signals telemetry-mode injectors judge against; the campaign
    #: fills ``variant_roundtrip``: variant id -> ``{"partition",
    #: "sum_s", "count"}`` of monitor round trips during the window.
    telemetry: dict = field(default_factory=dict)


@dataclass(frozen=True)
class InjectionVerdict:
    """The SLO-floor judgment of one injection."""

    name: str
    fault_class: str
    targets: tuple[str, ...]
    outcome: str
    detected: bool
    masked: bool
    #: True/False for incident-mode faults (attribution named a target /
    #: named only innocents); None where attribution does not apply.
    culprit_correct: bool | None
    silent_corruptions: int
    incident_ids: tuple[str, ...]
    incident_kinds: tuple[str, ...]
    counts: dict
    health_path: tuple[str, ...]
    chain_ok: bool
    recovered: bool
    recovery_s: float | None
    recovery_budget_s: float | None
    detail: str = ""

    @property
    def passed(self) -> bool:
        """Whether this injection held the SLO floor."""
        return (
            self.outcome in (OUTCOME_DETECTED, OUTCOME_MASKED)
            and self.silent_corruptions == 0
            and self.culprit_correct is not False
            and self.recovered
            and self.chain_ok
        )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "fault_class": self.fault_class,
            "targets": list(self.targets),
            "outcome": self.outcome,
            "detected": self.detected,
            "masked": self.masked,
            "culprit_correct": self.culprit_correct,
            "silent_corruptions": self.silent_corruptions,
            "incidents": list(self.incident_ids),
            "incident_kinds": list(self.incident_kinds),
            "counts": dict(self.counts),
            "health_path": list(self.health_path),
            "chain_ok": self.chain_ok,
            "recovered": self.recovered,
            "recovery_s": self.recovery_s,
            "recovery_budget_s": self.recovery_budget_s,
            "passed": self.passed,
            "detail": self.detail,
        }


def _silent_corruptions(observation: WindowObservation) -> int:
    """Wrong outputs *served*: trace corruptions plus corrupted probes.

    Strictly harsher than "wrong output with no incident": a corrupt
    answer that reached a client is campaign-failing even if an
    unrelated incident fired -- the voting layer exists precisely so
    that detection implies the served output stayed clean.
    """
    served_corrupt = int(observation.counts.get("corrupt", 0))
    probe_corrupt = sum(
        1 for p in observation.probes if p.completed and p.corrupted is True
    )
    return served_corrupt + probe_corrupt


def _service_clean(observation: WindowObservation) -> bool:
    """No client-visible impact: nothing failed, timed out, or corrupted."""
    counts = observation.counts
    probes_ok = all(p.completed and not p.corrupted for p in observation.probes)
    return (
        int(counts.get("failed", 0)) == 0
        and int(counts.get("timeout", 0)) == 0
        and probes_ok
    )


def judge(name: str, fault_class: str, injector, observation: WindowObservation) -> InjectionVerdict:
    """Classify one injection window.

    ``injector`` is duck-typed: ``detection`` ("incident" | "telemetry"
    | "direct"), ``targets`` (variant ids under attack), and -- per
    mode -- ``telemetry_verdict(observation)`` or ``direct_detected``.
    """
    targets = tuple(getattr(injector, "targets", ()) or ())
    incidents = list(observation.incidents)
    incident_ids = tuple(str(i.incident_id) for i in incidents)
    incident_kinds = tuple(str(i.kind) for i in incidents)
    silent = _silent_corruptions(observation)
    detection = getattr(injector, "detection", "incident")
    detail = ""

    if detection == "incident":
        detected = bool(incidents)
        relevant = [
            i for i in incidents if set(getattr(i, "suspected_culprits", ())) & set(targets)
        ]
        culprit_correct = bool(relevant) if detected else None
        if detected and not relevant:
            detail = "incident(s) raised but none named an attacked variant"
    elif detection == "telemetry":
        detected, culprit_correct, detail = injector.telemetry_verdict(observation)
    elif detection == "direct":
        detected = bool(getattr(injector, "direct_detected", False))
        culprit_correct = None
        detail = getattr(injector, "direct_detail", "")
    else:  # pragma: no cover - programming error
        raise ValueError(f"unknown detection mode {detection!r}")

    masked = detected and silent == 0 and _service_clean(observation)
    if silent > 0:
        outcome = OUTCOME_SILENT_CORRUPTION
    elif masked:
        outcome = OUTCOME_MASKED
    elif detected:
        outcome = OUTCOME_DETECTED
    else:
        outcome = OUTCOME_MISSED

    return InjectionVerdict(
        name=name,
        fault_class=fault_class,
        targets=targets,
        outcome=outcome,
        detected=detected,
        masked=masked,
        culprit_correct=culprit_correct,
        silent_corruptions=silent,
        incident_ids=incident_ids,
        incident_kinds=incident_kinds,
        counts=dict(observation.counts),
        health_path=tuple(observation.health_path),
        chain_ok=observation.chain_ok,
        recovered=observation.recovered,
        recovery_s=observation.recovery_s,
        recovery_budget_s=observation.recovery_budget_s,
        detail=detail or observation.chain_error,
    )
