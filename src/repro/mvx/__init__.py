"""The MVTEE runtime: monitor, bootstrap protocol, schedulers.

Composition (§4.3):

- :mod:`repro.mvx.config` -- the runtime-provisioned MVX configuration
  (partition set + per-partition variant claims; selective MVX knobs).
- :mod:`repro.mvx.consistency` -- criteria-based consistency checks
  (cosine similarity, MSE, max-abs-diff, allclose with tolerances).
- :mod:`repro.mvx.voting` -- cross-process voting (unanimous default,
  majority/plurality available).
- :mod:`repro.mvx.binding` -- the append-only binding ledger.
- :mod:`repro.mvx.variant_host` -- a variant TEE process: init-variant
  stage, two-stage transition, inference serving, crash semantics.
- :mod:`repro.mvx.monitor` -- the monitor TEE: attestation, key
  distribution, checkpoint synchronization, voting, response.
- :mod:`repro.mvx.bootstrap` -- the Figure 6 initialization/update
  workflow binding model owner, orchestrator, monitor and variants.
- :mod:`repro.mvx.scheduler` -- the unified :func:`run` entry point
  (:class:`InferenceOptions`: the run's observability sinks, replica
  dispatcher and batch-id base).
- :mod:`repro.mvx.system` -- the high-level facade tying it together.

Every stage execution, variant round trip, checkpoint evaluation,
detection and recovery action reports through
:mod:`repro.observability` (span trees + the metrics registry).
"""

from repro.mvx.config import MvxConfig, PartitionClaim
from repro.mvx.consistency import ConsistencyPolicy, ConsistencyReport
from repro.mvx.events import CrashEvent, DivergenceEvent, ResponseAction
from repro.mvx.monitor import Monitor, MonitorError
from repro.mvx.bootstrap import (
    CombinedAttestation,
    ModelOwner,
    Orchestrator,
    bootstrap_deployment,
    combined_attestation,
)
from repro.mvx.scheduler import InferenceOptions, run, validate_feeds
from repro.mvx.service import InferenceService, RequestState, ServiceMetrics
from repro.mvx.system import MvteeSystem
from repro.mvx.adaptive import AdaptiveController, ScalingAction
from repro.mvx.transport import DirectTransport, FabricTransport
from repro.mvx.variant_host import VariantHost, VariantUnavailable
from repro.mvx.voting import VoteResult, vote

__all__ = [
    "AdaptiveController",
    "CombinedAttestation",
    "ConsistencyPolicy",
    "combined_attestation",
    "ScalingAction",
    "ConsistencyReport",
    "CrashEvent",
    "DirectTransport",
    "DivergenceEvent",
    "FabricTransport",
    "InferenceOptions",
    "InferenceService",
    "Monitor",
    "RequestState",
    "ServiceMetrics",
    "MonitorError",
    "ModelOwner",
    "MvteeSystem",
    "MvxConfig",
    "Orchestrator",
    "PartitionClaim",
    "ResponseAction",
    "VariantHost",
    "VariantUnavailable",
    "VoteResult",
    "bootstrap_deployment",
    "run",
    "validate_feeds",
    "vote",
]
