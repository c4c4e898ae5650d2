"""High-level facade: offline tooling + online deployment in one object.

:class:`MvteeSystem` is the API a downstream user starts from::

    system = MvteeSystem.deploy(model, num_partitions=5,
                                mvx_partitions={2: 3})
    outputs = system.infer({"input": x})
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.crypto.keys import KeyManager
from repro.graph.model import ModelGraph
from repro.mvx.bootstrap import ModelOwner, Orchestrator, bootstrap_deployment
from repro.mvx.config import MvxConfig
from repro.mvx.monitor import Monitor
from repro.mvx.scheduler import InferenceOptions, RunStats, run
from repro.mvx.updates import partial_update, scale_partition
from repro.mvx.variant_host import VariantHost
from repro.observability.sinks import Sinks
from repro.partition.balance import find_balanced_partition
from repro.partition.partition import PartitionSet
from repro.partition.verify import verify_partition_set
from repro.variants.pool import VariantPool, build_pool, diversified_specs

__all__ = ["MvteeSystem"]


@dataclass
class MvteeSystem:
    """A deployed MVTEE instance."""

    model: ModelGraph
    partition_set: PartitionSet
    pool: VariantPool
    config: MvxConfig
    owner: ModelOwner
    monitor: Monitor
    orchestrator: Orchestrator
    hosts: dict[str, VariantHost]
    key_manager: KeyManager
    last_stats: RunStats | None = field(default=None)
    #: Process-mode deployments only: the supervisor owning the
    #: per-variant worker processes (None for in-process execution).
    cluster: "object | None" = field(default=None)

    @classmethod
    def deploy(
        cls,
        model: ModelGraph,
        *,
        num_partitions: int = 5,
        mvx_partitions: dict[int, int] | None = None,
        pool_variants_per_partition: int | None = None,
        config: MvxConfig | None = None,
        seed: int = 0,
        partition_restarts: int = 4,
        verify_partitions: bool = True,
        verify_variants: bool = True,
        num_platforms: int = 2,
        transport=None,
        sinks: Sinks | None = None,
        execution: str = "inprocess",
        restart_policy=None,
    ) -> "MvteeSystem":
        """Run the offline phase and bootstrap the online deployment.

        ``mvx_partitions`` maps partition index -> variant count
        (selective MVX); omitted partitions run a single variant (fast
        path).  A full explicit :class:`MvxConfig` overrides it.

        ``sinks`` are the deployment's observability sinks: every
        inference run reports through them unless a run's
        :class:`InferenceOptions` carries its own, and the flight
        recorder receives checkpoints, detections, responses and
        variant replacements in one hash chain.

        ``execution`` selects where variant runtimes live: the default
        ``"inprocess"`` keeps them in this process; ``"process"`` forks
        each variant host into its own supervised worker process after
        bootstrap (crash-grade fault isolation -- see
        :mod:`repro.cluster`), with ``restart_policy`` (a
        :class:`repro.cluster.RestartPolicy`) governing how dead workers
        are restarted.  Call :meth:`shutdown` (or rely on the atexit
        sweep) to tear the worker fleet down.
        """
        sinks = sinks if sinks is not None else Sinks()
        if execution not in ("inprocess", "process"):
            raise ValueError(
                f"execution must be 'inprocess' or 'process', got {execution!r}"
            )
        if execution == "process":
            if transport is not None:
                raise ValueError(
                    "execution='process' builds its own ProcessTransport; "
                    "an explicit transport cannot be combined with it"
                )
            from repro.cluster import ProcessTransport

            transport = ProcessTransport(metrics=sinks.metrics)
        partition_set = find_balanced_partition(
            model, num_partitions, restarts=partition_restarts, seed=seed
        )
        if verify_partitions:
            verify_partition_set(partition_set)
        if config is None:
            config = MvxConfig.selective(len(partition_set), mvx_partitions or {})
        key_manager = KeyManager()
        specs = [
            spec
            for claim in config.claims
            for spec in diversified_specs(
                claim.partition_index,
                # An explicit pool size is honored verbatim (a too-small
                # pool fails loudly at selection); otherwise size the pool
                # to each partition's claim.
                pool_variants_per_partition
                if pool_variants_per_partition is not None
                else claim.num_variants,
                seed=seed,
            )
        ]
        pool = build_pool(
            partition_set, specs, key_manager=key_manager, verify=verify_variants
        )
        owner, monitor, orchestrator, hosts = bootstrap_deployment(
            pool, config, num_platforms=num_platforms, transport=transport
        )
        if sinks.tracer is not None:
            monitor.tracer = sinks.tracer
        monitor.metrics = sinks.metrics
        monitor.recorder = sinks.recorder
        cluster = None
        if execution == "process":
            from repro.cluster import ClusterSupervisor

            cluster = ClusterSupervisor(
                monitor,
                orchestrator,
                transport,
                hosts=hosts,
                policy=restart_policy,
                registry=sinks.metrics,
                recorder=sinks.recorder,
            ).start()
        return cls(
            model=model,
            partition_set=partition_set,
            pool=pool,
            config=config,
            owner=owner,
            monitor=monitor,
            orchestrator=orchestrator,
            hosts=hosts,
            key_manager=key_manager,
            cluster=cluster,
        )

    def shutdown(self) -> None:
        """Tear down process-mode workers (no-op for in-process mode)."""
        if self.cluster is not None:
            self.cluster.shutdown()
            self.cluster = None

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def infer(
        self,
        feeds: dict[str, np.ndarray],
        options: InferenceOptions | None = None,
    ) -> dict[str, np.ndarray]:
        """One protected inference."""
        return self.infer_batches([feeds], options)[0]

    def infer_batches(
        self,
        batches: list[dict[str, np.ndarray]],
        options: InferenceOptions | None = None,
    ) -> list[dict[str, np.ndarray]]:
        """Protected inference over a batch stream.

        The unified entry point: :class:`InferenceOptions` bundles the
        run's observability sinks, replica dispatcher and batch-id base.
        """
        results, stats = run(self.monitor, batches, options)
        self.last_stats = stats
        return results

    def serving_engine(
        self,
        *,
        policy=None,
        sinks: Sinks | None = None,
        clock=None,
    ):
        """A (not yet started) :class:`repro.serving.ServingEngine`.

        The concurrent serving surface over this deployment: bounded
        admission with load shedding, dynamic micro-batching, parallel
        variant execution.  Call ``start()``/``stop()`` or use it as a
        context manager; :meth:`InferenceService.serve` wraps the same
        engine behind the request-id surface.  ``sinks`` carries the
        engine's observability bundle.  ``clock``
        (a :class:`repro.clock.Clock`; real time by default) runs the
        engine's deadlines and waits.
        """
        from repro.serving.engine import ServingEngine

        return ServingEngine(self, policy=policy, sinks=sinks, clock=clock)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update_partition(self, partition_index: int, *, seed: int = 1) -> None:
        """Partial update: replace one partition's variants with fresh ones."""
        claim = self.config.claim(partition_index)
        specs = diversified_specs(
            partition_index,
            claim.num_variants,
            seed=seed,
            prefix=f"p{partition_index}u{seed}",
        )
        fresh_pool = build_pool(
            self.partition_set, specs, key_manager=self.key_manager, verify=False
        )
        artifacts = fresh_pool.for_partition(partition_index)
        for artifact in artifacts:
            self.pool.add(artifact)
        new_hosts = partial_update(
            self.monitor, self.orchestrator, partition_index, artifacts
        )
        for host in new_hosts:
            self.hosts[host.variant_id] = host

    def scale_up(self, partition_index: int, extra: int, *, seed: int = 2) -> None:
        """Horizontal scaling: add ``extra`` variants to one partition."""
        specs = diversified_specs(
            partition_index, extra, seed=seed, prefix=f"p{partition_index}s{seed}"
        )
        fresh_pool = build_pool(
            self.partition_set, specs, key_manager=self.key_manager, verify=False
        )
        artifacts = fresh_pool.for_partition(partition_index)
        for artifact in artifacts:
            self.pool.add(artifact)
        new_hosts = scale_partition(
            self.monitor, self.orchestrator, partition_index, artifacts
        )
        for host in new_hosts:
            self.hosts[host.variant_id] = host

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def live_variants(self) -> dict[int, list[str]]:
        """Variant ids currently serving, per partition."""
        return {
            index: [c.variant_id for c in self.monitor.stage_connections(index)]
            for index in range(len(self.partition_set))
        }
