"""Capacity planning with selective MVX (the §6.3/§6.4 methodology).

Uses the calibrated performance simulator to sweep selective-MVX
configurations for a production model -- which partitions to harden, how
many variants, sync vs async -- prints the throughput/latency trade-off
table, picks the best configuration meeting a protection requirement,
and finally deploys that plan functionally on a small stand-in model.

Run:  python examples/selective_pipeline_tuning.py
"""

import numpy as np

from repro.mvx import MvteeSystem
from repro.mvx.config import MvxConfig
from repro.simulation import CostModel, RUNTIME_FACTORS, simulate
from repro.simulation.scenarios import (
    baseline_result,
    cached_model,
    cached_partition,
    plan_from_partition_set,
)
from repro.zoo import build_model

MODEL = "mobilenet-v3"
NUM_PARTITIONS = 5
#: The deployment must harden at least this partition (e.g. the
#: fine-tuned final layers carrying the owner's IP, §4.3).
REQUIRED_MVX = {4}

CANDIDATES = {
    "minimal (p4 x3, sync)": MvxConfig.selective(5, {4: 3}),
    "minimal (p4 x3, async)": MvxConfig.selective(5, {4: 3}, execution_mode="async"),
    "wide (p4 x5, async)": MvxConfig.selective(5, {4: 5}, execution_mode="async"),
    "tail (p3,p4 x3, async)": MvxConfig.selective(5, {3: 3, 4: 3}, execution_mode="async"),
    "full MVX (all x3, async)": MvxConfig.uniform(5, 3, execution_mode="async"),
}


def main() -> None:
    cost = CostModel()
    model = cached_model(MODEL)
    partition_set = cached_partition(MODEL, NUM_PARTITIONS)
    base = baseline_result(model, cost)
    print(f"{MODEL}: baseline latency "
          f"{base.batch_completions[0] * 1000:.1f} ms/batch in a single TEE\n")

    print(f"{'configuration':28s} {'pipe tput':>10s} {'pipe lat':>10s} {'seq tput':>10s}")
    scores = {}
    for label, config in CANDIDATES.items():
        factors = {
            i: [1.0, RUNTIME_FACTORS["tvm"], 0.8][: config.claim(i).num_variants]
            + [1.0] * max(0, config.claim(i).num_variants - 3)
            for i in config.mvx_partition_indices()
        }
        stages = plan_from_partition_set(partition_set, config, variant_factors=factors)
        pipe = simulate(
            stages, cost, pipelined=True, execution_mode=config.execution_mode
        ).normalized_to(base)
        seq = simulate(
            stages, cost, pipelined=False, execution_mode=config.execution_mode
        ).normalized_to(base)
        print(f"{label:28s} {pipe[0]:>9.2f}x {pipe[1]:>9.2f}x {seq[0]:>9.2f}x")
        if REQUIRED_MVX <= set(config.mvx_partition_indices()):
            scores[label] = pipe[0]

    best = max(scores, key=scores.get)
    print(f"\nchosen plan: {best!r} "
          f"({scores[best]:.2f}x pipelined throughput vs the unprotected model)")

    # The same decision, fully automated: the §7.4 plan search sweeps the
    # whole configuration space and returns the Pareto frontier.
    from repro.simulation import search_plans

    planned = search_plans(
        partition_set,
        cost,
        required_mvx=REQUIRED_MVX,
        min_throughput_ratio=1.0,
        panel_sizes=(3,),
        max_mvx_partitions=3,
    )
    print("\nautomatic plan search (Pareto frontier):")
    for plan in sorted(planned.pareto, key=lambda p: -p.security_score)[:5]:
        print(f"  {plan.describe()}")
    print(f"planner's pick: {planned.best.describe()}")

    # Deploy the chosen plan functionally on a small stand-in model.
    chosen = CANDIDATES[best]
    stand_in = build_model("small-resnet", input_size=16, blocks_per_stage=1)
    system = MvteeSystem.deploy(
        stand_in,
        num_partitions=NUM_PARTITIONS,
        config=chosen,
        seed=0,
        verify_variants=False,
    )
    batches = [
        {"input": np.random.default_rng(i).normal(size=(1, 3, 16, 16)).astype(np.float32)}
        for i in range(4)
    ]
    system.infer_batches(batches)
    stats = system.last_stats
    print(f"functional deployment: {stats.batches} batches, "
          f"{stats.checkpoints_evaluated} checkpoints, "
          f"{stats.divergences} divergences")
    print(f"live variants: {system.live_variants()}")


if __name__ == "__main__":
    main()
