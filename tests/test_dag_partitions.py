"""Partition quotients that form genuine DAGs (not chains).

§4.3: "Variant TEEs are organized by the monitor into a DAG that mirrors
the original model topology."  These tests build a branchy model,
partition it so two partitions are parallel branches, and check that
the scheduler (alone and with overlapping runs) and the simulator
handle the non-chain topology.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.graph import GraphBuilder
from repro.mvx.bootstrap import bootstrap_deployment
from repro.mvx.config import MvxConfig
from repro.mvx.scheduler import InferenceOptions, run
from repro.partition.partition import Partition, PartitionSet
from repro.partition.verify import verify_partition_set
from repro.runtime import RuntimeConfig
from repro.runtime.interpreter import InterpreterRuntime
from repro.variants.pool import build_pool, diversified_specs


def branchy_model():
    """stem -> (branch A || branch B) -> concat -> head."""
    b = GraphBuilder("branchy", seed=0)
    x = b.input("input", (1, 3, 8, 8))
    stem = b.relu(b.conv(x, 8, kernel=3, pad=1, name="stem_conv"), name="stem_relu")
    a = b.relu(b.conv(stem, 8, kernel=3, pad=1, name="a_conv"), name="a_relu")
    a = b.conv(a, 8, kernel=1, pad=0, name="a_proj")
    c = b.relu(b.conv(stem, 8, kernel=5, pad=2, name="b_conv"), name="b_relu")
    c = b.conv(c, 8, kernel=1, pad=0, name="b_proj")
    merged = b.concat([a, c], name="merge")
    head = b.fc(b.global_avg_pool(merged, name="gap"), 5, name="head")
    b.set_output(b.softmax(head, name="out"))
    return b.finish()


@pytest.fixture(scope="module")
def dag_partition_set():
    model = branchy_model()
    by_name = {n.name: n for n in model.nodes}
    stem = [n for n in by_name if n.startswith("stem")]
    branch_a = [n for n in by_name if n.startswith("a_")]
    branch_b = [n for n in by_name if n.startswith("b_")]
    tail = [n for n in by_name if n not in set(stem + branch_a + branch_b)]
    partitions = [
        Partition(index=0, node_names=tuple(stem)),
        Partition(index=1, node_names=tuple(branch_a)),
        Partition(index=2, node_names=tuple(branch_b)),
        Partition(index=3, node_names=tuple(tail)),
    ]
    return PartitionSet(model=model, partitions=partitions)


class TestDagPartitionSet:
    def test_validates(self, dag_partition_set):
        dag_partition_set.validate()

    def test_parallel_branches_share_input(self, dag_partition_set):
        in_a = {s.name for s in dag_partition_set.subgraph(1).inputs}
        in_b = {s.name for s in dag_partition_set.subgraph(2).inputs}
        out_stem = {s.name for s in dag_partition_set.subgraph(0).outputs}
        assert in_a == in_b == out_stem

    def test_merge_partition_consumes_both(self, dag_partition_set):
        tail_inputs = {s.name for s in dag_partition_set.subgraph(3).inputs}
        out_a = {s.name for s in dag_partition_set.subgraph(1).outputs}
        out_b = {s.name for s in dag_partition_set.subgraph(2).outputs}
        assert out_a <= tail_inputs and out_b <= tail_inputs

    def test_staged_execution_correct(self, dag_partition_set):
        verify_partition_set(dag_partition_set)


class TestDagScheduling:
    @pytest.fixture(scope="class")
    def deployment(self, dag_partition_set):
        specs = [
            s
            for p in range(4)
            for s in diversified_specs(p, 3 if p in (1, 2) else 1, seed=0)
        ]
        pool = build_pool(dag_partition_set, specs, verify=False)
        config = MvxConfig.selective(4, {1: 3, 2: 3})
        _, monitor, _, _ = bootstrap_deployment(pool, config)
        return monitor

    @pytest.fixture(scope="class")
    def reference(self, dag_partition_set):
        runtime = InterpreterRuntime(RuntimeConfig(optimization_level=0))
        runtime.prepare(dag_partition_set.model)
        rng = np.random.default_rng(5)
        feeds = {"input": rng.normal(size=(1, 3, 8, 8)).astype(np.float32)}
        return feeds, runtime.run(feeds)

    def test_sequential_on_dag(self, deployment, reference):
        feeds, expected = reference
        results, stats = run(deployment, [feeds])
        for name, value in expected.items():
            assert np.allclose(results[0][name], value, atol=1e-2)
        assert stats.checkpoints_evaluated == 2  # both MVX branches

    def test_pipelined_on_dag(self, deployment, reference):
        feeds, expected = reference
        rng = np.random.default_rng(6)
        batches = [feeds] + [
            {"input": rng.normal(size=(1, 3, 8, 8)).astype(np.float32)}
            for _ in range(3)
        ]
        # Two overlapping runs of two batches each, disjoint batch ids.
        with ThreadPoolExecutor(max_workers=2) as pool:
            halves = [
                pool.submit(
                    run,
                    deployment,
                    batches[base : base + 2],
                    InferenceOptions(batch_id_base=base),
                )
                for base in (0, 2)
            ]
            results = [out for half in halves for out in half.result()[0]]
        for name, value in expected.items():
            assert np.allclose(results[0][name], value, atol=1e-2)
        seq_results, _ = run(deployment, batches)
        for a, b in zip(results, seq_results):
            for name in a:
                assert np.allclose(a[name], b[name], atol=1e-5)


class TestDagSimulation:
    def test_simulator_accepts_dag_plans(self, dag_partition_set):
        """The chain-order simulator treats the DAG conservatively."""
        from repro.simulation import CostModel, simulate
        from repro.simulation.scenarios import plan_from_partition_set

        config = MvxConfig.selective(4, {1: 3, 2: 3})
        stages = plan_from_partition_set(dag_partition_set, config)
        result = simulate(stages, CostModel(), num_batches=4)
        assert result.throughput > 0
