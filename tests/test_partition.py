"""Partitioning: Algorithm 1 invariants, slicer, balance search, verification."""

import hashlib
import json

import pytest

from repro.partition import (
    ContractionSettings,
    PartitionError,
    PartitionSet,
    balance_score,
    find_balanced_partition,
    partition_costs,
    random_contraction,
    slice_by_indices,
    slice_by_names,
    verify_partition_set,
)
from repro.partition.partition import Partition
from repro.zoo import build_model


@pytest.fixture(scope="module")
def branchy_model():
    # small-resnet has residual branches: the interesting case for
    # contraction acyclicity.
    return build_model("small-resnet", input_size=16, blocks_per_stage=2)


class TestRandomContraction:
    @pytest.mark.parametrize("target", [1, 2, 3, 5, 8])
    def test_produces_target_partitions(self, branchy_model, target):
        ps = random_contraction(branchy_model, ContractionSettings(target, seed=0))
        assert len(ps) == target

    def test_partitions_cover_all_nodes_exactly_once(self, branchy_model):
        ps = random_contraction(branchy_model, ContractionSettings(4, seed=1))
        names = [n for p in ps.partitions for n in p.node_names]
        assert sorted(names) == sorted(n.name for n in branchy_model.nodes)

    def test_quotient_is_acyclic_forward_only(self, branchy_model):
        # validate() raises on backward data flow; run several seeds.
        for seed in range(5):
            random_contraction(branchy_model, ContractionSettings(5, seed=seed)).validate()

    def test_seeded_determinism(self, branchy_model):
        a = random_contraction(branchy_model, ContractionSettings(4, seed=9))
        b = random_contraction(branchy_model, ContractionSettings(4, seed=9))
        assert [p.node_names for p in a.partitions] == [p.node_names for p in b.partitions]

    def test_partitions_are_stable(self):
        # Digest of the partitions the networkx-based contraction chose:
        # deployments with a fixed seed must keep their partitions.
        chosen = {}
        for name, kwargs in (
            ("googlenet", {"input_size": 32}),
            ("inception-v3", {}),
            ("small-resnet", {"input_size": 32}),
        ):
            model = build_model(name, **kwargs)
            for target in (3, 6):
                for seed in (0, 1):
                    for veto in (None, lambda a, b: len(a) + len(b) > 7):
                        settings = ContractionSettings(target, seed=seed, merge_veto=veto)
                        chosen[f"{name}/{target}/{seed}/{veto is not None}"] = [
                            list(p.node_names)
                            for p in random_contraction(model, settings).partitions
                        ]
        digest = hashlib.sha256(json.dumps(chosen, sort_keys=True).encode()).hexdigest()
        assert digest == "3e334fbd7b9e00957659b1634a8750ca6afd9e09f1183a1ebf70ff0c8de3afcd"

    def test_different_seeds_differ(self, branchy_model):
        a = random_contraction(branchy_model, ContractionSettings(4, seed=1))
        b = random_contraction(branchy_model, ContractionSettings(4, seed=2))
        assert [p.node_names for p in a.partitions] != [p.node_names for p in b.partitions]

    def test_too_many_partitions_rejected(self, branchy_model):
        with pytest.raises(PartitionError, match="cannot split"):
            random_contraction(
                branchy_model,
                ContractionSettings(len(branchy_model.nodes) + 1),
            )

    def test_custom_constraint_respected(self, branchy_model):
        # A very tight constraint forces the relax-fallback but must still
        # terminate with the right count.
        settings = ContractionSettings(
            3, seed=0, constraint_fn=lambda merged, total, t: merged <= total / 10
        )
        ps = random_contraction(branchy_model, settings)
        assert len(ps) == 3

    def test_custom_weight_function(self, branchy_model):
        settings = ContractionSettings(4, seed=0, weight_fn=lambda a, b: 1.0)
        ps = random_contraction(branchy_model, settings)
        assert len(ps) == 4

    def test_balance_default_reasonable(self, branchy_model):
        ps = find_balanced_partition(branchy_model, 4, restarts=6, seed=0)
        assert balance_score(ps) < 2.5


class TestPartitionSet:
    def test_checkpoint_tensors_chain(self, branchy_model):
        ps = random_contraction(branchy_model, ContractionSettings(3, seed=0))
        produced_so_far = set(s.name for s in branchy_model.inputs)
        for index in range(len(ps)):
            sub = ps.subgraph(index)
            for spec in sub.inputs:
                assert spec.name in produced_so_far
            produced_so_far |= {s.name for s in sub.outputs}

    def test_checkpoint_bytes_positive_internal(self, branchy_model):
        ps = random_contraction(branchy_model, ContractionSettings(3, seed=0))
        for index in range(len(ps) - 1):
            assert ps.checkpoint_bytes(index) > 0

    def test_duplicate_node_rejected(self, branchy_model):
        first = branchy_model.nodes[0].name
        parts = [
            Partition(index=0, node_names=(first,)),
            Partition(index=1, node_names=tuple(n.name for n in branchy_model.nodes)),
        ]
        with pytest.raises(PartitionError, match="in partitions"):
            PartitionSet(model=branchy_model, partitions=parts)

    def test_missing_node_rejected(self, branchy_model):
        parts = [Partition(index=0, node_names=(branchy_model.nodes[0].name,))]
        with pytest.raises(PartitionError, match="not covered"):
            PartitionSet(model=branchy_model, partitions=parts)

    def test_backward_flow_rejected(self, branchy_model):
        order = [n.name for n in branchy_model.topological_order()]
        parts = [
            Partition(index=0, node_names=tuple(order[5:])),
            Partition(index=1, node_names=tuple(order[:5])),
        ]
        with pytest.raises(PartitionError, match="backward"):
            PartitionSet(model=branchy_model, partitions=parts)

    def test_describe_mentions_partitions(self, branchy_model):
        ps = random_contraction(branchy_model, ContractionSettings(3, seed=0))
        text = ps.describe()
        assert "3 partitions" in text


class TestSlicer:
    def test_slice_by_indices(self, tiny_cnn):
        ps = slice_by_indices(tiny_cnn, [2, 4])
        assert len(ps) == 3
        verify_partition_set(ps)

    def test_slice_by_names(self, tiny_cnn):
        order = [n.name for n in tiny_cnn.topological_order()]
        ps = slice_by_names(tiny_cnn, [order[1], order[3]])
        assert len(ps) == 3

    def test_out_of_range_cut(self, tiny_cnn):
        with pytest.raises(PartitionError):
            slice_by_indices(tiny_cnn, [len(tiny_cnn.nodes)])

    def test_unknown_name(self, tiny_cnn):
        with pytest.raises(PartitionError, match="unknown node"):
            slice_by_names(tiny_cnn, ["ghost"])

    def test_empty_cuts_rejected(self, tiny_cnn):
        with pytest.raises(PartitionError):
            slice_by_indices(tiny_cnn, [])


class TestVerification:
    def test_staged_equals_full(self, branchy_model):
        ps = random_contraction(branchy_model, ContractionSettings(4, seed=3))
        verify_partition_set(ps)

    def test_corrupted_partition_detected(self, branchy_model):
        ps = random_contraction(branchy_model, ContractionSettings(4, seed=3))
        sub = ps.subgraph(1)
        weight_name = next(iter(sub.initializers))
        sub.initializers[weight_name] = sub.initializers[weight_name] * 2.0
        with pytest.raises(AssertionError, match="diverges"):
            verify_partition_set(ps)

    def test_costs_sum_to_model_cost(self, branchy_model):
        ps = random_contraction(branchy_model, ContractionSettings(4, seed=0))
        from repro.graph.flops import graph_flops

        assert sum(partition_costs(ps)) == pytest.approx(graph_flops(branchy_model), rel=1e-9)

    def test_multi_restart_improves_or_equals(self, branchy_model):
        single = random_contraction(branchy_model, ContractionSettings(4, seed=0))
        best = find_balanced_partition(branchy_model, 4, restarts=8, seed=0)
        assert balance_score(best) <= balance_score(single) + 1e-9

    def test_parallel_search_matches_sequential(self, branchy_model):
        seq = find_balanced_partition(branchy_model, 4, restarts=4, seed=0)
        par = find_balanced_partition(branchy_model, 4, restarts=4, seed=0, workers=2)
        assert [p.node_names for p in seq.partitions] == [p.node_names for p in par.partitions]
