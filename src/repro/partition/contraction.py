"""Algorithm 1: Random Contraction for Model Partitioning.

Karger-style randomized contraction over the model DAG, with two MVTEE
additions from §4.1/§5.1:

- a *soft preference* weight function biases which edge is sampled for
  contraction (default: prefer merging the pair with the smallest
  combined compute, which drives partitions toward balance);
- a *hard constraint* function vetoes merges (default: a merged
  partition may not exceed ``balance_slack`` times the ideal share).

Contractions additionally preserve acyclicity of the partition quotient
graph (an edge is contractible only if no alternative path connects its
endpoints), so the result always forms a valid pipeline DAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graph.flops import node_flops
from repro.graph.model import ModelGraph
from repro.graph.shapes import infer_shapes
from repro.partition.partition import Partition, PartitionError, PartitionSet

__all__ = ["ContractionSettings", "random_contraction"]

WeightFn = Callable[[float, float], float]
ConstraintFn = Callable[[float, float, float], bool]


def _default_weight(cost_a: float, cost_b: float) -> float:
    # Soft preference: strongly favor merging the lightest pair.
    return 1.0 / (cost_a + cost_b) ** 2


MergeVeto = Callable[[list[str], list[str]], bool]


@dataclass(frozen=True)
class ContractionSettings:
    """Tunables of the contraction run.

    ``merge_veto``, when set, receives the member node lists of the two
    partitions a sampled edge would merge and may forbid the merge --
    the §5.1 extension point for objectives beyond balance ("with
    additional information, such as the security/safety sensitivity of
    nodes, the module can be extended to prioritize other objectives").
    """

    target_partitions: int
    seed: int | None = None
    weight_fn: WeightFn = _default_weight
    constraint_fn: ConstraintFn | None = None
    balance_slack: float = 1.6
    merge_veto: MergeVeto | None = None

    def constraint(self, merged_cost: float, total_cost: float) -> bool:
        """Hard constraint on a proposed merge (True = allowed)."""
        if self.constraint_fn is not None:
            return self.constraint_fn(merged_cost, total_cost, self.target_partitions)
        limit = self.balance_slack * total_cost / self.target_partitions
        return merged_cost <= limit


class _Quotient:
    """The partition quotient DAG as successor and predecessor maps.

    Nodes, successors and predecessors keep insertion order (an edge
    removed and re-added moves to the end), which fixes the edge order
    the contraction samples from and the order partitions are numbered
    in.
    """

    def __init__(self) -> None:
        self.succ: dict[str, dict[str, None]] = {}
        self.pred: dict[str, dict[str, None]] = {}

    def add_node(self, node: str) -> None:
        if node not in self.succ:
            self.succ[node] = {}
            self.pred[node] = {}

    def add_edge(self, u: str, v: str) -> None:
        self.add_node(u)
        self.add_node(v)
        self.succ[u][v] = None
        self.pred[v][u] = None

    def remove_edge(self, u: str, v: str) -> None:
        del self.succ[u][v]
        del self.pred[v][u]

    def remove_node(self, node: str) -> None:
        for v in self.succ.pop(node):
            del self.pred[v][node]
        for u in self.pred.pop(node):
            del self.succ[u][node]

    def edges(self) -> list[tuple[str, str]]:
        return [(u, v) for u, successors in self.succ.items() for v in successors]

    def has_path(self, source: str, target: str) -> bool:
        seen = {source}
        stack = [source]
        while stack:
            for v in self.succ[stack.pop()]:
                if v == target:
                    return True
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return source == target

    def topological_order(self) -> list[str]:
        """Kahn's algorithm, one generation of sources at a time."""
        indegree = {v: len(preds) for v, preds in self.pred.items() if preds}
        generation = [v for v, preds in self.pred.items() if not preds]
        order: list[str] = []
        while generation:
            order += generation
            following = []
            for node in generation:
                for child in self.succ[node]:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        following.append(child)
                        del indegree[child]
            generation = following
        if indegree:
            raise PartitionError("partition quotient graph has a cycle")
        return order


def _build_quotient(model: ModelGraph) -> tuple[_Quotient, dict[str, float]]:
    specs = infer_shapes(model)
    graph = _Quotient()
    costs: dict[str, float] = {}
    for node in model.nodes:
        costs[node.name] = float(max(node_flops(node, specs), 1))
        graph.add_node(node.name)
    producers = model.producers()
    for node in model.nodes:
        for inp in node.inputs:
            producer = producers.get(inp)
            if producer is not None and producer.name != node.name:
                graph.add_edge(producer.name, node.name)
    return graph, costs


def _contractible(graph: _Quotient, u: str, v: str) -> bool:
    """An edge is contractible iff no alternative path u -> v exists."""
    graph.remove_edge(u, v)
    try:
        return not graph.has_path(u, v)
    finally:
        graph.add_edge(u, v)


def _contract(graph: _Quotient, costs: dict[str, float], members: dict[str, list[str]],
              u: str, v: str) -> None:
    """Merge partition v into partition u in the quotient graph."""
    for pred in list(graph.pred[v]):
        if pred != u:
            graph.add_edge(pred, u)
    for succ in list(graph.succ[v]):
        if succ != u:
            graph.add_edge(u, succ)
    graph.remove_node(v)
    costs[u] += costs.pop(v)
    members[u].extend(members.pop(v))


def random_contraction(model: ModelGraph, settings: ContractionSettings) -> PartitionSet:
    """Run Algorithm 1 and return a validated :class:`PartitionSet`.

    Raises :class:`PartitionError` when the target is unreachable (more
    partitions requested than nodes, or a disconnected quotient that
    cannot contract further).
    """
    target = settings.target_partitions
    if target < 1:
        raise PartitionError("target_partitions must be >= 1")
    if target > len(model.nodes):
        raise PartitionError(
            f"cannot split {len(model.nodes)} nodes into {target} partitions"
        )
    rng = np.random.default_rng(settings.seed)
    graph, costs = _build_quotient(model)
    total_cost = sum(costs.values())
    members: dict[str, list[str]] = {name: [name] for name in graph.succ}

    while len(graph.succ) > target:
        edges = graph.edges()
        if not edges:
            raise PartitionError(
                f"quotient graph disconnected at {len(graph.succ)} partitions; "
                f"cannot reach target {target}"
            )
        weights = np.array(
            [settings.weight_fn(costs[u], costs[v]) for u, v in edges], dtype=np.float64
        )
        weights = np.maximum(weights, 0.0)
        if weights.sum() <= 0:
            weights = np.ones(len(edges))
        # Weighted sampling without replacement: try candidates from most
        # preferred; reject on constraint or acyclicity violation.
        probabilities = weights / weights.sum()
        candidate_order = rng.choice(len(edges), size=len(edges), replace=False, p=probabilities)
        merged_any = False
        for edge_index in candidate_order:
            u, v = edges[edge_index]
            if not settings.constraint(costs[u] + costs[v], total_cost):
                continue
            if settings.merge_veto is not None and settings.merge_veto(
                members[u], members[v]
            ):
                continue
            if not _contractible(graph, u, v):
                continue
            _contract(graph, costs, members, u, v)
            merged_any = True
            break
        if not merged_any:
            # Every edge violated the soft/hard constraints: relax to the
            # smallest-merged-cost contractible edge so the run terminates
            # (the paper reruns with different seeds for global optima).
            fallback = None
            by_cost = sorted(edges, key=lambda e: costs[e[0]] + costs[e[1]])
            # Prefer a relaxation that still honors the merge veto; accept
            # a vetoed merge only if nothing else can make progress.
            for honor_veto in (True, False):
                for u, v in by_cost:
                    if (
                        honor_veto
                        and settings.merge_veto is not None
                        and settings.merge_veto(members[u], members[v])
                    ):
                        continue
                    if _contractible(graph, u, v):
                        fallback = (u, v)
                        break
                if fallback is not None:
                    break
            if fallback is None:
                raise PartitionError(
                    "no contractible edge remains; model branches are too "
                    f"interleaved to reach {target} partitions"
                )
            _contract(graph, costs, members, *fallback)

    node_position = {node.name: i for i, node in enumerate(model.topological_order())}
    leaders = graph.topological_order()
    partitions = [
        Partition(
            index=i,
            node_names=tuple(sorted(members[leader], key=node_position.__getitem__)),
        )
        for i, leader in enumerate(leaders)
    ]
    return PartitionSet(model=model, partitions=partitions, seed=settings.seed)
