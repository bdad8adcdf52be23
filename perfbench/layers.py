"""The program layers the traced run wraps, and the per-layer metrics.

Each entry of :func:`install` puts a :class:`~spans.SpanRecorder`
wrapper on a public function of one layer: on the class attribute for
methods, or on the module attribute through which callers look a
function up (``selinger_dp_bitset`` and ``geqo_join_search`` are looked
up in ``repro.optimizer.planner``; ``canonical_alias_map`` and
``fingerprint`` in the front end and the service).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

import spans

#: Per-layer metrics, in BENCHMARK.json order: name -> unit.
METRICS: Dict[str, str] = {}
_TIMED = [
    "serving.frontend.submit",
    "serving.service.optimize_batch",
    "serving.fingerprint.canonical_alias_map",
    "serving.fingerprint.fingerprint",
    "serving.cache.get",
    "serving.cache.invalidate_tables",
    "db.engine.analyze",
    "db.engine.cardinalities",
    "serving.batching.rollout",
    "rl.policy.act_batch",
    "core.featurize.encoder",
    "serving.router.decide",
    "serving.router.expert_result",
    "optimizer.planner.choose_join_order",
    "optimizer.bitset_dp.selinger_dp_bitset",
    "optimizer.join_search.geqo_join_search",
    "optimizer.planner.evaluate_tree",
    "db.costmodel.cost",
    "rl.vector_env.collect",
    "rl.ppo.update",
    "core.rewards.evaluate",
]
for _name in _TIMED:
    METRICS[f"{_name}.calls"] = "count"
    METRICS[f"{_name}.self_ms"] = "ms"
METRICS.update({
    "serving.frontend.queue_wait.p50_ms": "ms",
    "serving.frontend.refresh_statistics.calls": "count",
    "serving.frontend.refresh_statistics.p50_ms": "ms",
    "serving.service.batch_size.mean": "queries",
    "serving.service.optimize_batch.traced_share": "ratio",
    "serving.cache.hit_ratio": "ratio",
    "serving.cache.invalidated_entries": "count",
    "serving.batching.rollout.queries": "count",
    "rl.policy.act_batch.rows": "count",
    "serving.router.learned_ratio": "ratio",
    "optimizer.bitset_dp.subsets": "count",
    "optimizer.memo.hit_ratio": "ratio",
    "traced.throughput": "ops/s",
})


class LayerTrace:
    """A recorder with every layer wrapped, plus the queue waits the
    spans alone cannot give."""

    def __init__(self) -> None:
        self.recorder = spans.SpanRecorder()
        #: id(query) -> submit times not yet matched to a batch entry.
        self._submitted: Dict[int, deque] = {}
        self.queue_waits: List[float] = []

    def note_submit(self, query, t: float) -> None:
        """Called by the client just before ``ServingFrontEnd.submit``."""
        self._submitted.setdefault(id(query), deque()).append(t)

    def _batch_entered(self, span, args, kwargs, result) -> None:
        queries = args[1]
        span.attrs["queries"] = len(queries)
        for query in queries:
            pending = self._submitted.get(id(query))
            if pending:
                self.queue_waits.append((span.start - pending.popleft()) * 1000.0)

    def install(self) -> None:
        from repro.core.featurize import QueryFeaturizer
        from repro.core.rewards import CostModelReward
        from repro.db.costmodel import CostModel
        from repro.db.engine import Database
        from repro.optimizer import planner as planner_module
        from repro.optimizer.planner import Planner
        from repro.rl.policy import CategoricalPolicy
        from repro.rl.ppo import PPOAgent
        from repro.rl.vector_env import VectorRolloutEngine
        from repro.serving import frontend as frontend_module
        from repro.serving import service as service_module
        from repro.serving.batching import MicroBatchEngine
        from repro.serving.cache import PlanCache
        from repro.serving.frontend import ServingFrontEnd
        from repro.serving.router import GuardrailRouter
        from repro.serving.service import OptimizerService

        def hit(span, args, kwargs, result):
            span.attrs["hits"] = result is not None

        def rows(span, args, kwargs, result):
            span.attrs["rows"] = len(args[1])

        def queries(span, args, kwargs, result):
            span.attrs["queries"] = len(args[1])

        def learned(span, args, kwargs, result):
            span.attrs["learned"] = bool(result.use_learned)

        def dropped(span, args, kwargs, result):
            span.attrs["entries"] = int(result)

        wrap = self.recorder.wrap
        wrap(ServingFrontEnd, "submit", "serving.frontend.submit")
        wrap(ServingFrontEnd, "refresh_statistics", "serving.frontend.refresh_statistics")
        wrap(OptimizerService, "optimize_batch", "serving.service.optimize_batch",
             self._batch_entered)
        for module in (frontend_module, service_module):
            wrap(module, "canonical_alias_map", "serving.fingerprint.canonical_alias_map")
            wrap(module, "fingerprint", "serving.fingerprint.fingerprint")
        wrap(PlanCache, "get", "serving.cache.get", hit)
        wrap(PlanCache, "invalidate_tables", "serving.cache.invalidate_tables", dropped)
        wrap(Database, "analyze", "db.engine.analyze")
        wrap(Database, "cardinalities", "db.engine.cardinalities")
        wrap(MicroBatchEngine, "rollout", "serving.batching.rollout", queries)
        wrap(CategoricalPolicy, "act_batch", "rl.policy.act_batch", rows)
        wrap(QueryFeaturizer, "encoder", "core.featurize.encoder")
        wrap(GuardrailRouter, "decide", "serving.router.decide", learned)
        wrap(GuardrailRouter, "expert_result", "serving.router.expert_result")
        wrap(Planner, "choose_join_order", "optimizer.planner.choose_join_order")
        wrap(planner_module, "selinger_dp_bitset", "optimizer.bitset_dp.selinger_dp_bitset")
        wrap(planner_module, "geqo_join_search", "optimizer.join_search.geqo_join_search")
        wrap(Planner, "evaluate_tree", "optimizer.planner.evaluate_tree")
        wrap(CostModel, "cost", "db.costmodel.cost")
        wrap(VectorRolloutEngine, "collect", "rl.vector_env.collect")
        wrap(PPOAgent, "update", "rl.ppo.update")
        wrap(CostModelReward, "evaluate", "core.rewards.evaluate")
        wrap(CostModelReward, "evaluate_tree", "core.rewards.evaluate")

    def uninstall(self) -> None:
        self.recorder.uninstall()

    def metrics(
        self, throughput: float, subsets: int, memo_hits: int, memo_lookups: int
    ) -> Dict[str, dict]:
        """Every per-layer metric, zero where the workload never calls
        the layer. DP subsets and sub-plan memo hits are deltas of the
        planners' own counters over the measured phase."""
        totals = spans.layer_totals(self.recorder.spans)

        def total(name, key):
            return totals.get(name, {}).get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        values: Dict[str, float] = {}
        for name in _TIMED:
            values[f"{name}.calls"] = total(name, "calls")
            values[f"{name}.self_ms"] = total(name, "self_ms")
        batches = [s for s in self.recorder.spans if s.name == "serving.service.optimize_batch"]
        wall = sum(s.end - s.start for s in batches) * 1000.0
        refreshes = [
            (s.end - s.start) * 1000.0
            for s in self.recorder.spans
            if s.name == "serving.frontend.refresh_statistics"
        ]
        values.update({
            "serving.frontend.queue_wait.p50_ms":
                spans.median(self.queue_waits) if self.queue_waits else 0.0,
            "serving.frontend.refresh_statistics.calls": len(refreshes),
            "serving.frontend.refresh_statistics.p50_ms":
                spans.median(refreshes) if refreshes else 0.0,
            "serving.service.batch_size.mean":
                ratio(total("serving.service.optimize_batch", "queries"), len(batches)),
            "serving.service.optimize_batch.traced_share":
                ratio(wall - total("serving.service.optimize_batch", "self_ms"), wall),
            "serving.cache.hit_ratio":
                ratio(total("serving.cache.get", "hits"), total("serving.cache.get", "calls")),
            "serving.cache.invalidated_entries":
                total("serving.cache.invalidate_tables", "entries"),
            "serving.batching.rollout.queries": total("serving.batching.rollout", "queries"),
            "rl.policy.act_batch.rows": total("rl.policy.act_batch", "rows"),
            "serving.router.learned_ratio":
                ratio(total("serving.router.decide", "learned"),
                      total("serving.router.decide", "calls")),
            "optimizer.bitset_dp.subsets": subsets,
            "optimizer.memo.hit_ratio": ratio(memo_hits, memo_lookups),
            "traced.throughput": throughput,
        })
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
