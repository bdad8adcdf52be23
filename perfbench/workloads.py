"""The three workloads: serve-hot, serve-cold and train.

Each ``run_*`` function sets the program up several times (``setup_s``
is the median), measures for the requested seconds through the public
APIs only, checks every output against :mod:`oracle`, and returns a
:class:`Outcome`. Inputs come from the workload seed; the database and
the pre-trained policy are fixed, so they are the same on every run.
"""

from __future__ import annotations

import ctypes
import gc
import math
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List

import numpy as np

import oracle
import spans
from repro.core import ExpertBaseline, JoinOrderEnv, Trainer, TrainingConfig, make_agent
from repro.core.rewards import CostModelReward
from repro.core.trainer import TrainingLog
from repro.db.plans import JoinTree, _Aggregate, _Join
from repro.db.predicates import ColumnRef, JoinPredicate
from repro.db.query import AggregateSpec, Query
from repro.optimizer import Planner, SubPlanCostMemo
from repro.rl.ppo import PPOConfig
from repro.serving import FrontEndConfig, ServingConfig, ServingFrontEnd
from repro.serving.batching import MicroBatchEngine
from repro.serving.fingerprint import fingerprint
from repro.workloads import job_lite_workload, make_imdb_database
from repro.workloads.generator import RandomQueryGenerator

# Database and policy: fixed, the same on every run.
SCALE = 0.02
DB_SEED = 1
POLICY_SEED = 7
PRETRAIN_EPISODES = 100
SETUP_REPEATS = 5
# Front end, built the way ``repro serve-bench`` builds it (its defaults:
# 2 shards, --burst 32, --max-delay-ms 2, --threshold 1.5,
# --cache-capacity 512).
N_SHARDS = 2
MAX_BATCH = 32
MAX_DELAY_MS = 2.0
GEQO_THRESHOLD = 12
GUARDRAIL_THRESHOLD = 1.5
CACHE_CAPACITY = 512
# Closed loop: requests kept outstanding by the one client thread; one
# micro-batch worth (serve-bench's --burst, "concurrent requests per
# micro-batch").
OUTSTANDING = MAX_BATCH
# serve-hot: serve-bench's --zipf default. Each request is spelled with
# the query's own aliases or with renamed ones, with equal chance.
ZIPF = 1.3
# Requests per round; each round ends with one single-table refresh
# (at ``refresh_statistics``' default sample size). Chosen so that
# about 94.5 % of requests hit the cache, the rate the workload was
# sized at.
REFRESH_EVERY = 600
HOT_WARMUP = 512
#: The probe: a JOB-lite query served in its own spelling, then in one
#: whose sorted alias order is reversed (see the README).
PROBE_QUERY = "16a"
# serve-cold
COLD_RELATIONS = (4, 14)
COLD_WARMUP = 66
COLD_POOL = 6000
# train
TRAIN_BATCH = 8
TRAIN_WARMUP_EPISODES = 64
EVAL_AT_EPISODES = 4096
# Served plans executed and compared with the row evaluator, per run.
EXECUTION_SAMPLE = 12
# Queries per run whose oracle is cross-checked against the seed DP.
SEED_DP_SAMPLE = 6
# Relative tolerance of cost equalities (same arithmetic, maybe
# re-associated).
REL_TOL = 1e-9
#: Latency tail the record reports, under the percentile rule.
TAIL_PERCENTILE = 99
#: Closed-loop submissions between two resident-memory samples.
RSS_EVERY = 64
#: Operations over which resident memory is sampled: a fixed amount of
#: work, so that a faster run does not report more memory. Served
#: misses fill the service's experience buffer, which grows with them.
RSS_WINDOW = {"serve-hot": 20 * (REFRESH_EVERY + 2), "serve-cold": 1200,
              "train": EVAL_AT_EPISODES}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    setup_s: List[float] = field(default_factory=list)
    measured_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    #: Measured-clock time at which each operation completed, and how
    #: many operations it stands for.
    done_at: List[tuple] = field(default_factory=list)
    #: Log of served (or greedy) plan cost over the exact DP's, per
    #: request (serving) or per training query (train).
    log_ratios: List[float] = field(default_factory=list)
    #: Serving reports the geomean of the ratios, train their median.
    ratio_statistic: str = "geomean"
    peak_rss_mb: float = 0.0
    #: Checks the program's outputs failed (the run is not correct).
    check_failures: List[str] = field(default_factory=list)
    #: Operations that raised (counted in ``failed``).
    errors: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)
    layers: Dict[str, dict] | None = None


class Stopwatch:
    """Sums the intervals between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.total = 0.0
        self._since: float | None = None

    def start(self) -> None:
        self._since = time.perf_counter()

    def stop(self) -> None:
        self.total += time.perf_counter() - self._since
        self._since = None

    def elapsed(self) -> float:
        running = 0.0 if self._since is None else time.perf_counter() - self._since
        return self.total + running


def rss_mb() -> float:
    """Resident memory of this process now (``VmRSS``), in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS in /proc/self/status")


def release_freed_memory() -> None:
    """Collect garbage and hand freed heap back to the system, so that
    memory the set-ups freed does not count as serving memory."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def job_queries():
    return job_lite_workload(variants=("a", "b", "c")).filter(
        lambda q: q.n_relations <= 11
    )


def renamed(query: Query, names: Dict[str, str], name: str) -> Query:
    """``query`` with every alias replaced through ``names``."""
    def ref(r):
        return ColumnRef(names[r.alias], r.column)

    return Query(
        name=name,
        relations={names[a]: t for a, t in query.relations.items()},
        selections=[replace(p, column=ref(p.column)) for p in query.selections],
        joins=[JoinPredicate(ref(j.left), ref(j.right)) for j in query.joins],
        group_by=[ref(g) for g in query.group_by],
        aggregates=[
            AggregateSpec(a.func, None if a.column is None else ref(a.column))
            for a in query.aggregates
        ],
    )


def ranked_names(query: Query, prefix: str, reverse: bool = False) -> Dict[str, str]:
    """New alias names ``prefix00``, ``prefix01``, ... by sorted alias
    rank: the sorted alias order is kept, or reversed."""
    aliases = sorted(query.relations)
    n = len(aliases)
    return {
        a: f"{prefix}{(n - 1 - i if reverse else i):02d}" for i, a in enumerate(aliases)
    }


def hot_pool():
    """The JOB-lite queries, and for each an alias-renamed copy that
    keeps the sorted alias order."""
    base = list(job_queries())
    return base, [renamed(q, ranked_names(q, "r"), f"{q.name}~r") for q in base]


def hot_stream(base, variants, rng):
    """Zipf-skewed ranks over the JOB-lite queries; each request takes
    the query's own spelling or the renamed one with equal chance."""
    while True:
        rank = int(rng.zipf(ZIPF))
        idx = (rank - 1) % len(base)
        yield variants[idx] if rng.random() < 0.5 else base[idx]


def probe_pair(base):
    """``PROBE_QUERY`` and its copy with the sorted alias order reversed."""
    query = next(q for q in base if q.name == PROBE_QUERY)
    return query, renamed(query, ranked_names(query, "p", reverse=True), f"{query.name}~p")


def cold_pool(db, seed: int, size: int, prefix: str) -> List[Query]:
    """Random connected queries with distinct fingerprints; relation
    counts run through every size of ``COLD_RELATIONS`` once per round,
    in seeded order."""
    rng = np.random.default_rng([seed, 2])
    gen = RandomQueryGenerator(db)
    lo, hi = COLD_RELATIONS
    seen = set()
    out: List[Query] = []
    while len(out) < size:
        for n in rng.permutation(np.arange(lo, hi + 1)):
            while True:
                query = gen.generate(rng, int(n), name=f"{prefix}{len(out)}")
                fp = fingerprint(query)
                if fp not in seen:
                    seen.add(fp)
                    break
            out.append(query)
    return out[:size]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def _trained_policy(db, seed_episodes: int):
    planner = Planner(db, geqo_threshold=GEQO_THRESHOLD, cost_memo=SubPlanCostMemo())
    baseline = ExpertBaseline(db, planner)
    rng = np.random.default_rng(POLICY_SEED)
    env = JoinOrderEnv(
        db, job_queries(),
        reward_source=CostModelReward(db, "relative", baseline),
        planner=planner, rng=rng, forbid_cross_products=False,
    )
    agent = make_agent(env, rng, "ppo", PPOConfig(lr=1e-3, entropy_coef=3e-3))
    trainer = Trainer(env, agent, baseline, rng, TrainingConfig(batch_size=TRAIN_BATCH))
    if seed_episodes:
        trainer.run(seed_episodes)
    return env, agent, trainer


def build_db():
    return make_imdb_database(scale=SCALE, seed=DB_SEED, sample_size=10_000)


class ServingStack:
    """Database, pre-trained policy and a running front end."""

    def __init__(self) -> None:
        self.db = build_db()
        self.env, self.agent, _ = _trained_policy(self.db, PRETRAIN_EPISODES)
        self.frontend = ServingFrontEnd.build(
            self.db,
            self.agent,
            featurizer=self.env.featurizer,
            serving_config=ServingConfig(
                cache_capacity=CACHE_CAPACITY,
                regression_threshold=GUARDRAIL_THRESHOLD,
                max_batch_size=MAX_BATCH,
            ),
            config=FrontEndConfig(
                n_shards=N_SHARDS, max_batch=MAX_BATCH, max_delay_ms=MAX_DELAY_MS
            ),
            planner_kwargs={"geqo_threshold": GEQO_THRESHOLD, "expert_lane": "bitset"},
            reward_source=self.env.reward_source,
            telemetry=None,
        )

    def planners(self):
        return [service.planner for service in self.frontend.services]


def _set_up_serving(outcome: Outcome, warmup) -> ServingStack:
    """``SETUP_REPEATS`` timed set-ups; the last one is kept."""
    stack = None
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        stack = ServingStack()
        try:
            stack.frontend.optimize_batch(warmup)
        except BaseException:
            stack.frontend.close()
            raise
        outcome.setup_s.append(time.perf_counter() - start)
        if i < SETUP_REPEATS - 1:
            stack.frontend.close()
    return stack


# ----------------------------------------------------------------------
# Closed-loop client
# ----------------------------------------------------------------------
class ClosedLoop:
    """One client thread keeping ``outstanding`` requests in flight."""

    def __init__(self, frontend, outstanding: int, outcome: Outcome, watch, trace=None,
                 rss_window: int = 0) -> None:
        self.frontend = frontend
        self.rss_window = rss_window
        self.watch = watch
        self.outstanding = outstanding
        self.outcome = outcome
        self.trace = trace
        self._slots = threading.Semaphore(outstanding)
        self.pending: List[tuple] = []
        self.submitted = 0

    def _done(self, start: float, future) -> None:
        self.outcome.latencies_ms.append((time.perf_counter() - start) * 1000.0)
        self.outcome.done_at.append((self.watch.elapsed(), 1))
        self._slots.release()

    def submit(self, query) -> None:
        self._slots.acquire()
        self.outcome.attempted += 1
        if self.submitted % RSS_EVERY == 0 and self.submitted <= self.rss_window:
            self.outcome.peak_rss_mb = max(self.outcome.peak_rss_mb, rss_mb())
        self.submitted += 1
        start = time.perf_counter()
        if self.trace is not None:
            self.trace.note_submit(query, start)
        try:
            future = self.frontend.submit(query)
        except Exception as exc:
            self.outcome.failed += 1
            self.outcome.errors.append(f"submit {query.name}: {exc!r}")
            self._slots.release()
            return
        future.add_done_callback(partial(self._done, start))
        self.pending.append((query, future))

    def drain(self) -> List[tuple]:
        """Wait for every outstanding request; hand back those since
        the last drain."""
        for _ in range(self.outstanding):
            self._slots.acquire()
        for _ in range(self.outstanding):
            self._slots.release()
        batch, self.pending = self.pending, []
        return batch


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def join_tree_of(plan) -> JoinTree:
    """The join order of a physical plan. A hash join's inputs are in
    build-probe order, which may reverse the logical order; the
    join-order proxy is symmetric, so proxy costs are unaffected."""
    while isinstance(plan, _Aggregate):
        plan = plan.child
    if isinstance(plan, _Join):
        return JoinTree.join(join_tree_of(plan.left), join_tree_of(plan.right))
    return JoinTree.leaf(plan.alias)


def _has_cross_product(tree: JoinTree, query) -> bool:
    for node in tree.iter_joins():
        if not query.joins_between(node.left.aliases, node.right.aliases):
            return True
    return False


def cross_check_seed_dp(db, queries, outcome: Outcome, rng) -> None:
    """Compare the oracle DP with the seed enumerator on a seeded sample."""
    picks = rng.choice(len(queries), size=min(SEED_DP_SAMPLE, len(queries)), replace=False)
    for i in sorted(int(i) for i in picks):
        query = queries[i]
        cards = db.estimator().for_query(query)
        disagreement = oracle.seed_dp_disagrees(query, cards, db.cost_params)
        if disagreement:
            outcome.check_failures.append(disagreement)
    outcome.info["seed_dp_cross_checks"] = len(picks)


class ServedChecks:
    """Checks served plans against the oracles and gathers cost ratios."""

    def __init__(self, db, outcome: Outcome, seed: int) -> None:
        self.db = db
        self.outcome = outcome
        self.oracle = oracle.CostOracle(db)
        #: The first plan served to each query object, for execution.
        self.candidates: Dict[int, tuple] = {}
        self.seed = seed
        self.counts: Dict[str, int] = {
            "plans_checked": 0, "expert_equal": 0,
            "geqo_bounded": 0, "geqo_cross_product": 0,
        }
        self.sources: Dict[str, int] = {}

    def fail(self, message: str) -> None:
        self.outcome.check_failures.append(message)

    def check(self, batch, key_of, probe: bool = False) -> None:
        """Check the requests in ``batch`` under the live statistics.

        ``key_of(query)`` gives the oracle memo slot and a stamp that
        must change whenever statistics the query reads change. With ``probe`` the
        cost of every request, cache hits included, must be the exact
        DP plan's for its own spelling, and a miss is a failed operation
        (the known fault the probe shows), not a failed check.
        """
        groups: Dict[tuple, list] = {}
        for query, future in batch:
            try:
                served = future.result()
            except Exception as exc:
                self.outcome.failed += 1
                self.outcome.errors.append(f"request {query.name}: {exc!r}")
                continue
            self.sources[served.source] = self.sources.get(served.source, 0) + 1
            group = groups.setdefault((id(query), id(served.plan)), [query, served, 0])
            group[2] += 1
        cost_model = self.db.cost_model()
        for (qid, _plan), (query, served, count) in groups.items():
            self.counts["plans_checked"] += 1
            for defect in oracle.plan_defects(served.plan, query):
                self.fail(f"{query.name} ({served.source}): {defect}")
            cards = self.oracle.fresh_cards(query)
            recost = cost_model.cost(served.plan, cards).total
            if not math.isclose(recost, served.cost, rel_tol=REL_TOL):
                self.fail(f"{query.name}: served cost {served.cost!r}, re-cost {recost!r}")
            best = self.oracle.solve(query, *key_of(query))
            mismatch = None
            if served.source in ("expert", "fallback"):
                mismatch = self._check_expert(query, served, cards, best)
            elif probe and not math.isclose(served.cost, best.cost, rel_tol=REL_TOL):
                mismatch = (
                    f"{query.name} ({served.source}): cost {served.cost!r}, "
                    f"exact left-deep DP plan {best.cost!r}"
                )
            if mismatch and probe:
                self.outcome.failed += count
                self.outcome.errors.append(mismatch)
            elif mismatch:
                self.fail(mismatch)
            self.outcome.log_ratios.extend([math.log(served.cost / best.cost)] * count)
            self.candidates.setdefault(qid, (query, served.plan))

    def _check_expert(self, query, served, cards, best) -> str | None:
        """An expert plan must be the exact DP's: below the GEQO
        threshold its join order reaches the proxy optimum, and its
        cost is that of the oracle's plan for this request's own
        spelling. Returns the cost mismatch, if any. GEQO plans may not
        beat the optimum unless they use a cross product, which the DP
        does not consider.
        """
        tree = join_tree_of(served.plan)
        got = oracle.proxy_tree_cost(tree, query, cards, self.db.cost_params)
        if query.n_relations < GEQO_THRESHOLD:
            if not math.isclose(got, best.proxy, rel_tol=REL_TOL):
                self.fail(
                    f"{query.name} ({served.source}): join-order proxy {got!r}, "
                    f"exact left-deep DP {best.proxy!r}"
                )
            elif not math.isclose(served.cost, best.cost, rel_tol=REL_TOL):
                return (
                    f"{query.name} ({served.source}): cost {served.cost!r}, "
                    f"exact left-deep DP plan {best.cost!r}"
                )
            else:
                self.counts["expert_equal"] += 1
        elif _has_cross_product(tree, query):
            self.counts["geqo_cross_product"] += 1
        else:
            self.counts["geqo_bounded"] += 1
            if got < best.proxy * (1.0 - REL_TOL):
                self.fail(
                    f"{query.name}: GEQO beats the exact DP ({got!r} < {best.proxy!r})"
                )
        return None

    def execute_sample(self) -> None:
        """Execute a seeded sample of distinct served plans and compare
        with the row evaluator; censored executions are only counted."""
        pool = list(self.candidates.values())
        rng = np.random.default_rng([self.seed, 3])
        picks = rng.choice(len(pool), size=min(EXECUTION_SAMPLE, len(pool)), replace=False)
        compared = censored = 0
        for i in sorted(int(i) for i in picks):
            query, plan = pool[i]
            execution = self.db.execute_plan(plan, query)
            if execution.timed_out:
                censored += 1
                continue
            try:
                rows = oracle.evaluate_rows(self.db, query)
            except oracle.RowCapExceeded:
                censored += 1
                continue
            compared += 1
            want = oracle.expected_result(self.db, query, rows)
            got = oracle.executed_result(query, execution)
            if want != got:
                self.fail(f"{query.name}: executed {got}, row evaluator {want}")
        self.outcome.info.update(executions_compared=compared, executions_censored=censored)
        queries = {id(q): q for q, _plan in pool if q.n_relations < GEQO_THRESHOLD}
        cross_check_seed_dp(self.db, list(queries.values()), self.outcome, rng)

    def summary(self) -> None:
        self.outcome.info.update(self.counts)
        self.outcome.info["sources"] = dict(sorted(self.sources.items()))
        self.outcome.info["oracle_solves"] = self.oracle.computed


# ----------------------------------------------------------------------
# Traced runs
# ----------------------------------------------------------------------
def planner_counters(planners) -> tuple:
    """DP subsets enumerated, sub-plan memo hits and lookups, summed."""
    return (
        sum(p.dp_stats.subsets_enumerated for p in planners),
        sum(p.cost_memo.hits for p in planners),
        sum(p.cost_memo.hits + p.cost_memo.misses for p in planners),
    )


def _finish_trace(trace, planners, outcome, before) -> None:
    trace.uninstall()
    subsets, hits, lookups = (
        a - b for a, b in zip(planner_counters(planners), before)
    )
    outcome.layers = trace.metrics(
        spans.block_rate(outcome.done_at), subsets, hits, lookups
    )


# ----------------------------------------------------------------------
# serve-hot
# ----------------------------------------------------------------------


def run_serve_hot(seed: int, seconds: float, trace=None) -> Outcome:
    """Whole rounds until ``seconds`` of measured time have passed. A
    round is ``REFRESH_EVERY`` requests, a drain, a one-table refresh,
    then the probe: its two spellings, one after the other."""
    outcome = Outcome()
    base, variants = hot_pool()
    probe = probe_pair(base)
    warm_stream = hot_stream(base, variants, np.random.default_rng([seed, 4]))
    warmup = [next(warm_stream) for _ in range(HOT_WARMUP)]
    stack = _set_up_serving(outcome, warmup)
    try:
        checks = ServedChecks(stack.db, outcome, seed)
        versions = {name: 0 for name in stack.db.tables}
        pool_index = {id(q): i for i, q in enumerate(base + variants + [probe[1]])}

        def key_of(query):
            tables = sorted(set(query.relations.values()))
            return (pool_index[id(query)], tuple(versions[t] for t in tables))

        def paused_check(batch, probe=False):
            watch.stop()
            if trace is not None:
                trace.recorder.paused = True
            checks.check(batch, key_of, probe)
            if trace is not None:
                trace.recorder.paused = False
            watch.start()

        tables = sorted(stack.db.tables)
        stream = hot_stream(base, variants, np.random.default_rng([seed, 5]))
        watch = Stopwatch()
        client = ClosedLoop(stack.frontend, OUTSTANDING, outcome, watch, trace,
                            RSS_WINDOW["serve-hot"])
        refresh_ms: List[float] = []
        probe_sources: Dict[str, List[str]] = {q.name: [] for q in probe}
        before = planner_counters(stack.planners())
        release_freed_memory()
        if trace is not None:
            trace.install()
        watch.start()
        while watch.elapsed() < seconds:
            for _ in range(REFRESH_EVERY):
                client.submit(next(stream))
            paused_check(client.drain())
            table = tables[len(refresh_ms) % len(tables)]
            start = time.perf_counter()
            stack.frontend.refresh_statistics(
                tables=[table], seed=10_000 * seed + len(refresh_ms) + 1
            )
            refresh_ms.append((time.perf_counter() - start) * 1000.0)
            versions[table] += 1
            for query, is_probe in zip(probe, (False, True)):
                client.submit(query)
                batch = client.drain()
                probe_sources[query.name].append(batch[0][1].result().source)
                paused_check(batch, is_probe)
        watch.stop()
        outcome.measured_s = watch.total
        if trace is not None:
            _finish_trace(trace, stack.planners(), outcome, before)
        checks.execute_sample()
        checks.summary()
        outcome.info["probe_sources"] = {
            name: dict(sorted(Counter(got).items())) for name, got in probe_sources.items()
        }
        outcome.info["refreshes"] = len(refresh_ms)
        outcome.info["refresh_p50_ms"] = spans.median(refresh_ms)
        outcome.info["counters"] = _counters(stack.frontend)
    finally:
        stack.frontend.close()
    return outcome


def _counters(frontend) -> Dict[str, float]:
    counters = frontend.counters()
    keep = ("cache_hit_rate", "fallback_rate", "frontend_batch_occupancy_mean",
            "frontend_served_occupancy_mean", "dp_subsets_enumerated")
    return {k: counters[k] for k in keep if k in counters}


# ----------------------------------------------------------------------
# serve-cold
# ----------------------------------------------------------------------
def run_serve_cold(seed: int, seconds: float, trace=None) -> Outcome:
    outcome = Outcome()
    input_db = build_db()
    warmup = cold_pool(input_db, seed + 1_000_003, COLD_WARMUP, "warm-")
    pool = cold_pool(input_db, seed, COLD_POOL, "cold-")
    del input_db
    stack = _set_up_serving(outcome, warmup)
    try:
        checks = ServedChecks(stack.db, outcome, seed)
        watch = Stopwatch()
        client = ClosedLoop(stack.frontend, OUTSTANDING, outcome, watch, trace,
                            RSS_WINDOW["serve-cold"])
        before = planner_counters(stack.planners())
        release_freed_memory()
        if trace is not None:
            trace.install()
        watch.start()
        for query in pool:
            if watch.elapsed() >= seconds:
                break
            client.submit(query)
        else:
            outcome.info["pool_exhausted"] = True
        batch = client.drain()
        watch.stop()
        outcome.measured_s = watch.total
        if trace is not None:
            _finish_trace(trace, stack.planners(), outcome, before)
        index = {id(q): i for i, q in enumerate(pool)}
        checks.check(batch, lambda q: (index[id(q)], None))
        checks.execute_sample()
        checks.summary()
        outcome.info["counters"] = _counters(stack.frontend)
    finally:
        stack.frontend.close()
    return outcome


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def _finite_weights(agent) -> bool:
    return all(
        np.all(np.isfinite(arr))
        for net in (agent.policy_net, agent.value_net)
        for arr in net.net.params.values()
    )


def _greedy_evaluation(db, env, agent, trainer, outcome: Outcome, cost_oracle, seed):
    """Greedy ``Trainer.evaluate`` over every training query, checked:
    the expert baseline equals the exact DP, and the same greedy join
    orders, rolled out apart and completed by a memo-free planner, cover
    their queries at the cost the trainer recorded."""
    queries = list(env.workload)
    records = trainer.evaluate(queries)
    engine = MicroBatchEngine(agent.policy, env.featurizer, db, forbid_cross_products=False)
    planner = Planner(db, geqo_threshold=GEQO_THRESHOLD, cost_memo=None)
    ratios = []
    failures = outcome.check_failures
    for query, rollout in zip(queries, engine.rollout(queries)):
        record = records[query.name]
        best = cost_oracle.solve(query, query.name).cost
        if not math.isclose(record.expert_cost, best, rel_tol=REL_TOL):
            failures.append(
                f"{query.name}: expert cost {record.expert_cost!r}, exact DP {best!r}"
            )
        result = planner.evaluate_tree(rollout.tree, query)
        for defect in oracle.plan_defects(result.plan, query):
            failures.append(f"{query.name} (greedy): {defect}")
        if not math.isclose(result.cost.total, record.cost, rel_tol=REL_TOL):
            failures.append(
                f"{query.name}: greedy cost {record.cost!r}, re-built {result.cost.total!r}"
            )
        ratios.append(math.log(record.cost / best))
    outcome.log_ratios = ratios
    cross_check_seed_dp(db, queries, outcome, np.random.default_rng([seed, 7]))


class TrainStack:
    def __init__(self, seed: int) -> None:
        self.db = build_db()
        self.env, self.agent, self.trainer = _trained_policy(self.db, 0)
        # The workload seed drives episode sampling; the policy's
        # initial weights stay fixed.
        self.trainer.rng = np.random.default_rng([seed, 6])
        self.env.rng = self.trainer.rng
        for query in self.env.workload:
            self.trainer.baseline.cost(query)
        self.trainer.run(TRAIN_WARMUP_EPISODES)


def run_train(seed: int, seconds: float, trace=None) -> Outcome:
    # RL training outcomes depend on the episode order: across seeds a
    # few catastrophic greedy plans swing the geomean by 2x, while the
    # median over the training queries holds within about 15%.
    outcome = Outcome(ratio_statistic="median")
    stack = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        stack = TrainStack(seed)
        outcome.setup_s.append(time.perf_counter() - start)
    before = planner_counters([stack.env.planner])
    cost_oracle = oracle.CostOracle(stack.db)
    log = TrainingLog()
    release_freed_memory()
    if trace is not None:
        trace.install()
    watch = Stopwatch()
    watch.start()
    while watch.elapsed() < seconds:
        start = time.perf_counter()
        # run() starts a fresh log when handed an empty one, so keep
        # the one it returns.
        log = stack.trainer.run(TRAIN_BATCH, log=log)
        outcome.latencies_ms.append((time.perf_counter() - start) * 1000.0)
        outcome.done_at.append((watch.elapsed(), TRAIN_BATCH))
        if len(log) <= RSS_WINDOW["train"]:
            outcome.peak_rss_mb = max(outcome.peak_rss_mb, rss_mb())
        if len(log) == EVAL_AT_EPISODES:
            watch.stop()
            if trace is not None:
                trace.recorder.paused = True
            _greedy_evaluation(stack.db, stack.env, stack.agent, stack.trainer,
                               outcome, cost_oracle, seed)
            if trace is not None:
                trace.recorder.paused = False
            watch.start()
    watch.stop()
    outcome.measured_s = watch.total
    outcome.attempted = len(log)
    if trace is not None:
        _finish_trace(trace, [stack.env.planner], outcome, before)
    if not outcome.log_ratios:
        outcome.check_failures.append(
            f"the run ended after {len(log)} episodes, before the greedy "
            f"evaluation at {EVAL_AT_EPISODES}: give it more --seconds"
        )
    rewards = log.rewards()
    if not np.all(np.isfinite(rewards)):
        outcome.check_failures.append(
            f"{int(np.sum(~np.isfinite(rewards)))} non-finite rewards"
        )
    if not _finite_weights(stack.agent):
        outcome.check_failures.append("non-finite policy or value weights")
    outcome.info.update(
        episodes=len(log), steps=len(outcome.latencies_ms),
        evaluated_at_episode=EVAL_AT_EPISODES,
    )
    return outcome


WORKLOADS = {
    "serve-hot": run_serve_hot,
    "serve-cold": run_serve_cold,
    "train": run_train,
}
