"""The end-to-end planning pipeline.

``Planner.plan`` drives: parse → bind → rewrite → join-order → pushdown →
semijoin → physicalize, returning a :class:`PlannedQuery` that records every
intermediate stage for EXPLAIN, tests, and benchmarks.

:class:`PlannerOptions` switches individual phases off — that is how the
experiment suite constructs its baselines (ship-everything mediator,
canonical join order, semijoins disabled, histogram-free estimation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..catalog.catalog import Catalog
from ..errors import PlanError
from ..sources.faults import FaultPlan
from ..sources.network import SimulatedNetwork
from ..sql.parser import parse_select
from .analyzer import Analyzer
from .cardinality import Estimator
from .cost import DEFAULT_CPU_ROW_MS, CostModel
from .join_order import DEFAULT_DP_LIMIT, JOIN_STRATEGIES, JoinOrderer, OrderingStats
from ..obs.trace import NULL_SPAN, NULL_TRACER
from .logical import LogicalPlan, explain_plan
from .partial_agg import push_eager_aggregation, push_partial_aggregation
from .physical import PhysicalOperator, PhysicalPlanner
from .pushdown import PUSHDOWN_LEVELS, PushdownPlanner
from .rewriter import rewrite
from .semijoin import SEMIJOIN_MODES, SemijoinDecision, SemijoinPlanner


#: Accepted query behaviors when a source fails past its whole envelope.
ON_SOURCE_FAILURE_MODES = ("fail", "partial")

#: PlannerOptions fields that steer only execution, never the plan: the
#: fragment scheduler, fetch envelope and operators read them at run time,
#: and :meth:`PlannerOptions.plan_key` resets them for the plan cache.
EXECUTION_ONLY_OPTIONS = (
    "max_parallel_fragments", "max_parallel_per_source",
    "fragment_timeout_ms", "retry_backoff_ms", "retry_backoff_multiplier",
    "retry_backoff_max_ms", "retry_jitter", "breaker_failure_threshold",
    "breaker_reset_ms", "batch_size", "trace", "deadline_ms",
    "on_source_failure", "faults", "adaptive_timeout", "timeout_multiplier",
    "timeout_floor_ms", "timeout_ceiling_ms", "hedge_fragments",
    "hedge_delay_ms", "hedge_quantile", "health_routing",
)


@dataclass(frozen=True)
class PlannerOptions:
    """Optimizer and runtime configuration; every field is an experiment
    knob. The fields named in :data:`EXECUTION_ONLY_OPTIONS` never shape
    the plan; they are the query's runtime policy.

    Attributes:
        rewrites: run the rule-based rewriter (constant folding, predicate
            pushdown, projection pruning). Off = the naive mediator.
        join_strategy: ``auto`` | ``dp`` | ``greedy`` | ``canonical``.
        pushdown: ``full`` (capability envelope) | ``scans-only`` (ship
            every base table whole).
        semijoin: ``auto`` (cost-gated) | ``off`` | ``force``.
        use_histograms: feed histograms to the estimator (T4 ablation).
        partial_aggregation: decompose aggregates over UNION ALL into
            per-branch partial aggregates (local/global aggregation), and,
            on a planner with ``eager_aggregation``, group one input at
            its source below cross-source INNER joins when the cost gate
            says the groups ship cheaper than the raw rows.
        dp_limit: region size above which DP falls back to greedy.
        cpu_row_ms: virtual CPU cost per mediator row (cost model unit).
        max_parallel_fragments: worker threads fetching independent
            fragments concurrently; 1 = classic sequential execution.
        max_parallel_per_source: concurrent fragments allowed against any
            one component system (autonomy: don't stampede a site).
        fragment_timeout_ms: fail a fragment whose source makes no progress
            for this long; 0 disables the timeout.
        retry_backoff_ms: base delay before a fragment retry (grows by
            ``retry_backoff_multiplier`` per attempt up to
            ``retry_backoff_max_ms``); 0 retries immediately.
        retry_jitter: spread each backoff uniformly over ±this fraction.
        breaker_failure_threshold: consecutive source failures that trip the
            per-source circuit breaker; 0 disables breakers.
        breaker_reset_ms: how long a tripped breaker stays open before
            admitting a half-open probe.
        batch_size: rows per columnar page handed between physical
            operators (batch-at-a-time execution). Purely an executor
            knob — plans, results, and simulated network accounting are
            identical at every value.
        trace: force tracing for queries planned with these options even
            when the mediator's tracer is globally disabled (per-query
            tracing). Purely observational — never changes the plan.
        deadline_ms: wall-clock budget for the whole query, planning
            included; past it the engine cancels cooperatively (page
            boundaries, retry gates) with an attributed
            QueryTimeoutError. 0 disables deadlines.
        on_source_failure: ``fail`` (a source failing past its
            retry/breaker/replica envelope aborts the query — classic
            behavior) or ``partial`` (the dead source's scans degrade to
            empty and the result is flagged ``complete=False`` with the
            excluded sources and reasons attached).
        faults: a seeded :class:`~repro.sources.faults.FaultPlan` applied
            to this query's source calls with a fresh injector per
            execution — deterministic fault scripts for tests and chaos
            runs. None (default) injects nothing.
        adaptive_timeout: derive each source's no-progress timeout from
            its observed page-fetch latency quantiles —
            ``clamp(timeout_multiplier * p99, timeout_floor_ms,
            timeout_ceiling_ms)`` — instead of the fixed
            ``fragment_timeout_ms`` (which remains the cold-start
            fallback until enough samples exist). Purely an execution
            knob.
        timeout_multiplier: the ``k`` in the adaptive budget ``k * p99``.
        timeout_floor_ms: lower clamp of the adaptive timeout (a fast
            source must not collapse its own budget to nothing).
        timeout_ceiling_ms: upper clamp of the adaptive timeout (a slow
            source must not grant itself an unbounded budget).
        hedge_fragments: arm hedged fragment fetches: a fragment whose
            source produces no page within its hedge delay (~observed
            p95 latency, ``hedge_delay_ms`` while cold) gets a duplicate
            fetch launched on a healthy replica; the first stream to
            produce wins, the loser is cooperatively cancelled. Rows are
            bit-identical to unhedged execution; duplicate traffic is
            charged honestly and reported under ``hedges_*`` metrics.
        hedge_delay_ms: static cold-start hedge delay, and the floor of
            the adaptive (quantile-derived) delay.
        hedge_quantile: the observed-latency quantile used as the hedge
            delay once the source's health window is warm.
        health_routing: pick each fragment's serving source by health
            score (EWMA latency inflated by error rate) across the
            primary and its replicas at dispatch time, instead of only
            falling back when a circuit breaker opens. Route decisions
            emit trace events and count in ``health_reroutes``.
    """

    rewrites: bool = True
    join_strategy: str = "auto"
    pushdown: str = "full"
    semijoin: str = "auto"
    replicas: str = "cost"
    use_histograms: bool = True
    partial_aggregation: bool = True
    dp_limit: int = DEFAULT_DP_LIMIT
    cpu_row_ms: float = DEFAULT_CPU_ROW_MS
    max_parallel_fragments: int = 1
    max_parallel_per_source: int = 2
    fragment_timeout_ms: float = 0.0
    retry_backoff_ms: float = 0.0
    retry_backoff_multiplier: float = 2.0
    retry_backoff_max_ms: float = 5000.0
    retry_jitter: float = 0.0
    breaker_failure_threshold: int = 0
    breaker_reset_ms: float = 30000.0
    batch_size: int = 1024
    trace: bool = False
    deadline_ms: float = 0.0
    on_source_failure: str = "fail"
    faults: Optional["FaultPlan"] = None
    adaptive_timeout: bool = False
    timeout_multiplier: float = 3.0
    timeout_floor_ms: float = 50.0
    timeout_ceiling_ms: float = 30000.0
    hedge_fragments: bool = False
    hedge_delay_ms: float = 50.0
    hedge_quantile: float = 0.95
    health_routing: bool = False

    def __post_init__(self) -> None:
        if self.join_strategy not in JOIN_STRATEGIES:
            raise PlanError(f"unknown join strategy {self.join_strategy!r}")
        if self.pushdown not in PUSHDOWN_LEVELS:
            raise PlanError(f"unknown pushdown level {self.pushdown!r}")
        if self.semijoin not in SEMIJOIN_MODES:
            raise PlanError(f"unknown semijoin mode {self.semijoin!r}")
        if self.replicas not in ("cost", "primary"):
            raise PlanError(f"unknown replica mode {self.replicas!r}")
        if self.max_parallel_fragments < 1:
            raise PlanError(
                "max_parallel_fragments must be >= 1 "
                f"(got {self.max_parallel_fragments!r})"
            )
        if self.max_parallel_per_source < 1:
            raise PlanError(
                "max_parallel_per_source must be >= 1 "
                f"(got {self.max_parallel_per_source!r})"
            )
        if self.fragment_timeout_ms < 0:
            raise PlanError(
                f"fragment_timeout_ms must be >= 0 (got {self.fragment_timeout_ms!r})"
            )
        if self.retry_backoff_ms < 0:
            raise PlanError(
                f"retry_backoff_ms must be >= 0 (got {self.retry_backoff_ms!r})"
            )
        if self.batch_size < 1:
            raise PlanError(
                f"batch_size must be >= 1 (got {self.batch_size!r})"
            )
        if self.retry_backoff_multiplier < 1:
            raise PlanError(
                "retry_backoff_multiplier must be >= 1 "
                f"(got {self.retry_backoff_multiplier!r})"
            )
        if self.retry_backoff_max_ms < 0:
            raise PlanError(
                f"retry_backoff_max_ms must be >= 0 (got {self.retry_backoff_max_ms!r})"
            )
        if not 0 <= self.retry_jitter < 1:
            raise PlanError(
                f"retry_jitter must be in [0, 1) (got {self.retry_jitter!r})"
            )
        if self.breaker_failure_threshold < 0:
            raise PlanError(
                "breaker_failure_threshold must be >= 0 "
                f"(got {self.breaker_failure_threshold!r})"
            )
        if self.breaker_reset_ms < 0:
            raise PlanError(
                f"breaker_reset_ms must be >= 0 (got {self.breaker_reset_ms!r})"
            )
        if self.deadline_ms < 0:
            raise PlanError(
                f"deadline_ms must be >= 0 (got {self.deadline_ms!r})"
            )
        if self.on_source_failure not in ON_SOURCE_FAILURE_MODES:
            raise PlanError(
                f"unknown on_source_failure mode {self.on_source_failure!r} "
                f"(expected one of {ON_SOURCE_FAILURE_MODES})"
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise PlanError(
                f"faults must be a FaultPlan or None (got {self.faults!r})"
            )
        if self.timeout_multiplier <= 0:
            raise PlanError(
                f"timeout_multiplier must be > 0 (got {self.timeout_multiplier!r})"
            )
        if self.timeout_floor_ms < 0:
            raise PlanError(
                f"timeout_floor_ms must be >= 0 (got {self.timeout_floor_ms!r})"
            )
        if self.timeout_ceiling_ms < self.timeout_floor_ms:
            raise PlanError(
                "timeout_ceiling_ms must be >= timeout_floor_ms "
                f"(got {self.timeout_ceiling_ms!r} < {self.timeout_floor_ms!r})"
            )
        if self.hedge_delay_ms < 0:
            raise PlanError(
                f"hedge_delay_ms must be >= 0 (got {self.hedge_delay_ms!r})"
            )
        if not 0 < self.hedge_quantile < 1:
            raise PlanError(
                f"hedge_quantile must be in (0, 1) (got {self.hedge_quantile!r})"
            )

    def but(self, **changes) -> "PlannerOptions":
        """A copy with some options changed (bench/baseline convenience)."""
        return replace(self, **changes)

    def plan_key(self) -> "PlannerOptions":
        """These options as a plan-cache key: every
        :data:`EXECUTION_ONLY_OPTIONS` field reset to its default, so
        requests that differ only in runtime behavior share one plan."""
        return replace(
            self,
            **{name: getattr(PlannerOptions, name) for name in EXECUTION_ONLY_OPTIONS},
        )


#: The ship-everything, no-optimizer configuration used as the baseline
#: mediator throughout the experiment suite.
NAIVE_OPTIONS = PlannerOptions(
    rewrites=False,
    join_strategy="canonical",
    pushdown="scans-only",
    semijoin="off",
    use_histograms=False,
    partial_aggregation=False,
)


@dataclass
class PlannedQuery:
    """Everything the planner produced for one statement."""

    sql: str
    bound: LogicalPlan
    optimized: LogicalPlan
    distributed: LogicalPlan
    physical: PhysicalOperator
    output_names: List[str]
    planning_ms: float
    ordering_stats: OrderingStats
    semijoin_decisions: List[SemijoinDecision] = field(default_factory=list)
    replica_decisions: List[str] = field(default_factory=list)
    estimates: dict = field(default_factory=dict)

    def explain(self) -> str:
        """Multi-stage EXPLAIN text with per-node cardinality estimates."""
        sections = [
            "== distributed plan ==",
            explain_plan(self.distributed, estimates=self.estimates),
            "",
            "== physical plan ==",
            self.physical.explain(),
        ]
        return "\n".join(sections)


class Planner:
    """Plans statements against one catalog + network configuration.

    ``eager_aggregation`` lets ``partial_aggregation`` also group a join
    input at its source below cross-source INNER joins (see
    :mod:`repro.core.partial_agg`). A mediator with a fragment cache turns
    it off for its lifetime: grouped fragments replay only on an exact
    key, where raw ones are subsumed by every wider cached window.
    """

    def __init__(
        self,
        catalog: Catalog,
        network: SimulatedNetwork,
        options: Optional[PlannerOptions] = None,
        eager_aggregation: bool = True,
    ) -> None:
        self.catalog = catalog
        self.network = network
        self.options = options or PlannerOptions()
        self.eager_aggregation = eager_aggregation

    def plan(
        self,
        sql: str,
        options: Optional[PlannerOptions] = None,
        tracer=None,
        parent=None,
    ) -> PlannedQuery:
        """Produce a fully optimized, executable plan for ``sql``.

        ``tracer``/``parent`` attach planning-phase spans (parse, analyze,
        rewrite, plan) to an enclosing query trace; both default to the
        no-op singletons so untraced callers pay nothing.
        """
        if tracer is None:
            tracer = NULL_TRACER
        if parent is None:
            parent = NULL_SPAN
        with tracer.child(parent, "phase:parse", "phase"):
            statement = parse_select(sql)
        return self.plan_statement(statement, sql, options, tracer, parent)

    def plan_statement(
        self,
        statement,
        sql: str,
        options: Optional[PlannerOptions] = None,
        tracer=None,
        parent=None,
    ) -> PlannedQuery:
        """Plan an already-parsed statement (prepared-statement entry point).

        The prepared machinery parses and normalizes statements itself, so
        this skips the parse phase but runs the full optimizer pipeline.
        """
        opts = options or self.options
        if tracer is None:
            tracer = NULL_TRACER
        if parent is None:
            parent = NULL_SPAN
        started = time.perf_counter()
        with tracer.child(parent, "phase:analyze", "phase"):
            analyzer = Analyzer(self.catalog)
            bound = analyzer.bind_statement(statement)
        output_names = [column.name for column in bound.output_columns]

        with tracer.child(parent, "phase:rewrite", "phase", enabled=opts.rewrites):
            optimized = rewrite(bound) if opts.rewrites else bound

        plan_span = tracer.child(parent, "phase:plan", "phase")
        with plan_span:
            estimator = Estimator(self.catalog, use_histograms=opts.use_histograms)
            cost_model = CostModel(self.network, estimator, cpu_row_ms=opts.cpu_row_ms)
            orderer = JoinOrderer(
                self.catalog,
                estimator,
                cost_model,
                strategy=opts.join_strategy,
                dp_limit=opts.dp_limit,
            )
            with tracer.child(plan_span, "join-order", "phase",
                              strategy=opts.join_strategy):
                optimized = orderer.reorder(optimized)
                if opts.rewrites:
                    # Reordering moves predicates around; re-prune projections.
                    optimized = rewrite(optimized)
            if opts.partial_aggregation:
                optimized = push_partial_aggregation(optimized)
            replica_decisions: List[str] = []
            if opts.replicas == "cost":
                from .replicas import ReplicaSelector

                selector = ReplicaSelector(self.catalog, estimator, cost_model)
                optimized = selector.apply(optimized)
                replica_decisions = selector.decisions

            pushdown = PushdownPlanner(self.catalog, estimator, level=opts.pushdown)
            if opts.partial_aggregation and self.eager_aggregation:
                optimized = push_eager_aggregation(
                    optimized, self.catalog, pushdown, cost_model
                )
            with tracer.child(plan_span, "pushdown", "phase", level=opts.pushdown):
                distributed = pushdown.apply(optimized)

            with tracer.child(plan_span, "semijoin", "phase", mode=opts.semijoin):
                semijoin = SemijoinPlanner(
                    self.catalog, estimator, cost_model, mode=opts.semijoin
                )
                distributed = semijoin.apply(distributed)

            with tracer.child(plan_span, "physical", "phase"):
                physical = PhysicalPlanner(self.catalog).build(distributed)

        estimates = {}
        for node in distributed.walk():
            estimates[id(node)] = estimator.estimate_rows(node)
        planning_ms = (time.perf_counter() - started) * 1000.0
        return PlannedQuery(
            sql=sql,
            bound=bound,
            optimized=optimized,
            distributed=distributed,
            physical=physical,
            output_names=output_names,
            planning_ms=planning_ms,
            ordering_stats=orderer.last_stats,
            semijoin_decisions=semijoin.decisions,
            replica_decisions=replica_decisions,
            estimates=estimates,
        )
