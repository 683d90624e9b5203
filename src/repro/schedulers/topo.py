"""The paper's topology-aware scheduler (Algorithm 1).

Both policies run the same pipeline per queued job (oldest first):
filter hosts by constraints, map the job graph onto every candidate
pool with DRB (Algorithm 2 + 3), keep the highest-utility solution.

* **TOPO-AWARE** (``postpone=False``): the best available solution is
  always enforced as soon as resources exist, "without consideration
  for the future jobs".  Jobs with no feasible hosts are re-queued
  (Algorithm 1 pops every waiting job each iteration).
* **TOPO-AWARE-P** (``postpone=True``): additionally allows
  out-of-order execution by choice: a solution that does not satisfy
  the job's SLO -- utility below ``min_utility``, or no P2P for a
  P2P-requiring job -- is postponed to the next scheduler iteration,
  in the hope that finishing jobs free a better allocation.
* **TOPO-AWARE-PM** (``preempt=True``): builds preemption and
  migration on top of the postponing policy.  After the placement
  loop it may (a) evict a strictly-lower-priority running job when a
  queued job's utility gain, net of the victim's utility and a
  migration-cost penalty (:func:`repro.core.utility.migration_penalty`),
  clears a threshold -- the victim is checkpointed and re-queued, not
  restarted; and (b) every ``defrag_interval`` rounds, migrate a
  running job whose current placement scores markedly below the best
  placement now available (consolidating fragmented allocations freed
  by completions).  With every job at the default priority 0 and
  ``defrag_interval=0`` the policy is decision-for-decision identical
  to TOPO-AWARE-P.

Anti-starvation safeguards for the postponing policy: a job is placed
anyway when nothing is running (the state cannot improve), when its
P2P demand is unattainable on this hardware, or when an optional
postponement budget is exhausted.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.placement import PlacementSolution
from repro.core.utility import SLO_EPS, migration_penalty, normalized_utility
from repro.obs import trace as _trace
from repro.schedulers.base import RoundView, Scheduler, SchedulingContext
from repro.workload.job import Job


class TopoAwareScheduler(Scheduler):
    def __init__(
        self,
        postpone: bool = False,
        max_postponements: int | None = None,
        preempt: bool = False,
        defrag_interval: int = 10,
        max_evictions_per_round: int = 2,
        preempt_min_gain: float = 0.0,
        defrag_min_gain: float = 0.05,
    ) -> None:
        super().__init__()
        self.postpone = postpone
        self.max_postponements = max_postponements
        self.preempt = preempt
        #: run the defragmentation pass every N decision rounds
        #: (0 disables it)
        self.defrag_interval = defrag_interval
        #: combined cap on preemptions + migrations per decision round,
        #: bounding churn (each eviction pays a migration cost)
        self.max_evictions_per_round = max_evictions_per_round
        #: minimum net utility gain (challenger − victim − penalty)
        #: before a preemption is worth its disruption
        self.preempt_min_gain = preempt_min_gain
        #: minimum net utility gain before a migration is worth its cost
        self.defrag_min_gain = defrag_min_gain
        if preempt:
            self.name = "TOPO-AWARE-PM"
        else:
            self.name = "TOPO-AWARE-P" if postpone else "TOPO-AWARE"
        self._round = 0

    def schedule(self, ctx: SchedulingContext) -> list[PlacementSolution]:
        placed: list[PlacementSolution] = []
        view = self._round_view(ctx)
        rec = ctx.recorder
        max_free = ctx.alloc.max_free_count()
        total_free = ctx.alloc.total_free_count()
        for entry in list(self._queue):
            job = entry.job
            with _trace.span(
                "sched.propose",
                job_id=job.job_id,
                scheduler=self.name,
                num_gpus=job.num_gpus,
                queued=len(self._queue),
            ) as sp:
                # capacity pruning: reject a job the cluster cannot hold
                # before DRB runs.  Same no-fit answer (filter_hosts
                # would return no pool), at O(1) per job — the aggregates
                # come from the allocator's maintained capacity-bucket
                # index — with the span and the no-fit outcome Algorithm
                # 1's per-iteration pop implies.
                if (job.single_node and job.num_gpus > max_free) or (
                    not job.single_node and job.num_gpus > total_free
                ):
                    sp.set(outcome="no-fit", reason="capacity")
                    if rec is not None:
                        self._record(
                            ctx, job, "no-fit",
                            reason="capacity",
                            capacity={
                                "max_free": max_free,
                                "total_free": total_free,
                                "single_node": job.single_node,
                                # hosts that could hold the job whole,
                                # straight off the bucket index (tap)
                                "eligible_hosts": (
                                    ctx.alloc.eligible_machine_count(
                                        job.num_gpus
                                    )
                                ),
                            },
                        )
                    continue
                prov = {} if rec is not None else None
                co = view.current()
                solution = ctx.engine.propose(job, co, provenance=prov)
                if solution is None:
                    # Algorithm 1 pops every queued job per iteration: a
                    # job with no feasible hosts right now is simply
                    # re-queued (unlike FCFS, the head never blocks
                    # later jobs).
                    sp.set(outcome="no-fit")
                    if rec is not None:
                        self._record(
                            ctx, job, "no-fit",
                            reason=prov.pop("reason", "no-feasible-pool"),
                            propose=prov,
                        )
                    continue
                sp.set(utility=solution.utility, p2p=solution.p2p)
                detail = {} if (rec is not None and self.postpone) else None
                if self.postpone and not self._acceptable(
                    ctx, job, solution, co, detail
                ):
                    self._note_postponed(job.job_id)
                    sp.set(
                        outcome="postponed",
                        postponements=self.postponements.get(job.job_id, 0),
                    )
                    if rec is not None:
                        self._record(
                            ctx, job, "postponed",
                            reason=(detail or {}).get("failed"),
                            solution=solution,
                            engine=ctx.engine,
                            propose=prov,
                            slo=detail,
                        )
                    continue
                sp.set(outcome="placed", gpus=len(solution.gpus))
                if rec is not None:
                    self._record(
                        ctx, job, "placed",
                        solution=solution,
                        engine=ctx.engine,
                        propose=prov,
                        slo=detail,
                    )
                self._commit(ctx, view, placed, job, solution)
            max_free = ctx.alloc.max_free_count()
            total_free = ctx.alloc.total_free_count()
            if max_free == 0:
                break
        if self.preempt and ctx.cluster is not None and ctx.evict is not None:
            self._round += 1
            budget = self.max_evictions_per_round
            budget -= self._preempt_pass(ctx, view, placed, budget)
            if (
                budget > 0
                and self.defrag_interval
                and self._round % self.defrag_interval == 0
            ):
                self._defrag_pass(ctx, view, placed, budget)
        return placed

    def _record(
        self, ctx: SchedulingContext, job: Job, verdict: str, **fields
    ) -> None:
        """Write one decision about ``job`` to ``ctx.recorder`` with the
        fields every verdict carries: the round's time, this policy,
        the queue length (``job`` counted while it is queued) and the
        job's postponement count so far."""
        ctx.recorder.decision(
            t=ctx.now,
            scheduler=self.name,
            job=job,
            queued=len(self._queue),
            verdict=verdict,
            postponements=self.postponements.get(job.job_id, 0),
            **fields,
        )

    def _slo_checks(
        self, ctx: SchedulingContext, job: Job, solution: PlacementSolution
    ) -> tuple[bool, bool]:
        """TOPO-AWARE-P's SLO predicate as ``(utility ok, P2P ok)``:
        utility at the job's threshold, and P2P when the job requires
        it and some allocation on this hardware could give it."""
        utility_ok = solution.utility >= job.min_utility - SLO_EPS
        p2p_ok = (
            not job.requires_p2p
            or solution.p2p
            or not ctx.engine.p2p_attainable(job)
        )
        return utility_ok, p2p_ok

    # ------------------------------------------------------------------
    # preemption & migration (TOPO-AWARE-PM)
    # ------------------------------------------------------------------
    def _remaining_wall_s(self, run) -> float:
        """A running job's projected wall-clock seconds to completion."""
        rate = run.rate
        if rate <= 0:
            return run.remaining
        return run.remaining / rate

    # Eviction probes release a victim's GPUs and run a full proposal,
    # yet almost none of them commit.  The two predicates below rule a
    # probe out beforehand only when it provably ends in ``continue``
    # (DESIGN.md §11), so skipping it changes no decision.

    def _could_fit(
        self, ctx: SchedulingContext, job: Job, freed: frozenset[str]
    ) -> bool:
        """Whether ``job`` could fit once the GPUs ``freed`` are released.

        An upper bound on the capacity ``filter_hosts`` would see after
        the release, read without releasing: when it is short of the
        job, every host-filter path returns no pool and the probe's
        ``propose`` would return ``None``.
        """
        alloc = ctx.alloc
        need = job.num_gpus
        if not job.single_node:
            return alloc.total_free_count() + len(freed) >= need
        if alloc.max_free_count() >= need:
            return True
        per_machine: dict[str, int] = {}
        for g in freed:
            m = alloc.topo.machine_of(g)
            per_machine[m] = per_machine.get(m, 0) + 1
        return any(
            alloc.free_count(m) + n >= need for m, n in per_machine.items()
        )

    def _gain_reachable(
        self, u_max: float, u_now: float, penalty: float, min_gain: float
    ) -> bool:
        """Whether a probe returning the utility ceiling ``u_max`` would
        clear ``min_gain``.  Same expression shape as the committed
        ``gain``, and no solution scores above ``u_max``, so a False
        here means the probe's gain cannot clear it either."""
        return u_max - u_now - penalty > min_gain

    def _probe(
        self, ctx: SchedulingContext, view: RoundView, job: Job, run
    ) -> tuple[PlacementSolution | None, dict | None]:
        """The placement ``job`` would get with running job ``run``'s
        GPUs freed, and its provenance.

        Releases the GPUs and pops ``run`` from the round's private
        view, proposes, then puts both back before returning.  After a
        committed eviction the free pool is the probe's, so the
        solution can be enforced as-is (DESIGN.md §11).
        """
        victim_id = run.job.job_id
        ctx.alloc.release(victim_id)
        co = view.private()
        saved_co = co.pop(victim_id, None)
        prov = {} if ctx.recorder is not None else None
        solution = ctx.engine.propose(job, co, provenance=prov)
        ctx.alloc.allocate(victim_id, run.gpus)
        if saved_co is not None:
            co[victim_id] = saved_co
        return solution, prov

    def _evict_and_place(
        self,
        ctx: SchedulingContext,
        view: RoundView,
        placed: list[PlacementSolution],
        job: Job,
        solution: PlacementSolution,
        prov: dict | None,
        reason: str,
        evict: dict,
    ) -> None:
        """Evict ``evict["victim"]`` the ``evict["kind"]`` way, record
        the decision and commit ``solution`` for ``job``.

        A ``"preempt"`` victim goes back to the queue; a ``"migrate"``
        victim is ``job`` itself, re-placed here in the same round with
        its progress checkpointed.
        """
        victim_id = evict["victim"]
        ctx.evict(victim_id, evict["kind"])
        view.private().pop(victim_id, None)
        if ctx.recorder is not None:
            self._record(
                ctx, job, "evict",
                reason=reason,
                solution=solution,
                engine=ctx.engine,
                propose=prov,
                evict=evict,
            )
        self._commit(ctx, view, placed, job, solution)

    def _preempt_pass(
        self,
        ctx: SchedulingContext,
        view: RoundView,
        placed: list[PlacementSolution],
        budget: int,
    ) -> int:
        """Evict lower-priority running jobs for queued higher-priority ones.

        For each still-queued job (oldest first) we try victims in
        rising (priority, progress) order: probe the placement the
        queued job would get with the victim's GPUs freed, and commit
        the eviction only when the challenger's utility beats the
        victim's current utility plus the migration penalty by at least
        ``preempt_min_gain`` — eviction must raise aggregate utility
        net of its cost, never just shuffle it.  A victim is not probed
        when the job could not fit even with its GPUs freed, or when a
        perfect placement would still fall short of the threshold.
        Returns the number of evictions committed.
        """
        cluster = ctx.cluster
        u_max = normalized_utility(0.0, 0.0, 0.0, ctx.engine.params)
        evictions = 0
        for entry in list(self._queue):
            if evictions >= budget:
                break
            job = entry.job
            candidates = sorted(
                (
                    run
                    for run in cluster.running.values()
                    if run.job.priority < job.priority
                ),
                key=lambda r: (
                    r.job.priority,
                    1.0 - (r.remaining / r.solo if r.solo > 0 else 0.0),
                    r.job.job_id,
                ),
            )
            for run in candidates:
                if not self._could_fit(ctx, job, run.gpus):
                    continue
                # victim's utility under its current placement (the
                # interference model skips the victim's own co-runner
                # entry, so the full view scores it as-is)
                u_victim = ctx.engine.score_allocation(
                    run.job, tuple(sorted(run.gpus)), view.current()
                ).utility
                penalty = migration_penalty(
                    self._remaining_wall_s(run), cluster.params
                )
                if not self._gain_reachable(
                    u_max, u_victim, penalty, self.preempt_min_gain
                ):
                    continue
                solution, prov = self._probe(ctx, view, job, run)
                if solution is None or not all(
                    self._slo_checks(ctx, job, solution)
                ):
                    continue
                gain = solution.utility - u_victim - penalty
                if gain <= self.preempt_min_gain:
                    continue
                self._evict_and_place(
                    ctx, view, placed, job, solution, prov, "preempt",
                    {
                        "kind": "preempt",
                        "victim": run.job.job_id,
                        "victim_priority": run.job.priority,
                        "job_priority": job.priority,
                        "victim_utility": u_victim,
                        "job_utility": solution.utility,
                        "migration_penalty": penalty,
                        "gain": gain,
                        "min_gain": self.preempt_min_gain,
                    },
                )
                evictions += 1
                break
        return evictions

    def _defrag_pass(
        self,
        ctx: SchedulingContext,
        view: RoundView,
        placed: list[PlacementSolution],
        budget: int,
    ) -> int:
        """Migrate running jobs to markedly better placements.

        Completions leave fragmented allocations behind; periodically
        re-score every running job's placement and move the worst-off
        ones when the best placement now available beats the current
        one by more than the migration penalty plus ``defrag_min_gain``.
        A job is not probed when even a perfect placement would fall
        short of that.  Returns the number of migrations committed.
        """
        cluster = ctx.cluster
        u_max = normalized_utility(0.0, 0.0, 0.0, ctx.engine.params)
        scored = []
        co = view.current()
        for victim_id in sorted(cluster.running):
            run = cluster.running[victim_id]
            current = ctx.engine.score_allocation(
                run.job, tuple(sorted(run.gpus)), co
            )
            scored.append((current.utility, victim_id, run))
        scored.sort(key=lambda x: (x[0], x[1]))  # worst placements first
        moves = 0
        for u_current, victim_id, run in scored:
            if moves >= budget:
                break
            penalty = migration_penalty(
                self._remaining_wall_s(run), cluster.params
            )
            if not self._gain_reachable(
                u_max, u_current, penalty, self.defrag_min_gain
            ):
                continue
            solution, prov = self._probe(ctx, view, run.job, run)
            if solution is None or frozenset(solution.gpus) == run.gpus:
                continue
            gain = solution.utility - u_current - penalty
            if gain <= self.defrag_min_gain:
                continue
            self._evict_and_place(
                ctx, view, placed, run.job, solution, prov, "defrag",
                {
                    "kind": "migrate",
                    "victim": victim_id,
                    "victim_utility": u_current,
                    "job_utility": solution.utility,
                    "migration_penalty": penalty,
                    "gain": gain,
                    "min_gain": self.defrag_min_gain,
                },
            )
            moves += 1
        return moves

    # ------------------------------------------------------------------
    def _acceptable(
        self,
        ctx: SchedulingContext,
        job: Job,
        solution: PlacementSolution,
        co: Mapping,
        detail: dict | None = None,
    ) -> bool:
        """TOPO-AWARE-P's postponement test (False = postpone).

        ``detail`` (optional) is a provenance out-param filled with the
        SLO predicate inputs, which predicate failed (``"utility"`` or
        ``"p2p"``) and any anti-starvation override — read-only
        bookkeeping that preserves the predicate evaluation order, so
        attaching it changes no decision.
        """
        utility_ok, p2p_ok = self._slo_checks(ctx, job, solution)
        if detail is not None:
            detail.update(
                min_utility=job.min_utility,
                utility=solution.utility,
                utility_ok=utility_ok,
                requires_p2p=job.requires_p2p,
                solution_p2p=solution.p2p,
                p2p_ok=p2p_ok,
                failed=(
                    None if utility_ok and p2p_ok
                    else ("utility" if not utility_ok else "p2p")
                ),
                override=None,
            )
        if utility_ok and p2p_ok:
            return True
        # nothing running: the state cannot improve by waiting
        if not co:
            if detail is not None:
                detail["override"] = "nothing-running"
            return True
        if (
            self.max_postponements is not None
            and self.postponements.get(job.job_id, 0) >= self.max_postponements
        ):
            if detail is not None:
                detail["override"] = "postponement-budget"
            return True
        return False
