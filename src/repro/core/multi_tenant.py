"""SLO-constrained tuning for many tenants under one evaluation budget.

One server hosts many tenants, each with its own workload, drift behaviour
and :class:`~repro.serving.tenancy.TenantSLO`.  Tuning them is not N
independent offline runs: evaluations are the scarce resource (each one
replays a workload against a rebuilt collection), so the tenants share a
*budget* the way they share the serving worker pool — by weighted-fair
scheduling.

:class:`MultiTenantTuner` runs one :class:`~repro.core.online.OnlineTuner`
(with its own :class:`~repro.core.drift.CusumDriftDetector`) per tenant and
interleaves their ``iterate()`` generators through the same
:class:`~repro.serving.tenancy.StrideScheduler` the serving queue uses:

* each tenant is charged ``1 / weight`` per evaluation it receives, and the
  scheduler always steps the eligible tenant with the smallest pass;
* a tenant whose SLO is already attained (its serving-mode incumbent
  measurement meets the recall floor and, when set, the p99 latency target)
  is de-prioritized — it is charged ``attained_penalty`` times more — so
  the shared budget concentrates on tenants still out of contract;
* a tenant whose loop finishes (its ``total_steps`` are spent) leaves the
  rotation;
* no tuning batch is larger than what is left of the shared budget, so the
  budget is a hard ceiling.

Each tenant's objective comes from its SLO via
:meth:`~repro.serving.tenancy.TenantSLO.objective`: the recall floor
becomes the constrained-EHVI recall constraint (the paper's user-specific
recall preference), and a cost budget switches the speed metric to
queries-per-dollar.  This is exactly the machinery
``repro.core.preference`` exercises offline, promoted to a serving-time
product surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.core.objectives import ObjectiveSpec
from repro.core.online import OnlineReport, OnlineTuner, OnlineTunerSettings, StepRecord
from repro.serving.tenancy import StrideScheduler, TenantSpec
from repro.workloads.environment import VDMSTuningEnvironment

__all__ = ["MultiTenantReport", "MultiTenantTuner", "TenantTunerSpec"]


@dataclass(frozen=True)
class TenantTunerSpec:
    """One tenant's tuning inputs.

    Attributes
    ----------
    tenant:
        The tenant's :class:`~repro.serving.tenancy.TenantSpec`: its name,
        its weight (share of the joint evaluation budget relative to other
        tenants) and its SLO, whose recall floor becomes the tuner's
        constrained acquisition and whose cost budget selects the QP$
        objective.
    environment:
        The tenant's replayed-workload environment — typically a
        :class:`~repro.workloads.dynamic.DynamicTuningEnvironment` so its
        drift detector has something to detect.
    settings:
        The tenant's :class:`~repro.core.online.OnlineTunerSettings`.
    tuner:
        Registry name of the per-episode tuner (``"vdtuner"`` default).
    """

    tenant: TenantSpec
    environment: VDMSTuningEnvironment
    settings: OnlineTunerSettings
    tuner: str = "vdtuner"


class _TenantLoop:
    """One tenant's tuner, its generator and its ledger."""

    def __init__(self, spec: TenantTunerSpec, tuner: OnlineTuner) -> None:
        self.spec = spec
        self.tuner = tuner
        self.generator: Iterator[list[StepRecord]] = tuner.iterate()
        self.evaluations = 0
        self.exhausted = False
        self.last_serve_record: StepRecord | None = None

    @property
    def attained(self) -> bool:
        """Whether the latest incumbent measurement meets the tenant's SLO."""
        record = self.last_serve_record
        if record is None or record.failed:
            return False
        return self.spec.tenant.slo.attained_by(record.recall, record.latency_p99_ms)


@dataclass
class MultiTenantReport:
    """Everything a multi-tenant tuning run produced.

    Attributes
    ----------
    reports:
        Per-tenant :class:`~repro.core.online.OnlineReport`, keyed by name.
    incumbents:
        Per-tenant deployed configuration (``None`` when a tenant never
        finished a tuning episode).
    attained:
        Per-tenant SLO attainment at the end of the run.
    evaluations:
        Per-tenant evaluations consumed from the shared budget.
    budget_total, budget_used:
        The shared evaluation budget and what the run consumed.
    """

    reports: dict[str, OnlineReport]
    incumbents: dict[str, dict[str, Any] | None]
    attained: dict[str, bool]
    evaluations: dict[str, int]
    budget_total: int
    budget_used: int

    def summary(self) -> dict[str, Any]:
        """JSON-able summary, one entry per tenant plus the budget ledger."""
        tenants = {}
        for name, report in self.reports.items():
            records = report.records
            last = records[-1] if records else None
            tenants[name] = {
                "evaluations": self.evaluations[name],
                "attained": self.attained[name],
                "incumbent": self.incumbents[name],
                "detections": list(report.detections),
                "retunes": len(report.retunes),
                "final_recall": round(last.recall, 6) if last else None,
                "final_speed": round(last.speed, 6) if last else None,
            }
        return {
            "budget": {"total": self.budget_total, "used": self.budget_used},
            "tenants": tenants,
        }


class MultiTenantTuner:
    """Weighted-fair interleaving of per-tenant online tuning loops.

    Parameters
    ----------
    specs:
        The tenants to tune.  Names must be unique.
    budget:
        Shared evaluation budget across all tenants; ``None`` lets every
        tenant run its own ``total_steps`` to completion (the budget is then
        their sum).
    attained_penalty:
        How much faster an SLO-attained tenant's pass advances (i.e. how
        strongly the scheduler redirects budget to tenants still out of
        contract).  ``1.0`` disables the redirection.

    Examples
    --------
    >>> from repro import load_dataset, OnlineTunerSettings
    >>> from repro.core.multi_tenant import MultiTenantTuner, TenantTunerSpec
    >>> from repro.serving.tenancy import TenantSLO, TenantSpec
    >>> from repro.workloads.environment import VDMSTuningEnvironment
    >>> dataset = load_dataset("glove-small")
    >>> spec = TenantTunerSpec(
    ...     tenant=TenantSpec("docs", slo=TenantSLO(recall_floor=0.5)),
    ...     environment=VDMSTuningEnvironment(dataset, seed=0),
    ...     settings=OnlineTunerSettings(total_steps=4, retune_budget=3, seed=0),
    ... )
    >>> report = MultiTenantTuner([spec]).run()
    >>> report.evaluations["docs"]
    4
    """

    def __init__(
        self,
        specs: list[TenantTunerSpec],
        *,
        budget: int | None = None,
        attained_penalty: float = 4.0,
    ) -> None:
        if not specs:
            raise ValueError("at least one tenant spec is required")
        names = [spec.tenant.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        if budget is not None and int(budget) < 1:
            raise ValueError("budget must be >= 1 when set")
        if not float(attained_penalty) >= 1.0:
            raise ValueError("attained_penalty must be >= 1.0")
        self.specs = list(specs)
        self.attained_penalty = float(attained_penalty)
        self._scheduler = StrideScheduler()
        self._loops: dict[str, _TenantLoop] = {}
        for spec in self.specs:
            tuner = OnlineTuner(
                spec.environment,
                tuner=spec.tuner,
                settings=spec.settings,
                objective=spec.tenant.slo.objective(),
            )
            self._loops[spec.tenant.name] = _TenantLoop(spec, tuner)
            self._scheduler.set_weight(spec.tenant.name, spec.tenant.weight)
        self.budget = (
            int(budget)
            if budget is not None
            else sum(spec.settings.total_steps for spec in self.specs)
        )
        self.budget_used = 0

    # -- scheduling ---------------------------------------------------------------

    def objective_for(self, name: str) -> ObjectiveSpec:
        """The objective a tenant's loop runs under (from its SLO)."""
        return self._loops[name].tuner.objective

    def step(self) -> list[StepRecord]:
        """Advance the scheduled tenant's loop by one batch.

        Returns the fresh records (empty when every loop is exhausted or
        the budget is spent).  The batch is capped at what is left of the
        shared budget, which is charged by the evaluations it performed.
        """
        if self.budget_used >= self.budget:
            return []
        name = self._scheduler.pick(
            name for name, loop in self._loops.items() if not loop.exhausted
        )
        if name is None:
            return []
        loop = self._loops[name]
        loop.tuner._batch_cap = self.budget - self.budget_used
        try:
            batch = next(loop.generator)
        except StopIteration:
            loop.exhausted = True
            return self.step()
        cost = len(batch)
        loop.evaluations += cost
        self.budget_used += cost
        for record in batch:
            if record.mode == "serve":
                loop.last_serve_record = record
        # Stride accounting: the tenant is charged per evaluation received,
        # and an SLO-attained tenant pays a premium so the remaining budget
        # flows to tenants still missing their contract.
        rate = self.attained_penalty if loop.attained else 1.0
        self._scheduler.charge(name, rate * max(1, cost))
        return batch

    def run(self) -> MultiTenantReport:
        """Drive every tenant loop until budget or loops are exhausted."""
        while True:
            if self.budget_used >= self.budget:
                break
            if not self.step() and all(l.exhausted for l in self._loops.values()):
                break
        return self.build_report()

    def build_report(self) -> MultiTenantReport:
        """The joint report over everything evaluated so far."""
        return MultiTenantReport(
            reports={name: loop.tuner.build_report() for name, loop in self._loops.items()},
            incumbents={
                name: (dict(loop.tuner.incumbent) if loop.tuner.incumbent else None)
                for name, loop in self._loops.items()
            },
            attained={name: loop.attained for name, loop in self._loops.items()},
            evaluations={name: loop.evaluations for name, loop in self._loops.items()},
            budget_total=self.budget,
            budget_used=self.budget_used,
        )
