"""Tenant model: per-tenant SLOs, weights, configs and the tenant-config file.

A *tenant* is a named collection plus everything the server holds for it
individually: a :class:`~repro.vdms.system_config.SystemConfig` override, a
:class:`TenantSLO` (the paper's user-specific recall preference, expressed
as a serving-time objective), a fair-scheduling weight and a queue bound.
:class:`TenantSpec` bundles those, and :func:`load_tenant_config` parses the
JSON file the ``serve --tenant-config`` CLI flag points at:

.. code-block:: json

    {
        "tenants": {
            "search": {"weight": 2.0, "queue_depth": 64,
                       "slo": {"recall_floor": 0.95, "p99_latency_ms": 50.0},
                       "system_config": {"search_threads": 4}},
            "analytics": {"weight": 1.0,
                          "slo": {"recall_floor": 0.8, "cost_budget": 2.0}}
        }
    }

The SLO maps directly onto the tuner's constrained acquisition:
:meth:`TenantSLO.objective` builds the
:class:`~repro.core.objectives.ObjectiveSpec` whose ``recall_constraint``
drives recall-floor-constrained EHVI, and whose speed metric switches to
queries-per-dollar when the tenant declares a cost budget.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Any, Iterable, Mapping

from repro.core.objectives import ObjectiveSpec
from repro.vdms.system_config import SystemConfig

__all__ = [
    "StrideScheduler",
    "TenantSLO",
    "TenantSpec",
    "load_tenant_config",
    "parse_tenant_config",
]


class StrideScheduler:
    """Weighted stride scheduling: which named tenant goes next.

    Each name carries a weight and a *pass*.  :meth:`pick` chooses the
    smallest ``(pass, name)`` and :meth:`charge` advances the chosen pass by
    ``cost / weight``, so a weight-2 tenant is served twice as often as a
    weight-1 tenant while both compete.  The virtual time is the pass of the
    last charged name; :meth:`rejoin` lifts a returning name to it, so time
    spent idle banks no credit.  Not thread-safe: callers serialize access.
    """

    def __init__(self) -> None:
        self.weights: dict[str, float] = {}
        self.passes: dict[str, float] = {}
        self.virtual_time = 0.0

    def set_weight(self, name: str, weight: float) -> None:
        """Set a name's weight, which must be finite and > 0; its pass is kept."""
        weight = float(weight)
        if not 0.0 < weight < math.inf:
            raise ValueError(f"tenant {name!r}: weight must be finite and > 0, not {weight!r}")
        self.weights[name] = weight
        self.passes.setdefault(name, 0.0)

    def pick(self, names: Iterable[str]) -> str | None:
        """The name with the smallest ``(pass, name)``, or ``None`` for no names."""
        return min(names, key=lambda name: (self.passes[name], name), default=None)

    def charge(self, name: str, cost: float = 1.0) -> None:
        """Move the virtual time to ``name``'s pass, then add ``cost / weight``."""
        self.virtual_time = self.passes[name]
        self.passes[name] += cost / self.weights[name]

    def rejoin(self, name: str) -> None:
        """Lift a returning name's pass to the virtual time (no banked credit)."""
        self.passes[name] = max(self.passes[name], self.virtual_time)


@dataclass(frozen=True)
class TenantSLO:
    """A tenant's service-level objective.

    Attributes
    ----------
    recall_floor:
        Minimum acceptable recall@k in ``[0, 1]``; ``0.0`` means
        unconstrained.  This is the paper's user-specific recall preference,
        enforced by the tuner's constrained acquisition function.
    p99_latency_ms:
        Target p99 request latency in milliseconds, or ``None`` for no
        latency target.  Checked against measured serving latency, not
        promised by the tuner.
    cost_budget:
        Optional cost ceiling in $/hour.  Declaring one switches the
        tenant's tuning objective to queries-per-dollar (the paper's
        cost-aware QP$ metric).
    """

    recall_floor: float = 0.0
    p99_latency_ms: float | None = None
    cost_budget: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= float(self.recall_floor) <= 1.0:
            raise ValueError("recall_floor must be within [0, 1]")
        if self.p99_latency_ms is not None and not float(self.p99_latency_ms) > 0.0:
            raise ValueError("p99_latency_ms must be positive when set")
        if self.cost_budget is not None and not float(self.cost_budget) > 0.0:
            raise ValueError("cost_budget must be positive when set")

    def objective(self) -> ObjectiveSpec:
        """The tuning objective this SLO implies.

        A recall floor becomes the acquisition function's recall
        constraint; a cost budget switches the speed metric from QPS to
        queries-per-dollar.
        """
        return ObjectiveSpec(
            speed_metric="qp$" if self.cost_budget is not None else "qps",
            recall_constraint=float(self.recall_floor) if self.recall_floor > 0.0 else None,
        )

    def attained_by(self, recall: float, p99_latency_ms: float | None = None) -> bool:
        """Whether a measured (recall, p99 latency) point satisfies this SLO."""
        if recall + 1e-12 < self.recall_floor:
            return False
        if (
            self.p99_latency_ms is not None
            and p99_latency_ms is not None
            and p99_latency_ms > self.p99_latency_ms
        ):
            return False
        return True

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "TenantSLO":
        """Build from a plain mapping, rejecting unknown keys."""
        known = {"recall_floor", "p99_latency_ms", "cost_budget"}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"unknown TenantSLO fields: {sorted(unknown)}")
        return cls(
            recall_floor=float(mapping.get("recall_floor", 0.0)),
            p99_latency_ms=(
                float(mapping["p99_latency_ms"])
                if mapping.get("p99_latency_ms") is not None
                else None
            ),
            cost_budget=(
                float(mapping["cost_budget"])
                if mapping.get("cost_budget") is not None
                else None
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for stats endpoints and reports."""
        return {
            "recall_floor": self.recall_floor,
            "p99_latency_ms": self.p99_latency_ms,
            "cost_budget": self.cost_budget,
        }


@dataclass(frozen=True)
class TenantSpec:
    """Everything the serving stack holds for one tenant.

    ``system_config`` of ``None`` means the tenant inherits the server-wide
    default configuration; ``queue_depth`` of ``None`` inherits the
    controller's bound.  ``weight`` must be finite and > 0 (the
    :class:`StrideScheduler` rule) and ``queue_depth`` an integer >= 1.
    """

    name: str
    weight: float = 1.0
    queue_depth: int | None = None
    slo: TenantSLO = field(default_factory=TenantSLO)
    system_config: SystemConfig | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        # The scheduler owns the one weight rule; a throwaway one applies it.
        StrideScheduler().set_weight(self.name, self.weight)
        depth = self.queue_depth
        if depth is not None and not (isinstance(depth, Integral) and depth >= 1):
            raise ValueError(
                f"tenant {self.name!r}: queue_depth must be an integer >= 1, not {depth!r}"
            )

    @classmethod
    def from_mapping(cls, name: str, mapping: Mapping[str, Any]) -> "TenantSpec":
        """Build from one tenant's entry in the tenant-config file."""
        known = {"weight", "queue_depth", "slo", "system_config"}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"tenant {name!r}: unknown fields {sorted(unknown)}")
        slo_mapping = mapping.get("slo") or {}
        if not isinstance(slo_mapping, Mapping):
            raise ValueError(f"tenant {name!r}: 'slo' must be a mapping")
        config_mapping = mapping.get("system_config")
        system_config = None
        if config_mapping is not None:
            if not isinstance(config_mapping, Mapping):
                raise ValueError(f"tenant {name!r}: 'system_config' must be a mapping")
            system_config = SystemConfig.from_mapping(config_mapping)
        try:
            weight = float(mapping.get("weight", 1.0))
            slo = TenantSLO.from_mapping(slo_mapping)
        except ValueError as error:
            raise ValueError(f"tenant {name!r}: {error}") from None
        return cls(
            name=name,
            weight=weight,
            queue_depth=mapping.get("queue_depth"),
            slo=slo,
            system_config=system_config,
        )


def parse_tenant_config(payload: Mapping[str, Any]) -> dict[str, TenantSpec]:
    """Parse a decoded tenant-config document into :class:`TenantSpec` objects.

    The document is ``{"tenants": {name: {...}}}``; a bare ``{name: {...}}``
    mapping (no ``tenants`` wrapper) is accepted too for hand-written files.
    """
    if not isinstance(payload, Mapping):
        raise ValueError("tenant config must be a JSON object")
    tenants = payload.get("tenants", payload)
    if not isinstance(tenants, Mapping) or not tenants:
        raise ValueError("tenant config must map tenant names to specs")
    specs: dict[str, TenantSpec] = {}
    for name, mapping in tenants.items():
        if not isinstance(mapping, Mapping):
            raise ValueError(f"tenant {name!r}: spec must be a mapping")
        specs[str(name)] = TenantSpec.from_mapping(str(name), mapping)
    return specs


def load_tenant_config(path: str) -> dict[str, TenantSpec]:
    """Load and parse the JSON tenant-config file behind ``--tenant-config``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError(f"tenant config {path!r} is not valid JSON: {error}") from None
    return parse_tenant_config(payload)
