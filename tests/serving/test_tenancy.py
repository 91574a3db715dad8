"""Tests for the tenant model: SLOs, specs and the tenant-config file."""

from __future__ import annotations

import json

import pytest

from repro.serving.loadgen import (
    LoadReport,
    MixedLoadReport,
    MultiTenantLoadGenerator,
    TenantLoadProfile,
)
from repro.serving.tenancy import (
    StrideScheduler,
    TenantSLO,
    TenantSpec,
    load_tenant_config,
    parse_tenant_config,
)
from repro.vdms.system_config import SystemConfig


class TestStrideScheduler:
    def serve(self, scheduler, names, count):
        order = []
        for _ in range(count):
            name = scheduler.pick(names)
            scheduler.charge(name)
            order.append(name)
        return order

    def test_weights_two_to_one_interleave_exactly(self):
        scheduler = StrideScheduler()
        scheduler.set_weight("a", 2.0)
        scheduler.set_weight("b", 1.0)
        assert self.serve(scheduler, ["a", "b"], 6) == ["a", "b", "a", "a", "b", "a"]

    def test_ties_break_by_name(self):
        scheduler = StrideScheduler()
        for name in ("c", "a", "b"):
            scheduler.set_weight(name, 1.0)
        assert self.serve(scheduler, ["c", "b", "a"], 3) == ["a", "b", "c"]
        assert scheduler.pick([]) is None

    def test_rejoin_banks_no_credit(self):
        scheduler = StrideScheduler()
        scheduler.set_weight("busy", 1.0)
        scheduler.set_weight("sleeper", 1.0)
        self.serve(scheduler, ["busy"], 10)  # the sleeper is idle meanwhile
        scheduler.rejoin("sleeper")
        # Back at the current virtual time, the sleeper alternates with busy
        # instead of taking ten turns in a row.
        assert self.serve(scheduler, ["busy", "sleeper"], 4) == [
            "sleeper", "busy", "sleeper", "busy",
        ]

    def test_charge_scales_by_cost_over_weight(self):
        scheduler = StrideScheduler()
        scheduler.set_weight("a", 4.0)
        scheduler.charge("a", 2.0)
        assert scheduler.passes["a"] == 0.5
        assert scheduler.virtual_time == 0.0

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_non_finite_or_non_positive_weights(self, weight):
        scheduler = StrideScheduler()
        with pytest.raises(ValueError, match="tenant 'a'"):
            scheduler.set_weight("a", weight)
        assert scheduler.weights == {}

    def test_set_weight_keeps_the_pass(self):
        scheduler = StrideScheduler()
        scheduler.set_weight("a", 1.0)
        scheduler.charge("a")
        scheduler.set_weight("a", 2.0)
        assert scheduler.passes["a"] == 1.0


class TestTenantSLO:
    def test_defaults_are_unconstrained(self):
        slo = TenantSLO()
        assert slo.recall_floor == 0.0
        assert slo.p99_latency_ms is None and slo.cost_budget is None
        assert slo.objective().recall_constraint is None
        assert slo.objective().speed_metric == "qps"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"recall_floor": -0.1},
            {"recall_floor": 1.0001},
            {"p99_latency_ms": 0.0},
            {"cost_budget": -2.0},
        ],
    )
    def test_rejects_out_of_range_fields(self, kwargs):
        with pytest.raises(ValueError):
            TenantSLO(**kwargs)

    def test_recall_floor_becomes_the_acquisition_constraint(self):
        objective = TenantSLO(recall_floor=0.93).objective()
        assert objective.recall_constraint == 0.93
        assert objective.speed_metric == "qps"

    def test_cost_budget_switches_the_speed_metric_to_qpd(self):
        objective = TenantSLO(recall_floor=0.8, cost_budget=2.0).objective()
        assert objective.speed_metric == "qp$"
        assert objective.recall_constraint == 0.8

    def test_attained_by_checks_recall_and_latency(self):
        slo = TenantSLO(recall_floor=0.9, p99_latency_ms=50.0)
        assert slo.attained_by(0.95, 40.0)
        assert slo.attained_by(0.9, 50.0)  # boundaries are in-contract
        assert not slo.attained_by(0.85, 40.0)
        assert not slo.attained_by(0.95, 60.0)
        # No latency measurement -> only the recall floor can be judged.
        assert slo.attained_by(0.95, None)

    def test_from_mapping_round_trips_and_rejects_unknown_keys(self):
        slo = TenantSLO.from_mapping(
            {"recall_floor": 0.9, "p99_latency_ms": 25.0, "cost_budget": 1.5}
        )
        assert slo == TenantSLO(recall_floor=0.9, p99_latency_ms=25.0, cost_budget=1.5)
        assert TenantSLO.from_mapping(slo.to_dict()) == slo
        with pytest.raises(ValueError, match="recall_flour"):
            TenantSLO.from_mapping({"recall_flour": 0.9})


class TestTenantSpec:
    def test_defaults_inherit_everything(self):
        spec = TenantSpec("search")
        assert spec.weight == 1.0
        assert spec.queue_depth is None and spec.system_config is None
        assert spec.slo == TenantSLO()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "a", "weight": 0.0},
            {"name": "a", "weight": -1.0},
            {"name": "a", "queue_depth": 0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            TenantSpec(**kwargs)

    def test_rejects_an_infinite_weight(self):
        # An infinite weight makes every charge 0: the tenant would starve
        # every other tenant.
        specs = json.loads('{"a": {"weight": Infinity}}')
        with pytest.raises(ValueError, match="tenant 'a'.*weight"):
            parse_tenant_config(specs)

    def test_rejects_an_infinite_queue_depth(self):
        specs = json.loads('{"a": {"queue_depth": Infinity}}')
        with pytest.raises(ValueError, match="tenant 'a'.*queue_depth"):
            parse_tenant_config(specs)

    def test_rejects_a_fractional_queue_depth(self):
        with pytest.raises(ValueError, match="tenant 'a'.*queue_depth"):
            parse_tenant_config({"a": {"queue_depth": 2.7}})

    def test_from_mapping_builds_the_full_spec(self):
        spec = TenantSpec.from_mapping(
            "search",
            {
                "weight": 2.0,
                "queue_depth": 64,
                "slo": {"recall_floor": 0.95},
                "system_config": {"cache_policy": "lru", "cache_capacity": 32},
            },
        )
        assert spec.name == "search" and spec.weight == 2.0
        assert spec.queue_depth == 64
        assert spec.slo.recall_floor == 0.95
        assert isinstance(spec.system_config, SystemConfig)
        assert spec.system_config.cache_capacity == 32

    def test_from_mapping_errors_name_the_tenant(self):
        with pytest.raises(ValueError, match="tenant 'a'.*wieght"):
            TenantSpec.from_mapping("a", {"wieght": 2.0})
        with pytest.raises(ValueError, match="tenant 'a'"):
            TenantSpec.from_mapping("a", {"slo": "fast-please"})
        with pytest.raises(ValueError, match="tenant 'a'"):
            TenantSpec.from_mapping("a", {"system_config": 3})
        with pytest.raises(ValueError, match="tenant 'a'"):
            TenantSpec.from_mapping("a", {"weight": -1})


class TestTenantConfigFile:
    def test_parse_accepts_wrapped_and_bare_mappings(self):
        wrapped = parse_tenant_config(
            {"tenants": {"a": {"weight": 2.0}, "b": {}}}
        )
        bare = parse_tenant_config({"a": {"weight": 2.0}, "b": {}})
        assert wrapped == bare
        assert wrapped["a"].weight == 2.0 and wrapped["b"].weight == 1.0

    @pytest.mark.parametrize(
        "payload",
        [[], {}, {"tenants": {}}, {"tenants": {"a": "not-a-mapping"}}],
    )
    def test_parse_rejects_malformed_documents(self, payload):
        with pytest.raises(ValueError):
            parse_tenant_config(payload)

    def test_load_parses_the_json_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(
            json.dumps(
                {
                    "tenants": {
                        "search": {
                            "weight": 2.0,
                            "slo": {"recall_floor": 0.95, "p99_latency_ms": 50.0},
                        },
                        "analytics": {"slo": {"recall_floor": 0.8, "cost_budget": 2.0}},
                    }
                }
            ),
            encoding="utf-8",
        )
        specs = load_tenant_config(str(path))
        assert set(specs) == {"search", "analytics"}
        assert specs["search"].slo.p99_latency_ms == 50.0
        assert specs["analytics"].slo.objective().speed_metric == "qp$"

    def test_load_reports_invalid_json_with_the_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_tenant_config(str(path))


class TestTenantLoadProfile:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"collection": ""},
            {"collection": "a", "qps": 0.0},
            {"collection": "a", "qps": 5.0, "top_k": 0},
            {"collection": "a", "qps": 5.0, "top_k": 16_385},
            {"collection": "a", "qps": 5.0, "popularity_skew": -0.1},
            {"collection": "a", "qps": 5.0, "query_pool": 0},
            {"collection": "a", "qps": 5.0, "deadline_ms": 0.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        defaults = {"collection": "a", "qps": 5.0}
        with pytest.raises(ValueError):
            TenantLoadProfile(**{**defaults, **kwargs})

    def test_generator_validates_its_schedule(self):
        profile = TenantLoadProfile(collection="a", qps=5.0)
        with pytest.raises(ValueError, match="at least one tenant"):
            MultiTenantLoadGenerator("http://x", [], duration_seconds=1.0)
        with pytest.raises(ValueError, match="unique"):
            MultiTenantLoadGenerator(
                "http://x", [profile, profile], duration_seconds=1.0
            )
        with pytest.raises(ValueError, match="duration_seconds"):
            MultiTenantLoadGenerator("http://x", [profile], duration_seconds=0.0)
        with pytest.raises(ValueError, match="max_client_threads"):
            MultiTenantLoadGenerator(
                "http://x", [profile], duration_seconds=1.0, max_client_threads=0
            )


class TestMixedLoadReport:
    def report(self, sent, served):
        return LoadReport(
            sent=sent, served=served, shed=0, expired=0, rejected=0, errors=0,
            duration_seconds=1.0, offered_qps=float(sent), achieved_qps=float(served),
            latency_p50_ms=1.0, latency_p99_ms=2.0, latency_p999_ms=2.0,
            dispatch_lag_p99_ms=0.1, queue_depth_mean=0.0, queue_depth_max=0,
        )

    def test_totals_sum_over_tenants(self):
        mixed = MixedLoadReport(
            tenants={"a": self.report(10, 9), "b": self.report(4, 4)},
            duration_seconds=1.0,
        )
        assert mixed.total_sent == 14
        assert mixed.total_served == 13

    def test_to_dict_is_json_shaped(self):
        mixed = MixedLoadReport(
            tenants={"a": self.report(3, 3)}, duration_seconds=2.0
        )
        encoded = json.loads(json.dumps(mixed.to_dict()))
        assert encoded["total_sent"] == 3
        assert encoded["tenants"]["a"]["served"] == 3
