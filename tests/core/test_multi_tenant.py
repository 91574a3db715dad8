"""Tests for the shared-budget multi-tenant tuning scheduler."""

from __future__ import annotations

import pytest

from repro.core.multi_tenant import MultiTenantTuner, TenantTunerSpec
from repro.core.online import OnlineTuner, OnlineTunerSettings
from repro.serving.tenancy import TenantSLO, TenantSpec
from repro.workloads.environment import VDMSTuningEnvironment
from tests.conftest import make_tiny_dataset


@pytest.fixture(scope="module")
def dataset():
    return make_tiny_dataset()


def settings(**overrides):
    values = dict(total_steps=6, retune_budget=3, seed=0)
    values.update(overrides)
    return OnlineTunerSettings(**values)


def spec(dataset, name, *, slo=None, weight=1.0, seed=0, **setting_overrides):
    return TenantTunerSpec(
        tenant=TenantSpec(name, weight=weight, slo=slo or TenantSLO()),
        environment=VDMSTuningEnvironment(dataset, seed=seed),
        settings=settings(seed=seed, **setting_overrides),
    )


def served_order(tuner):
    """The tenant each ``step()`` served, until the tuner stops."""
    order = []
    before = {name: 0 for name in tuner.build_report().evaluations}
    while tuner.step():
        after = tuner.build_report().evaluations
        order += [name for name in after if after[name] != before[name]]
        before = after
    return order


class TestValidation:
    def test_requires_at_least_one_spec(self):
        with pytest.raises(ValueError):
            MultiTenantTuner([])

    def test_rejects_duplicate_names(self, dataset):
        with pytest.raises(ValueError):
            MultiTenantTuner([spec(dataset, "a"), spec(dataset, "a")])

    def test_rejects_bad_budget_and_penalty(self, dataset):
        with pytest.raises(ValueError):
            MultiTenantTuner([spec(dataset, "a")], budget=0)
        with pytest.raises(ValueError):
            MultiTenantTuner([spec(dataset, "a")], attained_penalty=0.5)


class TestScheduling:
    def test_ample_budget_runs_every_tenant_to_completion(self, dataset):
        tuner = MultiTenantTuner([spec(dataset, "a", seed=0), spec(dataset, "b", seed=1)])
        report = tuner.run()
        assert report.budget_total == 12  # sum of per-tenant total_steps
        assert report.budget_used == 12
        assert report.evaluations == {"a": 6, "b": 6}
        assert sum(report.evaluations.values()) == report.budget_used
        for name in ("a", "b"):
            assert len(report.reports[name].records) == 6
            assert report.incumbents[name] is not None

    def test_interleaving_is_invisible_to_each_tenant(self, dataset):
        """Oracle: a tenant's record stream under fair interleaving is
        bit-identical to running its OnlineTuner alone — scheduling decides
        *when* a tenant evaluates, never *what*."""
        alone = {
            name: OnlineTuner(
                VDMSTuningEnvironment(dataset, seed=seed),
                settings=settings(seed=seed),
                objective=TenantSLO().objective(),
            ).run()
            for name, seed in (("a", 0), ("b", 1))
        }
        together = MultiTenantTuner(
            [spec(dataset, "a", seed=0), spec(dataset, "b", seed=1)]
        ).run()
        for name in ("a", "b"):
            assert [
                (r.mode, r.configuration, r.speed, r.recall)
                for r in together.reports[name].records
            ] == [
                (r.mode, r.configuration, r.speed, r.recall)
                for r in alone[name].records
            ]

    def test_scarce_budget_is_a_hard_ceiling(self, dataset):
        tuner = MultiTenantTuner(
            [spec(dataset, "a", seed=0), spec(dataset, "b", seed=1)], budget=7
        )
        report = tuner.run()
        assert report.budget_total == 7
        assert report.budget_used <= 7
        assert sum(report.evaluations.values()) == report.budget_used

    def test_tuning_batches_never_overrun_the_shared_budget(self, dataset):
        overrides = dict(total_steps=8, retune_budget=6, batch_size=4)
        tuner = MultiTenantTuner(
            [spec(dataset, "a", seed=0, **overrides), spec(dataset, "b", seed=1, **overrides)],
            budget=7,
        )
        report = tuner.run()
        assert report.budget_total == 7
        assert report.budget_used <= report.budget_total
        assert sum(report.evaluations.values()) == report.budget_used

    def test_stride_order_is_pinned(self, dataset):
        """The exact tenant sequence for weights 3:1:1 with one attaining
        tenant ("light" has no floor; the others can never attain)."""
        never = TenantSLO(recall_floor=0.1, p99_latency_ms=1e-9)
        tuner = MultiTenantTuner(
            [
                spec(dataset, "heavy", weight=3.0, slo=never, seed=0, total_steps=8),
                spec(dataset, "light", weight=1.0, seed=1, total_steps=8),
                spec(dataset, "other", weight=1.0, slo=never, seed=2, total_steps=8),
            ],
            attained_penalty=4.0,
        )
        order = "".join(name[0] for name in served_order(tuner))
        assert order == "hlohhhlohhhlohloooololll"
        assert tuner.build_report().attained == {"heavy": False, "light": True, "other": False}

    def test_weight_steers_the_shared_budget(self, dataset):
        tuner = MultiTenantTuner(
            [
                spec(dataset, "heavy", weight=3.0, seed=0, total_steps=12),
                spec(dataset, "light", weight=1.0, seed=1, total_steps=12),
            ],
            budget=12,
            attained_penalty=1.0,  # isolate the weight effect
        )
        report = tuner.run()
        assert report.evaluations["heavy"] > report.evaluations["light"]

    def test_attained_tenant_yields_budget_to_needy_tenant(self, dataset):
        # "greedy" attains trivially (no floor); "needy" carries an
        # impossible latency target so it can never attain.
        tuner = MultiTenantTuner(
            [
                spec(dataset, "greedy", seed=0, total_steps=16, retune_budget=3),
                spec(
                    dataset,
                    "needy",
                    slo=TenantSLO(recall_floor=0.1, p99_latency_ms=1e-9),
                    seed=1,
                    total_steps=16,
                    retune_budget=3,
                ),
            ],
            budget=16,
            attained_penalty=8.0,
        )
        report = tuner.run()
        assert report.attained["greedy"] is True
        assert report.attained["needy"] is False
        # Once greedy is in contract its pass advances 8x faster, so the
        # scarce budget flows to the tenant still out of contract.
        assert report.evaluations["needy"] > report.evaluations["greedy"]

    def test_objective_for_threads_the_slo_constraint(self, dataset):
        tuner = MultiTenantTuner(
            [
                spec(dataset, "floored", slo=TenantSLO(recall_floor=0.9)),
                spec(
                    dataset, "metered", seed=1,
                    slo=TenantSLO(recall_floor=0.5, cost_budget=2.0),
                ),
            ]
        )
        assert tuner.objective_for("floored").recall_constraint == 0.9
        assert tuner.objective_for("floored").speed_metric == "qps"
        assert tuner.objective_for("metered").speed_metric == "qp$"
        with pytest.raises(KeyError):
            tuner.objective_for("ghost")

    def test_summary_is_json_shaped(self, dataset):
        import json

        report = MultiTenantTuner([spec(dataset, "a")]).run()
        summary = report.summary()
        encoded = json.loads(json.dumps(summary))
        assert encoded["budget"] == {"total": 6, "used": 6}
        assert set(encoded["tenants"]) == {"a"}
        assert encoded["tenants"]["a"]["evaluations"] == 6
