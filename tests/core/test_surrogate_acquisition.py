"""Unit tests for the polling/native surrogates and the configuration recommender."""

import numpy as np
import pytest

from repro.bo.sampling import latin_hypercube
from repro.config import build_milvus_space, default_configuration
from repro.config.milvus_space import SYSTEM_PARAMETERS, parameters_for_index
from repro.core.acquisition import ConfigurationRecommender
from repro.core.history import ObservationHistory
from repro.core.objectives import ObjectiveSpec
from repro.core.surrogate import NativeSurrogate, PollingSurrogate
from tests.core.test_history import make_observation


@pytest.fixture(scope="module")
def space():
    return build_milvus_space()


@pytest.fixture()
def history(space):
    h = ObservationHistory()
    rng = np.random.default_rng(0)
    index_types = ["SCANN", "HNSW", "IVF_FLAT", "IVF_PQ"]
    for iteration in range(1, 13):
        index_type = index_types[iteration % len(index_types)]
        config = space.sample_configuration(rng).to_dict()
        config["index_type"] = index_type
        qps = float(rng.uniform(100, 1500))
        recall = float(rng.uniform(0.4, 1.0))
        h.add(make_observation(iteration, index_type, qps=qps, recall=recall, config=config))
    return h


class TestPollingSurrogate:
    def test_fit_and_predict_shapes(self, space, history):
        surrogate = PollingSurrogate(space).fit(history)
        defaults = [default_configuration(space), default_configuration(space, index_type="HNSW")]
        prediction = surrogate.predict(defaults)
        assert prediction.mean.shape == (2, 2)
        assert prediction.std.shape == (2, 2)
        assert np.all(prediction.std > 0)

    def test_fit_empty_history_raises(self, space):
        with pytest.raises(ValueError):
            PollingSurrogate(space).fit(ObservationHistory())

    def test_predict_before_fit_raises(self, space):
        with pytest.raises(RuntimeError):
            PollingSurrogate(space).predict(np.zeros((1, space.dimension)))

    def test_reference_point_is_half_unit(self, space, history):
        surrogate = PollingSurrogate(space).fit(history)
        assert np.allclose(surrogate.reference_point("HNSW"), 0.5)

    def test_observed_objectives_are_normalized(self, space, history):
        surrogate = PollingSurrogate(space).fit(history)
        observed = surrogate.observed_objectives()
        assert observed.shape == (len(history), 2)
        # NPI normalization keeps values near 1 for every index type.
        assert observed.max() < 10.0

    def test_base_points_per_index_type(self, space, history):
        surrogate = PollingSurrogate(space).fit(history)
        assert set(surrogate.base_points) >= set(history.index_types())

    def test_normalize_threshold_divides_by_base(self, space, history):
        surrogate = PollingSurrogate(space).fit(history)
        base = surrogate.base_points["HNSW"][1]
        assert surrogate.normalize_threshold("HNSW", 0.9) == pytest.approx(0.9 / base)


class TestNativeSurrogate:
    def test_observed_objectives_are_raw(self, space, history):
        surrogate = NativeSurrogate(space).fit(history)
        observed = surrogate.observed_objectives()
        assert observed[:, 0].max() > 10.0  # raw QPS values, not normalized

    def test_reference_point_scales_balanced_point(self, space, history):
        surrogate = NativeSurrogate(space).fit(history)
        reference = surrogate.reference_point("HNSW")
        balanced = history.balanced_point("HNSW")
        assert np.allclose(reference, 0.5 * balanced)

    def test_threshold_passthrough(self, space, history):
        surrogate = NativeSurrogate(space).fit(history)
        assert surrogate.normalize_threshold("HNSW", 0.9) == pytest.approx(0.9)


def decoded(pool):
    """Every candidate of a pool, decoded."""
    return [pool.configuration(position) for position in range(len(pool))]


class TestRecommender:
    def test_candidates_fix_index_type_and_defaults(self, space, history):
        recommender = ConfigurationRecommender(space, candidate_pool_size=32)
        rng = np.random.default_rng(1)
        candidates = decoded(recommender.generate_candidates("HNSW", history, rng))
        assert len(candidates) >= 16
        free = set(parameters_for_index("HNSW"))
        for candidate in candidates:
            assert candidate["index_type"] == "HNSW"
            for name in space.names:
                if name not in free and name != "index_type":
                    assert candidate[name] == space[name].default

    def test_candidates_vary_free_parameters(self, space, history):
        recommender = ConfigurationRecommender(space, candidate_pool_size=32)
        rng = np.random.default_rng(2)
        candidates = decoded(recommender.generate_candidates("IVF_FLAT", history, rng))
        nlists = {c["nlist"] for c in candidates}
        seal_proportions = {c["segment_seal_proportion"] for c in candidates}
        assert len(nlists) > 3
        assert len(seal_proportions) > 3

    def test_recommend_returns_configuration_of_polled_type(self, space, history):
        recommender = ConfigurationRecommender(space, candidate_pool_size=32, ehvi_samples=16)
        surrogate = PollingSurrogate(space).fit(history)
        rng = np.random.default_rng(3)
        configuration = recommender.recommend(surrogate, history, "SCANN", ObjectiveSpec(), rng)
        assert configuration["index_type"] == "SCANN"

    def test_recommend_avoids_duplicates(self, space, history):
        recommender = ConfigurationRecommender(space, candidate_pool_size=16, ehvi_samples=8)
        surrogate = PollingSurrogate(space).fit(history)
        rng = np.random.default_rng(4)
        configuration = recommender.recommend(surrogate, history, "HNSW", ObjectiveSpec(), rng)
        assert not history.contains_configuration(configuration.to_dict())

    def test_constrained_recommendation(self, space, history):
        recommender = ConfigurationRecommender(space, candidate_pool_size=32, ehvi_samples=16)
        surrogate = PollingSurrogate(space, constrained=True).fit(history)
        rng = np.random.default_rng(5)
        objective = ObjectiveSpec(recall_constraint=0.9)
        configuration = recommender.recommend(surrogate, history, "SCANN", objective, rng)
        assert configuration["index_type"] == "SCANN"

    def test_system_parameters_are_always_free(self, space, history):
        recommender = ConfigurationRecommender(space, candidate_pool_size=16)
        free = recommender._free_parameter_names("FLAT")
        assert set(SYSTEM_PARAMETERS) <= set(free)


# -- candidate generation against the seed's -------------------------------------------


def seed_generate_candidates(recommender, index_type, history, rng):
    """The seed's ``generate_candidates``, kept as the oracle: every candidate is
    decoded and validated over all 27 parameters (the local ones twice) and then
    pinned back to the defaults outside the polled sub-space."""
    space = recommender.space
    free_names = recommender._free_parameter_names(index_type)
    defaults = {p.name: p.default for p in space.parameters}
    defaults["index_type"] = index_type

    pool_size = max(8, int(recommender.candidate_pool_size))
    num_random = pool_size // 2
    num_local = pool_size - num_random

    candidates = []
    if free_names:
        lhs = latin_hypercube(num_random, len(free_names), rng)
        for row in lhs:
            values = dict(defaults)
            for column, name in enumerate(free_names):
                values[name] = space[name].from_unit(float(row[column]))
            candidates.append(space.configuration(values))
    else:
        candidates.append(space.configuration(defaults))

    elites = history.non_dominated(index_type)
    if elites and free_names:
        elite_vectors = space.encode_many([o.configuration for o in elites])
        free_positions = [space.index_of(name) for name in free_names]
        for sample in range(num_local):
            base = elite_vectors[sample % elite_vectors.shape[0]].copy()
            noise = rng.normal(scale=recommender.perturbation_scale, size=len(free_positions))
            for offset, position in enumerate(free_positions):
                base[position] = float(np.clip(base[position] + noise[offset], 0.0, 1.0))
            values = space.decode(base).to_dict()
            for name in space.names:
                if name not in free_names and name != "index_type":
                    values[name] = defaults[name]
            values["index_type"] = index_type
            candidates.append(space.configuration(values))
    return candidates


def elite_history(space, index_types, seed=7):
    """Four observations per index type, on a front (speed falls as recall
    rises) so each type has several elites, some of them on the cube's faces."""
    history = ObservationHistory()
    rng = np.random.default_rng(seed)
    for index_type in index_types:
        for rank in range(4):
            vector = rng.random(space.dimension)
            vector[rng.integers(0, space.dimension, size=3)] = rank % 2  # exactly 0.0 or 1.0
            config = space.decode(vector).to_dict()
            config["index_type"] = index_type
            history.add(
                make_observation(
                    len(history) + 1, index_type, qps=1000.0 - 200.0 * rank, recall=0.6 + 0.1 * rank, config=config
                )
            )
    return history


@pytest.mark.parametrize("pool_size", [8, 64, 192])
@pytest.mark.parametrize("elites", ["none", "own", "others"])
@pytest.mark.parametrize("index_type", build_milvus_space()["index_type"].choices)
def test_candidates_equal_seed_candidates(space, index_type, elites, pool_size):
    others = [t for t in space["index_type"].choices if t != index_type][:3]
    history = {
        "none": ObservationHistory(),
        "own": elite_history(space, [index_type] + others),
        "others": elite_history(space, others),
    }[elites]
    recommender = ConfigurationRecommender(space, candidate_pool_size=pool_size)
    rng, seed_rng = np.random.default_rng(21), np.random.default_rng(21)
    pool = recommender.generate_candidates(index_type, history, rng)
    candidates = decoded(pool)
    expected = seed_generate_candidates(recommender, index_type, history, seed_rng)
    assert len(pool) == (pool_size if elites == "own" else pool_size // 2)
    assert candidates == expected
    # Same value types in the same order, not only equal values.
    assert [repr(c.to_dict()) for c in candidates] == [repr(c.to_dict()) for c in expected]
    assert rng.bit_generator.state == seed_rng.bit_generator.state
    from_scratch = space.encode_many([c.to_dict() for c in expected])
    assert pool.encoded.tobytes() == from_scratch.tobytes()
    assert space.encode_many(candidates).tobytes() == from_scratch.tobytes()
    assert all(not c._unit.flags.writeable for c in candidates)


def test_recommend_scores_the_generated_pool_through_predict(space, history, monkeypatch):
    """``recommend`` reaches its pool and its scores through the two public
    methods the benchmark's tracer wraps; a private short cut would read 0 there."""
    recommender = ConfigurationRecommender(space, candidate_pool_size=16, ehvi_samples=8)
    surrogate = PollingSurrogate(space).fit(history)
    seen = {}
    generate, predict = ConfigurationRecommender.generate_candidates, PollingSurrogate.predict

    def traced_generate(self, *args):
        seen["pool"] = generate(self, *args)
        return seen["pool"]

    def traced_predict(self, configurations):
        seen["scored"] = configurations
        return predict(self, configurations)

    monkeypatch.setattr(ConfigurationRecommender, "generate_candidates", traced_generate)
    monkeypatch.setattr(PollingSurrogate, "predict", traced_predict)
    chosen = recommender.recommend(surrogate, history, "HNSW", ObjectiveSpec(), np.random.default_rng(6))
    assert seen["scored"] is seen["pool"].encoded
    assert chosen in decoded(seen["pool"])
    assert any(chosen.to_unit_vector().tobytes() == row.tobytes() for row in seen["pool"].encoded)


def seed_recommend(recommender, surrogate, history, index_type, objective, rng, exclude=None):
    """The seed's ``recommend``, kept as the oracle: it scores a list of
    configurations and walks it in score order."""
    candidates = seed_generate_candidates(recommender, index_type, history, rng)
    prediction = surrogate.predict(candidates)
    if objective.constrained:
        scores = recommender._constrained_scores(surrogate, history, index_type, objective, prediction)
    else:
        scores = recommender._ehvi_scores(surrogate, index_type, prediction, rng)
    excluded = set(exclude or [])
    order = np.argsort(-scores)
    for position in order:
        candidate = candidates[int(position)]
        if candidate in excluded:
            continue
        if not history.contains_configuration(candidate.to_dict()):
            return candidate
    for position in order:
        candidate = candidates[int(position)]
        if candidate not in excluded:
            return candidate
    return candidates[int(order[0])]


@pytest.mark.parametrize("observed", ["fresh", "all-observed"])
@pytest.mark.parametrize("constrained", [False, True], ids=["ehvi", "constrained"])
@pytest.mark.parametrize("index_type", ["FLAT", "HNSW", "IVF_PQ", "SCANN"])
def test_recommend_equals_seed_recommend(space, index_type, constrained, observed, monkeypatch):
    history = elite_history(space, [index_type, "IVF_FLAT"])
    surrogate = PollingSurrogate(space, constrained=constrained).fit(history)
    if observed == "all-observed":  # every candidate already evaluated: the fallback walk
        monkeypatch.setattr(history, "contains_configuration", lambda values: True)
    objective = ObjectiveSpec(recall_constraint=0.7) if constrained else ObjectiveSpec()
    recommender = ConfigurationRecommender(space, candidate_pool_size=32, ehvi_samples=16)
    rng, seed_rng = np.random.default_rng(8), np.random.default_rng(8)
    exclude = []
    for _ in range(3):  # each pick is excluded from the next, as a batch is built
        chosen = recommender.recommend(surrogate, history, index_type, objective, rng, exclude=exclude)
        expected = seed_recommend(recommender, surrogate, history, index_type, objective, seed_rng, exclude)
        assert chosen == expected
        assert repr(chosen.to_dict()) == repr(expected.to_dict())
        assert chosen.to_unit_vector().tobytes() == expected.to_unit_vector().tobytes()
        assert rng.bit_generator.state == seed_rng.bit_generator.state
        exclude.append(chosen)
