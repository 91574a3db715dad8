"""Unit tests for ConfigurationSpace and Configuration."""

import pickle

import numpy as np
import pytest

from repro.config.parameters import CategoricalParameter, FloatParameter, IntParameter
from repro.config.space import Configuration, ConfigurationSpace


@pytest.fixture()
def small_space() -> ConfigurationSpace:
    return ConfigurationSpace(
        [
            CategoricalParameter("kind", choices=["a", "b", "c"], default="b"),
            IntParameter("count", low=1, high=100, default=10),
            FloatParameter("ratio", low=0.0, high=1.0, default=0.5),
        ],
        name="small",
    )


class TestConfigurationSpace:
    def test_dimension_and_names(self, small_space):
        assert small_space.dimension == 3
        assert small_space.names == ("kind", "count", "ratio")

    def test_duplicate_parameter_names_rejected(self):
        with pytest.raises(ValueError):
            ConfigurationSpace(
                [IntParameter("x", 1, 5, 2), IntParameter("x", 1, 9, 3)],
            )

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            ConfigurationSpace([])

    def test_default_configuration_uses_defaults(self, small_space):
        configuration = small_space.default_configuration()
        assert configuration["kind"] == "b"
        assert configuration["count"] == 10
        assert configuration["ratio"] == 0.5

    def test_partial_configuration_fills_defaults(self, small_space):
        configuration = small_space.configuration({"count": 42}, complete=False)
        assert configuration["count"] == 42
        assert configuration["kind"] == "b"

    def test_complete_configuration_requires_all_values(self, small_space):
        with pytest.raises(KeyError):
            small_space.configuration({"count": 42})

    def test_unknown_parameter_rejected(self, small_space):
        with pytest.raises(KeyError):
            small_space.configuration({"bogus": 1}, complete=False)

    def test_invalid_value_rejected(self, small_space):
        with pytest.raises(ValueError):
            small_space.configuration({"count": 1000}, complete=False)

    def test_encode_decode_round_trip(self, small_space, rng):
        for _ in range(20):
            configuration = small_space.sample_configuration(rng)
            decoded = small_space.decode(small_space.encode(configuration))
            assert decoded == configuration

    def test_encode_many_shape(self, small_space, rng):
        configurations = small_space.sample_configurations(7, rng)
        matrix = small_space.encode_many(configurations)
        assert matrix.shape == (7, 3)
        assert np.all((matrix >= 0.0) & (matrix <= 1.0))

    def test_encode_many_empty(self, small_space):
        assert small_space.encode_many([]).shape == (0, 3)

    def test_decode_rejects_wrong_dimension(self, small_space):
        with pytest.raises(ValueError):
            small_space.decode(np.zeros(5))

    def test_index_of(self, small_space):
        assert small_space.index_of("count") == 1


class TestConfiguration:
    def test_mapping_protocol(self, small_space):
        configuration = small_space.default_configuration()
        assert len(configuration) == 3
        assert set(configuration) == {"kind", "count", "ratio"}
        assert dict(configuration) == configuration.to_dict()

    def test_replace_creates_new_configuration(self, small_space):
        configuration = small_space.default_configuration()
        updated = configuration.replace(count=77)
        assert updated["count"] == 77
        assert configuration["count"] == 10

    def test_replace_validates(self, small_space):
        configuration = small_space.default_configuration()
        with pytest.raises(ValueError):
            configuration.replace(count=-1)

    def test_equality_and_hash(self, small_space):
        first = small_space.default_configuration()
        second = small_space.configuration(first.to_dict())
        assert first == second
        assert hash(first) == hash(second)
        assert first != small_space.default_configuration().replace(count=2)

    def test_unit_vector_matches_space_encoding(self, small_space):
        configuration = small_space.default_configuration()
        assert np.allclose(configuration.to_unit_vector(), small_space.encode(configuration))

    def test_missing_parameter_raises(self, small_space):
        with pytest.raises(KeyError):
            Configuration(small_space, {"kind": "a", "count": 3})


class TestCachedEncoding:
    """A configuration is immutable, so it is encoded once (see ``ConfigurationSpace._unit_row``)."""

    def test_encoded_once_and_kept_read_only(self, small_space, rng, monkeypatch):
        configuration = small_space.sample_configuration(rng)
        from_scratch = small_space.encode(configuration.to_dict())
        first = small_space.encode(configuration)
        assert first.tobytes() == from_scratch.tobytes()
        assert not configuration._unit.flags.writeable
        with pytest.raises(ValueError):
            configuration._unit[0] = 0.5

        def no_second_encoding(self, value):
            raise AssertionError("the configuration was encoded twice")

        for parameter_class in (CategoricalParameter, IntParameter, FloatParameter):
            monkeypatch.setattr(parameter_class, "to_unit", no_second_encoding)
        # What callers get is theirs to write to; the kept row is not touched by it.
        first[:] = -1.0
        assert small_space.encode(configuration).tobytes() == from_scratch.tobytes()
        assert configuration.to_unit_vector().tobytes() == from_scratch.tobytes()
        many = small_space.encode_many([configuration, configuration])
        assert many.flags.writeable
        assert many.tobytes() == from_scratch.tobytes() * 2

    def test_plain_mapping_is_encoded_on_the_spot(self, small_space):
        values = small_space.default_configuration().to_dict()
        before = small_space.encode(values)
        values["count"] = 90
        after = small_space.encode(values)
        assert after[1] > before[1]
        assert after.tobytes() == small_space.encode(small_space.configuration(values)).tobytes()

    def test_not_used_for_another_space(self, small_space):
        configuration = small_space.configuration({"count": 40}, complete=False)
        own = small_space.encode(configuration)
        wider = ConfigurationSpace(
            [
                CategoricalParameter("kind", choices=["a", "b", "c"], default="b"),
                IntParameter("count", low=1, high=1000, default=10),
                FloatParameter("ratio", low=0.0, high=1.0, default=0.5),
            ]
        )
        assert wider.encode(configuration).tobytes() == wider.encode(configuration.to_dict()).tobytes()
        assert wider.encode(configuration)[1] < own[1]
        sub = ConfigurationSpace([small_space["ratio"], small_space["count"]])
        assert sub.encode(configuration).tobytes() == own[[2, 1]].tobytes()
        assert sub.encode_many([configuration]).shape == (1, 2)
        # ... and the other spaces did not overwrite what the configuration keeps for its own.
        assert small_space.encode(configuration).tobytes() == own.tobytes()

    def test_takes_no_part_in_equality_hash_or_repr(self, small_space):
        encoded = small_space.configuration({"count": 40}, complete=False)
        small_space.encode(encoded)
        fresh = small_space.configuration({"count": 40}, complete=False)
        assert fresh._unit is None
        assert encoded == fresh and hash(encoded) == hash(fresh) and repr(encoded) == repr(fresh)

    @pytest.mark.parametrize("encoded_first", [False, True])
    def test_pickle_round_trip(self, small_space, encoded_first):
        configuration = small_space.configuration({"count": 40, "kind": "c"}, complete=False)
        expected = small_space.encode(configuration.to_dict())
        if encoded_first:
            small_space.encode(configuration)
        clone = pickle.loads(pickle.dumps(configuration))
        assert clone == configuration and hash(clone) == hash(configuration)
        assert (clone._unit is not None) == encoded_first
        assert clone.space is not small_space
        assert clone.to_unit_vector().tobytes() == expected.tobytes()
        assert not clone._unit.flags.writeable
        assert small_space.encode(clone).tobytes() == expected.tobytes()

    def test_replace_and_decode_carry_their_own_encoding(self, small_space):
        source = small_space.configuration({"count": 40}, complete=False)
        small_space.encode(source)
        replaced = source.replace(count=77)
        assert small_space.encode(replaced).tobytes() == small_space.encode(replaced.to_dict()).tobytes()
        assert small_space.encode(replaced)[1] > small_space.encode(source)[1]
        # decode() snaps the integer and the categorical: the vector given is not the encoding.
        vector = np.array([0.1, 0.5031, 0.7])
        decoded = small_space.decode(vector)
        assert small_space.encode(decoded).tobytes() == small_space.encode(decoded.to_dict()).tobytes()
        assert small_space.encode(decoded).tobytes() != vector.tobytes()

    def test_replace_units_decodes_only_the_named_parameters(self, small_space):
        base = small_space.configuration({"kind": "c"}, complete=False)
        moved = base.replace_units(["ratio", "count"], np.array([0.25, 0.5031]))
        assert moved == base.replace(ratio=0.25, count=small_space["count"].from_unit(0.5031))
        assert type(moved["count"]) is int and type(moved["ratio"]) is float
        assert list(moved) == list(base)
        assert not moved._unit.flags.writeable
        assert small_space.encode(moved).tobytes() == small_space.encode(moved.to_dict()).tobytes()
        assert base["ratio"] == 0.5 and base["count"] == 10
        assert small_space.encode(base).tobytes() == small_space.encode(base.to_dict()).tobytes()
        with pytest.raises(KeyError):
            base.replace_units(["bogus"], [0.5])
