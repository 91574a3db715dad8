"""Unit tests for SystemConfig and its derived quantities."""

import pytest

from repro.vdms.errors import InvalidConfigurationError
from repro.vdms.system_config import SIMULATED_CORES, SystemConfig


class TestValidation:
    def test_defaults_are_valid(self):
        config = SystemConfig()
        assert config.segment_max_size == 512
        assert config.replica_number == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("segment_max_size", 0),
            ("segment_seal_proportion", 0.0),
            ("segment_seal_proportion", 1.5),
            ("graceful_time", -1),
            ("insert_buf_size", 0),
            ("chunk_rows", 0),
            ("query_node_threads", 0),
            ("replica_number", 0),
        ],
    )
    def test_out_of_range_values_rejected(self, field, value):
        with pytest.raises(InvalidConfigurationError):
            SystemConfig(**{field: value})

    def test_from_mapping_ignores_unknown_keys(self):
        config = SystemConfig.from_mapping(
            {"segment_max_size": 256, "nlist": 64, "index_type": "HNSW"}
        )
        assert config.segment_max_size == 256

    def test_from_mapping_coerces_types(self):
        config = SystemConfig.from_mapping(
            {"segment_max_size": 256.0, "segment_seal_proportion": "0.5"}
        )
        assert isinstance(config.segment_max_size, int)
        assert config.segment_seal_proportion == 0.5

    def test_from_mapping_coerces_by_field_type(self):
        config = SystemConfig.from_mapping(
            {"segment_max_size": "256", "overfetch_factor": 3, "cache_policy": "lru", "nlist": 64}
        )
        assert config == SystemConfig(segment_max_size=256, overfetch_factor=3.0, cache_policy="lru")
        assert isinstance(config.segment_max_size, int)
        assert isinstance(config.overfetch_factor, float)


class TestDerivedQuantities:
    def test_sealed_segment_rows_scale_with_segment_size(self):
        small = SystemConfig(segment_max_size=64)
        large = SystemConfig(segment_max_size=2048)
        assert large.sealed_segment_rows(32) > small.sealed_segment_rows(32)

    def test_sealed_segment_rows_scale_with_seal_proportion(self):
        low = SystemConfig(segment_seal_proportion=0.05)
        high = SystemConfig(segment_seal_proportion=1.0)
        assert high.sealed_segment_rows(32) > low.sealed_segment_rows(32)

    def test_small_insert_buffer_forces_earlier_sealing(self):
        unconstrained = SystemConfig(segment_max_size=2048, segment_seal_proportion=1.0, insert_buf_size=2048)
        constrained = SystemConfig(segment_max_size=2048, segment_seal_proportion=1.0, insert_buf_size=64)
        assert constrained.sealed_segment_rows(32) < unconstrained.sealed_segment_rows(32)

    def test_higher_dimension_means_fewer_rows_per_segment(self):
        config = SystemConfig()
        assert config.sealed_segment_rows(128) < config.sealed_segment_rows(16)

    def test_growing_buffer_rows_positive(self):
        assert SystemConfig(insert_buf_size=64).growing_buffer_rows(512) >= 4

    def test_effective_concurrency_capped_by_request(self):
        config = SystemConfig(query_node_threads=1)
        assert config.effective_concurrency(4) == 4

    def test_effective_concurrency_limited_by_threads(self):
        config = SystemConfig(query_node_threads=SIMULATED_CORES)
        assert config.effective_concurrency(10) == 1

    def test_more_threads_reduce_concurrency(self):
        few = SystemConfig(query_node_threads=2)
        many = SystemConfig(query_node_threads=8)
        assert few.effective_concurrency(100) > many.effective_concurrency(100)

    def test_replicas_do_not_add_concurrency(self):
        one = SystemConfig(query_node_threads=4, replica_number=1)
        four = SystemConfig(query_node_threads=4, replica_number=4)
        assert one.effective_concurrency(100) == four.effective_concurrency(100)
