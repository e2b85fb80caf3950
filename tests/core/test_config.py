"""Tests for the Config interface (Listing 2)."""

import pytest

from repro.core.config import Config, ExecutorSpec
from repro.core.exceptions import ConfigurationError


def two_executors():
    return [
        ExecutorSpec(label="Cluster1", endpoint="6156af-54e93"),
        ExecutorSpec(label="Cluster2", endpoint="9c2344-7ff98"),
    ]


class TestExecutorSpec:
    def test_valid(self):
        spec = ExecutorSpec(label="Cluster1", endpoint="abc", max_workers=10)
        assert spec.max_workers == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(label="", endpoint="abc"),
            dict(label="x", endpoint=""),
            dict(label="x", endpoint="abc", max_workers=0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExecutorSpec(**kwargs)


class TestConfig:
    def test_listing2_style_config(self):
        config = Config(
            executors=two_executors(),
            scheduling_strategy="LOCALITY",
            max_transfer_retries=3,
            file_transfer_type="Globus",
        )
        assert config.strategy == "LOCALITY"
        assert config.transfer_mechanism == "globus"
        assert config.executor_labels() == ["Cluster1", "Cluster2"]

    def test_defaults_are_valid(self):
        config = Config(executors=two_executors())
        assert config.strategy == "DHA"
        assert config.enable_delay_mechanism
        assert config.enable_rescheduling

    def test_requires_executors(self):
        with pytest.raises(ConfigurationError):
            Config(executors=[])

    def test_duplicate_labels_rejected(self):
        execs = [ExecutorSpec("A", "e1"), ExecutorSpec("A", "e2")]
        with pytest.raises(ConfigurationError):
            Config(executors=execs)

    def test_duplicate_endpoints_rejected(self):
        execs = [ExecutorSpec("A", "e1"), ExecutorSpec("B", "e1")]
        with pytest.raises(ConfigurationError):
            Config(executors=execs)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            Config(executors=two_executors(), scheduling_strategy="MAGIC")

    def test_strategy_case_insensitive(self):
        config = Config(executors=two_executors(), scheduling_strategy="locality")
        assert config.strategy == "LOCALITY"

    def test_unknown_transfer_type_rejected(self):
        with pytest.raises(ConfigurationError):
            Config(executors=two_executors(), file_transfer_type="ftp")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_transfer_retries", -1),
            ("max_task_retries", -1),
            ("max_concurrent_transfers", 0),
            ("endpoint_sync_interval_s", 0.0),
            ("profiler_update_interval_s", -1.0),
            ("rescheduling_interval_s", 0.0),
        ],
    )
    def test_invalid_numeric_fields_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            Config(executors=two_executors(), **{field: value})

    def test_executor_by_label(self):
        config = Config(executors=two_executors())
        assert config.executor_by_label("Cluster2").endpoint == "9c2344-7ff98"
        with pytest.raises(ConfigurationError):
            config.executor_by_label("nope")


class TestPublicApi:
    def test_core_package_exports(self):
        import repro.core as core

        for name in ("Config", "ExecutorSpec", "function", "UniFuture", "TaskGraph"):
            assert hasattr(core, name)
