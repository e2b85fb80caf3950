"""Tests for the @function decorator, SimProfile and payload limits."""

import numpy as np
import pytest

from repro.core.exceptions import SerializationLimitExceeded, UniFaaSError
from repro.core.functions import (
    PAYLOAD_LIMIT_BYTES,
    FederatedFunction,
    SimProfile,
    current_client,
    function,
    payload_size_bytes,
    set_current_client,
)
from repro.core.futures import UniFuture


class FakeClient:
    """Minimal client stand-in that records submissions."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, args, kwargs):
        self.submitted.append((fn, args, kwargs))
        return UniFuture(task_id=f"fake-{len(self.submitted)}")


@pytest.fixture(autouse=True)
def clear_client_context():
    set_current_client(None)
    yield
    set_current_client(None)


class TestDecorator:
    def test_bare_decorator(self):
        @function
        def add(a, b):
            return a + b

        assert isinstance(add, FederatedFunction)
        assert add.name == "add"
        assert add.callable(2, 3) == 5

    def test_decorator_with_options(self):
        profile = SimProfile(base_time_s=30.0)

        @function(name="renamed", sim_profile=profile)
        def work():
            return "done"

        assert work.name == "renamed"
        assert work.sim_profile is profile

    def test_invocation_requires_client(self):
        @function
        def add(a, b):
            return a + b

        with pytest.raises(UniFaaSError, match="outside a UniFaaSClient"):
            add(1, 2)

    def test_invocation_registers_with_current_client(self):
        client = FakeClient()
        set_current_client(client)

        @function
        def add(a, b):
            return a + b

        fut = add(1, b=2)
        assert isinstance(fut, UniFuture)
        assert client.submitted == [(add, (1,), {"b": 2})]

    def test_wrapper_preserves_metadata(self):
        @function
        def documented():
            """Docstring survives wrapping."""

        assert documented.__doc__ == "Docstring survives wrapping."

    def test_current_client_roundtrip(self):
        client = FakeClient()
        set_current_client(client)
        assert current_client() is client
        set_current_client(None)
        assert current_client() is None


class TestPayloadLimit:
    def test_small_payload_allowed(self):
        client = FakeClient()
        set_current_client(client)

        @function
        def consume(data):
            return len(data)

        consume(list(range(100)))
        assert len(client.submitted) == 1

    def test_oversized_payload_rejected(self):
        client = FakeClient()
        set_current_client(client)

        @function
        def consume(data):
            return data.sum()

        big = np.zeros(PAYLOAD_LIMIT_BYTES // 8 + 1024, dtype=np.float64)
        with pytest.raises(SerializationLimitExceeded):
            consume(big)
        assert client.submitted == []

    def test_oversized_kwarg_names_argument(self):
        client = FakeClient()
        set_current_client(client)

        @function
        def consume(*, blob=None):
            return blob

        big = b"x" * (PAYLOAD_LIMIT_BYTES + 1)
        with pytest.raises(SerializationLimitExceeded) as err:
            consume(blob=big)
        assert err.value.argument == "blob"

    def test_future_arguments_exempt(self):
        assert payload_size_bytes(UniFuture("t")) is None

    def test_remote_file_like_arguments_exempt(self):
        class FileLike:
            def get_remote_file_path(self):
                return "/tmp/x"

        assert payload_size_bytes(FileLike()) is None

    def test_custom_limit(self):
        client = FakeClient()
        set_current_client(client)

        @function(payload_limit_bytes=10)
        def consume(data):
            return data

        with pytest.raises(SerializationLimitExceeded):
            consume("a string comfortably over ten bytes")


class TestSimProfile:
    def test_duration_scales_inverse_with_speed(self):
        p = SimProfile(base_time_s=10.0)
        assert p.duration_on(2.0) == pytest.approx(5.0)
        assert p.duration_on(0.5) == pytest.approx(20.0)

    def test_duration_includes_input_term(self):
        p = SimProfile(base_time_s=10.0, time_per_input_mb_s=0.5)
        assert p.duration_on(1.0, input_mb=20.0) == pytest.approx(20.0)

    def test_jitter_draw_multiplies(self):
        p = SimProfile(base_time_s=10.0)
        assert p.duration_on(1.0, jitter_draw=1.5) == pytest.approx(15.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(base_time_s=-1.0),
            dict(output_base_mb=-1.0),
            dict(jitter=-0.5),
            dict(cores=0),
        ],
    )
    def test_invalid_profiles_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimProfile(**kwargs)

    def test_zero_speed_rejected(self):
        with pytest.raises(ValueError):
            SimProfile().duration_on(0.0)
