"""The one staging-cost rule against the copies it replaced.

``tests/reference/staging_cost.py`` keeps, verbatim, the three per-file
rules and the two fallbacks for tasks without input files that each
consumer used to write out for itself.  Every case here prices the same
inputs with the product's ``SchedulingContext.file_staging_costs`` /
``estimated_staging_costs`` (over ``DataPlane.staging_sources``) and with
each reference, and asserts ``==`` cell by cell: under both data-plane
policies, for resident, empty, replica-less and one- or several-replica
files with none, some or all replicas offline, onto every endpoint.
"""

import itertools
import random

import numpy as np
import pytest

from repro.data.remote_file import GlobusFile
from repro.data.transfer import SimulatedTransferBackend
from repro.dataplane.plane import DataPlane
from repro.sched.vector import PredictionIndex
from repro.sim.network import NetworkModel
from tests.reference import staging_cost as reference
from tests.sched.conftest import EndpointSpec, add_task, build_context

ENDPOINTS = ("a", "b", "c", "d")
OFFLINE = ((), ("b",), ("a", "c"), ENDPOINTS)
POLICIES = pytest.mark.parametrize("published", [True, False], ids=["published", "default"])


def federation(published, endpoints=ENDPOINTS):
    """A context whose plane runs ``published`` and whose links all differ."""
    bundle = build_context({name: EndpointSpec() for name in endpoints})
    network = NetworkModel.uniform(list(endpoints), bandwidth_mbps=100.0, jitter=0.0, seed=0)
    plane = DataPlane(
        SimulatedTransferBackend(bundle.kernel, network),
        bundle.kernel.clock,
        published=published,
    )
    context = bundle.context
    context.data_manager = plane
    # The references read the policy from the config, as the product did.
    context.config.enable_dataplane = not published
    rng = random.Random(11)
    for src, dst in itertools.permutations(endpoints, 2):
        context.transfer_profiler.seed_bandwidth(src, dst, rng.uniform(20.0, 400.0))
    return bundle, plane


def file_at(size_mb, locations):
    file = GlobusFile(f"in-{size_mb}", size_mb=size_mb)
    for name in locations:
        file.add_location(name)
    return file


def file_cases():
    """Every replica set over the endpoints (empty included) at two sizes."""
    for size in (0.0, 75.0):
        for count in range(len(ENDPOINTS) + 1):
            for locations in itertools.combinations(ENDPOINTS, count):
                yield file_at(size, locations)


def with_offline(plane, offline):
    for name in ENDPOINTS:
        (plane.store.mark_offline if name in offline else plane.store.mark_online)(name)


@POLICIES
@pytest.mark.parametrize("offline", OFFLINE, ids=lambda names: "+".join(names) or "none")
def test_a_file_costs_what_every_old_rule_said(published, offline):
    bundle, plane = federation(published)
    context = bundle.context
    with_offline(plane, offline)
    names = list(ENDPOINTS)
    for file in file_cases():
        costs = context.file_staging_costs(file, names)
        assert costs == list(reference.file_cost_row(context, names, file))
        assert costs == [reference.pull_cost(context, file, name) for name in names]
        task = add_task(bundle.graph, input_files=[file])
        for column, name in enumerate(names):
            assert context.file_staging_costs(file, [name]) == [costs[column]]
            expected = reference.predicted_staging_time(context, task, name)
            assert context.predicted_staging_time(task, name) == expected
        if not published and file.locations:
            assert plane.staging_sources(file) == reference.staging_sources(context, file)
            for name in names:
                assert plane._pick_source(file, name) in plane.staging_sources(file)


@POLICIES
@pytest.mark.parametrize("offline", OFFLINE, ids=lambda names: "+".join(names) or "none")
def test_a_task_row_sums_its_files_like_the_old_rules(published, offline):
    bundle, plane = federation(published)
    context = bundle.context
    with_offline(plane, offline)
    names = list(ENDPOINTS)
    files = list(file_cases())
    rng = random.Random(3)
    for _ in range(40):
        task = add_task(bundle.graph, input_files=rng.sample(files, rng.randint(1, 4)))
        index = PredictionIndex(context)
        row = index._staging_row(task)
        assert np.array_equal(row, reference.staging_row(context, names, task))
        for column, name in enumerate(names):
            expected = reference.predicted_staging_time(context, task, name)
            assert context.predicted_staging_time(task, name) == expected == row[column]


@POLICIES
@pytest.mark.parametrize("width", [1, 2, 4])
@pytest.mark.parametrize("volume", [0.0, 30.0])
def test_a_task_without_files_costs_its_estimated_volume_like_the_old_rules(
    published, width, volume
):
    endpoints = ENDPOINTS[:width]
    bundle, _ = federation(published, endpoints)
    context = bundle.context
    parent = add_task(bundle.graph)
    parent.output_files = [file_at(volume, ())]
    task = add_task(bundle.graph, deps=[parent])
    names = list(endpoints)
    assert context.estimated_input_mb(task) == volume
    costs = context.estimated_staging_costs(task, names)
    assert np.array_equal(
        PredictionIndex(context)._staging_row(task), reference.staging_row(context, names, task)
    )
    assert costs == list(reference.staging_row(context, names, task))
    # The scalar rule also answered for an endpoint outside the federation.
    for name in names + ["elsewhere"]:
        expected = reference.predicted_staging_time(context, task, name)
        assert context.predicted_staging_time(task, name) == expected
        assert context.estimated_staging_costs(task, [name]) == [expected]
