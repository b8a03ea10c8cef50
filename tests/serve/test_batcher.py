"""The serve path's one in-flight table: :class:`BatchScheduler`.

Every admitted request makes one call into the table.  *Identical*
requests (same content-addressed key) attach to one leader, which alone
probes the cache and computes; *compatible* cold leaders (same kind and
network, different dims) fuse into ONE pool dispatch.  For any
concurrent mix of identical, compatible, and incompatible requests the
number of real backend dispatches (``serve.backend_computations``) is
exactly

    #compatibility-groups among *distinct* batchable requests
  + #distinct non-batchable requests

and every caller receives the same payload a direct singleton
computation (:func:`repro.serve.compute.execute_request`) would have
produced — batching must never change an answer, only its cost.
"""

import asyncio
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import reset_chaos_handles
from repro.experiments.runner import RunPolicy
from repro.obs.metrics import REGISTRY
from repro.serve.app import ServeApp
from repro.serve.batcher import (
    BATCHABLE_KINDS,
    BatchPolicy,
    BatchScheduler,
    compatibility_key,
    fuse_requests,
)
from repro.serve.compute import execute_request
from repro.serve.loadtest import metric_total
from repro.serve.resilience import ServeResilience
from repro.serve.schemas import parse_request


@pytest.fixture(autouse=True)
def fresh_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.delenv("REPRO_CHAOS_STATE", raising=False)
    reset_chaos_handles()
    yield
    reset_chaos_handles()


def drive(app, requests):
    """Run every request concurrently on one loop; preserve order."""

    async def scenario():
        return await asyncio.gather(
            *(app.serve_request(request) for request in requests)
        )

    return asyncio.run(scenario())


def make_app(window_ms=200.0, max_batch=32):
    return ServeApp(
        RunPolicy(jobs=1, retries=0),
        jobs=0,
        batching=BatchPolicy(window_ms=window_ms, max_batch=max_batch),
    )


def snapshot_delta(before, after, name):
    return metric_total(after, name) - metric_total(before, name)


class TestCompatibility:
    def test_same_network_different_dims_share_a_key(self):
        a = parse_request("dse", {"workload": "PV", "dims": [4, 8]})
        b = parse_request("dse", {"workload": "PV", "dims": [6]})
        c = parse_request("dse", {"workload": "LeNet-5", "dims": [4, 8]})
        assert compatibility_key(a) == compatibility_key(b)
        assert compatibility_key(a) != compatibility_key(c)

    def test_simulate_keys_include_the_arch(self):
        a = parse_request("simulate", {"workload": "PV", "dim": 4})
        b = parse_request("simulate", {"workload": "PV", "dim": 8})
        assert compatibility_key(a) == compatibility_key(b)

    def test_only_sweepable_kinds_are_batchable(self):
        assert BATCHABLE_KINDS == {"dse", "simulate"}

    def test_fused_request_key_covers_every_member(self):
        members = [
            parse_request("dse", {"workload": "PV", "dims": [4]}),
            parse_request("dse", {"workload": "PV", "dims": [6]}),
        ]
        fused = fuse_requests(members)
        assert fused.kind == "batch"
        assert fused.spec["members"] == [m.spec for m in members]
        # The fused key is order-sensitive over member keys: a different
        # member set must never alias a cached fused result.
        reordered = fuse_requests(list(reversed(members)))
        assert fused.key != reordered.key


class TestMixedConcurrency:
    """The hypothesis contract: exact dispatch count, per-waiter answers."""

    WORKLOADS = ("PV", "LeNet-5")
    DIM_SETS = ((4,), (6, 8), (12,))

    descriptors = st.lists(
        st.one_of(
            st.tuples(
                st.just("dse"),
                st.sampled_from(WORKLOADS),
                st.sampled_from(DIM_SETS),
            ),
            st.tuples(
                st.just("map"),
                st.sampled_from(WORKLOADS),
                st.sampled_from((4, 8)),
            ),
        ),
        min_size=1,
        max_size=8,
    )

    @staticmethod
    def to_request(descriptor):
        kind, workload, spec = descriptor
        if kind == "dse":
            return parse_request(
                "dse", {"workload": workload, "dims": list(spec)}
            )
        return parse_request("map", {"workload": workload, "dim": spec})

    @staticmethod
    def expected_dispatches(descriptors):
        distinct = set(descriptors)
        batch_groups = set()
        singleton_dispatches = 0
        for kind, workload, _ in distinct:
            if kind in BATCHABLE_KINDS:
                batch_groups.add((kind, workload))
            else:
                singleton_dispatches += 1
        return singleton_dispatches + len(batch_groups)

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mix=descriptors)
    def test_exact_dispatch_count_and_per_waiter_results(self, mix):
        requests = [self.to_request(descriptor) for descriptor in mix]
        app = make_app()
        before = REGISTRY.snapshot()
        try:
            payloads = drive(app, requests)
        finally:
            app.shutdown()
        after = REGISTRY.snapshot()
        assert snapshot_delta(
            before, after, "serve.backend_computations"
        ) == self.expected_dispatches(mix)
        assert snapshot_delta(before, after, "serve.batch_failovers") == 0
        for payload, request in zip(payloads, requests):
            direct = execute_request(request.kind, request.spec)
            assert json.dumps(payload["result"]) == json.dumps(direct)


class TestWindowAndSeal:
    def test_single_member_settles_as_plain_singleton(self):
        request = parse_request("dse", {"workload": "PV", "dims": [4, 8]})
        app = make_app(window_ms=30.0)
        before = REGISTRY.snapshot()
        try:
            (payload,) = drive(app, [request])
        finally:
            app.shutdown()
        after = REGISTRY.snapshot()
        # A batch of one pays no fusion: no batch counters move.
        assert snapshot_delta(before, after, "serve.batches") == 0
        assert snapshot_delta(before, after, "serve.batched") == 0
        assert snapshot_delta(
            before, after, "serve.backend_computations"
        ) == 1
        assert payload["result"] == execute_request("dse", request.spec)

    def test_max_batch_seals_before_the_window_closes(self):
        requests = [
            parse_request("dse", {"workload": "PV", "dims": [4 + i]})
            for i in range(3)
        ]
        # A 30s window would time the test out unless max_batch seals.
        app = make_app(window_ms=30_000.0, max_batch=3)
        before = REGISTRY.snapshot()
        started = time.monotonic()
        try:
            payloads = drive(app, requests)
        finally:
            app.shutdown()
        assert time.monotonic() - started < 10.0
        after = REGISTRY.snapshot()
        assert snapshot_delta(before, after, "serve.batches") == 1
        assert snapshot_delta(before, after, "serve.batched") == 3
        assert snapshot_delta(
            before, after, "serve.backend_computations"
        ) == 1
        for payload, request in zip(payloads, requests):
            assert payload["result"] == execute_request("dse", request.spec)

    def test_disabled_policy_dispatches_immediately(self):
        requests = [
            parse_request("dse", {"workload": "PV", "dims": [4 + i]})
            for i in range(3)
        ]
        app = ServeApp(
            RunPolicy(jobs=1, retries=0),
            jobs=0,
            batching=BatchPolicy(window_ms=0.0, max_batch=16),
        )
        before = REGISTRY.snapshot()
        try:
            drive(app, requests)
        finally:
            app.shutdown()
        after = REGISTRY.snapshot()
        assert snapshot_delta(before, after, "serve.batches") == 0
        assert snapshot_delta(
            before, after, "serve.backend_computations"
        ) == 3

    def test_simulate_requests_fuse_too(self):
        requests = [
            parse_request("simulate", {"workload": "LeNet-5", "dim": dim})
            for dim in (4, 8)
        ]
        app = make_app()
        before = REGISTRY.snapshot()
        try:
            payloads = drive(app, requests)
        finally:
            app.shutdown()
        after = REGISTRY.snapshot()
        assert snapshot_delta(before, after, "serve.batches") == 1
        assert snapshot_delta(
            before, after, "serve.backend_computations"
        ) == 1
        for payload, request in zip(payloads, requests):
            direct = execute_request("simulate", request.spec)
            assert json.dumps(payload["result"]) == json.dumps(direct)


class TestLeaderCrashFailover:
    def test_fused_crash_fails_over_to_per_member_singletons(
        self, monkeypatch
    ):
        """A one-shot ``worker_crash`` lands on the fused dispatch (the
        first pool execution); with zero pool retries the batch burns its
        only attempt, so the scheduler must fail over to per-member
        singleton dispatches — every waiter still gets its own correct
        answer, nothing surfaces as an error."""
        monkeypatch.setenv("REPRO_CHAOS", "worker_crash=1@1,seed=1")
        reset_chaos_handles()
        requests = [
            parse_request("dse", {"workload": "PV", "dims": [4 + i]})
            for i in range(4)
        ]
        app = make_app(window_ms=100.0)
        before = REGISTRY.snapshot()
        try:
            payloads = drive(app, requests)
        finally:
            app.shutdown()
        after = REGISTRY.snapshot()
        assert snapshot_delta(before, after, "serve.batches") == 1
        assert snapshot_delta(before, after, "serve.batch_failovers") == 1
        # One crashed fused attempt plus four singleton retries.
        assert snapshot_delta(
            before, after, "serve.backend_computations"
        ) == 5
        for payload, request in zip(payloads, requests):
            assert payload["source"] == "computed"
            assert payload["result"] == execute_request("dse", request.spec)


def scheduler_over(run):
    """A bare table over a fake pool ``run`` (``map`` never batches)."""
    return BatchScheduler(BatchPolicy(), run, ServeResilience().breaker)


def map_request(dim=4):
    return parse_request("map", {"workload": "PV", "dim": dim})


def counting_run(calls, *, delay=0.01, error=None):
    async def run(request, progress):
        calls.append(request.key)
        await asyncio.sleep(delay)
        if error is not None:
            raise error
        return {"result": request.label, "spans": []}

    return run


def submit_all(table, requests):
    async def scenario():
        return await asyncio.gather(
            *(table.submit(request, lambda record: None)
              for request in requests),
            return_exceptions=True,
        )

    return asyncio.run(scenario())


class TestIdenticalRequests:
    """One leader per key; identical callers share its outcome."""

    def test_concurrent_same_key_computes_once(self):
        calls = []
        table = scheduler_over(counting_run(calls))
        payloads = submit_all(table, [map_request()] * 8)
        assert len(calls) == 1
        assert [p["result"] for p in payloads] == ["map:PV@4"] * 8
        # Exactly one leader; everyone else attached to it.
        assert sorted(p["source"] for p in payloads) == (
            ["coalesced"] * 7 + ["computed"]
        )
        assert REGISTRY.gauge("serve.inflight").value == 0

    def test_distinct_keys_do_not_coalesce(self):
        calls = []
        table = scheduler_over(counting_run(calls))
        payloads = submit_all(table, [map_request(4), map_request(8)])
        assert len(set(calls)) == 2
        assert [p["source"] for p in payloads] == ["computed"] * 2

    def test_leader_failure_fails_every_waiter(self):
        calls = []
        failing = counting_run(calls, error=ValueError("boom"))
        healthy = counting_run(calls)
        table = scheduler_over(
            lambda request, progress: (failing if len(calls) == 0
                                       else healthy)(request, progress)
        )
        outcomes = submit_all(table, [map_request()] * 4)
        assert len(calls) == 1
        assert all(isinstance(o, ValueError) for o in outcomes)
        assert REGISTRY.gauge("serve.inflight").value == 0
        # The key was released: the next caller leads a fresh attempt.
        (retry,) = submit_all(table, [map_request()])
        assert (retry["source"], len(calls)) == ("computed", 2)

    def test_sequential_requests_compute_each_time(self):
        calls = []
        table = scheduler_over(counting_run(calls, delay=0.0))
        submit_all(table, [map_request()])
        submit_all(table, [map_request()])
        # No in-flight leader to attach to -> the second call computes
        # (the persistent cache, off here, is what serves warm repeats).
        assert len(calls) == 2

    def test_waiter_cancellation_leaves_leader_running(self):
        calls = []
        table = scheduler_over(counting_run(calls, delay=0.05))

        async def scenario():
            leader = asyncio.ensure_future(
                table.submit(map_request(), lambda record: None)
            )
            await asyncio.sleep(0.01)
            waiter = asyncio.ensure_future(
                table.submit(map_request(), lambda record: None)
            )
            await asyncio.sleep(0.01)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            return await leader

        payload = asyncio.run(scenario())
        assert len(calls) == 1
        assert (payload["result"], payload["source"]) == (
            "map:PV@4", "computed"
        )

    def test_identical_callers_never_probe_the_cache(self, serve_cache):
        calls = []
        table = scheduler_over(counting_run(calls))
        before = REGISTRY.snapshot()
        submit_all(table, [map_request()] * 6)
        after = REGISTRY.snapshot()
        assert len(calls) == 1
        # One leader, one probe: the five attached callers skip it.
        assert snapshot_delta(before, after, "cache.lookups") == 1
        assert snapshot_delta(before, after, "serve.coalesced") == 5


class TestIdenticalAndCompatibleInOneWindow:
    def test_duplicates_attach_while_distinct_keys_fuse(self):
        dims = ([4], [6], [4], [8], [6], [4])
        requests = [
            parse_request("dse", {"workload": "PV", "dims": d}) for d in dims
        ]
        app = make_app(window_ms=100.0)
        before = REGISTRY.snapshot()
        try:
            payloads = drive(app, requests)
        finally:
            app.shutdown()
        after = REGISTRY.snapshot()
        # Three distinct keys fuse into one dispatch; the three
        # duplicates attach to their key's leader instead of joining.
        assert snapshot_delta(
            before, after, "serve.backend_computations"
        ) == 1
        assert snapshot_delta(before, after, "serve.batches") == 1
        assert snapshot_delta(before, after, "serve.batched") == 3
        assert snapshot_delta(before, after, "serve.coalesced") == 3
        assert [p["source"] for p in payloads] == [
            "computed", "computed", "coalesced",
            "computed", "coalesced", "coalesced",
        ]
        for payload, request in zip(payloads, requests):
            assert payload["key"] == request.key
            assert payload["result"] == execute_request("dse", request.spec)
