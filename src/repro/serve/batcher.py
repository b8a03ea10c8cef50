"""The serve path's one in-flight table: dedup identical, fuse compatible.

Every admitted request the hot path did not answer makes one call,
:meth:`BatchScheduler.submit`:

* **Identical requests** share a content-addressed ``request.key``.  The
  first caller for a key is its *leader*: it probes the persistent
  ``serve`` cache section, passes its kind's circuit breaker, runs the
  work and publishes the result.  Identical callers arriving meanwhile
  attach to the scheduler's future for the key — N identical concurrent
  cold requests cost one cache probe and one computation.  A leader's
  failure fails every attached caller; cancelling an attached caller
  never cancels the leader.
* **Compatible requests** — distinct keys with the same kind and network
  (and arch), i.e. the axes :func:`repro.experiments.common.evaluate_sweep`
  spans in one shot — are leaders whose cache misses park in a pending
  batch for up to ``window_ms`` (or until ``max_batch`` members) and
  then ship to the pool as ONE fused ``batch`` task.  The worker
  rebuilds every member's singleton payload
  (:func:`repro.serve.compute._exec_batch`) and each leader publishes
  its own point, so future singleton requests still hit.  If the fused
  dispatch exhausts the pool's retry policy, the scheduler fails over to
  per-member singleton dispatches (``serve.batch_failovers``).

Counters: ``serve.coalesced{kind}``, the ``serve.inflight`` gauge (keys
with a leader in flight), ``serve.results{source}``,
``serve.backend_computations{kind}`` (real pool dispatches),
``serve.batches``, ``serve.batched{kind}``, ``serve.batch_failovers``
and the ``serve.batch_size`` histogram.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.cache import active_cache, hash_payload
from repro.obs.events import event_record
from repro.obs.metrics import REGISTRY
from repro.serve.pool import ProgressSink
from repro.serve.resilience import CircuitBreaker
from repro.serve.schemas import ComputeRequest

#: Kinds whose requests can fuse: their specs differ only along axes one
#: ``evaluate_sweep`` call spans.  ``map``/``dse_per_layer`` run whole
#: per-network searches with no shared sweep axis, so they stay singleton.
BATCHABLE_KINDS = frozenset({"dse", "simulate"})

#: One request through the worker pool, to its worker envelope.
Run = Callable[[ComputeRequest, ProgressSink], Awaitable[Dict[str, Any]]]


@dataclass(frozen=True)
class BatchPolicy:
    """Batching knobs (CLI: ``--batch-window-ms`` / ``--batch-max``)."""

    window_ms: float = 2.0
    max_batch: int = 16

    @property
    def enabled(self) -> bool:
        return self.window_ms > 0 and self.max_batch > 1


def compatibility_key(request: ComputeRequest) -> Tuple[Any, ...]:
    """The axis requests must share to fuse: kind + network (+ arch)."""
    spec = request.spec
    network = (
        ("workload", spec["workload"])
        if "workload" in spec
        else ("source", spec["source"])
    )
    if request.kind == "simulate":
        return ("simulate", network, spec["arch"])
    return (request.kind, network)


def fuse_requests(requests: List[ComputeRequest]) -> ComputeRequest:
    """One ``batch``-kind request carrying every member's spec."""
    first = requests[0]
    return ComputeRequest(
        kind="batch",
        spec={"kind": first.kind, "members": [r.spec for r in requests]},
        key=hash_payload(
            "serve.batch",
            {"kind": first.kind, "keys": [r.key for r in requests]},
        ),
        label=f"batch:{first.kind}x{len(requests)}",
    )


class _PendingBatch:
    """One open batch: members accumulate until sealed."""

    __slots__ = ("members", "sealed", "closed")

    def __init__(self) -> None:
        self.members: List[
            Tuple[ComputeRequest, ProgressSink, asyncio.Future]
        ] = []
        self.sealed = asyncio.Event()
        self.closed = False


class BatchScheduler:
    """The in-flight table: one leader per key, compatible leaders fused."""

    def __init__(
        self,
        policy: BatchPolicy,
        run: Run,
        breaker: Callable[[str], CircuitBreaker],
    ) -> None:
        self.policy = policy
        self._run = run
        self._breaker = breaker
        self._inflight: Dict[str, asyncio.Future] = {}
        self._pending: Dict[Tuple[Any, ...], _PendingBatch] = {}

    async def submit(
        self, request: ComputeRequest, progress: ProgressSink
    ) -> Dict[str, Any]:
        """One admitted request to its response payload.

        ``{"kind", "key", "source", "result", "spans"}``, where
        ``source`` is ``cache`` or ``computed`` for a leader and
        ``coalesced`` for a caller attached to one.
        """
        existing = self._inflight.get(request.key)
        if existing is not None:
            REGISTRY.counter("serve.coalesced", kind=request.kind).inc()
            payload = await asyncio.shield(existing)
            REGISTRY.counter("serve.results", source="coalesced").inc()
            return {**payload, "source": "coalesced"}
        future = asyncio.get_running_loop().create_future()
        self._inflight[request.key] = future
        REGISTRY.gauge("serve.inflight").set(len(self._inflight))
        try:
            payload = await self._lead(request, progress)
        except BaseException as exc:
            if isinstance(exc, Exception):
                future.set_exception(exc)
                future.exception()  # retrieved: there may be no waiter
            else:  # cancellation and the like: release waiters cleanly
                future.cancel()
            raise
        else:
            future.set_result(payload)
            return dict(payload)  # the caller may edit its own copy
        finally:
            del self._inflight[request.key]
            REGISTRY.gauge("serve.inflight").set(len(self._inflight))

    # -- internals ------------------------------------------------------------

    async def _lead(
        self, request: ComputeRequest, progress: ProgressSink
    ) -> Dict[str, Any]:
        """The leader's work: cache probe, breaker, compute, publish."""
        head = {"kind": request.kind, "key": request.key}
        cache = active_cache()
        if cache is not None:
            stored = cache.get("serve", request.key)
            if stored is not None:
                REGISTRY.counter("serve.results", source="cache").inc()
                progress(
                    event_record("cache-hit", "serve", {"key": request.key})
                )
                return {**head, "source": "cache", "result": stored,
                        "spans": []}
        # The breaker gates backend computations only — cache hits stay
        # served while a failing backend cools off.
        breaker = self._breaker(request.kind)
        breaker.acquire()
        try:
            envelope = await self._compute(request, progress)
        except asyncio.CancelledError:
            breaker.abort()  # no verdict from a cancelled attempt
            raise
        except Exception:
            breaker.record_failure()
            raise
        breaker.record_success()
        if cache is not None:
            # Every point lands under its own content-addressed key —
            # batched or not — so future singletons still hit.  Deferred:
            # the publish IO runs on the cache's flush thread, not the
            # event loop (the memory tier makes the entry visible to this
            # process immediately).
            with cache.deferred():
                cache.put("serve", request.key, envelope["result"])
        REGISTRY.counter("serve.results", source="computed").inc()
        return {**head, "source": "computed", **envelope}

    async def _compute(
        self, request: ComputeRequest, progress: ProgressSink
    ) -> Dict[str, Any]:
        """A cache-missed leader's worker envelope.

        Batchable kinds park in a pending batch; everything else (and
        everything when batching is off) dispatches immediately.
        """
        if not self.policy.enabled or request.kind not in BATCHABLE_KINDS:
            return await self._dispatch(request, progress)
        key = compatibility_key(request)
        batch = self._pending.get(key)
        future = asyncio.get_running_loop().create_future()
        if batch is None or batch.closed:
            batch = _PendingBatch()
            self._pending[key] = batch
            batch.members.append((request, progress, future))
            # The batch's own detached task closes the window; every
            # member (including the first) just awaits its future.
            asyncio.get_running_loop().create_task(
                self._run_batch(key, batch)
            )
        else:
            batch.members.append((request, progress, future))
            if len(batch.members) >= self.policy.max_batch:
                self._seal(key, batch)
        return await future

    async def _dispatch(
        self, request: ComputeRequest, progress: ProgressSink
    ) -> Dict[str, Any]:
        """One actual pool execution (singleton or fused batch).

        This is the only path that bumps ``serve.backend_computations``,
        so the counter measures real backend dispatches: N coalesced
        callers count once, and K batched requests count once under
        ``kind="batch"``.
        """
        REGISTRY.counter(
            "serve.backend_computations", kind=request.kind
        ).inc()
        progress(
            event_record("scheduled", "serve", {"label": request.label})
        )
        return await self._run(request, progress)

    def _seal(self, key: Tuple[Any, ...], batch: _PendingBatch) -> None:
        """Close the batch to new members (idempotent, loop-synchronous)."""
        if batch.closed:
            return
        batch.closed = True
        if self._pending.get(key) is batch:
            del self._pending[key]
        batch.sealed.set()

    async def _run_batch(
        self, key: Tuple[Any, ...], batch: _PendingBatch
    ) -> None:
        try:
            await asyncio.wait_for(
                batch.sealed.wait(), timeout=self.policy.window_ms / 1000.0
            )
        except asyncio.TimeoutError:
            pass
        self._seal(key, batch)
        members = batch.members
        if len(members) == 1:
            # A batch of one is just a singleton: no fusion overhead,
            # no batch counters — the window cost was the only price.
            await self._settle_singleton(members[0])
            return
        fused = fuse_requests([request for request, _, _ in members])
        kind = members[0][0].kind
        REGISTRY.counter("serve.batches", kind=kind).inc()
        REGISTRY.counter("serve.batched", kind=kind).inc(len(members))
        REGISTRY.histogram("serve.batch_size").observe(len(members))

        def fanout(record: Dict[str, Any]) -> None:
            for _, sink, _ in members:
                sink(record)

        results: Optional[List[Any]] = None
        try:
            envelope = await self._dispatch(fused, fanout)
            candidate = (envelope.get("result") or {}).get("results")
            if isinstance(candidate, list) and len(candidate) == len(members):
                results = candidate
                # Every member would otherwise carry the whole fused
                # sweep's per-point spans; keep the sweep-level rollup
                # only so fan-out encoding stays O(members), not
                # O(members x union points).
                spans = [
                    span
                    for span in envelope.get("spans") or []
                    if span.get("category") == "sweep"
                ]
        except asyncio.CancelledError:
            for _, _, future in members:
                if not future.done():
                    future.cancel()
            raise
        except Exception:
            pass
        if results is None:
            # The fused dispatch already burned its retries (or answered
            # malformed); give every member its own unbatched attempt
            # rather than failing all of them together.
            REGISTRY.counter("serve.batch_failovers", kind=kind).inc()
            await asyncio.gather(
                *(self._settle_singleton(member) for member in members)
            )
            return
        for (request, _, future), result in zip(members, results):
            if not future.done():
                future.set_result({"result": result, "spans": spans})

    async def _settle_singleton(
        self, member: Tuple[ComputeRequest, ProgressSink, asyncio.Future]
    ) -> None:
        request, progress, future = member
        try:
            envelope = await self._dispatch(request, progress)
        except asyncio.CancelledError:
            if not future.done():
                future.cancel()
            raise
        except Exception as exc:
            if not future.done():
                future.set_exception(exc)
                future.exception()  # retrieved: the waiter may be gone
        else:
            if not future.done():
                future.set_result(envelope)
