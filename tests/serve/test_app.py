"""End-to-end HTTP tests against an in-process serve instance."""

import json
import random
import socket
import threading
import time

import pytest

from repro.obs.metrics import REGISTRY
from repro.serve.loadtest import metric_total


def snapshot_delta(before, name):
    return metric_total(REGISTRY.snapshot(), name) - metric_total(before, name)


class TestEndpoints:
    def test_healthz(self, server):
        status, body = server.client().get("/healthz")
        assert (status, body) == (200, {"status": "ok"})

    def test_metrics_exposes_serve_counters(self, server):
        client = server.client()
        client.compute("map", {"workload": "PV", "dim": 4})
        status, body = client.get("/metrics")
        assert status == 200
        assert metric_total(body["metrics"], "serve.requests") >= 1
        assert metric_total(body["metrics"], "serve.responses") >= 1

    def test_unknown_route_404(self, server):
        status, body = server.client().get("/v2/map")
        assert status == 404
        assert "no route" in body["error"]

    def test_wrong_method_405(self, server):
        status, _ = server.client().get("/v1/map")
        assert status == 405
        status, _ = server.client().post("/healthz", {})
        assert status == 405

    def test_invalid_json_400(self, server):
        client = server.client()
        conn = client._connection()
        conn.request(
            "POST", "/v1/map", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        body = json.loads(response.read())
        assert response.status == 400
        assert "not valid JSON" in body["error"]

    def test_validation_error_400(self, server):
        status, body = server.client().post(
            "/v1/simulate", {"workload": "ResNet"}
        )
        assert status == 400
        assert "unknown workload" in body["error"]

    def test_keep_alive_serves_sequential_requests(self, server):
        client = server.client()
        conn_before = client._connection()
        for _ in range(3):
            payload = client.compute("map", {"workload": "PV", "dim": 4})
            assert payload["result"]["workload"] == "PV"
        assert client._connection() is conn_before  # same TCP connection


class TestComputeFlow:
    def test_computed_then_cached(self, server):
        client = server.client()
        first = client.compute("simulate", {"workload": "LeNet-5", "dim": 8})
        assert first["source"] == "computed"
        assert first["result"]["total_cycles"] > 0
        second = client.compute("simulate", {"workload": "LeNet-5", "dim": 8})
        assert second["source"] == "cache"
        assert second["result"] == first["result"]
        assert second["key"] == first["key"]

    def test_served_map_matches_library(self, server):
        from repro.dataflow import map_network
        from repro.nn import get_workload

        payload = server.client().compute("map", {"workload": "PV", "dim": 8})
        direct = map_network(get_workload("PV"), 8)
        assert payload["result"]["overall_utilization"] == pytest.approx(
            direct.overall_utilization
        )
        assert payload["result"]["total_cycles"] == direct.total_cycles

    def test_served_dse_per_layer_matches_library(self, server):
        from repro.dse import solve_per_layer
        from repro.nn import get_workload

        payload = server.client().compute(
            "dse_per_layer", {"workload": "PV", "dim": 8}
        )
        direct = solve_per_layer(get_workload("PV"), 8)
        assert payload["result"]["total_cycles"] == direct.total_cycles
        assert payload["result"]["families"] == list(direct.families)
        assert len(payload["result"]["layers"]) == len(direct.choices)

    def test_backend_failure_maps_to_500(self, server, monkeypatch):
        monkeypatch.setattr(
            "repro.serve.pool.pool_entry",
            lambda kind, spec: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        status, body = server.client().post(
            "/v1/map", {"workload": "PV", "dim": 4}
        )
        assert status == 500
        assert "boom" in body["error"]

    def test_sweep_batches_points(self, server):
        status, body = server.client().post(
            "/v1/sweep",
            {"points": [
                {"workload": "PV", "dim": 4},
                {"kind": "map", "workload": "PV", "dim": 4},
                {"workload": "PV", "dim": 4},  # duplicate -> shared work
            ]},
        )
        assert status == 200
        assert body["errors"] == 0
        assert len(body["points"]) == 3
        assert {p["kind"] for p in body["points"]} == {"simulate", "map"}
        # The duplicate point shares the first point's key.
        assert body["points"][0]["key"] == body["points"][2]["key"]

    def test_sweep_with_invalid_point_is_rejected_whole(self, server):
        status, body = server.client().post(
            "/v1/sweep",
            {"points": [{"workload": "PV"}, {"workload": "nope"}]},
        )
        assert status == 400
        assert "points[1]" in body["error"]


class TestCoalescing:
    def test_identical_concurrent_requests_compute_once(
        self, server, monkeypatch
    ):
        """N identical concurrent cold requests -> ONE backend computation."""

        def slow_entry(kind, spec):
            time.sleep(0.25)  # hold the leader so every waiter attaches
            return {"result": {"slow": True}, "spans": []}

        monkeypatch.setattr("repro.serve.pool.pool_entry", slow_entry)
        before = REGISTRY.snapshot()
        fanout = 6
        barrier = threading.Barrier(fanout)
        payloads, errors = [], []

        def one():
            try:
                client = server.client()
                barrier.wait(timeout=10)
                payloads.append(
                    client.compute("dse", {"workload": "PV", "dims": [4, 8]})
                )
                client.close()
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=one) for _ in range(fanout)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(payloads) == fanout
        assert snapshot_delta(before, "serve.backend_computations") == 1
        assert snapshot_delta(before, "serve.coalesced") == fanout - 1
        sources = sorted(p["source"] for p in payloads)
        assert sources == ["coalesced"] * (fanout - 1) + ["computed"]
        assert all(p["result"] == {"slow": True} for p in payloads)


class TestStreaming:
    def test_sse_progress_then_result(self, server):
        import http.client

        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30
        )
        conn.request(
            "POST", "/v1/map?stream=1",
            body=json.dumps({"workload": "PV", "dim": 4}).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "text/event-stream"
        blocks = response.read().decode().strip().split("\n\n")
        events = []
        for block in blocks:
            lines = block.split("\n")
            name = lines[0].removeprefix("event: ")
            data = json.loads(lines[1].removeprefix("data: "))
            events.append((name, data))
        conn.close()
        names = [name for name, _ in events]
        assert names[-1] == "result"
        assert "progress" in names[:-1]
        # Progress carries the pool's attempt event and the worker spans.
        progress_names = [d.get("name") for n, d in events if n == "progress"]
        assert "attempt" in progress_names
        final = events[-1][1]
        assert final["source"] == "computed"
        assert final["result"]["workload"] == "PV"

    def test_sse_error_event_on_failure(self, server, monkeypatch):
        import http.client

        monkeypatch.setattr(
            "repro.serve.pool.pool_entry",
            lambda kind, spec: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30
        )
        conn.request(
            "POST", "/v1/map?stream=1",
            body=json.dumps({"workload": "PV", "dim": 4}).encode(),
            headers={"Content-Type": "application/json"},
        )
        raw = conn.getresponse().read().decode()
        conn.close()
        last = raw.strip().split("\n\n")[-1]
        assert last.startswith("event: error")
        assert "boom" in last


class TestStreamDisconnect:
    def test_client_disconnect_keeps_leader_and_waiters_alive(
        self, make_server, monkeypatch
    ):
        """An SSE subscriber dropping mid-stream must not cancel the
        leader computation: a coalesced (non-streaming) waiter on the
        same key still gets the result, and the server just counts a
        ``serve.stream_disconnects``."""
        import http.client

        from repro.experiments.runner import RunPolicy

        calls = []

        def flaky(kind, spec):
            calls.append(1)
            if len(calls) < 9:  # ~0.4s of retry churn = progress writes
                raise RuntimeError("transient")
            return {"result": {"done": True}, "spans": []}

        monkeypatch.setattr("repro.serve.pool.pool_entry", flaky)
        server = make_server(
            RunPolicy(jobs=1, retries=12, backoff_s=0.05, max_backoff_s=0.05)
        )
        before = REGISTRY.snapshot()
        body = json.dumps({"workload": "PV", "dim": 4}).encode()

        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30
        )
        conn.request(
            "POST", "/v1/map?stream=1", body=body,
            headers={"Content-Type": "application/json"},
        )
        time.sleep(0.05)  # the SSE request becomes the coalescing leader
        results, errors = [], []

        def waiter():
            client = server.client()
            try:
                results.append(
                    client.compute("map", {"workload": "PV", "dim": 4})
                )
            except Exception as exc:
                errors.append(exc)
            finally:
                client.close()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.1)
        conn.close()  # drop the stream while attempts are still churning
        thread.join(timeout=30)

        assert not errors, f"waiter was poisoned: {errors[0]}"
        assert results[0]["source"] == "coalesced"
        assert results[0]["result"] == {"done": True}
        assert snapshot_delta(before, "serve.backend_computations") == 1
        deadline = time.monotonic() + 5.0
        while snapshot_delta(before, "serve.stream_disconnects") < 1:
            assert time.monotonic() < deadline, "disconnect never noticed"
            time.sleep(0.02)


class TestDrain:
    def test_drain_endpoint_refuses_new_work_then_settles(self, server):
        client = server.client()
        status, body = client.post("/drain", {})
        assert (status, body) == (200, {"status": "draining"})
        fresh = server.client()
        status, body = fresh.post("/v1/map", {"workload": "PV", "dim": 4})
        assert status == 503
        assert "draining" in body["error"]
        assert fresh.last_headers.get("retry-after") == "1"
        status, health = fresh.get("/healthz")
        assert status == 503
        assert health["status"] == "draining"
        deadline = time.monotonic() + 5.0
        while not server.app.drained.is_set():
            assert time.monotonic() < deadline, "drain never completed"
            time.sleep(0.02)
        fresh.close()
        client.close()


class TestSubprocessBoot:
    def test_cli_serve_boots_and_answers(self, serve_cache):
        """The real ``repro serve`` subprocess: boot, compute, shut down."""
        import os
        from pathlib import Path

        import repro
        from repro.serve.loadtest import start_server

        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env.update(
            REPRO_CACHE="on", REPRO_CACHE_DIR=str(serve_cache),
            PYTHONPATH=src_dir + os.pathsep + env.get("PYTHONPATH", ""),
        )
        proc, client = start_server(jobs=0, env=env)
        try:
            assert client.healthz()
            payload = client.compute("map", {"workload": "PV", "dim": 4})
            assert payload["source"] == "computed"
            status, body = client.get("/metrics")
            assert status == 200
            assert metric_total(body["metrics"], "serve.requests") >= 1
        finally:
            client.close()
            proc.terminate()
            assert proc.wait(timeout=30) is not None

    def test_sigterm_drains_gracefully_and_exits_zero(self, serve_cache):
        """``kill <pid>`` = graceful drain: the server reports the drain
        on stderr and exits 0, not killed mid-flight."""
        import os
        import signal
        from pathlib import Path

        import repro
        from repro.serve.loadtest import start_server

        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env.update(
            REPRO_CACHE="on", REPRO_CACHE_DIR=str(serve_cache),
            PYTHONPATH=src_dir + os.pathsep + env.get("PYTHONPATH", ""),
        )
        proc, client = start_server(
            jobs=0, env=env, extra_args=["--drain-timeout", "5"]
        )
        try:
            payload = client.compute("map", {"workload": "PV", "dim": 4})
            assert payload["source"] == "computed"
            client.close()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            output = proc.stdout.read()
            assert "drain complete" in output
        finally:
            client.close()
            if proc.poll() is None:
                proc.kill()


def raw_exchange(port, payload, *, timeout=5.0):
    """Send raw bytes, half-close, and return everything the server says."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def post_bytes(path, body, *, length=None):
    length = len(body) if length is None else length
    return (
        f"POST {path} HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode("latin-1") + body


def status_of(response):
    assert response.startswith(b"HTTP/1.1 "), response[:80]
    return int(response.split(b" ", 2)[1])


class TestHostileFraming:
    """Malformed framing answers 400 and the server keeps serving."""

    def assert_400_then_alive(self, server, payload, fragment):
        response = raw_exchange(server.port, payload)
        assert status_of(response) == 400
        assert fragment in response
        client = server.client()
        try:
            assert client.get("/healthz")[0] == 200
        finally:
            client.close()

    def test_deeply_nested_body_is_400(self, server):
        self.assert_400_then_alive(
            server, post_bytes("/v1/simulate", b"[" * 200_000),
            b"nested too deeply",
        )

    def test_header_line_over_the_stream_limit_is_400(self, server):
        payload = (
            b"POST /v1/map HTTP/1.1\r\nX-Pad: " + b"a" * 70_000
            + b"\r\nContent-Length: 2\r\n\r\n{}"
        )
        self.assert_400_then_alive(server, payload, b"header line too long")

    def test_body_short_of_content_length_is_400(self, server):
        self.assert_400_then_alive(
            server, post_bytes("/v1/map", b'{"workload"', length=100),
            b"truncated body",
        )

    def test_negative_content_length_is_400(self, server):
        self.assert_400_then_alive(
            server, post_bytes("/v1/map", b"", length=-5),
            b"bad Content-Length",
        )


class TestHostileInputFuzz:
    """Seeded hostile bodies on every compute route: 4xx or 200, never 5xx.

    Each draw goes over a fresh raw connection with a client timeout, so
    a hang fails the test as surely as a 5xx does.
    """

    SEED = 20170204
    ROUTES = ("/v1/map", "/v1/simulate", "/v1/dse", "/v1/dse_per_layer")
    FIELDS = (
        "workload", "network", "dim", "dims", "arch", "reconfig_scale", "kind",
    )
    WRONG_TYPES = (
        None, True, -1, 0, 1.5, "x", [], {}, [1], {"a": 1}, [[4]], "4",
    )
    #: Draws that once answered 500 or nothing, replayed on every run.
    REGRESSIONS = (
        ("/v1/simulate", b"[" * 200_000, None),
        ("/v1/map", b'{"workload": "PV"', 100),
    )

    def draws(self, rng):
        """``(route, body bytes, content length or None, must be 4xx)``."""
        base = {"workload": "PV", "dim": 4, "dims": [4]}
        for route in self.ROUTES + ("/v1/sweep",):
            depth = rng.choice((1_000, 5_000, 100_000))  # under MAX_BODY
            yield route, b"[" * depth, None, True
            yield route, b'{"workload": ' * depth, None, True
            near = rng.randint(900, 1_000)  # around the recursion limit
            yield route, (
                b'{"workload": "PV", "dim": ' + b"[" * near + b"]" * near
                + b', "dims": ' + b"[" * near + b"]" * near + b"}"
            ), None, True
            big = "".join(rng.choice("123456789") for _ in range(5_000))
            yield route, f'{{"workload": "PV", "dim": {big}}}'.encode(), \
                None, True
            for word in ("NaN", "Infinity", "-Infinity"):
                # Every route reads one of these number fields.
                yield route, (
                    f'{{"workload": "PV", "dim": {word}, "dims": [{word}],'
                    f' "reconfig_scale": {word}}}'.encode()
                ), None, True
            for field in self.FIELDS:
                value = rng.choice(self.WRONG_TYPES)
                body = {**base, field: value}
                if field == "network":
                    body.pop("workload")
                if route == "/v1/sweep":
                    body = {"points": [body]}
                yield route, json.dumps(body).encode(), None, False
            yield route, json.dumps(
                {**base, "dims": [4] * rng.randint(33, 500)}
            ).encode(), None, route in ("/v1/dse",)
            yield route, json.dumps(
                {**base, "dim": rng.randint(257, 10**12)}
            ).encode(), None, route != "/v1/dse"
            yield route, json.dumps(
                {"points": [base] * rng.randint(1_025, 3_000)}
            ).encode(), None, route == "/v1/sweep"
            yield route, json.dumps(
                {"points": rng.choice(self.WRONG_TYPES)}
            ).encode(), None, route == "/v1/sweep"
            noise = bytes(rng.randrange(128, 256) for _ in range(64))
            yield route, b'{"workload": "' + noise + b'"}', None, True
            text = json.dumps(base).encode()
            cut = rng.randrange(1, len(text))
            yield route, text[:cut], None, True
            yield route, text[:cut], len(text), True
        for route, body, length in self.REGRESSIONS:
            yield route, body, length, True

    def test_hostile_bodies_never_5xx_or_hang(self, server):
        started = time.monotonic()
        rng = random.Random(self.SEED)
        for route, body, length, must_reject in self.draws(rng):
            status = status_of(
                raw_exchange(server.port, post_bytes(route, body,
                                                     length=length))
            )
            label = f"{route} {body[:60]!r} (len {len(body)})"
            assert status < 500, label
            if must_reject:
                assert 400 <= status < 500, label
            else:
                assert status == 200 or 400 <= status < 500, label
        assert time.monotonic() - started < 5.0
