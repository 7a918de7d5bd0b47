"""The serve subsystem: coalescing, backpressure, HTTP surface, smoke."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.serve import (
    QueueFullError,
    ServeClient,
    ServeConfig,
    ServeHTTPError,
    ServerThread,
    SimulationService,
)

MV_TINY = {"trace": {"benchmark": "MV", "scale": "tiny"}, "config": "standard"}
SPMV_TINY = {"trace": {"benchmark": "SpMV", "scale": "tiny"}, "config": "standard"}


def _run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Service level (no HTTP): coalescing and backpressure
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_concurrent_identical_cells_simulate_exactly_once(self):
        async def main():
            service = SimulationService(ServeConfig(cache=None, workers=1))
            try:
                return (
                    await asyncio.gather(
                        *(service.submit(MV_TINY) for _ in range(6))
                    ),
                    service.metrics,
                )
            finally:
                service.close()

        responses, metrics = _run(main())
        # The dedup invariant: N concurrent requests, ONE simulation.
        assert metrics.simulations == 1
        assert metrics.served["simulated"] == 1
        assert metrics.served["coalesced"] == 5
        keys = {r["key"] for r in responses}
        assert len(keys) == 1
        # Every caller saw the same counters (and the same refusal).
        assert all(r["result"] == responses[0]["result"] for r in responses)

    def test_sequential_repeat_serves_from_hot_tier(self):
        async def main():
            service = SimulationService(ServeConfig(cache=None, workers=1))
            try:
                first = await service.submit(MV_TINY)
                second = await service.submit(MV_TINY)
                return first, second, service.store.stats()
            finally:
                service.close()

        first, second, stats = _run(main())
        assert first["served"] == "simulated"
        assert second["served"] == "hot"
        assert stats["hot_hits"] == 1
        assert first["result"] == second["result"]


class TestBackpressure:
    def test_external_submission_rejected_when_queue_full(self):
        async def main():
            service = SimulationService(
                ServeConfig(cache=None, workers=1, queue_depth=1)
            )
            try:
                return (
                    await asyncio.gather(
                        service.submit(MV_TINY),
                        service.submit(SPMV_TINY),
                        return_exceptions=True,
                    ),
                    service.metrics,
                )
            finally:
                service.close()

        results, metrics = _run(main())
        rejected = [r for r in results if isinstance(r, QueueFullError)]
        served = [r for r in results if isinstance(r, dict)]
        assert len(rejected) == 1 and len(served) == 1
        assert rejected[0].code == "queue-full"
        assert metrics.rejected == 1

    def test_duplicate_cell_coalesces_instead_of_rejecting(self):
        async def main():
            service = SimulationService(
                ServeConfig(cache=None, workers=1, queue_depth=1)
            )
            try:
                return (
                    await asyncio.gather(
                        service.submit(MV_TINY), service.submit(MV_TINY)
                    ),
                    service.metrics,
                )
            finally:
                service.close()

        results, metrics = _run(main())
        assert metrics.rejected == 0
        assert metrics.simulations == 1
        assert {r["served"] for r in results} == {"simulated", "coalesced"}

    def test_batch_cells_wait_for_slots_instead_of_bouncing(self):
        async def main():
            service = SimulationService(
                ServeConfig(cache=None, workers=1, queue_depth=1)
            )
            try:
                sweep = {
                    "traces": [MV_TINY["trace"], SPMV_TINY["trace"]],
                    "configs": ["standard", "soft"],
                }
                return await service.submit_sweep(sweep), service.metrics
            finally:
                service.close()

        result, metrics = _run(main())
        assert result["status"] == "done"
        assert result["done"] == result["total"] == 4
        assert metrics.rejected == 0
        assert metrics.simulations == 4


class TestValidation:
    def test_bad_inputs_raise_config_error_with_stable_code(self):
        from repro.errors import ConfigError

        service = SimulationService(ServeConfig(cache=None))
        bad = [
            {},  # no trace
            {"trace": {"benchmark": "NOPE"}, "config": "standard"},
            {"trace": {"benchmark": "MV", "scale": "huge"}, "config": "standard"},
            {"trace": {"benchmark": "MV", "seed": "x"}, "config": "standard"},
            {"trace": {"benchmark": "MV"}, "config": "no-such-preset"},
            {"trace": {"benchmark": "MV"}, "config": "standard", "engine": "x"},
            {"trace": {"benchmark": "MV"}},  # no config
        ]
        for payload in bad:
            with pytest.raises(ConfigError) as excinfo:
                service.resolve_cell(payload)
            assert excinfo.value.code == "config-error"

    def test_key_is_content_addressed(self):
        service = SimulationService(ServeConfig(cache=None))
        a = service.resolve_cell(MV_TINY)
        b = service.resolve_cell(dict(MV_TINY))
        assert a.key == b.key
        c = service.resolve_cell(
            {"trace": MV_TINY["trace"], "config": "soft"}
        )
        assert c.key != a.key


# ----------------------------------------------------------------------
# HTTP surface, end to end over a real socket
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    with ServerThread(
        ServeConfig(port=0, cache=str(cache_dir), workers=1)
    ) as running:
        yield running


@pytest.fixture()
def client(server):
    with ServeClient(server.host, server.port) as c:
        yield c


class TestHTTP:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert "version" in health and "uptime_s" in health

    def test_submit_then_hot_hit(self, client):
        first = client.submit(MV_TINY)
        assert first["served"] in ("simulated", "hot", "disk", "coalesced")
        again = client.submit(MV_TINY)
        assert again["served"] == "hot"  # in-memory, no disk touch
        assert again["result"] == first["result"]
        assert again["key"] == first["key"]

    def test_metrics_shape(self, client):
        client.submit(MV_TINY)
        metrics = client.metrics()
        assert metrics["store"]["hot"]["capacity"] > 0
        assert "p99_ms" in metrics["latency"]
        assert metrics["served"]["hot"] >= 1

    def test_error_codes_are_machine_readable(self, client):
        with pytest.raises(ServeHTTPError) as excinfo:
            client.submit({"trace": {"benchmark": "MV"}, "config": "bogus"})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "config-error"

        with pytest.raises(ServeHTTPError) as excinfo:
            client.result("job-999999-deadbeef")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown-job"

        with pytest.raises(ServeHTTPError) as excinfo:
            client.request("GET", "/no/such/endpoint")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not-found"

        with pytest.raises(ServeHTTPError) as excinfo:
            client.request("GET", "/submit")
        assert excinfo.value.status == 405
        assert excinfo.value.code == "method-not-allowed"

        status, body = client.request_raw("POST", "/submit", None)
        assert status == 400
        assert body["error"]["code"] == "config-error"

    def test_sweep_wait_returns_grid(self, client):
        out = client.sweep(
            {"traces": [MV_TINY["trace"]], "configs": ["standard", "soft"]}
        )
        assert out["status"] == "done"
        assert out["total"] == 2 and len(out["cells"]) == 2
        assert all("amat" in cell for cell in out["cells"])

    def test_sweep_nowait_polls_to_completion(self, client):
        ticket = client.sweep(
            {
                "traces": [MV_TINY["trace"]],
                "configs": ["standard"],
                "wait": False,
            }
        )
        assert ticket["status"] in ("running", "done")
        job = ticket["job"]
        deadline = time.time() + 30
        while time.time() < deadline:
            status = client.status(job)
            if status["status"] != "running":
                break
            time.sleep(0.02)
        assert status["status"] == "done"
        result = client.result(job)
        assert len(result["cells"]) == 1

    def test_malformed_json_is_bad_request(self, client):
        import http.client as hc

        conn = hc.HTTPConnection(client.host, client.port, timeout=30)
        try:
            conn.request(
                "POST", "/submit", body="{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            import json as j

            body = j.loads(response.read())
            assert response.status == 400
            assert body["error"]["code"] == "bad-request"
        finally:
            conn.close()

    def test_server_errors_counter_stayed_sane(self, server):
        # The bad-input tests above are counted; no internal errors.
        metrics = server.service.metrics_payload()
        assert metrics["rejected"] == 0


# ----------------------------------------------------------------------
# The end-to-end smoke (what CI runs as `repro serve --smoke`)
# ----------------------------------------------------------------------
class TestSmoke:
    def test_run_smoke_passes(self):
        from repro.serve.smoke import run_smoke

        ok, problems, summary = run_smoke(
            benchmarks=("MV",), configs=("standard", "soft"), scale="tiny"
        )
        assert ok, problems
        assert summary["simulations"] == summary["cells"] == 2
        assert summary["errors"] == 0
