"""The shared serve-sim entry: CLI and daemon surfaces are identical."""

import json

import pytest

from repro.cli import main as cli_main
from repro.serving import run_serving_sim

#: small, fast arguments shared by every test in this module
ARGS = dict(rps=50.0, slo_ms=200.0, duration_s=1.0, seed=0, max_replicas=4)


@pytest.fixture(scope="module")
def summary():
    return run_serving_sim("gpt-tiny", "v100x8", **ARGS)


class TestRunServingSim:
    def test_summary_contract(self, summary):
        assert summary["mode"] == "inference"
        assert summary["replicas"] >= 1
        assert summary["met_slo"] is True
        assert summary["latency_ms"]["p99"] <= ARGS["slo_ms"]
        assert summary["latency_ms"]["p50"] <= summary["latency_ms"]["p99"]
        assert summary["throughput_rps"] > 0
        assert summary["workload"]["requests"] > 0
        assert summary["plan"]["num_stages"] >= 1
        json.dumps(summary)  # JSON-safe end to end

    def test_deterministic(self, summary):
        again = run_serving_sim("gpt-tiny", "v100x8", **ARGS)
        assert again == summary

    def test_spec_objects_match_preset_names(self, summary):
        via_spec = run_serving_sim(
            {"preset": "gpt-tiny"}, {"preset": "v100x8"}, **ARGS
        )
        assert via_spec == summary

    def test_trace_workload(self, tmp_path, summary):
        trace = tmp_path / "arrivals.txt"
        trace.write_text("".join(f"{0.01 * i}\n" for i in range(20)))
        result = run_serving_sim(
            "gpt-tiny", "v100x8", slo_ms=200.0, workload_trace=str(trace)
        )
        assert result["workload"]["kind"] == "trace"
        assert result["workload"]["requests"] == 20

    def test_unknown_preset_is_service_error(self):
        from repro.service.protocol import ServiceError

        with pytest.raises(ServiceError):
            run_serving_sim("no-such-model", "v100x8")


class TestDaemonParity:
    def test_endpoint_returns_identical_summary(self, summary):
        from repro.service import PlanServer
        from repro.service.client import ServiceClient

        server = PlanServer(workers=2).start_in_thread()
        try:
            client = ServiceClient(port=server.port)
            result = client.serving_sim(
                model="gpt-tiny", cluster="v100x8", **ARGS
            )
        finally:
            server.stop()
        assert result["serving"] == summary
        assert result["meta"]["wall_ms"] > 0

    def test_bad_request_paths(self):
        from repro.service import PlanServer
        from repro.service.client import ServiceClient, ServiceHTTPError

        server = PlanServer(workers=2).start_in_thread()
        try:
            client = ServiceClient(port=server.port)
            with pytest.raises(ServiceHTTPError) as exc:
                client.serving_sim(model="gpt-tiny")  # missing cluster
            assert exc.value.code == "bad_request"
            with pytest.raises(ServiceHTTPError) as exc:
                client.serving_sim(
                    model="gpt-tiny", cluster="v100x8", bogus=1
                )
            assert exc.value.code == "bad_request"
        finally:
            server.stop()


class TestServeSimCLI:
    def test_acceptance_invocation(self, capsys):
        rc = cli_main([
            "serve-sim", "--model", "gpt-tiny", "--cluster", "v100x8",
            "--rps", "50", "--slo-ms", "200", "--duration", "1.0",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "p50=" in out and "p99=" in out
        assert "throughput:" in out
        assert "replicas:" in out and "met" in out

    def test_trace_out(self, capsys, tmp_path):
        out_path = tmp_path / "serving.json"
        rc = cli_main([
            "serve-sim", "--model", "gpt-tiny", "--cluster", "v100x8",
            "--duration", "0.5", "--trace-out", str(out_path),
        ])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        assert "serving trace written" in capsys.readouterr().out

    def test_unknown_model_exits_2(self, capsys):
        rc = cli_main([
            "serve-sim", "--model", "nope", "--cluster", "v100x8",
        ])
        assert rc == 2
        assert "ERROR" in capsys.readouterr().err
