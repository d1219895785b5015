"""HTTP frontend + shared admission layer: overload shedding at the
bounded queue, Retry-After estimation, health/readiness transitions,
metrics, SIGTERM drain, and the stdin frontend riding the same
admission controller (docs/service.md, docs/robustness.md)."""

import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.service import (
    AdmissionController,
    BackgroundRouter,
    BackgroundServer,
    VerificationService,
    VerifyRequest,
    VerifyResponse,
    serve_stream,
)

TOY_DESIGN = """
module toy(clk, rst, a, b);
input clk, rst, a;
output reg b;
always_ff @(posedge clk) begin
    if (rst) b <= 1'b0;
    else b <= a;
end
ap_follow: assert property (@(posedge clk) a |=> b);
endmodule
"""

SYNTAX_WIRE = {"kind": "syntax",
               "candidate": "assert property (@(posedge clk) a |-> b);",
               "widths": {"a": 1, "b": 1, "clk": 1}}

# a deep BMC cone (same shape as tests/test_service_faults.py): the
# violation is 2^24 cycles out, so a unit genuinely burns its whole
# wall-clock deadline -- the knob that makes overload/drain timing
# deterministic instead of racing microsecond-fast toy proofs
DEEP_DESIGN = """
module deep(input logic clk);
  logic [23:0] c;
  always_ff @(posedge clk) c <= c + 24'd1;
  p_deep: assert property (@(posedge clk) c != 24'hFFFFFF);
endmodule
"""

DEEP_ENGINE = {"max_bmc": 64, "max_k": 40}


def _deep_wire(request_id, deadline_s=0.2):
    return {"kind": "prove", "source": DEEP_DESIGN,
            "engine": dict(DEEP_ENGINE), "deadline_s": deadline_s,
            "request_id": request_id, "use_cache": False}


# every ProofSession.solve sleeps 50 ms (core/faults.py): the deep unit
# needs over 80 solves to exhaust its depths, so it is still running at
# any deadline under 4 s however fast the engine gets -- tests that
# need a unit *held* arm this instead of relying on engine slowness
HOLD_UNITS = "slow_solve:1.0:0.05"


def _assert_stopped_by_deadline(response):
    assert response["verdict"] == "timeout"
    assert any(e["code"] == "timeout" for e in response["degraded"])

EXECUTORS = ["thread", "process"]


@pytest.fixture(autouse=True)
def _hermetic_env(monkeypatch):
    """Admission/fault behaviour must come from the test, not the
    ambient environment."""
    for name in ("FVEVAL_FAULTS", "FVEVAL_FAULTS_SEED", "FVEVAL_CACHE",
                 "FVEVAL_CACHE_TIERS", "FVEVAL_NO_CACHE",
                 "FVEVAL_WORKERS", "FVEVAL_EXECUTOR",
                 "FVEVAL_MAX_QUEUE", "FVEVAL_MAX_INFLIGHT",
                 "FVEVAL_DEADLINE_S", "FVEVAL_CACHE_MEM_MAX",
                 "FVEVAL_JOBS"):
        monkeypatch.delenv(name, raising=False)


def _request(host, port, method, path, payload=None, timeout=60):
    conn = HTTPConnection(host, port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body)
        response = conn.getresponse()
        return (response.status, json.loads(response.read()),
                dict(response.getheaders()))
    finally:
        conn.close()


def _post(host, port, payload, timeout=60):
    return _request(host, port, "POST", "/v1/verify", payload, timeout)


def _get(host, port, path, timeout=10):
    return _request(host, port, "GET", path, timeout=timeout)


def _prove_wire(request_id, use_cache=False):
    return {"kind": "prove", "source": TOY_DESIGN,
            "request_id": request_id, "use_cache": use_cache}


# ---------------------------------------------------------------------------
# admission-layer unit tests (shared by both frontends)
# ---------------------------------------------------------------------------


class TestAdmissionController:
    def test_watermark_hysteresis(self):
        adm = AdmissionController(max_queue=4, low_watermark=2,
                                  max_inflight=8)
        tickets = [adm.try_admit() for _ in range(4)]
        assert all(tickets)
        # high watermark reached: shed, and keep shedding until the
        # queue drains below the low watermark
        assert adm.try_admit() is None
        assert adm.saturated and not adm.ready()
        tickets[0].start()  # queued 3 > low 2: still saturated
        assert adm.try_admit() is None
        tickets[1].start()  # queued 2 <= low 2: readmit
        assert adm.try_admit() is not None
        assert not adm.saturated

    def test_queue_bound_counts_units_not_batches(self):
        adm = AdmissionController(max_queue=4)
        assert adm.try_admit(units=3) is not None
        assert adm.try_admit(units=3) is None  # 3+3 > 4
        assert adm.try_admit(units=1) is None  # saturated until drain
        stats = adm.stats()
        assert stats["queued"] == 3 and stats["shed_units"] == 4

    def test_per_connection_unit_cap(self):
        adm = AdmissionController(max_queue=64, max_inflight=8,
                                  per_conn_units=3)
        greedy, other = object(), object()
        assert adm.try_admit(units=3, conn=greedy) is not None
        assert adm.try_admit(units=1, conn=greedy) is None
        assert adm.try_admit(units=3, conn=other) is not None

    def test_per_conn_cap_never_exceeds_global_inflight_cap(self):
        adm = AdmissionController(max_inflight=4, per_conn_units=100)
        # a batch wider than max_inflight could never be dispatched
        assert adm.per_conn_units == 4
        assert adm.try_admit(units=5, conn=object()) is None

    def test_finish_releases_connection_and_counts(self):
        adm = AdmissionController(max_queue=8, max_inflight=8,
                                  per_conn_units=2)
        conn = object()
        ticket = adm.try_admit(units=2, conn=conn)
        ticket.start()
        assert adm.try_admit(units=1, conn=conn) is None
        ticket.finish()
        assert adm.try_admit(units=1, conn=conn) is not None
        stats = adm.stats()
        assert stats["completed_units"] == 2
        assert stats["inflight"] == 0 and stats["queued"] == 1

    def test_retry_after_tracks_observed_latency(self):
        adm = AdmissionController(max_queue=64, max_inflight=2)
        assert adm.retry_after_s() >= 1.0  # floor before any observation
        for _ in range(20):
            adm.observe(4.0)
        tickets = [adm.try_admit() for _ in range(10)]
        assert all(tickets)
        # ~10 queued units * 4s / 2 slots = ~20s, clamped to [1, 120]
        assert 10.0 <= adm.retry_after_s() <= 120.0
        for _ in range(50):
            adm.observe(1000.0)
        assert adm.retry_after_s() == 120.0  # ceiling

    def test_effective_deadline_clamps_to_server_max(self):
        adm = AdmissionController(max_deadline_s=5.0)
        assert adm.effective_deadline(None) == 5.0  # mandatory
        assert adm.effective_deadline(60.0) == 5.0
        assert adm.effective_deadline(2.0) == 2.0
        unlimited = AdmissionController()
        assert unlimited.effective_deadline(None) is None

    def test_drain_stops_admission_and_reports_idle(self):
        adm = AdmissionController(max_queue=8)
        ticket = adm.try_admit()
        adm.begin_drain()
        assert adm.draining and not adm.ready()
        assert adm.try_admit() is None
        assert not adm.idle()
        ticket.start()
        ticket.finish()
        assert adm.idle() and adm.wait_idle(timeout=1)

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_MAX_QUEUE", "7")
        monkeypatch.setenv("FVEVAL_MAX_INFLIGHT", "3")
        adm = AdmissionController()
        assert adm.max_queue == 7 and adm.max_inflight == 3
        # explicit arguments win over the environment
        adm = AdmissionController(max_queue=9, max_inflight=2)
        assert adm.max_queue == 9 and adm.max_inflight == 2

    def test_injected_overload_forces_sheds(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_FAULTS", "overload:1.0@2")
        adm = AdmissionController(max_queue=64)
        assert adm.try_admit() is None  # queue empty, injection fires
        assert adm.try_admit() is None
        assert adm.try_admit() is not None  # @2 cap exhausted
        assert adm.stats()["shed_units"] == 2

    def test_shed_response_shape(self):
        adm = AdmissionController(max_queue=1)
        assert adm.try_admit() is not None
        assert adm.try_admit() is None
        response = adm.shed_response("req9", "prove")
        assert not response.ok and response.verdict == "overloaded"
        assert response.request_id == "req9"
        assert response.meta["retry_after_s"] >= 1.0
        [event] = response.degraded
        assert event["code"] == "overload"
        assert event["stage"] == "admission" and event["retryable"]


# ---------------------------------------------------------------------------
# stdin JSON-lines frontend on the shared admission layer
# ---------------------------------------------------------------------------


class TestStdinAdmission:
    @staticmethod
    def serve(lines, admission=None, **service_kwargs):
        out = io.StringIO()
        service = VerificationService(**service_kwargs)
        status = serve_stream(io.StringIO("".join(line + "\n"
                                                  for line in lines)),
                              out, service, admission=admission)
        return status, [json.loads(line)
                        for line in out.getvalue().splitlines()]

    def test_overflow_lines_shed_with_structured_responses(self):
        adm = AdmissionController(max_queue=2)
        lines = [json.dumps({**SYNTAX_WIRE, "request_id": f"s{i}"})
                 for i in range(5)]
        status, responses = self.serve(lines, admission=adm)
        assert status == 1  # sheds count as failures
        assert len(responses) == 5  # one response line per input line
        by_id = {r["request_id"]: r for r in responses}
        shed = [r for r in responses if r["verdict"] == "overloaded"]
        assert len(shed) == 3
        for r in shed:
            assert not r["ok"]
            assert r["degraded"][0]["code"] == "overload"
            assert r["meta"]["retry_after_s"] >= 1.0
        # the first two lines were admitted and measured normally
        assert by_id["s0"]["verdict"] == "ok"
        assert by_id["s1"]["verdict"] == "ok"
        stats = adm.stats()
        assert stats["shed_units"] == 3
        assert stats["admitted_units"] == stats["completed_units"] == 2
        assert adm.idle()  # finish-after-write: nothing still owed

    def test_admission_readmits_after_flush(self):
        adm = AdmissionController(max_queue=2)
        lines = [json.dumps({**SYNTAX_WIRE, "request_id": f"a{i}"})
                 for i in range(2)]
        lines += [""]  # flush drains the queue below the low watermark
        lines += [json.dumps({**SYNTAX_WIRE, "request_id": f"b{i}"})
                  for i in range(2)]
        status, responses = self.serve(lines, admission=adm)
        assert status == 0
        assert [r["verdict"] for r in responses] == ["ok"] * 4

    def test_unbounded_without_admission(self):
        lines = [json.dumps({**SYNTAX_WIRE, "request_id": f"s{i}"})
                 for i in range(5)]
        status, responses = self.serve(lines)
        assert status == 0
        assert [r["verdict"] for r in responses] == ["ok"] * 5


class TestExecutorEnvTypoFault:
    def test_typo_records_config_event_on_first_response(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_EXECUTOR", "porcess")
        service = VerificationService()
        first, second = service.run(
            [VerifyRequest(**{**SYNTAX_WIRE,
                              "widths": dict(SYNTAX_WIRE["widths"])})
             for _ in range(2)])
        [event] = first.degraded
        assert event["code"] == "config"
        assert "porcess" in event["detail"]
        assert "thread" in event["detail"]
        assert second.degraded == []
        # once per distinct bad value per service: the next flush is clean
        [third] = service.run([VerifyRequest(
            **{**SYNTAX_WIRE, "widths": dict(SYNTAX_WIRE["widths"])})])
        assert third.degraded == []

    def test_explicit_executor_ignores_env(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_EXECUTOR", "porcess")
        service = VerificationService(executor="thread")
        [response] = service.run([VerifyRequest(
            **{**SYNTAX_WIRE, "widths": dict(SYNTAX_WIRE["widths"])})])
        assert response.degraded == []


# ---------------------------------------------------------------------------
# HTTP frontend over a real socket
# ---------------------------------------------------------------------------


class TestHttpVerify:
    def test_single_and_batch_roundtrip(self):
        with BackgroundServer() as bg:
            host, port = bg.address
            status, body, _ = _post(host, port, _prove_wire("p1"))
            assert status == 200
            assert body["verdict"] == "proven" and body["index"] == 0
            batch = [dict(SYNTAX_WIRE), {"kind": "bogus"},
                     _prove_wire("p2")]
            status, out, _ = _post(host, port, batch)
            assert status == 200
            assert [r["index"] for r in out] == [0, 1, 2]
            assert out[0]["verdict"] == "ok"
            assert not out[1]["ok"] and out[1]["verdict"] == "error"
            assert out[2]["verdict"] == "proven"

    @pytest.mark.parametrize("front", ["serve", "route"])
    def test_protocol_errors(self, front):
        with contextlib.ExitStack() as stack:
            bg = stack.enter_context(BackgroundServer())
            if front == "route":
                # the router terminates the same wire schema through
                # the same decode helper: identical answers
                bg = stack.enter_context(BackgroundRouter(
                    bg.address_spec, health_interval=5.0))
            host, port = bg.address
            conn = HTTPConnection(host, port, timeout=10)
            conn.request("POST", "/v1/verify", "{not json")
            response = conn.getresponse()
            assert response.status == 400
            conn.close()
            status, _, _ = _get(host, port, "/nope")
            assert status == 404
            status, _, _ = _get(host, port, "/v1/verify")
            assert status == 405
            status, _, _ = _post(host, port, [])
            assert status == 400
            # a single invalid request is a client error, not a verdict
            status, body, _ = _post(host, port, {"kind": "bogus"})
            assert status == 400
            assert not body["ok"] and body["verdict"] == "error"

    def test_deadline_clamped_to_server_max(self):
        adm = AdmissionController(max_deadline_s=0.05)
        service = VerificationService(admission=adm)
        with BackgroundServer(service=service, admission=adm) as bg:
            host, port = bg.address
            # the request asks for NO deadline; the server ceiling is
            # mandatory, so the unbounded deep solve times out anyway
            wire = _deep_wire("d1")
            del wire["deadline_s"]
            status, body, _ = _post(host, port, wire)
        assert status == 200
        assert body["ok"] and body["verdict"] == "timeout"
        assert any(e["code"] == "timeout" for e in body["degraded"])
        service.close()


class TestHttpOverload:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_storm_sheds_structured_503s(self, executor, monkeypatch):
        monkeypatch.setenv("FVEVAL_FAULTS", HOLD_UNITS)
        adm = AdmissionController(max_queue=2, max_inflight=1)
        service = VerificationService(workers=1, executor=executor,
                                      admission=adm)
        results = []
        lock = threading.Lock()
        with BackgroundServer(service=service, admission=adm) as bg:
            host, port = bg.address

            def fire(i):
                status, body, headers = _post(host, port,
                                              _deep_wire(f"r{i}"))
                with lock:
                    results.append((status, body, headers))

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            # liveness answers mid-storm
            status, body, _ = _get(host, port, "/healthz")
            assert status == 200 and body["status"] == "alive"
            for t in threads:
                t.join()
            status, metrics, _ = _get(host, port, "/metrics")
            assert status == 200
        service.close()

        assert len(results) == 8  # no lost responses
        shed = [r for r in results if r[0] == 503]
        okay = [r for r in results if r[0] == 200]
        assert shed and okay  # mixed 200/503 under the storm
        for _status, body, headers in shed:
            assert body["verdict"] == "overloaded" and not body["ok"]
            assert body["degraded"][0]["code"] == "overload"
            assert int(headers["Retry-After"]) >= 1
        for _status, body, _headers in okay:
            _assert_stopped_by_deadline(body)
        # metrics match the observed sheds, and the in-flight cap held
        assert metrics["faults"]["overload"] == len(shed)
        assert metrics["shed_responses"] == len(shed)
        assert metrics["admission"]["shed_units"] == len(shed)
        assert metrics["admission"]["peak_inflight"] <= 1
        assert metrics["admission"]["admitted_units"] == len(okay)
        assert metrics["verdicts"].get("overloaded", 0) == len(shed)

    def test_injected_sheds_show_in_metrics(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_FAULTS", "overload:1.0@2")
        with BackgroundServer() as bg:
            host, port = bg.address
            statuses = [_post(host, port, dict(SYNTAX_WIRE))[0]
                        for _ in range(3)]
            _, metrics, _ = _get(host, port, "/metrics")
        assert statuses == [503, 503, 200]
        assert metrics["faults"]["overload"] == 2
        assert metrics["admission"]["shed_units"] == 2


class TestMetricsCacheTiers:
    def test_per_tier_hit_rates_and_uncacheable_denominator(
            self, tmp_path):
        """/metrics splits hit rates per tier, and the top-level rate
        excludes uncacheable (timeout) verdicts from the denominator --
        a timeout-heavy workload must not read as a cold cache."""
        service = VerificationService(
            cache_tiers=f"memory,disk={tmp_path}")
        with BackgroundServer(service=service) as bg:
            host, port = bg.address
            # identical cacheable proves: one miss + put, one hit
            for rid in ("m1", "m2"):
                status, body, _ = _post(
                    host, port, _prove_wire(rid, use_cache=True))
                assert status == 200 and body["verdict"] == "proven"
            # a timeout verdict is never stored: its plan-time miss can
            # never become a hit
            status, body, _ = _post(
                host, port, {**_deep_wire("t1"), "use_cache": True})
            assert status == 200 and body["verdict"] == "timeout"
            _, metrics, _ = _get(host, port, "/metrics")
        service.close()
        cache = metrics["cache"]
        assert (cache["hits"], cache["misses"]) == (1, 2)
        assert cache["uncacheable"] == 1
        # denominator = hits + misses - uncacheable = 2, not 3
        assert cache["hit_rate"] == 0.5
        tiers = cache["tiers"]
        assert set(tiers) == {"memory", "disk"}
        assert tiers["memory"]["hits"] == 1
        assert tiers["memory"]["hit_rate"] == pytest.approx(1 / 3,
                                                            abs=1e-3)
        assert tiers["disk"]["hits"] == 0
        assert tiers["disk"]["hit_rate"] == 0.0
        assert tiers["disk"]["puts"] == 1  # write-through reached disk


class _StubService:
    """Duck-typed service whose run() blocks until released -- makes
    readyz saturation transitions deterministic."""

    def __init__(self):
        self.admission = None
        self.release = threading.Event()

    def run(self, requests):
        assert self.release.wait(30)
        out = []
        for index, request in enumerate(requests):
            response = VerifyResponse(request_id=request.request_id,
                                      kind=request.kind)
            response.verdict = "ok"
            response.index = index
            out.append(response)
        return out

    def cache_stats(self):
        return {"hits": 0, "misses": 0}

    def stats(self):
        return {"requests": 0}

    def close(self):
        pass


class TestHealthReadiness:
    def test_readyz_transitions_under_saturation(self):
        stub = _StubService()
        adm = AdmissionController(max_queue=1, max_inflight=1)
        with BackgroundServer(service=stub, admission=adm) as bg:
            host, port = bg.address
            assert _get(host, port, "/readyz")[0] == 200
            # first request goes in-flight (blocked in the stub), the
            # second fills the 1-unit admission queue while it waits
            # for the execution slot
            blocked = [threading.Thread(target=_post,
                                        args=(host, port,
                                              dict(SYNTAX_WIRE)))
                       for _ in range(2)]
            for t in blocked:
                t.start()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                stats = adm.stats()
                if stats["inflight"] == 1 and stats["queued"] == 1:
                    break
                time.sleep(0.01)
            # third request overflows the 1-unit queue -> saturated
            status, body, _ = _post(host, port, dict(SYNTAX_WIRE))
            assert status == 503 and body["verdict"] == "overloaded"
            status, body, _ = _get(host, port, "/readyz")
            assert status == 503 and body["status"] == "saturated"
            # liveness is unaffected by saturation
            assert _get(host, port, "/healthz")[0] == 200
            stub.release.set()
            for t in blocked:
                t.join(30)
            deadline = time.monotonic() + 5
            while (_get(host, port, "/readyz")[0] != 200
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert _get(host, port, "/readyz")[0] == 200

    def test_readyz_reports_draining(self):
        adm = AdmissionController()
        with BackgroundServer(admission=adm) as bg:
            host, port = bg.address
            assert _get(host, port, "/readyz")[0] == 200
        # after stop() the server has drained; state is observable on
        # the controller (the socket is gone)
        assert adm.draining


# ---------------------------------------------------------------------------
# SIGTERM drain: every admitted index answered exactly once, exit 0
# ---------------------------------------------------------------------------


class TestSigtermDrain:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_drain_loses_no_owed_indices(self, executor, tmp_path,
                                         wait_inflight):
        env = dict(os.environ, PYTHONPATH="src", FVEVAL_FAULTS=HOLD_UNITS)
        for name in ("FVEVAL_WORKERS", "FVEVAL_EXECUTOR",
                     "FVEVAL_FAULTS_SEED",
                     "FVEVAL_MAX_QUEUE", "FVEVAL_MAX_INFLIGHT"):
            env.pop(name, None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--http", "127.0.0.1:0", "--workers", "2",
             "--executor", executor],
            env=env, cwd=os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))),
            stderr=subprocess.PIPE, text=True)
        try:
            banner = proc.stderr.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no listening banner in {banner!r}"
            host, port = match.group(1), int(match.group(2))

            results = []
            lock = threading.Lock()

            def fire(i):
                # held units with a real deadline: they are still
                # in-flight when SIGTERM lands, so the drain has work
                # it actually owes
                batch = [_deep_wire(f"r{i}-{j}", deadline_s=0.5)
                         for j in range(2)]
                status, body, _ = _post(host, port, batch, timeout=120)
                with lock:
                    results.append((i, status, body))

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(3)]
            for t in threads:
                t.start()
            wait_inflight(host, port, len(threads))
            proc.send_signal(signal.SIGTERM)
            for t in threads:
                t.join(120)
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        assert code == 0  # graceful drain exits cleanly
        assert len(results) == 3
        for _i, status, body in results:
            # every admitted request's response index, exactly once
            assert status == 200
            assert sorted(r["index"] for r in body) == [0, 1]
            for r in body:
                _assert_stopped_by_deadline(r)
