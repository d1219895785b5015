"""Routing tier: consistent-hash ring properties, shared design
signatures, worker affinity, sharded remote cache, cache-serve TTLs,
and the router itself -- placement parity, bounded failover, health
ejection/re-admission, and the live two-replica SIGKILL storm
(docs/router.md)."""

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
    BackgroundCacheServer,
    BackgroundRouter,
    BackgroundServer,
    HashRing,
    VerificationService,
    request_from_json,
    routing_signature,
    stable_hash,
)
from repro.service.router import parse_replicas

TOY_TEMPLATE = """
module toy(clk, rst, a, b);
input clk, rst, a;
output reg b;
always_ff @(posedge clk) begin
    if (rst) b <= 1'b0;
    else b <= a;
end
%s
endmodule
"""

DEEP_DESIGN = """
module deep(input logic clk);
  logic [23:0] c;
  always_ff @(posedge clk) c <= c + 24'd1;
  p_deep: assert property (@(posedge clk) c != 24'hFFFFFF);
endmodule
"""


@pytest.fixture(autouse=True)
def _hermetic_env(monkeypatch):
    """Routing/fault behaviour must come from the test, not the
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
        raw = response.read()
        return (response.status, json.loads(raw) if raw else None,
                dict(response.getheaders()))
    finally:
        conn.close()


def _post(host, port, payload, timeout=60):
    return _request(host, port, "POST", "/v1/verify", payload, timeout)


def _get(host, port, path, timeout=10):
    return _request(host, port, "GET", path, timeout=timeout)


def _prove_wire(assertion, request_id, **extra):
    wire = {"kind": "prove", "source": TOY_TEMPLATE % assertion,
            "request_id": request_id, "use_cache": False}
    wire.update(extra)
    return wire


def _equiv_wire(candidate, request_id):
    return {"kind": "equivalence",
            "reference": "assert property (@(posedge clk) a |-> b);",
            "candidate": candidate,
            "widths": {"a": 1, "b": 1, "clk": 1},
            "request_id": request_id, "use_cache": False}


def _replica(**admission_kwargs):
    admission_kwargs.setdefault("max_queue", 256)
    admission_kwargs.setdefault("max_inflight", 16)
    return BackgroundServer(
        service=VerificationService(),
        admission=AdmissionController(**admission_kwargs))


def _specs(*servers):
    return ",".join(f"{s.address[0]}:{s.address[1]}" for s in servers)


# ---------------------------------------------------------------------------
# the ring
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_lookup_is_deterministic(self):
        a = HashRing(["n1", "n2", "n3"])
        b = HashRing(["n3", "n1", "n2"])  # insertion order is irrelevant
        for i in range(100):
            assert a.node_for(("key", i)) == b.node_for(("key", i))

    def test_int_key_is_a_precomputed_stable_hash(self):
        ring = HashRing(["n1", "n2"])
        key = ("ns", "abc")
        assert ring.node_for(key) == ring.node_for(stable_hash(key))

    def test_occupancy_sums_to_one_and_is_balanced(self):
        ring = HashRing(["n1", "n2", "n3"])
        shares = ring.occupancy()
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        for share in shares.values():
            assert 0.1 < share < 0.6  # 64 vnodes keep the split sane

    def test_bounded_redistribution(self):
        ring = HashRing(["n1", "n2", "n3"])
        keys = [stable_hash(("k", i)) for i in range(500)]
        before = {k: ring.node_for(k) for k in keys}
        assert any(owner == "n2" for owner in before.values())
        ring.remove("n2")
        for k in keys:
            if before[k] != "n2":
                # only the removed member's keyspace moves
                assert ring.node_for(k) == before[k]
            else:
                assert ring.node_for(k) != "n2"
        ring.add("n2")  # re-admission restores the original mapping
        assert {k: ring.node_for(k) for k in keys} == before

    def test_nodes_for_distinct_failover_chain(self):
        ring = HashRing(["n1", "n2", "n3"])
        for i in range(50):
            chain = ring.nodes_for(("key", i), 3)
            assert len(chain) == 3
            assert len(set(chain)) == 3
            assert chain[0] == ring.node_for(("key", i))

    def test_empty_ring(self):
        ring = HashRing()
        assert ring.node_for("x") is None
        assert ring.nodes_for("x", 3) == []
        assert ring.occupancy() == {}


class TestParseReplicas:
    def test_normalizes_and_dedups(self):
        assert parse_replicas("127.0.0.1:9001, 127.0.0.1:9002,"
                              "127.0.0.1:9001") == \
            ["127.0.0.1:9001", "127.0.0.1:9002"]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_replicas(" , ")


# ---------------------------------------------------------------------------
# routing signatures (the shared affinity key)
# ---------------------------------------------------------------------------


class TestRoutingSignature:
    def test_prove_signature_is_assertion_independent(self):
        # the n samples of one NL2SVA problem splice different
        # assertions into the same support logic: they must colocate
        a = request_from_json(_prove_wire(
            "ap_x: assert property (@(posedge clk) a |=> b);", "a"))
        b = request_from_json(_prove_wire(
            "ap_y: assert property (@(posedge clk) rst |=> !b);", "b"))
        sig_a, sig_b = routing_signature(a), routing_signature(b)
        assert sig_a == sig_b
        assert sig_a[0] == "design"

    def test_prove_signature_matches_service_pool_key(self):
        from repro.rtl import elaborate
        from repro.service import design_signature
        wire = _prove_wire(
            "ap_x: assert property (@(posedge clk) a |=> b);", "a")
        request = request_from_json(wire)
        expected = design_signature(elaborate(wire["source"]))
        assert routing_signature(request) == ("design", expected)

    def test_unparseable_source_falls_back_deterministically(self):
        wire = {"kind": "prove", "source": "module broken(",
                "request_id": "x", "use_cache": False}
        request = request_from_json(wire)
        first = routing_signature(request)
        assert first[0] == "source"
        assert routing_signature(request_from_json(wire)) == first

    def test_equivalence_excludes_the_candidate(self):
        a = request_from_json(_equiv_wire(
            "assert property (@(posedge clk) a |-> ##0 b);", "a"))
        b = request_from_json(_equiv_wire(
            "assert property (@(posedge clk) a |-> b);", "b"))
        assert routing_signature(a) == routing_signature(b)

    def test_syntax_is_deterministic(self):
        wire = {"kind": "syntax",
                "candidate": "assert property (@(posedge clk) a |-> b);",
                "widths": {"a": 1, "b": 1, "clk": 1}}
        a = routing_signature(request_from_json(wire))
        b = routing_signature(request_from_json(dict(wire)))
        assert a == b and a[0] == "syntax"


# ---------------------------------------------------------------------------
# worker affinity (process slots)
# ---------------------------------------------------------------------------


class TestProcessSlotAffinity:
    def test_pick_prefers_the_affinity_slot(self):
        from repro.service.procpool import ProcessExecutor
        ex = ProcessExecutor(workers=2)  # no workers spawned until use
        # head unit's slot (3 % 2 = 1) is free: dispatch it there
        assert ex._pick([{"affinity": 3}, {"affinity": 0}], {}) == (0, 1)
        # head unit's slot is busy but the second unit's is free:
        # dispatch the second unit to its preferred slot
        assert ex._pick([{"affinity": 3}, {"affinity": 0}],
                        {1: object()}) == (1, 0)
        # every pending unit prefers the busy slot: spill head-of-line
        assert ex._pick([{"affinity": 1}, {"affinity": 1}],
                        {1: object()}) == (0, 0)
        assert ex.affinity_stats() == {"hits": 2, "spills": 1}
        # units without affinity take the lowest free slot, uncounted
        assert ex._pick([{}], {0: object()}) == (0, 1)
        assert ex.affinity_stats() == {"hits": 2, "spills": 1}

    def test_same_cone_keeps_the_same_slot(self):
        """End to end: a design cone flushed on its own always finds its
        affinity slot free, so every flush of it lands on one worker
        process -- and that worker's prover pool serves the later
        flushes warm."""
        def request(round_, cone):
            wire = _prove_wire(
                f"ap_{round_}: assert property (@(posedge clk) a |=> b);",
                f"r{round_}-{cone}")
            wire["source"] = wire["source"].replace(
                "module toy", f"module toy{cone}")
            return request_from_json(wire)

        service = VerificationService(executor="process", workers=2)
        # the slot each cone's work group prefers (planned, not run)
        preferred = {}
        for cone in range(3):
            plan, groups = service._plan([request(0, cone)])
            [unit] = service._units(plan, groups)
            preferred[cone] = unit.affinity % 2
        assert set(preferred.values()) == {0, 1}  # both slots in play
        slots: dict[int, set] = {}
        try:
            for round_ in range(2):
                for cone in range(3):
                    [response] = service.run([request(round_, cone)])
                    assert response.verdict == "proven"
                    slots.setdefault(cone, set()).add(response.worker_id)
            assert slots == {cone: {slot}
                             for cone, slot in preferred.items()}
            assert service._procpool.affinity_stats() == \
                {"hits": 6, "spills": 0}
            stats = service.stats()
            assert (stats["prover_builds"], stats["prover_hits"]) == (3, 3)
        finally:
            service.close()

    def test_ungrouped_units_place_without_affinity(self):
        """Requests outside any work group (equivalence with sharing
        off) carry no affinity key: they still spread over the slots,
        and neither affinity counter moves."""
        service = VerificationService(executor="process", workers=2,
                                      share_equiv=False)
        try:
            responses = service.run([request_from_json(_equiv_wire(
                candidate, f"e{i}")) for i, candidate in enumerate((
                    "assert property (@(posedge clk) a |-> ##0 b);",
                    "assert property (@(posedge clk) a |-> !b);"))])
            assert [r.verdict for r in responses] == \
                ["equivalent", "inequivalent"]
            assert all(r.worker_id in (0, 1) for r in responses)
            assert service._procpool.affinity_stats() == \
                {"hits": 0, "spills": 0}
        finally:
            service.close()


# ---------------------------------------------------------------------------
# sharded remote cache + cache-serve TTLs
# ---------------------------------------------------------------------------


class TestRemoteSharding:
    def test_tier_grammar_accepts_endpoint_lists(self):
        from repro.core.cache import parse_tiers
        backends, errors = parse_tiers(
            "remote=127.0.0.1:9001;127.0.0.1:9002")
        assert errors == []
        assert backends[0].endpoints == ["127.0.0.1:9001",
                                         "127.0.0.1:9002"]
        assert backends[0].address == "127.0.0.1:9001;127.0.0.1:9002"
        # single-endpoint surface is unchanged
        assert (backends[0].host, backends[0].port) == ("127.0.0.1", 9001)

    def test_shards_spread_and_agree(self):
        from repro.core.cache import RemoteBackend, VerdictCache
        with BackgroundCacheServer() as s1, BackgroundCacheServer() as s2:
            spec = f"{s1.address_spec};{s2.address_spec}"
            backend = RemoteBackend(spec)
            keys = [VerdictCache.key(("k", i)) for i in range(24)]
            for key in keys:
                backend.put("ns", key, {"verdict": "proven"})
            # both shards hold entries, every key reads back, and scan
            # unions the endpoints
            counts = [s1.server.memory.stats()["entries"],
                      s2.server.memory.stats()["entries"]]
            assert sum(counts) == 24 and all(c > 0 for c in counts)
            assert all(backend.get("ns", k) == {"verdict": "proven"}
                       for k in keys)
            assert set(backend.scan("ns")) == set(keys)
            # an independent client derives the same placement
            other = RemoteBackend(spec)
            assert all(other._endpoint_for("ns", k)
                       == backend._endpoint_for("ns", k) for k in keys)

    def test_dead_shard_raises_backend_error(self):
        from repro.core.cache import (
            CacheBackendError, RemoteBackend, VerdictCache,
        )
        with BackgroundCacheServer() as s1:
            backend = RemoteBackend(f"{s1.address_spec};127.0.0.1:1",
                                    timeout=0.2)
            keys = [VerdictCache.key(("k", i)) for i in range(16)]
            dead = [k for k in keys
                    if backend._endpoint_for("ns", k) == "127.0.0.1:1"]
            assert dead  # 16 keys over 2 endpoints: some land dead
            with pytest.raises(CacheBackendError):
                backend.put("ns", dead[0], {"verdict": "proven"})


class _FakeClock:
    """Stands in for the ``time`` module inside
    ``repro.service.cacheserve``, which reads only ``time.time()``:
    entry ages move when a test says so, never with the box's load."""

    def __init__(self):
        self.now = 1_000_000.0

    def time(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCacheServeTtl:
    @pytest.fixture
    def clock(self, monkeypatch):
        import importlib
        cacheserve = importlib.import_module("repro.service.cacheserve")
        fake = _FakeClock()
        monkeypatch.setattr(cacheserve, "time", fake)
        return fake

    def test_lazy_expiry_on_get(self, clock):
        from repro.core.cache import VerdictCache
        key = VerdictCache.key("x")
        with BackgroundCacheServer(ttl_s=0.3) as bg:
            host, port = bg.address
            status, _, _ = _request(host, port, "PUT",
                                    f"/v1/cache/ns/{key}",
                                    {"verdict": "proven"})
            assert status == 204
            clock.advance(0.2)
            status, body, _ = _get(host, port, f"/v1/cache/ns/{key}")
            assert status == 200 and body == {"verdict": "proven"}
            clock.advance(0.2)
            status, body, _ = _get(host, port, f"/v1/cache/ns/{key}")
            assert status == 404 and body["error"] == "expired"
            _, metrics, _ = _get(host, port, "/metrics")
            assert metrics["expired"] == 1
            assert metrics["ttl_s"] == 0.3

    def test_periodic_sweep_drops_untouched_entries(self, clock):
        from repro.core.cache import VerdictCache
        key = VerdictCache.key("y")
        with BackgroundCacheServer(ttl_s=0.3) as bg:
            host, port = bg.address
            swept = threading.Event()
            expire = bg.server._expire_if_stale

            def watched(namespace, entry_key):
                dropped = expire(namespace, entry_key)
                if dropped:
                    swept.set()
                return dropped

            bg.server._expire_if_stale = watched
            _request(host, port, "PUT", f"/v1/cache/ns/{key}",
                     {"verdict": "proven"})
            clock.advance(0.4)
            # never GET the entry, so only the sweep (every 1 s, its
            # floor) can drop it
            assert swept.wait(timeout=30)
            assert bg.server.memory.stats()["entries"] == 0
            assert bg.server.expired == 1

    def test_no_ttl_means_no_expiry(self, clock):
        from repro.core.cache import VerdictCache
        key = VerdictCache.key("z")
        with BackgroundCacheServer() as bg:
            host, port = bg.address
            _request(host, port, "PUT", f"/v1/cache/ns/{key}",
                     {"verdict": "proven"})
            clock.advance(3600.0)
            status, body, _ = _get(host, port, f"/v1/cache/ns/{key}")
            assert status == 200 and body == {"verdict": "proven"}


# ---------------------------------------------------------------------------
# the router (in-process replicas)
# ---------------------------------------------------------------------------


class TestRouterBasics:
    def test_parity_with_a_single_service(self):
        wires = [
            _equiv_wire("assert property (@(posedge clk) a |-> ##0 b);",
                        "e0"),
            _equiv_wire("assert property (@(posedge clk) a |-> !b);",
                        "e1"),
            _prove_wire("ap_x: assert property (@(posedge clk) a |=> b);",
                        "p0"),
            {"kind": "syntax",
             "candidate": "assert property (@(posedge clk) a |-> b);",
             "widths": {"a": 1, "b": 1, "clk": 1}, "request_id": "s0"},
        ]
        service = VerificationService()
        expected = [(r.request_id, r.verdict, r.ok, r.func)
                    for r in service.run(
                        [request_from_json(w) for w in wires])]
        with _replica() as r1, _replica() as r2, \
                BackgroundRouter(_specs(r1, r2),
                                 health_interval=5.0) as router:
            host, port = router.address
            status, body, _ = _post(host, port, wires)
            assert status == 200
            assert [w["index"] for w in body] == [0, 1, 2, 3]
            got = [(w["request_id"], w["verdict"], w["ok"], w["func"])
                   for w in body]
            assert got == expected
            for w in body:
                assert w["degraded"] == []  # no failover happened

    def test_single_request_roundtrip(self):
        with _replica() as r1, \
                BackgroundRouter(_specs(r1),
                                 health_interval=5.0) as router:
            host, port = router.address
            status, body, _ = _post(
                host, port,
                _equiv_wire("assert property (@(posedge clk) a |-> b);",
                            "one"))
            assert status == 200
            assert body["verdict"] == "equivalent"
            assert body["index"] == 0

    def test_one_design_cone_lands_on_one_replica(self):
        burst = [_prove_wire(
            f"ap_{i}: assert property (@(posedge clk) a |=> b);",
            f"n{i}") for i in range(6)]
        with _replica() as r1, _replica() as r2, \
                BackgroundRouter(_specs(r1, r2),
                                 health_interval=5.0) as router:
            host, port = router.address
            status, body, _ = _post(host, port, burst)
            assert status == 200
            assert sorted(w["index"] for w in body) == list(range(6))
            _, metrics, _ = _get(host, port, "/metrics")
            routed = sorted(r["routed"]
                            for r in metrics["replicas"].values())
            # assertion-independent signatures: all six samples share
            # one replica, the other sees nothing
            assert routed == [0, 6]

    def test_invalid_items_are_answered_locally(self):
        wires = [
            _equiv_wire("assert property (@(posedge clk) a |-> b);",
                        "good"),
            {"kind": "no-such-kind", "request_id": "bad"},
        ]
        with _replica() as r1, \
                BackgroundRouter(_specs(r1),
                                 health_interval=5.0) as router:
            host, port = router.address
            status, body, _ = _post(host, port, wires)
            assert status == 200
            assert body[0]["verdict"] == "equivalent"
            assert body[1]["verdict"] == "error"
            assert body[1]["index"] == 1
            # the invalid item never cost a forward
            _, metrics, _ = _get(host, port, "/metrics")
            assert sum(r["routed"]
                       for r in metrics["replicas"].values()) == 1

    def test_health_and_metrics_surface(self):
        with _replica() as r1, \
                BackgroundRouter(_specs(r1),
                                 health_interval=5.0) as router:
            host, port = router.address
            status, body, _ = _get(host, port, "/healthz")
            assert status == 200 and body["status"] == "alive"
            status, body, _ = _get(host, port, "/readyz")
            assert status == 200
            status, metrics, _ = _get(host, port, "/metrics")
            assert status == 200
            assert abs(sum(metrics["ring"]["occupancy"].values())
                       - 1.0) < 0.01
            assert metrics["failovers"] == 0
            status, body, _ = _get(host, port, "/nope")
            assert status == 404


class TestRouterFailover:
    def test_injected_upstream_fault_fails_over(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_FAULTS", "upstream:1.0@1")
        with _replica() as r1, _replica() as r2, \
                BackgroundRouter(_specs(r1, r2),
                                 health_interval=5.0) as router:
            host, port = router.address
            status, body, _ = _post(
                host, port,
                [_equiv_wire("assert property (@(posedge clk) a |-> b);",
                             "f0")])
            assert status == 200
            [wire] = body
            assert wire["verdict"] == "equivalent"  # answered elsewhere
            codes = [e["code"] for e in wire["degraded"]]
            assert "upstream" in codes  # the failover left provenance
            _, metrics, _ = _get(host, port, "/metrics")
            assert metrics["failovers"] == 1
            # injection is not a real transport failure: nobody ejected
            assert all(r["healthy"]
                       for r in metrics["replicas"].values())

    def test_all_replicas_dead_yields_structured_upstream(self):
        with BackgroundRouter("127.0.0.1:1,127.0.0.1:2", max_hops=2,
                              health_interval=60.0) as router:
            host, port = router.address
            wires = [_equiv_wire(
                "assert property (@(posedge clk) a |-> b);", "d0")]
            status, body, _ = _post(host, port, wires)
            assert status == 200  # batches always answer every index
            [wire] = body
            assert wire["verdict"] == "error"
            assert wire["degraded"][0]["code"] == "upstream"
            # a single request surfaces the transport class as 502
            status, wire, _ = _post(host, port, wires[0])
            assert status == 502
            assert wire["degraded"][0]["code"] == "upstream"
            # both connect failures ejected the ring members
            status, body, _ = _get(host, port, "/readyz")
            assert status == 503

    def test_saturated_replicas_yield_structured_overload(self):
        with _replica(max_queue=1) as r1, _replica(max_queue=1) as r2, \
                BackgroundRouter(_specs(r1, r2),
                                 health_interval=5.0) as router:
            host, port = router.address
            # two units in one batch overflow each replica's one-unit
            # queue: both shed, the chain exhausts as overloaded
            wires = [_equiv_wire(
                "assert property (@(posedge clk) a |-> b);", f"o{i}")
                for i in range(2)]
            status, body, _ = _post(host, port, wires)
            assert status == 200
            for wire in body:
                assert wire["verdict"] == "error"
                assert wire["degraded"][0]["code"] == "overload"
                assert wire["meta"]["retry_after_s"] >= 1.0
            status, wire, headers = _post(host, port, wires)
            assert status == 200  # batch form again: still embedded
            # single-request form: 503 with Retry-After
            big = dict(wires[0])
            status, wire, headers = _post(host, port, big)
            # a single unit fits the queue, so saturate via backoff
            # first: the prior sheds put both replicas on backoff
            if status == 503:
                assert int(headers["Retry-After"]) >= 1
            else:
                assert status == 200  # backoff expired: served normally

    def test_ejected_replica_is_readmitted(self):
        r1, r2 = _replica(), _replica()
        r1.start(); r2.start()
        try:
            with BackgroundRouter(_specs(r1, r2),
                                  health_interval=0.1) as router:
                host, port = router.address
                dead_spec = f"{r2.address[0]}:{r2.address[1]}"
                dead_port = r2.address[1]
                r2.stop()
                deadline = time.time() + 10
                while time.time() < deadline:
                    _, metrics, _ = _get(host, port, "/metrics")
                    if not metrics["replicas"][dead_spec]["healthy"]:
                        break
                    time.sleep(0.05)
                assert not metrics["replicas"][dead_spec]["healthy"]
                assert metrics["replicas"][dead_spec]["ejected"] == 1
                assert metrics["ring"]["members"] == [
                    f"{r1.address[0]}:{r1.address[1]}"]
                # traffic still flows through the survivor
                status, body, _ = _post(
                    host, port,
                    [_equiv_wire("assert property (@(posedge clk) "
                                 "a |-> b);", "surv")])
                assert status == 200
                assert body[0]["verdict"] == "equivalent"
                # bring a replica back on the same port: re-admission
                r2b = BackgroundServer(
                    service=VerificationService(),
                    admission=AdmissionController(max_queue=256,
                                                  max_inflight=16),
                    host="127.0.0.1", port=dead_port)
                r2b.start()
                try:
                    deadline = time.time() + 10
                    while time.time() < deadline:
                        _, metrics, _ = _get(host, port, "/metrics")
                        if metrics["replicas"][dead_spec]["healthy"]:
                            break
                        time.sleep(0.05)
                    assert metrics["replicas"][dead_spec]["healthy"]
                    assert metrics["replicas"][dead_spec][
                        "readmitted"] == 1
                    assert len(metrics["ring"]["members"]) == 2
                finally:
                    r2b.stop()
        finally:
            r1.stop()


# ---------------------------------------------------------------------------
# live two-replica storm (subprocess replicas, SIGKILL failover)
# ---------------------------------------------------------------------------


def _spawn(*args, faults=""):
    env = dict(os.environ, PYTHONPATH="src", FVEVAL_FAULTS=faults)
    for name in ("FVEVAL_WORKERS", "FVEVAL_EXECUTOR", "FVEVAL_FAULTS_SEED",
                 "FVEVAL_MAX_QUEUE", "FVEVAL_MAX_INFLIGHT"):
        env.pop(name, None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env, cwd=os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))),
        stderr=subprocess.PIPE, text=True)
    banner = proc.stderr.readline()
    match = re.search(r"http://([\d.]+):(\d+)", banner)
    assert match, f"no listening banner in {banner!r}"
    return proc, match.group(1), int(match.group(2))


class TestLiveFailover:
    def test_sigkill_mid_storm_loses_no_indices(self, wait_inflight):
        procs = []
        try:
            # every solve sleeps 50 ms (core/faults.py slow_solve): the
            # deep units are held until their deadline however fast the
            # engine is, so the kill lands on work in flight
            hold = "slow_solve:1.0:0.05"
            rep1, h1, p1 = _spawn("serve", "--http", "127.0.0.1:0",
                                  "--workers", "2", faults=hold)
            procs.append(rep1)
            rep2, h2, p2 = _spawn("serve", "--http", "127.0.0.1:0",
                                  "--workers", "2", faults=hold)
            procs.append(rep2)
            router, rh, rp = _spawn(
                "route", "--replicas", f"{h1}:{p1},{h2}:{p2}",
                "--listen", "127.0.0.1:0", "--health-interval", "0.2")
            procs.append(router)

            results = []
            lock = threading.Lock()

            def fire(i):
                batch = [
                    {"kind": "prove", "source": DEEP_DESIGN,
                     "engine": {"max_bmc": 64, "max_k": 40},
                     "deadline_s": 0.5, "use_cache": False,
                     "request_id": f"r{i}-{j}"}
                    for j in range(2)]
                status, body, _ = _post(rh, rp, batch, timeout=120)
                with lock:
                    results.append((i, status, body))

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            wait_inflight(rh, rp, len(threads))  # forwards in flight
            rep1.kill()  # SIGKILL one replica mid-storm
            for t in threads:
                t.join(120)

            assert len(results) == 4
            for _i, status, body in results:
                assert status == 200
                # zero lost or duplicated indices, real verdicts: the
                # killed replica's positions failed over and ran into
                # their own deadline on the survivor
                assert sorted(r["index"] for r in body) == [0, 1]
                for r in body:
                    assert r["verdict"] == "timeout"
                    assert any(e["code"] == "timeout"
                               for e in r["degraded"])

            _, metrics, _ = _get(rh, rp, "/metrics")
            assert not metrics["replicas"][f"{h1}:{p1}"]["healthy"]

            # recover the replica on its old port: re-admission
            rep1b, _, _ = _spawn("serve", "--http", f"127.0.0.1:{p1}",
                                 "--workers", "2")
            procs.append(rep1b)
            deadline = time.time() + 15
            while time.time() < deadline:
                _, metrics, _ = _get(rh, rp, "/metrics")
                if metrics["replicas"][f"{h1}:{p1}"]["healthy"]:
                    break
                time.sleep(0.1)
            assert metrics["replicas"][f"{h1}:{p1}"]["healthy"]
            assert metrics["replicas"][f"{h1}:{p1}"]["readmitted"] >= 1
            assert len(metrics["ring"]["members"]) == 2

            # clean SIGTERM drain of the router
            router.send_signal(signal.SIGTERM)
            assert router.wait(timeout=30) == 0
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
