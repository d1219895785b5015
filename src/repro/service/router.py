"""Consistent-hash L7 router over N ``serve`` replicas (``python -m
repro route --replicas HOST:PORT,... --listen HOST:PORT``).

The router terminates the same ``/v1/verify`` wire schema as the
single-replica frontend (:mod:`repro.service.http`; both are route
tables over the server kernel, :mod:`repro.service.aserver`), but
instead of executing requests it *places* them:
at plan time each request's design signature is computed with the exact
helper the service keys its prover pool with
(:func:`repro.service.signature.routing_signature`), hashed, and looked
up on a consistent-hash ring of replicas (:mod:`repro.service.ring`).
The n candidate assertions of one design cone therefore land on one
replica, whose pooled prover and verdict cache stay hot -- the router
converts pass@k locality into cache and prover-pool hits instead of
scattering it (docs/router.md).

Failure handling, per position (never a lost index):

* a replica that refuses a connection or breaks the pipe mid-exchange
  is **ejected** from the ring on the spot; the ``/readyz`` health loop
  probes every configured replica each interval and re-admits it when
  it answers ready again.  Only the ejected member's keyspace moves.
* on connect error or an upstream 503 the failed positions are
  re-routed to the next distinct node of their own failover chain
  (``HashRing.nodes_for``), at most ``--max-hops`` distinct replicas; a
  503's ``Retry-After`` puts the shedding replica on backoff so the
  chain prefers replicas that are not known-saturated.
* an exhausted chain yields a structured error response: ``overloaded``
  (HTTP 503 + ``Retry-After`` for a single request) when saturation was
  seen along the way, ``upstream`` (HTTP 502) otherwise.  Batches
  always answer 200 with per-index structured errors embedded.
* a position that *was* re-routed and then answered carries a retryable
  ``upstream`` :class:`~repro.core.faults.FaultEvent` in its
  ``degraded`` provenance, so failovers are observable per response.
  The ``upstream`` injection site (``FVEVAL_FAULTS=upstream:...``)
  fakes a transport failure per forward attempt, making failover
  deterministic for the chaos job.

Connections to replicas are pooled per node (HTTP/1.1 keep-alive), and
SIGTERM drains gracefully: stop listening, finish in-flight exchanges,
close the pools, exit 0.
"""

from __future__ import annotations

import asyncio
import json
import math
import time

from .api import RequestError, error_wire, requests_from_body
from .aserver import (
    AsyncJsonServer, BackgroundHarness, Connection, HttpError, HttpRequest,
    close_quietly, expect_route, parse_address, read_response, run,
)
from .ring import DEFAULT_VNODES, HashRing, stable_hash
from .signature import routing_signature

#: failover budget: how many distinct replicas one position may try
DEFAULT_MAX_HOPS = 3

#: seconds between /readyz probes of every configured replica
DEFAULT_HEALTH_INTERVAL = 1.0

#: establishing a connection to a replica must be fast; a replica that
#: cannot accept within this window is treated as down (ejected)
CONNECT_TIMEOUT_S = 2.0

#: reading a verify response is bounded by the replica's own deadline
#: enforcement, so this is a wedge backstop, not a latency budget
READ_TIMEOUT_S = 300.0

__all__ = [
    "BackgroundRouter", "DEFAULT_HEALTH_INTERVAL", "DEFAULT_MAX_HOPS",
    "RouterServer", "parse_replicas", "serve_route",
]


def parse_replicas(spec: str) -> list[str]:
    """``HOST:PORT,HOST:PORT,...`` -> normalized replica names."""
    names: list[str] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        host, port = parse_address(part)
        name = f"{host}:{port}"
        if name not in names:
            names.append(name)
    if not names:
        raise ValueError(f"--replicas expects HOST:PORT[,...], got {spec!r}")
    return names


class _Replica:
    """Router-side state of one configured replica."""

    __slots__ = ("name", "healthy", "routed", "retried", "ejected",
                 "readmitted", "backoff_until")

    def __init__(self, name: str):
        self.name = name
        self.healthy = True
        self.routed = 0       # positions answered by this replica
        self.retried = 0      # forward attempts that failed here
        self.ejected = 0
        self.readmitted = 0
        self.backoff_until = 0.0  # monotonic; Retry-After honoring

    def stats(self) -> dict:
        backoff = max(0.0, self.backoff_until - time.monotonic())
        return {"healthy": self.healthy, "routed": self.routed,
                "retried": self.retried, "ejected": self.ejected,
                "readmitted": self.readmitted,
                "backoff_s": round(backoff, 3)}


class RouterServer(AsyncJsonServer):
    """The asyncio routing tier: signature-affine placement + failover.

    All mutable state (ring membership, pools, counters) lives on the
    event-loop thread; there are no locks by construction.
    """

    def __init__(self, replicas, host: str = "127.0.0.1", port: int = 0,
                 max_hops: int = DEFAULT_MAX_HOPS,
                 health_interval: float = DEFAULT_HEALTH_INTERVAL,
                 vnodes: int = DEFAULT_VNODES):
        super().__init__(host, port)
        names = parse_replicas(replicas if isinstance(replicas, str)
                               else ",".join(map(str, replicas)))
        self.replicas: dict[str, _Replica] = {
            name: _Replica(name) for name in names}
        self.ring = HashRing(names, vnodes=vnodes)
        self.max_hops = max(1, int(max_hops))
        self.health_interval = max(0.05, float(health_interval))
        self._health_task: asyncio.Task | None = None
        self._pools: dict[str, list] = {}
        # counters -- event-loop thread only
        self.failovers = 0
        self.exhausted: dict[str, int] = {"overloaded": 0, "upstream": 0}

    # -- lifecycle hooks -----------------------------------------------------

    async def on_start(self) -> None:
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop())

    async def on_drained(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
        for pool in self._pools.values():
            for _reader, writer in pool:
                close_quietly(writer)
        self._pools.clear()

    def ready(self) -> tuple[bool, dict]:
        if len(self.ring) == 0:
            return False, {"status": "no healthy replica"}
        return True, {"status": "ready", "replicas": len(self.ring)}

    # -- health --------------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval)
            for name in list(self.replicas):
                ready = await self._probe(name)
                replica = self.replicas[name]
                if ready and not replica.healthy:
                    self._readmit(name)
                elif not ready and replica.healthy:
                    self._eject(name)

    async def _probe(self, name: str) -> bool:
        """One /readyz round trip on a fresh connection (the pool is for
        verify traffic; a probe must not steal or wedge its sockets)."""
        host, port = parse_address(name)
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), CONNECT_TIMEOUT_S)
        except (OSError, asyncio.TimeoutError):
            return False
        try:
            writer.write(b"GET /readyz HTTP/1.1\r\n"
                         b"Connection: close\r\n\r\n")
            await writer.drain()
            status, _headers, _body = await asyncio.wait_for(
                read_response(reader), CONNECT_TIMEOUT_S)
            return status == 200
        except (OSError, ConnectionError, asyncio.TimeoutError):
            return False
        finally:
            close_quietly(writer)

    def _eject(self, name: str) -> None:
        replica = self.replicas[name]
        if replica.healthy:
            replica.healthy = False
            replica.ejected += 1
            self.ring.remove(name)
        # a dead replica's pooled connections are dead too
        for _reader, writer in self._pools.pop(name, []):
            close_quietly(writer)

    def _readmit(self, name: str) -> None:
        replica = self.replicas[name]
        if not replica.healthy:
            replica.healthy = True
            replica.readmitted += 1
            self.ring.add(name)

    # -- connection pool -----------------------------------------------------

    async def _acquire(self, name: str):
        pool = self._pools.get(name) or []
        while pool:
            reader, writer = pool.pop()
            if not writer.is_closing():
                return reader, writer
            close_quietly(writer)
        host, port = parse_address(name)
        return await asyncio.wait_for(
            asyncio.open_connection(host, port), CONNECT_TIMEOUT_S)

    def _release(self, name: str, reader, writer, reuse: bool) -> None:
        if reuse and not writer.is_closing() and not self.draining:
            self._pools.setdefault(name, []).append((reader, writer))
        else:
            close_quietly(writer)

    # -- the verify path -----------------------------------------------------

    async def handle(self, request: HttpRequest, conn: Connection) -> None:
        expect_route(request, "/v1/verify", "POST")
        try:
            single, items, parsed = requests_from_body(request.body)
        except RequestError as exc:
            raise HttpError(400, str(exc))

        # fingerprint every valid position up front; invalid items were
        # answered at parse time and are never forwarded
        results: dict[int, dict] = {}
        status_by_pos: dict[int, int] = {}
        live: list[tuple[int, int]] = []  # (position, routing key)
        for position, entry in enumerate(parsed):
            if isinstance(entry, dict):
                results[position] = entry
                status_by_pos[position] = 400
            else:
                live.append((position,
                             stable_hash(routing_signature(entry))))

        if live:
            await self._route_positions(items, live, results,
                                        status_by_pos)

        wire_out = []
        for position in range(len(items)):
            wire = results[position]
            wire["index"] = position
            wire_out.append(wire)
        if single:
            status = status_by_pos.get(0, 200)
            extra = ()
            if status == 503:
                retry_after = (results[0].get("meta") or {}).get(
                    "retry_after_s", 1.0)
                extra = (("Retry-After", str(math.ceil(retry_after))),)
            await conn.write(status, wire_out[0], extra=extra)
        else:
            # batch: always 200, every index answered in the body
            await conn.write(200, wire_out)

    async def _route_positions(self, items, live, results,
                               status_by_pos) -> None:
        """Place and forward the valid positions, with bounded failover.

        Mutates *results*/*status_by_pos* until every position in
        *live* is answered -- by a replica, or by a structured
        ``overloaded``/``upstream`` error once its chain is exhausted.
        """
        from ..core.faults import inject

        state = {pos: {"key": key, "tried": [], "saw_overload": False,
                       "retry_after": 1.0}
                 for pos, key in live}
        work = [pos for pos, _key in live]
        while work:
            assign: dict[str, list[int]] = {}
            now = time.monotonic()
            for pos in work:
                st = state[pos]
                node = self._next_node(st, now)
                if node is None:
                    results[pos] = self._exhausted_error(items[pos], st)
                    status_by_pos[pos] = (503 if st["saw_overload"]
                                          else 502)
                    code = ("overloaded" if st["saw_overload"]
                            else "upstream")
                    self.exhausted[code] += 1
                else:
                    assign.setdefault(node, []).append(pos)
            work = []
            if not assign:
                continue
            outcomes = await asyncio.gather(*[
                self._forward(node, [items[p] for p in positions],
                              inject)
                for node, positions in assign.items()])
            for (node, positions), outcome in zip(assign.items(),
                                                  outcomes):
                kind = outcome[0]
                replica = self.replicas[node]
                if kind == "ok":
                    upstream_status, wires = outcome[1], outcome[2]
                    covered = set()
                    for wire in wires:
                        sub = wire.get("index")
                        if not isinstance(sub, int) \
                                or not 0 <= sub < len(positions):
                            continue
                        pos = positions[sub]
                        covered.add(pos)
                        st = state[pos]
                        if st["tried"]:
                            self._mark_rerouted(wire, st)
                        results[pos] = wire
                        status_by_pos[pos] = upstream_status
                        replica.routed += 1
                    for pos in positions:
                        if pos not in covered:
                            # the replica answered the batch but lost an
                            # index (should not happen): retry elsewhere
                            self._note_failure(state[pos], node)
                            work.append(pos)
                else:  # ("retry", retry_after | None)
                    retry_after = outcome[1]
                    replica.retried += len(positions)
                    self.failovers += len(positions)
                    for pos in positions:
                        st = state[pos]
                        self._note_failure(st, node)
                        if retry_after is not None:
                            st["saw_overload"] = True
                            st["retry_after"] = max(st["retry_after"],
                                                    retry_after)
                        work.append(pos)

    def _next_node(self, st: dict, now: float) -> str | None:
        """The next untried replica of this position's failover chain,
        preferring members not on Retry-After backoff; None when the
        chain (at most ``max_hops`` distinct nodes) is exhausted."""
        chain = self.ring.nodes_for(st["key"], self.max_hops)
        candidates = [n for n in chain if n not in st["tried"]]
        if not candidates:
            return None
        fresh = [n for n in candidates
                 if self.replicas[n].backoff_until <= now]
        if fresh:
            return fresh[0]
        # every remaining candidate shed recently: the workload is
        # saturated, answer overloaded with the shortest honest wait
        st["saw_overload"] = True
        st["retry_after"] = max(
            st["retry_after"],
            min(self.replicas[n].backoff_until for n in candidates) - now)
        return None

    def _note_failure(self, st: dict, node: str) -> None:
        if node not in st["tried"]:
            st["tried"].append(node)

    async def _forward(self, node: str, payload_items, inject):
        """POST one sub-batch to *node*.  Returns ``("ok", status,
        wires)`` or ``("retry", retry_after | None)``; transport
        failures eject the replica on the spot."""
        if inject("upstream") is not None:
            # injected transport failure: the failover path runs, but
            # the (actually healthy) replica keeps its ring membership
            return ("retry", None)
        try:
            reader, writer = await self._acquire(node)
        except (OSError, ConnectionError, asyncio.TimeoutError):
            self._eject(node)
            return ("retry", None)
        body = json.dumps(payload_items).encode()
        try:
            head = (f"POST /v1/verify HTTP/1.1\r\n"
                    f"Host: {node}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: keep-alive\r\n\r\n")
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
            status, headers, resp_body = await asyncio.wait_for(
                read_response(reader), READ_TIMEOUT_S)
        except (OSError, ConnectionError, asyncio.TimeoutError):
            close_quietly(writer)
            self._eject(node)
            return ("retry", None)
        keep = headers.get("connection", "").lower() != "close"
        self._release(node, reader, writer, keep)
        if status == 503:
            try:
                retry_after = float(headers.get("retry-after", "1"))
            except ValueError:
                retry_after = 1.0
            self.replicas[node].backoff_until = \
                time.monotonic() + retry_after
            return ("retry", retry_after)
        if status in (200, 500):
            try:
                wires = json.loads(resp_body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                return ("retry", None)
            if not isinstance(wires, list):
                wires = [wires]
            return ("ok", status, wires)
        # 4xx from a replica on a router-validated batch is schema
        # drift -- an upstream anomaly, not a client error: retry the
        # chain and let exhaustion classify it
        return ("retry", None)

    # -- response shaping ----------------------------------------------------

    def _exhausted_error(self, item, st: dict) -> dict:
        from ..core.faults import FaultEvent
        hops = len(st["tried"])
        if st["saw_overload"]:
            code = "overload"
            detail = (f"every replica in the failover chain is saturated "
                      f"({hops} tried)")
            meta = {"retry_after_s": round(max(1.0, st["retry_after"]), 3)}
        else:
            code, meta = "upstream", None
            detail = f"no replica answered after {hops} attempt(s)"
        event = FaultEvent(code, stage="router", detail=detail,
                           retryable=st["saw_overload"]).as_dict()
        return error_wire(item, detail, degraded=[event], meta=meta)

    def _mark_rerouted(self, wire: dict, st: dict) -> None:
        from ..core.faults import FaultEvent
        event = FaultEvent(
            "upstream", stage="router", retryable=True,
            attempt=len(st["tried"]),
            detail=f"re-routed after {len(st['tried'])} failed "
                   f"replica(s): {', '.join(st['tried'])}").as_dict()
        degraded = wire.get("degraded") or []
        wire["degraded"] = degraded + [event]

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> dict:
        occupancy = {name: round(share, 4)
                     for name, share in self.ring.occupancy().items()}
        return {
            "replicas": {name: replica.stats()
                         for name, replica in self.replicas.items()},
            "ring": {"members": self.ring.nodes,
                     "vnodes": self.ring.vnodes,
                     "occupancy": occupancy},
            "failovers": self.failovers,
            "exhausted": dict(self.exhausted),
            "max_hops": self.max_hops,
            "draining": self.draining,
        }


def serve_route(replicas: str, listen: str,
                max_hops: int = DEFAULT_MAX_HOPS,
                health_interval: float = DEFAULT_HEALTH_INTERVAL,
                vnodes: int = DEFAULT_VNODES) -> int:
    """Run the routing tier until a signal drains it; returns the
    process exit status (always 0 -- the router holds no worker
    processes to force-kill)."""
    host, port = parse_address(listen)
    router = RouterServer(replicas, host=host, port=port,
                          max_hops=max_hops,
                          health_interval=health_interval,
                          vnodes=vnodes)
    return run(router, "routing")


class BackgroundRouter(BackgroundHarness):
    """In-process router for tests and benchmarks: takes
    :class:`RouterServer`'s constructor arguments and runs it on a
    :class:`~repro.service.aserver.BackgroundHarness` thread."""

    server_class = RouterServer

    @property
    def router(self) -> RouterServer:
        return self.server
