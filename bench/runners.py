"""The five workloads: set-up, timed region, check, per-layer numbers.

Each workload is a class with the same four steps -- ``setup`` (inputs
from the seed, server children, cache fill), ``measure`` (the timed
region, repeated for ``--seconds``), ``golden`` (the oracle's answers,
for seeds without a committed golden file) and ``teardown`` -- driven by
:func:`run_workload`.  End-to-end metrics come from untraced passes
only; a traced run interleaves traced passes and derives the per-layer
metrics (:mod:`bench.metrics` declares the names).
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import tempfile
import time

from repro.service import (VerificationService, request_from_json,
                           response_to_json)

from . import harness, loadgen, metrics, trace, workloads

#: a set-up is repeated this often and its median reported
SETUP_REPEATS = 3
#: fewest untraced passes the per-operation best is taken over
MIN_PASSES = 2

#: open-loop request rates (requests/s) of ``route_open_steps``, frozen
#: at about 25/50/75 % of the closed-loop single-request capacity of
#: ``route`` over two replicas measured on the 2-core bench box
#: (see "Rate constants" in bench/README.md)
RATES = {"low": 30.0, "mid": 60.0, "high": 90.0}
#: latency limit from due time for ``slo_met_share``
SLO_LIMIT_MS = 150.0
#: share of a step's requests that must meet the limit for its rate to
#: count in ``loadgen.max_rate_within_slo``
SLO_TARGET = 0.95

#: operations in the tier A/B ratio slices (designs; Machine problems)
RATIO_SLICE_OPS = 12
EQUIV_SLICE_OPS = 96
#: the unloaded-latency probe of ``route_open_steps`` sends every n-th
#: single request of the stream, the traced-run probes every n-th
UNLOADED_EVERY = 3
PROBE_EVERY = 12
#: each probe sequence is sent this often and every request keeps its
#: best round, so both sides of a difference see the same pool history
PROBE_ROUNDS = 3


class Workload:
    """Shared state and the statistics every workload reports."""

    name = ""

    def __init__(self, seed: int, scale: float, traced: bool):
        self.seed, self.scale, self.traced = seed, scale, traced
        self.ops: list[workloads.Op] = []
        #: untraced / traced passes: per-operation latencies
        self.plain: list[list[float]] = []
        self.traced_passes: list[list[float]] = []
        #: answers of every pass, for the check
        self.pass_answers: list[dict] = []
        self.peak_rss_mb = 0.0
        #: public counters of one untraced pass
        self.counters: dict = {}
        self.layer_values: dict[str, float] = {}

    def setup(self) -> None:
        self.ops = workloads.build_ops(self.name, self.seed, self.scale)

    def teardown(self) -> None:
        pass

    # the check ---------------------------------------------------------

    def golden(self) -> dict:
        return harness.oracle_answers(self.ops)

    def attempted(self) -> int:
        return len(self.ops) * len(self.pass_answers)

    def failed(self, golden: dict) -> int:
        return harness.count_failed(self.ops, self.pass_answers, golden)

    def verdicts(self) -> int:
        """Verdicts one pass answers."""
        return sum(len(op.responses) for op in self.ops)

    # end-to-end ----------------------------------------------------------

    def best_of(self, passes: list[list[float]]) -> list[float]:
        return harness.best_of(passes)

    def best(self) -> list[float]:
        return self.best_of(self.plain)

    def wall_s(self) -> float:
        return sum(self.best())

    def latency_sample(self) -> list[float]:
        """The latencies ``latency_p50_ms`` is the median of."""
        return self.best()

    def end_to_end(self, setup_s: float, correct_share: float) -> dict:
        wall = self.wall_s()
        return {
            "setup_s": setup_s,
            "wall_s": wall,
            "verdicts_per_s": self.verdicts() * correct_share / wall,
            "latency_p50_ms": statistics.median(self.latency_sample()) * 1e3,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def sample_sizes(self) -> dict:
        """Per-metric ``n``, and the tail of the latency sample by the
        rule for tails (:func:`harness.tail_percentile`)."""
        sample = self.latency_sample()
        p, value = harness.tail_percentile(sample)
        return {"operations": len(self.ops), "passes": len(self.plain),
                "traced_passes": len(self.traced_passes),
                "verdicts": self.verdicts(), "latencies": len(sample),
                "latency_tail": {"percentile": p, "ms": value * 1e3}}

    # per-layer (traced runs) ---------------------------------------------

    def layers(self, golden: dict) -> dict:
        """Per-layer values from spans and public counters (*golden*:
        the known answers, for shares of correctly answered requests)."""
        return {}

    def ratios(self) -> dict:
        """Tier A/B ratios: extra work after the timed region."""
        return {}


def _passes(seconds: float, fewest: int):
    """Pass indices for about *seconds*: at least *fewest* passes, then
    another only while half of one still fits."""
    started = last = time.perf_counter()
    index = 0
    while True:
        yield index
        index += 1
        now = time.perf_counter()
        pass_s, last = now - last, now
        if index >= fewest and now - started + pass_s / 2 > seconds:
            return


# -- in-process workloads ------------------------------------------------------


def _snapshot(service) -> dict:
    return {"stats": service.stats(), "profile": dict(service.profile)}


class InProcess(Workload):
    """Closed loop, one thread: one ``evaluate_batch`` per operation on
    a fresh default service per pass."""

    def new_service(self):
        return VerificationService()

    def one_pass(self, traced: bool):
        service = self.new_service()
        try:
            tasks = harness.tasks_for(service)
            latencies, answers = self._timed(tasks, traced)
            return latencies, [answers], _snapshot(service)
        finally:
            service.close()

    def _timed(self, tasks, traced: bool, phase: str = ""):
        if traced:
            trace.install()
        try:
            return harness.run_pass(self.ops, tasks, traced, phase)
        finally:
            if traced:
                trace.uninstall()

    def measure(self, seconds: float) -> None:
        for index in _passes(seconds,
                             MIN_PASSES * (2 if self.traced else 1)):
            # traced and untraced passes alternate plain-traced-traced-
            # plain, so neither side owns the cold first pass or a drift
            traced = self.traced and index % 4 in (1, 2)
            latencies, answers, counters = self.one_pass(traced)
            (self.traced_passes if traced else self.plain).append(latencies)
            self.pass_answers += answers
            if not traced and not self.counters:
                self.counters = counters
        self.peak_rss_mb = harness.peak_rss_mb()

    # per-layer -----------------------------------------------------------

    def layers(self, golden: dict) -> dict:
        timed = [s for s in trace.SPANS if not s[5].startswith("fill/")]
        values = layer_values_from(
            trace.layer_totals(timed),
            verdicts=self.verdicts() * len(self.traced_passes),
            requests=self.counters["stats"]["requests"]
            * len(self.traced_passes),
            passes=len(self.traced_passes))
        values.update(counter_values(self.counters))
        values["trace.overhead_share"] = (
            sum(self.best_of(self.traced_passes)) / self.wall_s() - 1.0)
        best = self.best()
        values["latency_p95_ms"] = harness.percentile(best, 95) * 1e3
        return values


class D2sProveCold(InProcess):
    name = "d2s_prove_cold"

    def ratios(self) -> dict:
        values = {}
        singles = [item for op in self.ops[:RATIO_SLICE_OPS]
                   for item in workloads.wire_batch(op)]
        base = _slice_wall(singles)
        for key, options, engine in (
                ("service.executor.thread2_ratio", {"workers": 2}, None),
                ("service.procpool.proc2_ratio",
                 {"executor": "process", "workers": 2}, None),
                ("service.batch.nobatch_ratio", {"batching": False}, None),
                ("formal.portfolio.ratio", {}, {"strategy": "portfolio"})):
            values[key] = _slice_wall(singles, options, engine) / base
        return values


class Nl2svaEquivCold(InProcess):
    name = "nl2sva_equiv_cold"

    def ratios(self) -> dict:
        machine = [op for op in self.ops if op.family == "machine"]
        singles = [item for op in machine[:EQUIV_SLICE_OPS]
                   for item in workloads.wire_batch(op)]
        return {"formal.equivalence.isolated_ratio":
                _slice_wall(singles, {"share_equiv": False})
                / _slice_wall(singles)}


def _slice_wall(singles, options: dict | None = None,
                engine: dict | None = None) -> float:
    """Best of two walls of one service batch over *singles* (wire
    requests) on a fresh service built with *options*."""
    walls = []
    for _ in range(2):
        requests = [request_from_json(
            {**item, "engine": {**item["engine"], **engine}}
            if engine else item) for item in singles]
        service = VerificationService(**(options or {}))
        try:
            started = time.perf_counter()
            service.run(requests)
            walls.append(time.perf_counter() - started)
        finally:
            service.close()
    return min(walls)


class CacheWarmReplay(InProcess):
    """Set-up fills a disk tier (all puts) and discards that service;
    one timed cycle is pass A on a fresh service over the same directory
    (disk hits, promotions) then passes B-D on it (memory hits)."""

    name = "cache_warm_replay"
    PHASES = "ABCD"

    def __init__(self, *args):
        super().__init__(*args)
        self.cache_dir = None

    def new_service(self):
        return VerificationService(
            cache_tiers=f"memory,disk={self.cache_dir}")

    def setup(self) -> None:
        super().setup()
        harness.OUT.mkdir(parents=True, exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=harness.OUT)
        service = self.new_service()
        try:
            tasks = harness.tasks_for(service, use_cache=True)
            # the fill's answers are checked like any pass's
            self.pass_answers.append(
                self._timed(tasks, self.traced, "fill/")[1])
        finally:
            service.close()

    def teardown(self) -> None:
        if self.cache_dir:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def one_pass(self, traced: bool):
        service = self.new_service()
        try:
            tasks = harness.tasks_for(service, use_cache=True)
            latencies, answers = [], []
            for phase in self.PHASES:
                lat, ans = self._timed(tasks, traced, f"{phase}/")
                latencies += lat
                answers.append(ans)
            return latencies, answers, _snapshot(service)
        finally:
            service.close()

    def verdicts(self) -> int:
        return super().verdicts() * len(self.PHASES)

    def best_of(self, cycles: list[list[float]]) -> list[float]:
        """Pass A at the best of its repeats; passes B-D are the same
        memory-hit pass three times over, so each operation's memory
        latency is the best of all of them, counted three times."""
        n = len(self.ops)
        disk = harness.best_of([cycle[:n] for cycle in cycles])
        memory = harness.best_of([cycle[k * n:(k + 1) * n]
                                  for cycle in cycles for k in (1, 2, 3)])
        return disk + memory * 3

    def layers(self, golden: dict) -> dict:
        values = super().layers(golden)
        by_phase = {phase: trace.layer_totals(
            [s for s in trace.SPANS if s[5].startswith(prefix)])
            for phase, prefix in (("fill", "fill/"), ("disk", "A/"))}
        memory = trace.layer_totals(
            [s for s in trace.SPANS if s[5][:2] in ("B/", "C/", "D/")])
        values["core.cache.put_us"] = _per_call(
            by_phase["fill"], "core.cache.put", 1e6)
        values["core.cache.disk_get_us"] = _per_call(
            by_phase["disk"], "core.cache.get", 1e6)
        values["core.cache.mem_get_us"] = _per_call(
            memory, "core.cache.get", 1e6)
        return values


# -- per-layer arithmetic ------------------------------------------------------


def _per_call(totals: dict, span: str, unit: float,
              field: str = "self_s") -> float:
    row = totals.get(span)
    return row[field] / row["calls"] * unit if row else 0.0


def _calls(totals: dict, span: str) -> int:
    return totals[span]["calls"] if span in totals else 0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: per-layer metric -> (span name, unit factor): mean self time per call
#: (a proof's time by outcome is inclusive: the engines are its children)
_INCLUSIVE = ("formal.prover.prove_ms.proven", "formal.prover.prove_ms.cex")
_SELF_TIME = {
    "core.tasks.splice_ms": ("core.tasks.splice", 1e3),
    "eval.metrics.bleu_ms": ("eval.metrics.bleu", 1e3),
    "rtl.parser.parse_ms": ("rtl.parser.parse", 1e3),
    "rtl.elaborate.elab_ms": ("rtl.elaborate.elab", 1e3),
    "sva.lexer.tokenize_ms": ("sva.lexer.tokenize", 1e3),
    "sva.parser.parse_ms": ("sva.parser.parse", 1e3),
    "sva.syntax.gate_ms": ("sva.syntax.gate", 1e3),
    "sva.canonical.key_ms": ("sva.canonical.key", 1e3),
    "formal.coi.cone_ms": ("formal.coi.cone", 1e3),
    "formal.prover.build_ms": ("formal.prover.build", 1e3),
    "formal.prover.prove_ms.proven": ("formal.prover.prove.proven", 1e3),
    "formal.prover.prove_ms.cex": ("formal.prover.prove.cex", 1e3),
    "formal.sat.solve_ms": ("formal.sat.solve", 1e3),
    "formal.equivalence.check_ms": ("formal.equivalence.check", 1e3),
    "service.signature.design_sig_ms": ("service.signature.design_sig", 1e3),
    "service.signature.routing_sig_ms":
        ("service.signature.routing_sig", 1e3),
    "service.ring.lookup_us": ("service.ring.lookup", 1e6),
}


def layer_values_from(totals: dict, verdicts: int, requests: int,
                      passes: int) -> dict:
    """Per-layer values derivable from span totals.  *verdicts* and
    *requests* are what the traced spans answered; counts are per pass."""
    values = {name: _per_call(totals, span, unit,
                              "total_s" if name in _INCLUSIVE else "self_s")
              for name, (span, unit) in _SELF_TIME.items()}
    for name, span in (
            ("rtl.parser.calls_per_verdict", "rtl.parser.parse"),
            ("rtl.elaborate.calls_per_verdict", "rtl.elaborate.elab"),
            ("sva.canonical.calls_per_verdict", "sva.canonical.key"),
            ("service.signature.calls_per_verdict",
             "service.signature.design_sig")):
        values[name] = _share(_calls(totals, span), verdicts)
    run = totals.get("service.service.run")
    values["service.service.plan_self_ms"] = (
        _share(run["self_s"], requests) * 1e3 if run else 0.0)
    tokenize = totals.get("sva.lexer.tokenize", {"by_parent": {}})
    by_parent = tokenize["by_parent"]
    values["sva.lexer.tokenize_calls.rtl"] = _share(
        by_parent.get("rtl", 0), passes)
    values["sva.lexer.tokenize_calls.sva"] = _share(
        sum(by_parent.values()) - by_parent.get("rtl", 0), passes)
    solve = totals.get("formal.sat.solve", {"calls": 0, "counts": {}})
    values["formal.sat.solves"] = _share(solve["calls"], passes)
    for counter in ("conflicts", "decisions", "propagations"):
        values[f"formal.sat.{counter}"] = _share(
            solve["counts"].get(counter, 0), passes)
    admit = sum(totals[span]["self_s"] for span in (
        "service.admission.admit", "service.admission.start",
        "service.admission.finish") if span in totals)
    values["service.admission.admit_us"] = _share(
        admit, _calls(totals, "service.admission.admit")) * 1e6
    return values


def counter_values(counters: dict) -> dict:
    """Per-layer values read off the public counters of one pass:
    ``service.stats()`` and the shared prover profile."""
    stats, profile = counters["stats"], counters["profile"]
    cache = stats["cache"]
    passes = profile.get("sim_passes", 0) + profile.get("sim_batch_passes", 0)
    candidates = profile.get("sim_candidates", 0)
    sessions = profile.get("equiv_sessions", 0)
    return {
        "formal.prover.sim_s": profile.get("sim_s", 0.0),
        "formal.prover.bmc_s": profile.get("bmc_s", 0.0),
        "formal.prover.kind_s": profile.get("kind_s", 0.0),
        "formal.prover.encode_s": profile.get("encode_s", 0.0),
        "formal.prover.sat_s": profile.get("sat_s", 0.0),
        "formal.bitsim.passes": passes,
        "formal.bitsim.candidates_per_pass": _share(candidates, passes),
        "formal.equivalence.sessions": sessions,
        "formal.equivalence.candidates_per_session": _share(
            profile.get("equiv_candidates", 0), sessions),
        "formal.equivalence.conflicts": profile.get("equiv_conflicts", 0),
        "service.service.dedup_share": _share(stats["dedup_hits"],
                                              stats["requests"]),
        "service.service.prover_pool_hit_rate": _share(
            stats["prover_hits"],
            stats["prover_hits"] + stats["prover_builds"]),
        "service.service.equiv_pool_hit_rate": _share(
            stats["equiv_hits"], stats["equiv_hits"] + stats["equiv_builds"]),
        "service.batch.pass_reduction": (
            1.0 - passes / candidates if candidates else 0.0),
        "core.cache.hit_rate": _share(cache["hits"],
                                      cache["hits"] + cache["misses"]),
        "core.cache.promotions": sum(
            tier.get("promotions", 0)
            for tier in cache.get("tiers", {}).values()),
    }


# -- HTTP workloads ------------------------------------------------------------


class Served(Workload):
    """Workloads whose program is one or more server children."""

    REPLICAS = 1
    ROUTED = False

    def __init__(self, *args):
        super().__init__(*args)
        self.fleet: loadgen.Fleet | None = None
        self.spans_dir = None
        self.batches: list[list[dict]] = []
        #: verdicts the children answered (every pass and probe)
        self.served_verdicts = 0

    def setup(self) -> None:
        super().setup()
        self.batches = [workloads.wire_batch(op) for op in self.ops]
        if self.traced:
            harness.OUT.mkdir(parents=True, exist_ok=True)
            self.spans_dir = harness.OUT / f"{self.name}.children"
            shutil.rmtree(self.spans_dir, ignore_errors=True)
            self.spans_dir.mkdir()
        self.fleet = loadgen.Fleet(self.REPLICAS, self.ROUTED,
                                   self.spans_dir)

    def teardown(self) -> None:
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None

    def golden(self) -> dict:
        return harness.oracle_wire_answers(self.ops)

    def singles(self) -> list[dict]:
        """The stream as single requests, shuffled by seed."""
        singles = [item for batch in self.batches for item in batch]
        random.Random(f"singles:{self.seed}").shuffle(singles)
        return singles

    def probe(self, every: int) -> list[dict]:
        """Every *every*-th single request of each kind: a sample with
        the stream's own mix of light ``equivalence`` and heavy ``prove``
        requests, so its median does not move with the sample's luck."""
        singles = self.singles()
        return [item for kind in ("equivalence", "prove")
                for item in [s for s in singles
                             if s["kind"] == kind][::every]]

    def child_layers(self) -> dict:
        """Per-layer values from the children's spans: the children
        write them as they drain, so this stops the fleet.  The spans
        join :data:`trace.SPANS`, ids prefixed with the child's role."""
        replicas = len(self.fleet.replicas())
        self.teardown()
        for path in sorted(self.spans_dir.glob("*.jsonl")):
            role = path.name.partition(".")[0]
            for span in trace.read_spans(path):
                span[0] = f"{role}:{span[0]}"
                span[4] = f"{role}:{span[4]}"
                trace.SPANS.append(span)
        shutil.rmtree(self.spans_dir)
        totals = trace.layer_totals(trace.SPANS)
        requests = _calls(totals, "service.http.request_json")
        return layer_values_from(totals, verdicts=self.served_verdicts,
                                 requests=requests, passes=replicas)

    def admission_values(self) -> dict:
        blocks = [self.fleet.metrics(role)
                  for role in self.fleet.children if role != "route"]
        admitted = sum(b["admission"]["admitted_units"] for b in blocks)
        shed = sum(b["admission"]["shed_units"] for b in blocks)
        ewma = [b["admission"]["unit_latency_s"] or 0.0 for b in blocks]
        return {
            "service.admission.shed_share": _share(shed, admitted + shed),
            "service.admission.peak_inflight": max(
                b["admission"]["peak_inflight"] for b in blocks),
            "service.admission.unit_latency_ewma_ms":
                statistics.mean(ewma) * 1e3,
            "service.service.prover_pool_hit_rate": _share(
                sum(b["service"]["prover_hits"] for b in blocks),
                sum(b["service"]["prover_hits"]
                    + b["service"]["prover_builds"] for b in blocks)),
            "service.service.equiv_pool_hit_rate": _share(
                sum(b["service"]["equiv_hits"] for b in blocks),
                sum(b["service"]["equiv_hits"]
                    + b["service"]["equiv_builds"] for b in blocks)),
        }


def _probe_p50(address, probe) -> float:
    """Median over *probe* of each single request's best round."""
    return statistics.median(harness.best_of(
        [loadgen.sequential_latencies(address, probe)
         for _ in range(PROBE_ROUNDS)]))


class HttpClosedBatches(Served):
    name = "http_closed_batches"

    def __init__(self, *args):
        super().__init__(*args)
        self.pass_walls: list[float] = []

    def measure(self, seconds: float) -> None:
        for _ in _passes(seconds, MIN_PASSES):
            latencies, answers, wall = loadgen.closed_pass(
                self.fleet.front, self.batches)
            self.plain.append(latencies)
            self.pass_walls.append(wall)
            self.pass_answers.append(answers)
            self.served_verdicts += self.verdicts()
        self.peak_rss_mb = self.fleet.peak_rss_mb()

    def wall_s(self) -> float:
        """The fastest pass.  Not the sum of per-operation bests: two
        connections contend for one server, and an operation's best
        repeat is the one on which the other connection happened to be
        light -- those moments cannot all occur in one pass."""
        return min(self.pass_walls)

    def latency_sample(self) -> list[float]:
        """Every POST of every pass.  With two connections on one server
        an operation's latency is set by what the other connection sent
        alongside it, not by a noisy neighbour; the median over all of
        them repeated within 2 % where the median of per-operation bests
        moved by 11 %."""
        return [latency for latencies in self.plain for latency in latencies]

    def layers(self, golden: dict) -> dict:
        values = self.admission_values()
        probe = self.probe(PROBE_EVERY)
        direct = _probe_p50(self.fleet.front, probe)
        self.served_verdicts += PROBE_ROUNDS * len(probe)
        service = VerificationService()
        in_process, json_s = [], []
        try:
            for _ in range(PROBE_ROUNDS):
                latencies = []
                for item in probe:
                    started = time.perf_counter()
                    request = request_from_json(json.loads(json.dumps(item)))
                    parsed = time.perf_counter()
                    [response] = service.run([request])
                    ran = time.perf_counter()
                    json.loads(json.dumps(response_to_json(response)))
                    done = time.perf_counter()
                    latencies.append(ran - parsed)
                    json_s.append((parsed - started) + (done - ran))
                in_process.append(latencies)
        finally:
            service.close()
        values["latency_p95_ms"] = harness.percentile(self.best(), 95) * 1e3
        values["service.http.overhead_ms"] = (direct - statistics.median(
            harness.best_of(in_process))) * 1e3
        values["service.http.json_ms"] = statistics.mean(json_s) * 1e3
        values.update(self.child_layers())
        return values


class RouteOpenSteps(Served):
    """Open loop: seeded Poisson arrivals at three fixed rates, one
    single-request POST each, latency from the due time."""

    name = "route_open_steps"
    REPLICAS = 2
    ROUTED = True

    def __init__(self, *args):
        super().__init__(*args)
        #: per step: [(latency s, lateness s, request id, answer|None)]
        self.steps: dict[str, list] = {}
        self.step_walls: dict[str, float] = {}

    def measure(self, seconds: float) -> None:
        rng = random.Random(f"arrivals:{self.seed}")
        singles = self.singles()
        duration = seconds / len(RATES)
        cursor = 0
        for step, rate in RATES.items():
            offsets = loadgen.arrival_times(rng, rate, duration)
            schedule = [(offset, singles[(cursor + i) % len(singles)])
                        for i, offset in enumerate(offsets)]
            cursor += len(schedule)
            rows = []
            for (offset, item), (latency, late, status, body) in zip(
                    schedule, loadgen.open_step(self.fleet.front, schedule)):
                answer = loadgen.answers_of(status, body, [item]).get(
                    item["request_id"])
                rows.append((latency, late, item["request_id"], answer,
                             offset))
            self.steps[step] = rows
            self.step_walls[step] = max(row[4] + row[0] for row in rows)
            self.served_verdicts += len(rows)
        # the unloaded routed latency, once the open-loop steps are over
        probe = self.probe(UNLOADED_EVERY)
        self.unloaded = harness.best_of(
            [loadgen.sequential_latencies(self.fleet.front, probe)
             for _ in range(PROBE_ROUNDS)])
        self.served_verdicts += PROBE_ROUNDS * len(probe)
        self.peak_rss_mb = self.fleet.peak_rss_mb()

    def rows(self) -> list:
        return [row for rows in self.steps.values() for row in rows]

    def attempted(self) -> int:
        return len(self.rows())

    def failed(self, golden: dict) -> int:
        return sum(1 for row in self.rows() if row[3] != golden.get(row[2]))

    def verdicts(self) -> int:
        return len(self.rows())

    def wall_s(self) -> float:
        """First due time to last answer, summed over the steps."""
        return sum(self.step_walls.values())

    def latency_sample(self) -> list[float]:
        """Single requests through the idle router, one connection, each
        at the best of its rounds.  Open-loop percentiles did not repeat
        on the bench box even at a fixed seed (pooled p50 within 10 %,
        the per-step ones within 12-35 %), so they are per-layer
        ``loadgen.*`` diagnostics and the end-to-end latency of this
        workload is the unloaded one."""
        return self.unloaded

    def sample_sizes(self) -> dict:
        return {**super().sample_sizes(),
                "requests": {step: len(rows)
                             for step, rows in self.steps.items()}}

    def slo_values(self, golden: dict) -> dict:
        """The shares that need the known answers: a request meets the
        limit when it was answered correctly within it."""
        def met(row) -> bool:
            return (row[3] == golden.get(row[2])
                    and row[0] * 1e3 <= SLO_LIMIT_MS)
        per_step = {step: _share(sum(map(met, rows)), len(rows))
                    for step, rows in self.steps.items()}
        within = [RATES[step] for step, share in per_step.items()
                  if share >= SLO_TARGET]
        rows = self.rows()
        return {"slo_met_share": _share(sum(map(met, rows)), len(rows)),
                "loadgen.max_rate_within_slo": max(within, default=0.0)}

    def layers(self, golden: dict) -> dict:
        values = {**self.admission_values(), **self.slo_values(golden)}
        for step, rows in self.steps.items():
            latencies = [row[0] * 1e3 for row in rows]
            values[f"loadgen.open_p50_ms.{step}"] = \
                statistics.median(latencies)
            values[f"loadgen.open_p95_ms.{step}"] = \
                harness.percentile(latencies, 95)
        values["loadgen.open_p99_ms.mid"] = harness.percentile(
            [row[0] * 1e3 for row in self.steps["mid"]], 99)
        values["loadgen.lag_p95_ms"] = harness.percentile(
            [max(0.0, row[1]) * 1e3 for row in self.rows()], 95)
        router = self.fleet.metrics("route")
        routed = [replica["routed"]
                  for replica in router["replicas"].values()]
        values["service.router.routed_balance"] = _share(
            max(routed), min(routed))
        values["service.router.failovers"] = router["failovers"]
        values["service.router.affinity_hit_rate"] = values.pop(
            "service.service.prover_pool_hit_rate")
        probe = self.probe(PROBE_EVERY)
        replica = self.fleet.replicas()[0]
        values["service.router.hop_ms"] = (
            _probe_p50(self.fleet.front, probe)
            - _probe_p50((replica.host, replica.port), probe)) * 1e3
        self.served_verdicts += 2 * PROBE_ROUNDS * len(probe)
        values.update(self.child_layers())
        return values


RUNNERS = {cls.name: cls for cls in (
    D2sProveCold, Nl2svaEquivCold, CacheWarmReplay, HttpClosedBatches,
    RouteOpenSteps)}


# -- one run -------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scale: float = workloads.SCALE,
                 import_s: float = 0.0) -> dict:
    """Set up (repeatedly), measure, check, tear down; returns the full
    result record (the driver's result line is a projection of it)."""
    runner = RUNNERS[name](seed, scale, traced)
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            runner.teardown()
            started = time.perf_counter()
            runner.setup()
            setups.append(time.perf_counter() - started)
        runner.measure(seconds)
        golden = harness.load_golden(name, seed, scale)
        label = "file" if golden is not None else "oracle"
        if golden is None:
            golden = runner.golden()
        failed = runner.failed(golden)
        attempted = runner.attempted()
        if traced:
            runner.layer_values = {**runner.layers(golden),
                                   **runner.ratios()}
    finally:
        runner.teardown()
    setup_s = import_s + statistics.median(setups)
    record = {
        "workload": name, "traced": traced, "golden": label,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "n": runner.sample_sizes(),
        "setup_runs_s": setups, "import_s": import_s,
        **harness.provenance(seed, scale),
    }
    if traced:
        values = {metric: 0.0 for metric in metrics.PER_LAYER}
        values.update({k: v for k, v in runner.layer_values.items()
                       if k in values})
        values["failed_share"] = failed / attempted
        record["metrics"] = {
            metric: {"value": float(values[metric]),
                     "unit": metrics.PER_LAYER[metric][0]}
            for metric in metrics.PER_LAYER}
    else:
        end_to_end = runner.end_to_end(setup_s, 1.0 - failed / attempted)
        record["metrics"] = {
            metric: {"value": end_to_end[metric], "unit": unit}
            for metric, (unit, _better, _bound)
            in metrics.END_TO_END.items()}
    return record
