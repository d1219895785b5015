"""Shared-reference equivalence sessions: parity and pooling.

One :class:`~repro.formal.equivalence.EquivChecker` per (reference,
widths, params, engine) now serves every candidate of a batch on one
incremental solver per horizon.  Sharing reschedules solver work -- it
must never change a record: verdict, horizons, counterexample trace +
offset and detail stay byte-identical to the
isolated per-candidate oracle (``share_equiv=False`` /
``FVEVAL_NO_EQUIV_SHARE=1``), across the serial scheduler, the thread
worker pool, the process executor, warm/cold tiered caches and the
consistent-hash router (docs/engine.md "Shared equivalence sessions").
"""

import json
from dataclasses import asdict, replace
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.core.runner import RunConfig, run_model_on_task
from repro.core.tasks import Nl2SvaHumanTask, Nl2SvaMachineTask
from repro.formal.aig import TRUE, CnfWriter
from repro.formal.equivalence import (
    EquivChecker,
    EquivSession,
    Verdict,
    check_equivalence,
)
from repro.formal.sat import Solver
from repro.models.base import GenerationRequest, SimulatedModel
from repro.service import (
    AdmissionController,
    BackgroundRouter,
    BackgroundServer,
    VerificationService,
)
from repro.sva.parser import parse_assertion

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "service_golden.json").read_text())

W = {"a": 1, "b": 1, "clk": 1, "d": 8}
REF = "assert property (@(posedge clk) a |-> ##1 b);"
CANDS = [
    "assert property (@(posedge clk) a |=> b);",           # equivalent
    "assert property (@(posedge clk) a |-> ##2 b);",       # inequivalent
    "assert property (@(posedge clk) a |-> b);",           # inequivalent
    "assert property (@(posedge clk) (a && b) |-> ##1 b);",  # weaker
    "assert property (@(posedge clk) 1);",                 # weaker still
    "assert property (@(posedge clk) d == 8'hff |-> ##1 b);",
    "not sva at all ;;",                                   # encoding error
    "assert property (@(negedge clk) a |=> b);",           # clock mismatch
]


@pytest.fixture(autouse=True)
def _hermetic_env(monkeypatch):
    for name in ("FVEVAL_CACHE", "FVEVAL_CACHE_TIERS", "FVEVAL_JOBS",
                 "FVEVAL_NO_CACHE", "FVEVAL_WORKERS",
                 "FVEVAL_EXECUTOR", "FVEVAL_NO_EQUIV_SHARE"):
        monkeypatch.delenv(name, raising=False)


def result_tuple(r):
    return (r.verdict, r.horizons, r.detail,
            json.dumps(r.counterexample, sort_keys=True), r.cex_offset)


class TestEngineParity:
    """EquivChecker (shared sessions) vs per-candidate check_equivalence."""

    def test_shared_equals_isolated(self):
        checker = EquivChecker(REF, W)
        for cand in CANDS:
            shared = checker.check(cand)
            isolated = check_equivalence(REF, cand, W)
            assert result_tuple(shared) == result_tuple(isolated), cand

    def test_same_parsed_candidate_twice(self):
        """One AST object checked twice (parsed assertions are shared by
        text): the encoder's identity-keyed expression memo must not
        hide the candidate's signal reads from the witness extraction
        (it truncated the second witness to the reference's keys)."""
        checker = EquivChecker(REF, W)
        parsed = [parse_assertion(c) for c in CANDS[:6]]
        first = [result_tuple(checker.check(c)) for c in parsed]
        assert [result_tuple(checker.check(c)) for c in parsed] == first
        assert '"d": [255, 0]' in first[5][3]
        # the ``disable iff`` suffix chain is keyed by node identity too:
        # only the abort condition reads ``d`` here, so a chain that
        # outlived the first check would drop ``d`` from the second
        # witness
        text = ("assert property (@(posedge clk) disable iff (d == 8'h01) "
                "a |-> ##2 b);")
        disabled = parse_assertion(text)
        isolated = result_tuple(check_equivalence(REF, text, W))
        assert '"d"' in isolated[3]
        for _ in range(2):
            assert result_tuple(checker.check(disabled)) == isolated

    def test_repeated_candidates_stay_identical(self):
        """The 3rd pass over a candidate (learned clauses piled up) still
        extracts the same canonical witness as the 1st."""
        checker = EquivChecker(REF, W)
        first = [result_tuple(checker.check(c)) for c in CANDS]
        for _ in range(2):
            again = [result_tuple(checker.check(c)) for c in CANDS]
            assert again == first

    def test_sessions_are_reused(self):
        checker = EquivChecker(REF, W)
        for cand in CANDS:
            checker.check(cand)
        isolated_sessions = sum(
            check_equivalence(REF, c, W).stats.get("sessions", 0)
            for c in CANDS)
        assert checker.sessions_built < isolated_sessions

    def test_max_candidates_rebuilds_sessions(self):
        checker = EquivChecker(REF, W, max_candidates=2)
        for _ in range(3):
            checker.check(CANDS[1])
        # one session serves the first two candidates; the third rebuilds
        assert checker.sessions_built == 2

    def test_swept_sat_has_concrete_counterexample(self):
        """ISSUE-10 bugfix: a query the sweeper decides TRUE used to
        return the vacuous ``{}`` witness."""
        r = check_equivalence("assert property (@(posedge clk) a);",
                              "assert property (@(posedge clk) !a);", W)
        assert r.verdict is Verdict.INEQUIVALENT
        assert r.counterexample  # concrete, not {} / None
        shared = EquivChecker("assert property (@(posedge clk) a);", W)
        assert result_tuple(shared.check(
            "assert property (@(posedge clk) !a);")) == result_tuple(r)

    def test_bad_reference_raises(self):
        with pytest.raises(ValueError):
            EquivChecker("garbage ;;", W)
        with pytest.raises(ValueError):
            check_equivalence("garbage ;;", CANDS[0], W)

    def test_candidate_parse_error_detail(self):
        r = EquivChecker(REF, W).check("garbage ;;")
        assert r.verdict is Verdict.ENCODING_ERROR
        assert r.detail.startswith("candidate parse error")


def corpus_requests():
    """Equivalence requests of the NL2SVA-Human/-Machine parity corpora:
    each problem's reference with the simulated model's samples -- the
    exact request stream the task adapters emit."""
    requests = []
    for task, name in ((Nl2SvaHumanTask(), "nl2sva_human"),
                       (Nl2SvaMachineTask(count=6), "nl2sva_machine")):
        problems = task.problems()[:4]
        model = SimulatedModel("gpt-4o")
        for index, problem in enumerate(problems):
            for response in model.generate(GenerationRequest(
                    task=name, problem=problem, n_samples=2,
                    temperature=0.8,
                    quantile=(index + 0.5) / len(problems))):
                requests.append(replace(task._equiv_request(
                    problem, response), use_cache=False))
    return requests


def service_records(**kwargs):
    service = VerificationService(**kwargs)
    try:
        return sorted(
            (r.index, r.verdict, r.func, r.partial, r.detail,
             json.dumps(r.meta.get("counterexample"), sort_keys=True),
             r.meta.get("cex_offset"))
            for r in service.run(corpus_requests()))
    finally:
        service.close()


class TestServiceParity:
    """Shared is the default service path; the isolated oracle pins it --
    counterexample traces and offsets included."""

    @pytest.fixture(scope="class")
    def oracle(self):
        return service_records(share_equiv=False)

    def test_serial(self, oracle):
        assert service_records() == oracle

    def test_worker_pool(self, oracle):
        assert service_records(workers=4) == oracle

    def test_process_executor(self, oracle):
        assert service_records(workers=4, executor="process") == oracle

    def test_env_flag_disables(self, oracle, monkeypatch):
        monkeypatch.setenv("FVEVAL_NO_EQUIV_SHARE", "1")
        service = VerificationService()
        try:
            service.run(corpus_requests())
            assert service.stats()["equiv_builds"] == 0
        finally:
            service.close()
        assert service_records() == oracle

    def test_pool_counters_engaged(self):
        service = VerificationService(share_equiv=True)
        try:
            service.run(corpus_requests())
            first = service.stats()
            assert first["equiv_builds"] > 0
            service.run(corpus_requests())
            assert service.stats()["equiv_hits"] > first["equiv_hits"]
        finally:
            service.close()

    def test_sharing_reduces_sessions(self):
        shared = VerificationService(share_equiv=True)
        isolated = VerificationService(share_equiv=False)
        try:
            shared.run(corpus_requests())
            isolated.run(corpus_requests())
            assert (shared.profile["equiv_sessions"]
                    < isolated.profile["equiv_sessions"])
            assert (shared.profile["equiv_candidates"]
                    == isolated.profile["equiv_candidates"])
        finally:
            shared.close()
            isolated.close()


def run_records(task, **config):
    result = run_model_on_task(
        "gpt-4o", task,
        RunConfig(n_samples=2, temperature=0.8, **config))
    return [asdict(r) for r in result.records], result


class TestTaskRecordParity:
    """The task adapters ride the shared path for free: golden records
    (pinned from the pre-service code) hold with sharing on and off,
    warm and cold."""

    def test_goldens_share_off(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_NO_EQUIV_SHARE", "1")
        records, _ = run_records(Nl2SvaHumanTask(), limit=4)
        assert records == GOLDEN["nl2sva_human"]
        records, _ = run_records(Nl2SvaMachineTask(count=6))
        assert records == GOLDEN["nl2sva_machine"]

    def test_goldens_share_on_workers(self):
        records, result = run_records(
            Nl2SvaMachineTask(count=6, workers=4, use_cache=False))
        assert records == GOLDEN["nl2sva_machine"]
        assert result.stats["service"]["equiv_builds"] > 0

    def test_tiered_cache_warm_cold(self, monkeypatch, tmp_path):
        from repro.service.cacheserve import BackgroundCacheServer
        with BackgroundCacheServer() as bg:
            monkeypatch.setenv("FVEVAL_CACHE", str(tmp_path))
            monkeypatch.setenv("FVEVAL_CACHE_TIERS",
                               f"memory,disk,remote={bg.address_spec}")
            cold, _ = run_records(Nl2SvaMachineTask(count=6))
            assert cold == GOLDEN["nl2sva_machine"]
            # fresh task: memory tier cold, disk/remote warm
            warm, result = run_records(Nl2SvaMachineTask(count=6))
            assert warm == GOLDEN["nl2sva_machine"]
            tiers = result.stats["cache"]["tiers"]
            assert tiers["disk"]["hits"] + tiers["remote"]["hits"] > 0


def _post(host, port, payload, timeout=60):
    conn = HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("POST", "/v1/verify", json.dumps(payload))
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _get_metrics(host, port):
    conn = HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", "/metrics")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def prefix_minimised_witness(session, lit, keys):
    """The oracle: the canonicaliser ``EquivSession`` used before its
    witness came out of the query's own solve.  Bits are fixed in
    (name, cycle, bit) order by assumption-prefix minimisation on the
    session's solver: a bit already 0 in the running model is fixed for
    free, a bit at 1 costs one *complete*, unscoped solve asking whether
    0 is feasible -- one solve per 1-bit, which is why it left ``src/``.
    """
    lit = session.sweeper.lit(lit)
    if lit == TRUE:
        return session._build_trace(keys, {})
    session.writer.encode([lit])
    prefix = [session.writer.lit(lit)]
    model = session.solver.solve(prefix).model
    values = {}
    for name, t in sorted(keys):
        bits, _w = session.source.read(name, t)
        for i, bit in enumerate(bits):
            var = session.writer.node2var.get(bit >> 1)
            if var is None:
                continue  # outside every encoded cone: lex-min 0
            if model[var]:
                result = session.solver.solve([*prefix, -var])
                if not result.is_sat:
                    values[(name, t, i)] = True
                    prefix.append(var)
                    continue
                model = result.model
            prefix.append(-var)
    return session._build_trace(keys, values)


@pytest.fixture
def oracle_checked(monkeypatch):
    """Every satisfiable witness query of the test also runs the prefix
    minimiser on the same session and must agree with it byte for byte;
    yields the list of compared witnesses."""
    compared = []
    one_solve = EquivSession._query

    def query(self, lit, max_conflicts, stats, keys=None):
        status, witness = one_solve(self, lit, max_conflicts, stats, keys)
        if status == "sat" and keys is not None:
            assert witness == prefix_minimised_witness(self, lit, keys)
            compared.append(witness)
        return status, witness

    monkeypatch.setattr(EquivSession, "_query", query)
    return compared


class TestWitnessParity:
    """Three ways to the same counterexample: the one-solve witness (lex
    bits decided first inside a cone-scoped solve), the prefix-minimiser
    oracle above, and an isolated ``check_equivalence`` -- trace and
    ``cex_offset`` byte-identical."""

    def three_ways(self, checker, reference, candidate, widths, params=None):
        shared = checker.check(candidate)
        isolated = check_equivalence(reference, candidate, widths, params)
        assert result_tuple(shared) == result_tuple(isolated), candidate
        return shared

    def test_default_corpus_subset(self, oracle_checked):
        checkers = {}
        for request in corpus_requests():
            key = (request.reference, json.dumps(request.widths,
                                                 sort_keys=True))
            checker = checkers.get(key)
            if checker is None:
                checker = checkers[key] = EquivChecker(
                    request.reference, request.widths, request.params)
            self.three_ways(checker, request.reference, request.candidate,
                            request.widths, request.params)
        assert len(oracle_checked) >= 8

    def test_generated_pairs(self, oracle_checked, machine_widths):
        """Every generated assertion against every other: mostly
        inequivalent pairs over wide signals, each reference's session
        shared by the whole row."""
        texts = [p.sva for p in
                 Nl2SvaMachineTask(count=10, seed=23).problems()]
        for reference in texts:
            checker = EquivChecker(reference, machine_widths)
            for candidate in texts:
                self.three_ways(checker, reference, candidate,
                                machine_widths)
        assert len(oracle_checked) >= 60

    def test_earlier_candidates_outside_the_cone(self, oracle_checked):
        """A session that has encoded ``d`` at several cycles for
        earlier candidates: a later candidate that never reads ``d``
        gets a trace without it, found without deciding it, and a
        candidate that reads ``d`` again gets its minimum over exactly
        the cycles it reads."""
        checker = EquivChecker(REF, W)
        wide = ["assert property (@(posedge clk) d == 8'h5a |-> ##1 b);",
                "assert property (@(posedge clk) a |-> ##2 (d > 8'd200));",
                "assert property (@(posedge clk) $past(d) != d |-> b);"]
        narrow = "assert property (@(posedge clk) a |-> b);"
        for candidate in [*wide, narrow, wide[1], narrow, *wide]:
            r = self.three_ways(checker, REF, candidate, W)
            assert ("d" in r.counterexample) == (candidate != narrow)
        session = checker._sessions[max(checker._sessions)]
        d_vars = [session.writer.node2var[bit >> 1]
                  for (name, _t), bits in session.source._cache.items()
                  if name == "d" for bit in bits
                  if bit >> 1 in session.writer.node2var]
        assert d_vars  # the session does hold them
        scopes = []
        solve = session.solver.solve
        session.solver.solve = lambda *args, **kwargs: (
            scopes.append(kwargs.get("scope")), solve(*args, **kwargs))[1]
        checker.check(narrow)
        scoped = [scope for scope in scopes if scope is not None]
        # (the oracle's solves are the unscoped ones)
        assert scoped and not any(set(scope) & set(d_vars)
                                  for scope in scoped)
        assert len(oracle_checked) >= 9

    def test_satisfiable_multiplier_in_a_shared_session(self,
                                                        oracle_checked):
        """A witness that takes conflicts and backjumps to find, in a
        session whose other cones hang off the same inputs (their
        variables are propagated, never decided or counted)."""
        widths = {"b": 6, "c": 6, "clk": 1}
        reference = ("assert property (@(posedge clk) "
                     "{6'd0, b} * {6'd0, c} != 12'd3599);")
        checker = EquivChecker(reference, widths)
        for candidate in (
                "assert property (@(posedge clk) b + c != 6'd9);",
                "assert property (@(posedge clk) (b ^ c) != 6'd6);",
                "assert property (@(posedge clk) 1);",
                "assert property (@(posedge clk) "
                "{6'd0, c} * {6'd0, b} != 12'd3599 || b < c);"):
            r = self.three_ways(checker, reference, candidate, widths)
            assert r.counterexample is not None
        assert r.stats["conflicts"] > 0

    def test_fixed_bit_order_does_not_hurt_a_hard_unsat_miter(self):
        """Conflict-count guard: deciding the witness bits first, in
        name order, at 0, must not cost a hard UNSAT miter (multiplier
        commutativity) more than 2x the conflicts of free VSIDS."""
        widths = {"a": 5, "b": 5, "c": 5, "clk": 1}
        reference = "assert property (@(posedge clk) a * b == c);"
        candidate = "assert property (@(posedge clk) b * a == c);"
        r = check_equivalence(reference, candidate, widths)
        assert r.verdict is Verdict.EQUIVALENT
        unscoped = 0
        for horizon in r.horizons:
            session = EquivSession(parse_assertion(reference), horizon,
                                   widths, 1, None)
            miter = session.aig.xor_(
                session.ref_lit, session.encoder.encode_assertion(
                    parse_assertion(candidate)))
            solver = Solver()
            writer = CnfWriter(session.aig, solver)
            writer.encode([miter])
            result = solver.solve([writer.lit(miter)])
            assert result.is_unsat
            unscoped += result.conflicts
        assert 0 < r.stats["conflicts"] <= 2 * unscoped


class TestRouterPlacement:
    """routing_signature excludes the candidate, so one reference's
    samples colocate on one replica's shared checker."""

    def test_one_reference_lands_on_one_replica(self):
        variants = [
            "assert property (@(posedge clk) a |-> b);",
            "assert property (@(posedge clk) a |=> b);",
            "assert property (@(posedge clk) a |-> ##2 b);",
            "assert property (@(posedge clk) (a && a) |-> b);",
            "assert property (@(posedge clk) !a || b);",
            "assert property (@(posedge clk) a |-> (b || b));",
        ]
        burst = [{"kind": "equivalence", "reference": REF,
                  "candidate": candidate,
                  "widths": {"a": 1, "b": 1, "clk": 1},
                  "request_id": f"e{i}", "use_cache": False}
                 for i, candidate in enumerate(variants)]
        from repro.service import request_from_json
        expected = sorted(
            (r.request_id, r.verdict, r.func, r.partial)
            for r in VerificationService().run(
                [request_from_json(dict(w)) for w in burst]))

        def replica():
            return BackgroundServer(
                service=VerificationService(),
                admission=AdmissionController(max_queue=256,
                                              max_inflight=16))

        with replica() as r1, replica() as r2, \
                BackgroundRouter(
                    ",".join(f"{s.address[0]}:{s.address[1]}"
                             for s in (r1, r2)),
                    health_interval=5.0) as router:
            host, port = router.address
            status, body = _post(host, port, burst)
            assert status == 200
            got = sorted((w["request_id"], w["verdict"], w["func"],
                          w["partial"]) for w in body)
            assert got == expected
            metrics = _get_metrics(host, port)
            routed = sorted(r["routed"]
                            for r in metrics["replicas"].values())
            # candidate-independent signatures: all six samples share
            # one replica, the other sees nothing
            assert routed == [0, 6]
