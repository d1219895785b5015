#!/usr/bin/env python
"""Prover micro-benchmark: BMC / k-induction over the Design2SVA categories.

Times the end-to-end proof pipeline (merge -> elaborate -> COI -> simulate
-> BMC -> k-induction) on the three Design2SVA generator categories
(``fsm``, ``pipeline``, ``arbiter``), proving one correct and one flawed
template assertion per design -- the exact workload under Table 5.  Results
are appended to ``BENCH_prover.json`` so the performance trajectory is
tracked across PRs::

    PYTHONPATH=src python scripts/bench_prover.py --label current
    PYTHONPATH=src python scripts/bench_prover.py --count 16 --label full
    PYTHONPATH=src python scripts/bench_prover.py --profile --expect-mix

Each entry records wall-clock per category, per-proof latency, and the
verdict mix (a silent correctness regression would show up as a verdict
shift, not just a speedup).  ``--profile`` adds the per-stage breakdown
(sim = trace generation + bit-parallel replay, BMC, k-induction, encode =
property/CNF encoding, sat) plus solver statistics and per-strategy win
counts (which engine produced each verdict).  ``--scalar-sim``,
``--no-simplify`` and ``--no-cache`` disable the bit-parallel simulator,
the pre-CNF AIG sweep and the verdict memoization respectively -- together
they reproduce the pre-PR-2 engine for A/B rows.  ``--no-batch``
disables the verification service's cross-sample batch scheduler (one
falsification pass per sample instead of per cone); pair a default row
with a ``--no-batch`` row to read the packed-lane savings and dedup rate
off the ``scheduling`` block.  ``--strategy
{auto,bmc,kind,portfolio}`` selects the proof-engine scheduling policy
(``portfolio`` races BMC depth probes against k-induction steps under a
conflict-budget ladder; pair an ``auto`` row with a ``portfolio`` row for
the A/B comparison, see docs/benchmarks.md).  ``--workers N`` runs each
category as one multi-cone service batch; with ``--executor process``
its units compute in N crash-isolated worker processes -- the
fault-tolerant execution tier (docs/robustness.md) -- and without it
the batch computes inline, whatever N says.  ``--http`` drives the
identical workload through the admission-controlled HTTP frontend (an
in-process server, ``--clients`` concurrent client threads, one ``POST
/v1/verify`` batch per design) so a ``--http`` row against a plain row
reads off the wire + admission overhead.  ``--route N`` fronts N
in-process serve replicas with the consistent-hash router
(docs/router.md) and drives the same HTTP workload through it,
recording a ``route`` block -- per-replica routed counts, failover
count, and the aggregate prover-pool hit rate -- so a ``--route 1``
row against a ``--route N`` row reads off what signature affinity
preserves of prover reuse under horizontal scale.  ``--cache-tiers SPEC`` runs
the workload under a verdict-cache tier stack (docs/cache.md grammar;
a bare ``disk`` gets a fresh temp directory, a bare ``remote`` gets an
in-process ``cache-serve`` instance) and benches each category
**twice** -- a cold pass then a warm pass against the now-populated
tiers -- recording the warm wall-clock, verdict mix and speedup as a
``warm`` block on the row: the cache A/B without hand-running two
invocations.  ``--equiv-count N`` adds an ``equiv`` category -- N
NL2SVA-Machine problems, four simulated candidates each, one service
batch through the shared-reference equivalence sessions
(docs/engine.md) -- whose ``equiv`` block records sessions built,
candidates per session, total conflicts and checker-pool hits/builds;
``--no-equiv-share`` swaps in the isolated per-candidate oracle so a
row pair reads off what session sharing saves at an identical verdict
mix.  ``--expect-mix`` exits nonzero unless every category
produced both ``proven`` and ``cex`` verdicts and no errors (for the
``equiv`` category: at least one ``equivalent`` plus one
distinguishing verdict), and (with ``--cache-tiers``) the warm verdict
mix matches the cold one (the CI smoke gate; no timing assertions, so
slow shared runners cannot flake it).
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

CATEGORIES = ("fsm", "pipeline", "arbiter")

#: CI-subset prover settings (mirrors benchmarks/conftest.py DESIGN_PROVER)
PROVER_KWARGS = {"max_bmc": 6, "max_k": 4, "sim_traces": 6, "sim_cycles": 20}

#: profile keys folded into the reported simulation-falsification stage
SIM_KEYS = ("sim_gen_s", "sim_check_s")
STAGE_KEYS = ("sim_s", "sim_build_s", "sim_gen_s", "sim_check_s", "bmc_s",
              "kind_s", "encode_s", "sat_s")
SOLVER_KEYS = ("decisions", "propagations", "conflicts", "learned_db")


def _responses_for(design, rng: random.Random) -> list[str]:
    from repro.models import design_assist
    if design.category == "arbiter":
        from repro.datasets.design2sva.arbiter_gen import (
            arbiter_correct_response, arbiter_flawed_response)
        return [arbiter_correct_response(design, rng),
                arbiter_flawed_response(design, rng)]
    return [design_assist.correct_response(design, rng),
            design_assist.flawed_response(design, rng)]


def bench_category(category: str, count: int, prover_kwargs: dict,
                   use_cache: bool, with_profile: bool,
                   batching: bool = True,
                   workers: int | None = None,
                   executor: str | None = None,
                   with_cache_stats: bool = False) -> dict:
    from repro.core.tasks import Design2SvaTask
    task = Design2SvaTask(category, count=count,
                          prover_kwargs=dict(prover_kwargs),
                          use_cache=use_cache, batching=batching,
                          workers=workers, executor=executor)
    problems = task.problems()  # generation excluded from the timing
    verdicts: dict[str, int] = {}
    proofs = 0
    if workers is not None:
        # --workers A/B mode: the whole category is ONE multi-cone
        # service batch (each design a distinct signature group -- the
        # process executor's unit of placement), so a --workers 1 row vs
        # a --workers N row isolates the process pool on an identical
        # workload.  Requests come from the task's own construction
        # path (Design2SvaTask.prove_request), built outside the timing.
        requests = []
        for i, design in enumerate(problems):
            rng = random.Random(i)
            for response in _responses_for(design, rng):
                requests.append(task.prove_request(design, response))
        t0 = time.perf_counter()
        for response in task.service.run(requests):
            verdicts[response.verdict] = \
                verdicts.get(response.verdict, 0) + 1
            proofs += 1
        elapsed = time.perf_counter() - t0
    else:
        t0 = time.perf_counter()
        for i, design in enumerate(problems):
            rng = random.Random(i)
            # both template candidates of a design go in as one service
            # batch -- the unit the cross-sample scheduler packs per cone
            for record in task.evaluate_batch(design,
                                              _responses_for(design, rng)):
                verdicts[record.verdict] = \
                    verdicts.get(record.verdict, 0) + 1
                proofs += 1
        elapsed = time.perf_counter() - t0
    result = {
        "designs": len(problems),
        "proofs": proofs,
        "wall_s": round(elapsed, 4),
        "per_proof_ms": round(1000.0 * elapsed / max(1, proofs), 3),
        "verdicts": dict(sorted(verdicts.items())),
    }
    if workers is not None:
        service_stats = task.service.stats()
        hits = service_stats.get("prover_hits", 0)
        builds = service_stats.get("prover_builds", 0)
        # the worker-affinity A/B: reuse of pinned provers should hold
        # up as --workers grows (docs/router.md)
        result["prover_pool"] = {
            "hits": hits, "builds": builds,
            "hit_rate": round(hits / max(1, hits + builds), 4)}
    if with_profile:
        prof = task.profile
        stages = {k: round(prof[k], 4) for k in STAGE_KEYS if k in prof}
        stages["sim_stage_s"] = round(
            sum(prof.get(k, 0.0) for k in SIM_KEYS), 4)
        result["profile"] = stages
        result["solver"] = {k: prof[k] for k in SOLVER_KEYS if k in prof}
        result["cache"] = task.cache_stats()
        result["scheduling"] = scheduling_stats(task)
        from repro.core.reports import strategy_stats
        wins, rates, portfolio = strategy_stats(prof)
        if wins:
            result["wins"] = wins
            result["win_rates"] = {k: round(v, 4) for k, v in rates.items()}
        if portfolio:
            result["portfolio"] = portfolio
    elif with_cache_stats:
        result["cache"] = task.cache_stats()
    return result


def bench_equiv(count: int, use_cache: bool, share: bool,
                workers: int | None = None,
                executor: str | None = None) -> dict:
    """The NL2SVA-Machine equivalence workload as ONE service batch.

    *count* problems, four simulated samples each -- every reference
    checked against multiple candidates, the shape the shared-reference
    equivalence sessions (docs/engine.md) amortize.  ``share=False``
    runs the isolated per-candidate oracle instead, so a default row
    against a ``--no-equiv-share`` row is the session-sharing A/B on an
    identical workload (identical verdict mix enforced by
    ``--expect-mix``).  Requests come from the task adapter's own
    construction path (``Nl2SvaMachineTask._equiv_request``), built
    outside the timing.
    """
    from dataclasses import replace

    from repro.core.tasks import Nl2SvaMachineTask
    from repro.models.base import GenerationRequest, SimulatedModel
    from repro.service import VerificationService
    task = Nl2SvaMachineTask(count=count)
    problems = task.problems()
    model = SimulatedModel("gpt-4o")
    requests = []
    for index, problem in enumerate(problems):
        for response in model.generate(GenerationRequest(
                task="nl2sva_machine", problem=problem, n_samples=4,
                temperature=0.8,
                quantile=(index + 0.5) / max(1, len(problems)))):
            request = task._equiv_request(problem, response)
            if not use_cache:
                request = replace(request, use_cache=False)
            requests.append(request)
    service = VerificationService(share_equiv=share, workers=workers,
                                  executor=executor)
    verdicts: dict[str, int] = {}
    try:
        t0 = time.perf_counter()
        for response in service.run(requests):
            verdicts[response.verdict] = \
                verdicts.get(response.verdict, 0) + 1
        elapsed = time.perf_counter() - t0
        stats = service.stats()
        profile = dict(service.profile)
    finally:
        service.close()
    candidates = profile.get("equiv_candidates", 0)
    sessions = profile.get("equiv_sessions", 0)
    return {
        "designs": len(problems),
        "proofs": len(requests),
        "wall_s": round(elapsed, 4),
        "per_proof_ms": round(1000.0 * elapsed / max(1, len(requests)), 3),
        "verdicts": dict(sorted(verdicts.items())),
        "equiv": {
            "shared": share,
            "sessions": sessions,
            "candidates": candidates,
            "candidates_per_session": round(
                candidates / max(1, sessions), 3),
            "conflicts": profile.get("equiv_conflicts", 0),
            "pool": {"hits": stats.get("equiv_hits", 0),
                     "builds": stats.get("equiv_builds", 0)},
        },
    }


def _resolve_cache_tiers(spec: str) -> tuple[str, list]:
    """Materialize a ``--cache-tiers`` spec for a self-contained bench.

    A bare ``disk`` term (no path, no ``$FVEVAL_CACHE``) gets a fresh
    temp directory; a bare ``remote`` term gets an in-process
    ``cache-serve`` instance.  Returns the resolved spec plus cleanup
    callables to run once the bench is done.
    """
    import os
    import shutil
    import tempfile
    cleanups = []
    terms = []
    for term in spec.split(","):
        term = term.strip()
        if term == "disk" and not os.environ.get("FVEVAL_CACHE"):
            tmp = tempfile.mkdtemp(prefix="fveval-bench-cache-")
            term = f"disk={tmp}"
            cleanups.append(
                lambda t=tmp: shutil.rmtree(t, ignore_errors=True))
        elif term == "remote":
            from repro.service.cacheserve import BackgroundCacheServer
            bg = BackgroundCacheServer()
            bg.start()
            term = f"remote={bg.address_spec}"
            cleanups.append(bg.stop)
        terms.append(term)
    return ",".join(terms), cleanups


def _wire_source(design, response: str) -> str:
    """One textual RTL source that evaluates *response* like the task does.

    The HTTP frontend takes wire requests (text only, no pre-parsed
    ASTs), so the in-process testbench merge is reproduced textually:
    the generated TB mirrors every DUT port under the same name and
    adds only its extra items (the ``tb_reset`` alias), so splicing
    those items plus the fence-stripped response into the DUT's top
    module -- right before its ``endmodule`` -- yields the same scope,
    with the candidate as the design's last assertion (which is what a
    wire ``prove`` request proves).
    """
    import re
    from repro.core.tasks import strip_code_fences
    lines = design.tb_source.splitlines()
    end = lines.index("endmodule")
    last_input = max(i for i, line in enumerate(lines[:end])
                     if line.lstrip().startswith("input"))
    tb_items = "\n".join(lines[last_input + 1:end])
    src = design.source
    start = re.search(rf"\bmodule\s+{re.escape(design.top)}\b", src).start()
    splice_at = src.index("endmodule", start)
    body = tb_items + "\n" + strip_code_fences(response)
    return src[:splice_at] + "\n" + body + "\n" + src[splice_at:]


def bench_category_http(category: str, count: int, prover_kwargs: dict,
                        use_cache: bool, batching: bool = True,
                        workers: int | None = None,
                        executor: str | None = None,
                        clients: int = 4,
                        route: int | None = None) -> dict:
    """Benchmark one category through the HTTP frontend, end to end.

    The workload of :func:`bench_category` -- one correct and one
    flawed template assertion per design -- serialized to the wire and
    POSTed to an in-process ``BackgroundServer`` by *clients*
    concurrent client threads, one ``/v1/verify`` batch per design.
    Times the full path: HTTP parse, admission, scheduling, engines,
    response serialization.  With *route*, N replicas are started and
    the batches go through an in-process consistent-hash router
    instead; the result gains a ``route`` block with per-replica
    routed counts, the failover count and the aggregate prover-pool
    hit rate (docs/router.md).
    """
    import json as _json
    import queue
    import threading
    from http.client import HTTPConnection

    from repro.datasets.design2sva.sweep import build_benchmark
    from repro.service import (
        AdmissionController, BackgroundRouter, BackgroundServer,
        VerificationService,
    )

    problems = build_benchmark(category, count=count)
    batches: "queue.Queue[tuple[int, list[dict]]]" = queue.Queue()
    engine = dict(prover_kwargs)
    for i, design in enumerate(problems):
        rng = random.Random(i)
        batch = []
        for j, response in enumerate(_responses_for(design, rng)):
            batch.append({"kind": "prove",
                          "source": _wire_source(design, response),
                          "top": design.top, "engine": dict(engine),
                          "cache_ns": f"bench_http_{category}",
                          "use_cache": use_cache,
                          "request_id": f"{category}-{i}-{j}"})
        batches.put((i, batch))

    verdicts: dict[str, int] = {}
    proofs = 0
    errors: list[str] = []
    lock = threading.Lock()

    replicas_n = max(1, route) if route else 1
    members = []
    for _ in range(replicas_n):
        admission = AdmissionController()
        service = VerificationService(batching=batching, workers=workers,
                                      executor=executor,
                                      admission=admission)
        members.append((admission, service,
                        BackgroundServer(service=service,
                                         admission=admission)))
    router = None
    route_metrics = None
    try:
        for _, _, bg in members:
            bg.start()
        if route:
            spec = ",".join(f"{bg.address[0]}:{bg.address[1]}"
                            for _, _, bg in members)
            router = BackgroundRouter(spec, health_interval=5.0)
            router.start()
            host, port = router.address
        else:
            host, port = members[0][2].address

        def client():
            nonlocal proofs
            conn = HTTPConnection(host, port, timeout=600)
            try:
                while True:
                    try:
                        _, batch = batches.get_nowait()
                    except queue.Empty:
                        return
                    conn.request("POST", "/v1/verify", _json.dumps(batch))
                    reply = conn.getresponse()
                    body = _json.loads(reply.read())
                    with lock:
                        if reply.status != 200:
                            errors.append(f"status {reply.status}")
                            continue
                        for item in body:
                            verdicts[item["verdict"]] = \
                                verdicts.get(item["verdict"], 0) + 1
                            proofs += 1
            finally:
                conn.close()

        t0 = time.perf_counter()
        threads = [threading.Thread(target=client)
                   for _ in range(max(1, clients))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        admissions = [a.stats() for a, _, _ in members]
        pool_hits = sum(s.stats().get("prover_hits", 0)
                        for _, s, _ in members)
        pool_builds = sum(s.stats().get("prover_builds", 0)
                          for _, s, _ in members)
        if router is not None:
            route_metrics = router.router.metrics()
    finally:
        if router is not None:
            router.stop()
        for _, _, bg in members:
            bg.stop()
        for _, service, _ in members:
            service.close()

    if errors:
        raise RuntimeError(f"http bench had non-200 batches: {errors[:3]}")
    result = {
        "designs": len(problems),
        "proofs": proofs,
        "wall_s": round(elapsed, 4),
        "per_proof_ms": round(1000.0 * elapsed / max(1, proofs), 3),
        "verdicts": dict(sorted(verdicts.items())),
        "http": {"clients": max(1, clients),
                 "admitted_units": sum(s["admitted_units"]
                                       for s in admissions),
                 "shed_units": sum(s["shed_units"] for s in admissions),
                 "peak_inflight": max(s["peak_inflight"]
                                      for s in admissions),
                 "unit_latency_s": admissions[0]["unit_latency_s"]
                 if replicas_n == 1 else None},
    }
    if route_metrics is not None:
        hits, builds = pool_hits, pool_builds
        result["route"] = {
            "replicas": replicas_n,
            "routed": {name: r["routed"] for name, r
                       in route_metrics["replicas"].items()},
            "failovers": route_metrics["failovers"],
            "prover_pool": {
                "hits": hits, "builds": builds,
                "hit_rate": round(hits / max(1, hits + builds), 4)},
        }
    return result


def scheduling_stats(task) -> dict:
    """Batch-scheduler A/B metrics of one category run.

    ``sim_candidates`` counts assertions that reached the falsifier;
    ``sim_passes``/``sim_batch_passes`` count per-sample and packed
    cross-sample falsification passes.  ``pass_reduction`` is the
    fraction of per-candidate passes the batch scheduler saved (0 with
    ``--no-batch``); ``dedup_rate`` is the fraction of prove requests
    answered by in-flight dedup.
    """
    prof = task.profile
    service = task.service.stats()
    candidates = prof.get("sim_candidates", 0)
    passes = prof.get("sim_passes", 0) + prof.get("sim_batch_passes", 0)
    requests = service.get("requests", 0)
    return {
        "sim_candidates": candidates,
        "sim_passes": prof.get("sim_passes", 0),
        "sim_batch_passes": prof.get("sim_batch_passes", 0),
        "pass_reduction": round(1.0 - passes / candidates, 4)
        if candidates else 0.0,
        "batch_groups": service.get("batch_groups", 0),
        "batch_members": service.get("batch_members", 0),
        "dedup_hits": service.get("dedup_hits", 0),
        "dedup_rate": round(service.get("dedup_hits", 0) / requests, 4)
        if requests else 0.0,
    }


def print_profile(category: str, entry: dict) -> None:
    prof = entry.get("profile")
    if not prof:
        return
    parts = [f"sim={prof.get('sim_stage_s', 0):.3f}s"
             f" (gen={prof.get('sim_gen_s', 0):.3f}"
             f" replay={prof.get('sim_check_s', 0):.3f})",
             f"bmc={prof.get('bmc_s', 0):.3f}s",
             f"k-ind={prof.get('kind_s', 0):.3f}s",
             f"encode={prof.get('sim_build_s', 0) + prof.get('encode_s', 0):.3f}s"
             f" (prop={prof.get('sim_build_s', 0):.3f}"
             f" cnf={prof.get('encode_s', 0):.3f})",
             f"sat={prof.get('sat_s', 0):.3f}s"]
    print(f"{category:>9}  stages: " + "  ".join(parts))
    solver = entry.get("solver")
    if solver:
        print(f"{category:>9}  solver: " + "  ".join(
            f"{k}={v}" for k, v in solver.items()))
    wins = entry.get("wins")
    if wins:
        rates = entry.get("win_rates", {})
        print(f"{category:>9}  wins  : " + "  ".join(
            f"{k}={v} ({rates.get(k, 0):.0%})" for k, v in wins.items()))
    portfolio = entry.get("portfolio")
    if portfolio:
        print(f"{category:>9}  sched : " + "  ".join(
            f"{k.split('_', 1)[1]}={v}" for k, v in portfolio.items()))
    scheduling = entry.get("scheduling")
    if scheduling:
        print(f"{category:>9}  batch : "
              f"candidates={scheduling['sim_candidates']} "
              f"passes={scheduling['sim_passes']}"
              f"+{scheduling['sim_batch_passes']}packed "
              f"(saved {scheduling['pass_reduction']:.0%})  "
              f"dedup={scheduling['dedup_hits']} "
              f"({scheduling['dedup_rate']:.0%})")


def git_state() -> tuple[str, bool]:
    """Actual commit of the benched tree plus its dirty flag.

    Pre-PR-2 entries recorded whatever HEAD said even when the working
    tree carried the changes being measured; the dirty flag makes a bench
    row traceable to a real commit (or visibly not).
    """
    root = Path(__file__).resolve().parent.parent
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             cwd=root)
        rev = out.stdout.strip() or "unknown"
        status = subprocess.run(["git", "status", "--porcelain"],
                                capture_output=True, text=True, timeout=10,
                                cwd=root)
        dirty = bool(status.stdout.strip()) or status.returncode != 0
        return rev, dirty
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", False


def check_mix(entry: dict) -> list[str]:
    """Verdict-mix assertion: each category proves and refutes something."""
    problems = []
    for category, data in entry["categories"].items():
        verdicts = data["verdicts"]
        if "equiv" in data:
            # equivalence workload: the gate is one 'equivalent' plus at
            # least one distinguishing verdict (the mix a sharing bug
            # would flatten), and no crashes
            if verdicts.get("equivalent", 0) == 0:
                problems.append(f"{category}: no 'equivalent' verdicts")
            if sum(n for v, n in verdicts.items()
                   if v != "equivalent") == 0:
                problems.append(f"{category}: no non-equivalent verdicts")
            if verdicts.get("error", 0):
                problems.append(
                    f"{category}: {verdicts['error']} 'error' verdicts")
            continue
        for needed in ("proven", "cex"):
            if verdicts.get(needed, 0) == 0:
                problems.append(f"{category}: no {needed!r} verdicts")
        for bad in ("error", "syntax_error"):
            if verdicts.get(bad, 0):
                problems.append(
                    f"{category}: {verdicts[bad]} {bad!r} verdicts")
        warm = data.get("warm")
        if warm and warm["verdicts"] != verdicts:
            problems.append(
                f"{category}: warm verdict mix {warm['verdicts']} "
                f"!= cold {verdicts}")
    return problems


def build_parser() -> argparse.ArgumentParser:
    """The bench's argparse definition (introspected by
    ``scripts/check_docs.py`` to keep documented flag lists honest)."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=8,
                    help="designs per category (default 8)")
    ap.add_argument("--label", default="current",
                    help="entry label, e.g. seed / current (default current)")
    ap.add_argument("--profile", action="store_true",
                    help="record per-stage wall-clock and solver statistics")
    ap.add_argument("--scalar-sim", action="store_true",
                    help="disable the bit-parallel simulator (pre-PR-2 path)")
    ap.add_argument("--no-simplify", action="store_true",
                    help="disable the pre-CNF AIG sweep")
    ap.add_argument("--no-cache", action="store_true",
                    help="disable cross-sample verdict memoization")
    ap.add_argument("--no-batch", action="store_true",
                    help="disable cross-sample batch scheduling "
                         "(per-sample falsification passes)")
    ap.add_argument("--strategy", default="auto",
                    choices=["auto", "bmc", "kind", "portfolio"],
                    help="proof-engine scheduling policy (default auto)")
    ap.add_argument("--workers", type=int, default=None,
                    help="runs each category as one multi-cone service "
                         "batch; sizes only the --executor process pool "
                         "(pair a --workers 1 row with a --workers N row "
                         "for the process-pool A/B)")
    ap.add_argument("--executor", default=None,
                    choices=["thread", "process"],
                    help="service execution strategy; 'thread' computes "
                         "inline, 'process' computes each work unit in "
                         "crash-isolated worker processes "
                         "(pair with --workers N for the process-pool "
                         "A/B; default: $FVEVAL_EXECUTOR, else thread)")
    ap.add_argument("--http", action="store_true",
                    help="drive the workload through the HTTP frontend "
                         "(an in-process server, concurrent clients, one "
                         "POST /v1/verify batch per design) instead of "
                         "the Python API -- the wire-throughput row "
                         "(docs/service.md)")
    ap.add_argument("--clients", type=int, default=4,
                    help="with --http: concurrent client threads "
                         "(default 4)")
    ap.add_argument("--route", type=int, default=None, metavar="N",
                    help="front N in-process serve replicas with the "
                         "consistent-hash router and drive the HTTP "
                         "workload through it (implies --http); the "
                         "row gains a 'route' block -- per-replica "
                         "routed counts, failovers, prover-pool hit "
                         "rate -- so --route 1 vs --route N reads off "
                         "affinity under scale (docs/router.md)")
    ap.add_argument("--cache-tiers", default=None, metavar="SPEC",
                    help="verdict-cache tier stack (docs/cache.md "
                         "grammar, e.g. memory,disk,remote; a bare "
                         "'disk' gets a temp directory, a bare "
                         "'remote' an in-process cache-serve); each "
                         "category runs twice -- cold then warm -- "
                         "and the row records the warm A/B block")
    ap.add_argument("--equiv-count", type=int, default=None, metavar="N",
                    help="add an 'equiv' category: N NL2SVA-Machine "
                         "problems, four simulated samples each, run as "
                         "one service batch through the shared-reference "
                         "equivalence sessions (docs/engine.md); the row "
                         "gains an 'equiv' block -- sessions built, "
                         "candidates per session, total conflicts, "
                         "checker-pool hits/builds -- so a default row "
                         "against a --no-equiv-share row reads off what "
                         "session sharing saves")
    ap.add_argument("--no-equiv-share", action="store_true",
                    help="with --equiv-count: run the isolated "
                         "per-candidate oracle (one solver pair per "
                         "candidate, as FVEVAL_NO_EQUIV_SHARE=1 would) "
                         "instead of shared sessions -- the B side of "
                         "the session-sharing A/B")
    ap.add_argument("--expect-mix", action="store_true",
                    help="fail unless every category has proven+cex verdicts")
    ap.add_argument("--output", default=str(
        Path(__file__).resolve().parent.parent / "BENCH_prover.json"))
    return ap


def main() -> int:
    args = build_parser().parse_args()

    prover_kwargs = dict(PROVER_KWARGS)
    if args.scalar_sim:
        prover_kwargs["use_packed_sim"] = False
    if args.no_simplify:
        prover_kwargs["simplify"] = False
    if args.strategy != "auto":
        # only non-default strategies enter the prover kwargs (and hence
        # the verdict-cache engine key), so existing 'auto' rows and cache
        # entries stay comparable
        prover_kwargs["strategy"] = args.strategy

    rev, dirty = git_state()
    entry = {
        "label": args.label,
        "git_rev": rev,
        "git_dirty": dirty,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "count": args.count,
        "strategy": args.strategy,
        "workers": args.workers,
        "executor": args.executor,
        "prover_kwargs": dict(prover_kwargs),
        "use_cache": not args.no_cache,
        "batch": not args.no_batch,
        "categories": {},
    }
    if args.http or args.route:
        entry["http"] = True
    if args.route:
        entry["route"] = args.route
    if args.equiv_count:
        entry["equiv_count"] = args.equiv_count
        entry["equiv_share"] = not args.no_equiv_share

    cache_cleanups: list = []
    if args.cache_tiers:
        import os
        spec, cache_cleanups = _resolve_cache_tiers(args.cache_tiers)
        os.environ["FVEVAL_CACHE_TIERS"] = spec
        entry["cache_tiers"] = spec

    def run_category(category):
        if args.http or args.route:
            return bench_category_http(
                category, args.count, prover_kwargs,
                use_cache=not args.no_cache,
                batching=not args.no_batch, workers=args.workers,
                executor=args.executor, clients=args.clients,
                route=args.route)
        return bench_category(
            category, args.count, prover_kwargs,
            use_cache=not args.no_cache, with_profile=args.profile,
            batching=not args.no_batch, workers=args.workers,
            executor=args.executor,
            with_cache_stats=bool(args.cache_tiers))

    try:
        for category in CATEGORIES:
            data = run_category(category)
            if args.cache_tiers:
                # the A/B second pass: a fresh task whose memory tier
                # is cold but whose disk/remote tiers the cold pass
                # just populated
                warm = run_category(category)
                data["warm"] = {
                    k: warm[k]
                    for k in ("wall_s", "per_proof_ms", "verdicts")}
                if "cache" in warm:
                    data["warm"]["cache"] = warm["cache"]
                if warm["wall_s"] > 0:
                    data["warm"]["speedup"] = round(
                        data["wall_s"] / warm["wall_s"], 3)
            entry["categories"][category] = data
            print(f"{category:>9}: designs={data['designs']} "
                  f"proofs={data['proofs']} wall={data['wall_s']}s "
                  f"per_proof={data['per_proof_ms']}ms "
                  f"verdicts={data['verdicts']}")
            if "warm" in data:
                warm = data["warm"]
                print(f"{category:>9}  warm : wall={warm['wall_s']}s "
                      f"per_proof={warm['per_proof_ms']}ms "
                      f"speedup={warm.get('speedup', 'n/a')}x "
                      f"verdicts={warm['verdicts']}")
            if "route" in data:
                block = data["route"]
                pool = block["prover_pool"]
                print(f"{category:>9}  route: replicas={block['replicas']} "
                      f"routed={sorted(block['routed'].values())} "
                      f"failovers={block['failovers']} "
                      f"pool_hit_rate={pool['hit_rate']:.0%}")
            if "prover_pool" in data:
                pool = data["prover_pool"]
                print(f"{category:>9}  pool : hits={pool['hits']} "
                      f"builds={pool['builds']} "
                      f"hit_rate={pool['hit_rate']:.0%}")
            print_profile(category, data)
        if args.equiv_count:
            data = bench_equiv(args.equiv_count,
                               use_cache=not args.no_cache,
                               share=not args.no_equiv_share,
                               workers=args.workers,
                               executor=args.executor)
            entry["categories"]["equiv"] = data
            eq = data["equiv"]
            print(f"{'equiv':>9}: designs={data['designs']} "
                  f"proofs={data['proofs']} wall={data['wall_s']}s "
                  f"per_proof={data['per_proof_ms']}ms "
                  f"verdicts={data['verdicts']}")
            print(f"{'equiv':>9}  sess : shared={eq['shared']} "
                  f"sessions={eq['sessions']} "
                  f"cands/session={eq['candidates_per_session']} "
                  f"conflicts={eq['conflicts']} "
                  f"pool={eq['pool']['hits']}h/{eq['pool']['builds']}b")
    finally:
        for cleanup in cache_cleanups:
            cleanup()

    path = Path(args.output)
    doc = {"runs": []}
    if path.exists():
        doc = json.loads(path.read_text())
    doc.setdefault("runs", []).append(entry)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"appended entry {args.label!r} to {path}")

    if args.expect_mix:
        problems = check_mix(entry)
        if problems:
            print("verdict-mix check FAILED:")
            for p in problems:
                print(f"  {p}")
            return 1
        print("verdict-mix check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
