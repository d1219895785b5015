"""The benchmark's names: workloads, end-to-end metrics, per-layer
metrics, and which end-to-end metric on which workload each per-layer
metric is expected to move.

``BENCHMARK.json`` at the repo root is :func:`manifest` written out
(``python bench/metrics.py`` rewrites it; ``bench/tests`` pins the two
equal).  Every later performance or simplicity claim in this repo is
made in these names.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

RUN_SECONDS = 10

WORKLOADS = {
    "d2s_prove_cold":
        "Table 5 shape: Design2SVA pass@5 proofs, cache off; rtl "
        "parse/elaborate and the formal engines do almost all the work",
    "nl2sva_equiv_cold":
        "Tables 1-4 shape: syntax gate then shared-reference equivalence; "
        "sva and formal.equivalence dominate, rtl is idle (the control "
        "for rtl/prover changes)",
    "cache_warm_replay":
        "every verdict is a cache hit (disk pass then memory passes): "
        "engines idle, what remains is splice, parse, keys, planning "
        "and core.cache reads",
    "http_closed_batches":
        "the cold work as text over one serve --http child, closed "
        "loop, 2 connections: the price of wire, admission and planning "
        "without pre-parsed ASTs",
    "route_open_steps":
        "open-loop Poisson singles at three fixed rates through route "
        "over 2 replicas: the only workload with queueing, shedding, "
        "placement and affinity",
}

IN_PROCESS = ("d2s_prove_cold", "nl2sva_equiv_cold", "cache_warm_replay")
PROVING = ("d2s_prove_cold", "cache_warm_replay", "http_closed_batches")
ALL = tuple(WORKLOADS)

#: end-to-end metrics: name -> (unit, better, bound).  Every workload
#: reports every one of them (bench/README.md gives each definition).
#: Bounds are what ten runs at ten different seeds on the 2-core bench
#: box support -- see "Bounds" in bench/README.md.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "verdicts_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.20),
}

#: tighter bounds for ``compare.py``: two result sets of the *same*
#: seeds, where input variation cancels (the issue's bounds)
SAME_SEED_BOUNDS = {
    "setup_s": 0.15,
    "wall_s": 0.05,
    "verdicts_per_s": 0.05,
    "latency_p50_ms": 0.10,
    "peak_rss_mb": 0.10,
}
#: HTTP workloads get the issue's wider wall/throughput bound
HTTP_WALL_BOUND = 0.10

_W = "wall_s"
_P50 = "latency_p50_ms"
_VPS = "verdicts_per_s"

#: per-layer metrics: name -> (unit, better, exact, moves, workloads).
#: ``exact`` marks counts that must repeat exactly at a fixed seed;
#: ``moves`` is the end-to-end metric this number should move and
#: ``workloads`` where (``wall_s`` implies ``verdicts_per_s``).
PER_LAYER = {
    # core.tasks
    "core.tasks.splice_ms": ("ms", "lower", False, _W,
                             ("d2s_prove_cold", "cache_warm_replay")),
    "eval.metrics.bleu_ms": ("ms", "lower", False, _W,
                             ("nl2sva_equiv_cold", "cache_warm_replay")),
    # rtl
    "rtl.parser.parse_ms": ("ms", "lower", False, _W, PROVING),
    "rtl.parser.calls_per_verdict": ("count", "lower", True, _W, PROVING),
    "rtl.elaborate.elab_ms": ("ms", "lower", False, _W, PROVING),
    "rtl.elaborate.calls_per_verdict": ("count", "lower", True, _W, PROVING),
    # sva
    "sva.lexer.tokenize_ms": ("ms", "lower", False, _W,
                              ("nl2sva_equiv_cold", "cache_warm_replay")),
    "sva.lexer.tokenize_calls.rtl": ("count", "lower", True, _W, PROVING),
    "sva.lexer.tokenize_calls.sva": ("count", "lower", True, _W,
                                     ("nl2sva_equiv_cold",
                                      "cache_warm_replay")),
    "sva.parser.parse_ms": ("ms", "lower", False, _W,
                            ("nl2sva_equiv_cold", "cache_warm_replay")),
    "sva.syntax.gate_ms": ("ms", "lower", False, _W,
                           ("nl2sva_equiv_cold", "cache_warm_replay")),
    "sva.canonical.key_ms": ("ms", "lower", False, _W,
                             ("nl2sva_equiv_cold", "cache_warm_replay")),
    "sva.canonical.calls_per_verdict": ("count", "lower", True, _W,
                                        ("nl2sva_equiv_cold",
                                         "cache_warm_replay")),
    # formal.prover / coi / bitsim
    "formal.coi.cone_ms": ("ms", "lower", False, _W, ("d2s_prove_cold",)),
    "formal.prover.build_ms": ("ms", "lower", False, _W,
                               ("d2s_prove_cold",)),
    "formal.prover.prove_ms.proven": ("ms", "lower", False, _W,
                                      ("d2s_prove_cold",)),
    "formal.prover.prove_ms.cex": ("ms", "lower", False, _W,
                                   ("d2s_prove_cold",)),
    "formal.prover.sim_s": ("s", "lower", False, _W, ("d2s_prove_cold",)),
    "formal.prover.bmc_s": ("s", "lower", False, _W, ("d2s_prove_cold",)),
    "formal.prover.kind_s": ("s", "lower", False, _W, ("d2s_prove_cold",)),
    "formal.prover.encode_s": ("s", "lower", False, _W,
                               ("d2s_prove_cold",)),
    "formal.prover.sat_s": ("s", "lower", False, _W, ("d2s_prove_cold",)),
    "formal.bitsim.passes": ("count", "lower", True, _W,
                             ("d2s_prove_cold",)),
    "formal.bitsim.candidates_per_pass": ("count", "higher", True, _W,
                                          ("d2s_prove_cold",)),
    # formal.sat
    "formal.sat.solve_ms": ("ms", "lower", False, _W,
                            ("d2s_prove_cold", "nl2sva_equiv_cold")),
    "formal.sat.solves": ("count", "lower", True, _W,
                          ("d2s_prove_cold", "nl2sva_equiv_cold")),
    "formal.sat.conflicts": ("count", "lower", True, _W,
                             ("d2s_prove_cold", "nl2sva_equiv_cold")),
    "formal.sat.decisions": ("count", "lower", True, _W,
                             ("d2s_prove_cold", "nl2sva_equiv_cold")),
    "formal.sat.propagations": ("count", "lower", True, _W,
                                ("d2s_prove_cold", "nl2sva_equiv_cold")),
    # formal.equivalence
    "formal.equivalence.check_ms": ("ms", "lower", False, _P50,
                                    ("nl2sva_equiv_cold",)),
    "formal.equivalence.sessions": ("count", "lower", True, _W,
                                    ("nl2sva_equiv_cold",)),
    "formal.equivalence.candidates_per_session":
        ("count", "higher", True, _W, ("nl2sva_equiv_cold",)),
    "formal.equivalence.conflicts": ("count", "lower", True, _W,
                                     ("nl2sva_equiv_cold",)),
    # service.service / signature / batch
    "service.service.plan_self_ms": ("ms", "lower", False, _W,
                                     ("cache_warm_replay",)),
    "service.signature.design_sig_ms": ("ms", "lower", False, _W,
                                        ("cache_warm_replay",)),
    "service.signature.calls_per_verdict": ("count", "lower", True, _W,
                                            ("cache_warm_replay",)),
    "service.service.dedup_share": ("share", "higher", True, _W,
                                    ("cache_warm_replay",)),
    "service.service.prover_pool_hit_rate": ("share", "higher", True, _W,
                                             ("d2s_prove_cold",)),
    "service.service.equiv_pool_hit_rate": ("share", "higher", True, _W,
                                            ("nl2sva_equiv_cold",)),
    "service.batch.pass_reduction": ("share", "higher", True, _W,
                                     ("d2s_prove_cold",)),
    # core.cache
    "core.cache.mem_get_us": ("us", "lower", False, _W,
                              ("cache_warm_replay",)),
    "core.cache.disk_get_us": ("us", "lower", False, _W,
                               ("cache_warm_replay",)),
    "core.cache.put_us": ("us", "lower", False, "setup_s",
                          ("cache_warm_replay",)),
    "core.cache.hit_rate": ("share", "higher", True, _W,
                            ("cache_warm_replay",)),
    "core.cache.promotions": ("count", "lower", True, _W,
                              ("cache_warm_replay",)),
    # service.http / admission
    "service.http.overhead_ms": ("ms", "lower", False, _P50,
                                 ("http_closed_batches",)),
    "service.http.json_ms": ("ms", "lower", False, _P50,
                             ("http_closed_batches",)),
    "service.admission.admit_us": ("us", "lower", False, _P50,
                                   ("http_closed_batches",)),
    "service.admission.shed_share": ("share", "lower", False, _VPS,
                                     ("route_open_steps",)),
    "service.admission.peak_inflight": ("count", "lower", False, _P50,
                                        ("route_open_steps",)),
    "service.admission.unit_latency_ewma_ms":
        ("ms", "lower", False, _P50,
         ("http_closed_batches", "route_open_steps")),
    # service.router / ring
    "service.router.hop_ms": ("ms", "lower", False, _P50,
                              ("route_open_steps",)),
    "service.signature.routing_sig_ms": ("ms", "lower", False, _P50,
                                         ("route_open_steps",)),
    "service.ring.lookup_us": ("us", "lower", False, _P50,
                               ("route_open_steps",)),
    "service.router.affinity_hit_rate": ("share", "higher", False, _P50,
                                         ("route_open_steps",)),
    "service.router.routed_balance": ("ratio", "lower", False, _P50,
                                      ("route_open_steps",)),
    "service.router.failovers": ("count", "lower", False, _VPS,
                                 ("route_open_steps",)),
    # loadgen: the bench's own layer
    "loadgen.open_p50_ms.low": ("ms", "lower", False, _P50,
                                ("route_open_steps",)),
    "loadgen.open_p50_ms.mid": ("ms", "lower", False, _P50,
                                ("route_open_steps",)),
    "loadgen.open_p50_ms.high": ("ms", "lower", False, _P50,
                                 ("route_open_steps",)),
    "loadgen.open_p95_ms.low": ("ms", "lower", False, _P50,
                                ("route_open_steps",)),
    "loadgen.open_p95_ms.mid": ("ms", "lower", False, _P50,
                                ("route_open_steps",)),
    "loadgen.open_p95_ms.high": ("ms", "lower", False, _P50,
                                 ("route_open_steps",)),
    "loadgen.open_p99_ms.mid": ("ms", "lower", False, _P50,
                                ("route_open_steps",)),
    "loadgen.lag_p95_ms": ("ms", "lower", False, _P50,
                           ("route_open_steps",)),
    "loadgen.max_rate_within_slo": ("1/s", "higher", False, _VPS,
                                    ("route_open_steps",)),
    # tier A/B ratios (B/A inside one traced run, on a fixed slice)
    "service.executor.thread2_ratio": ("ratio", "lower", False, _W,
                                       ("d2s_prove_cold",)),
    "service.procpool.proc2_ratio": ("ratio", "lower", False, _W,
                                     ("d2s_prove_cold",)),
    "service.batch.nobatch_ratio": ("ratio", "higher", False, _W,
                                    ("d2s_prove_cold",)),
    "formal.portfolio.ratio": ("ratio", "lower", False, _W,
                               ("d2s_prove_cold",)),
    "formal.equivalence.isolated_ratio": ("ratio", "higher", False, _W,
                                          ("nl2sva_equiv_cold",)),
    "trace.overhead_share": ("share", "lower", False, _W, IN_PROCESS),
    # end-to-end metrics of the issue kept as diagnostics (README,
    # "Dropped for cause")
    "latency_p95_ms": ("ms", "lower", False, _P50, IN_PROCESS),
    "slo_met_share": ("share", "higher", False, _P50,
                      ("route_open_steps",)),
    "failed_share": ("share", "lower", False, _VPS, ALL),
}

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, (unit, better, bound)
                       in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": row[0], "better": row[1]}
                      for name, row in PER_LAYER.items()],
    }


def problems(found: dict) -> list[str]:
    """Everything wrong with a ``BENCHMARK.json`` document *found*:
    schema limits of the driver's contract plus this benchmark's own
    rule that every per-layer metric names an existing end-to-end metric
    and workloads."""
    wrong = []
    if set(found) != {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}:
        wrong.append(f"keys: {sorted(found)}")
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in found.get(section, ())]
    wrong += [f"bad name {name!r}" for name in names
              if not _NAME.match(name)]
    wrong += [f"duplicate name {name!r}" for name in set(names)
              if names.count(name) > 1]
    if not 2 <= len(found.get("workloads", ())) <= 8:
        wrong.append("need 2..8 workloads")
    if not 1 <= len(found.get("end_to_end", ())) <= 16:
        wrong.append("need 1..16 end-to-end metrics")
    if not 1 <= len(found.get("per_layer", ())) <= 128:
        wrong.append("need 1..128 per-layer metrics")
    for entry in found.get("workloads", ()):
        if set(entry) != {"name", "why"} or len(entry["why"]) > 200 \
                or "\n" in entry["why"]:
            wrong.append(f"workload entry {entry.get('name')}")
    for entry in found.get("end_to_end", ()):
        if set(entry) != {"name", "unit", "better", "bound"} \
                or not 0 < entry["bound"] <= 0.25:
            wrong.append(f"end-to-end entry {entry.get('name')}")
    if not any(e["name"] == "setup_s" and e["unit"] == "s"
               and e["better"] == "lower"
               for e in found.get("end_to_end", ())):
        wrong.append("no setup_s")
    for entry in found.get("per_layer", ()):
        if set(entry) != {"name", "unit", "better"}:
            wrong.append(f"per-layer entry {entry.get('name')}")
    for entry in found.get("end_to_end", ()) + found.get("per_layer", ()):
        if entry.get("better") not in ("lower", "higher") or not re.match(
                r"^[A-Za-z0-9_/%.-]{1,16}$", str(entry.get("unit", ""))):
            wrong.append(f"unit/better of {entry.get('name')}")
    end_to_end = {e["name"] for e in found.get("end_to_end", ())}
    workloads = {w["name"] for w in found.get("workloads", ())}
    for name, (_u, _b, _exact, moves, where) in PER_LAYER.items():
        if moves not in end_to_end:
            wrong.append(f"{name} moves unknown metric {moves}")
        wrong += [f"{name} names unknown workload {w}" for w in where
                  if w not in workloads]
    return wrong


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
    print(f"wrote {path}")
