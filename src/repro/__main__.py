"""Command-line interface: ``python -m repro <command>``.

Commands:
    tables [--full] [--out DIR]     regenerate the paper's tables
    verify FILE [--assume SVA ...] [--strategy S]
                                    prove a file's assertions on itself
    equiv REF CAND [--width N=W] [--strategy S]
                                    assertion-to-assertion equivalence
    generate {fsm,pipeline} [--seed N]   emit a synthetic design to stdout
    serve [--workers N] [--deadline SECONDS]
          [--executor {thread,process}] [--http HOST:PORT]
          [--max-queue N] [--max-inflight N] [--max-deadline SECONDS]
                                    JSON-lines verification service on
                                    stdin/stdout, or an admission-
                                    controlled HTTP server with --http
                                    (docs/service.md)
    route --replicas HOST:PORT,... [--listen HOST:PORT] [--max-hops N]
          [--health-interval SECONDS] [--vnodes N]
                                    consistent-hash router over N serve
                                    replicas with design-signature
                                    affinity and bounded failover
                                    (docs/router.md)
    cache-serve [--listen HOST:PORT] [--dir DIR] [--max-entries N]
          [--max-bytes N] [--ttl SECONDS]
                                    shared warm-tier verdict-cache
                                    server for the 'remote' cache tier
                                    (docs/cache.md)
    cache-gc [DIR] [--max-age-days N] [--max-entries N] [--max-bytes N]
                                    compact an FVEVAL_CACHE directory
"""

from __future__ import annotations

import argparse
import sys

from .options import Options


def _cmd_tables(args) -> int:
    from .core import reports
    from .core.results import save_records
    kwargs = {}
    if not args.full:
        kwargs = {"models": ["gpt-4o", "gemini-1.5-flash", "llama-3-8b"]}
    print(reports.table6_corpus_stats().render(), "\n")
    print(reports.table1_nl2sva_human(**kwargs).render(), "\n")
    count = 300 if args.full else 60
    print(reports.table3_nl2sva_machine(count=count, **kwargs).render())
    return 0


def _cmd_verify(args) -> int:
    from .rtl import elaborate
    from .service import VerificationService, VerifyRequest
    with open(args.file) as fh:
        source = fh.read()
    design = elaborate(source)
    targets = design.assertions or []
    if not targets:
        print("no concurrent assertions found in the design", file=sys.stderr)
        return 1
    engine = {} if args.strategy == "auto" else {"strategy": args.strategy}
    service = VerificationService()
    responses = service.run([
        VerifyRequest(kind="prove", design=design, assertion=assertion,
                      assumes=tuple(args.assume or ()), engine=engine,
                      use_cache=False)
        for assertion in targets])
    failed = 0
    for assertion, response in zip(targets, responses):
        label = assertion.label or "<unnamed>"
        print(f"{label:24s} {response.verdict:14s} "
              f"{response.meta.get('engine', '')}")
        failed += response.verdict == "cex"
    return 1 if failed else 0


def _cmd_equiv(args) -> int:
    from .service import VerificationService, VerifyRequest
    widths = {}
    for spec in args.width or ():
        name, _, w = spec.partition("=")
        widths[name] = int(w)
    engine = {} if args.strategy == "auto" else {"strategy": args.strategy}
    service = VerificationService()
    [response] = service.run([
        VerifyRequest(kind="equivalence", reference=args.reference,
                      candidate=args.candidate, widths=widths,
                      engine=engine, use_cache=False)])
    print(response.verdict)
    cex = response.meta.get("counterexample")
    if cex:
        print("counterexample:")
        for name, values in sorted(cex.items()):
            print(f"  {name}: {values}")
    return 0 if response.func else 2


def _cmd_generate(args) -> int:
    from .datasets.design2sva.fsm_gen import FsmConfig, generate_fsm
    from .datasets.design2sva.pipeline_gen import (
        PipelineConfig, generate_pipeline,
    )
    if args.category == "fsm":
        design = generate_fsm(FsmConfig(seed=args.seed))
    else:
        design = generate_pipeline(PipelineConfig(seed=args.seed))
    print(design.source)
    return 0


def _mem_caps(max_entries: int | None, max_bytes: int | None):
    """Memory-tier caps of a long-running server: the explicit ones, else
    ``FVEVAL_CACHE_MEM_MAX``, else 65536 entries -- a server must not
    grow per distinct request forever (a disk tier still holds
    everything and is compacted by cache-gc).  Eviction is LRU."""
    if max_entries is None and max_bytes is None:
        options = Options.from_env()
        max_entries = options.max_cache_entries
        max_bytes = options.max_cache_bytes
        if max_entries is None and max_bytes is None:
            max_entries = 65536
    return max_entries, max_bytes


def _cmd_serve(args) -> int:
    from .service import (
        AdmissionController, VerificationService, serve_http, serve_stream,
    )
    max_entries, max_bytes = _mem_caps(None, None)
    admission = AdmissionController(max_queue=args.max_queue,
                                    max_inflight=args.max_inflight,
                                    max_deadline_s=args.max_deadline)
    service = VerificationService(max_cache_entries=max_entries,
                                  max_cache_bytes=max_bytes,
                                  workers=args.workers,
                                  deadline_s=args.deadline,
                                  executor=args.executor,
                                  admission=admission,
                                  cache_tiers=args.cache_tiers)
    try:
        if args.http:
            return serve_http(args.http, service, admission)
        return serve_stream(sys.stdin, sys.stdout, service, admission)
    finally:
        service.close()


def _cmd_route(args) -> int:
    from .service.router import serve_route
    return serve_route(args.replicas, args.listen,
                       max_hops=args.max_hops,
                       health_interval=args.health_interval,
                       vnodes=args.vnodes)


def _cmd_cache_serve(args) -> int:
    from .service.cacheserve import serve_cache
    max_entries, max_bytes = _mem_caps(args.max_entries, args.max_bytes)
    return serve_cache(args.listen, max_entries=max_entries,
                       max_bytes=max_bytes, disk_dir=args.dir,
                       ttl_s=args.ttl)


def _cmd_cache_gc(args) -> int:
    from .core.cache import gc_cache_dir
    root = args.dir or Options.from_env().cache_dir
    if not root:
        print("no cache directory: pass DIR or set FVEVAL_CACHE",
              file=sys.stderr)
        return 2
    kwargs = {}
    if args.max_age_days is not None:
        kwargs["max_age_s"] = args.max_age_days * 86400.0
    if args.max_entries is not None:
        kwargs["max_entries"] = args.max_entries
    if args.max_bytes is not None:
        kwargs["max_bytes"] = args.max_bytes
    if not kwargs:
        print("nothing to do: pass at least one of --max-age-days, "
              "--max-entries, --max-bytes", file=sys.stderr)
        return 2
    stats = gc_cache_dir(root, dry_run=args.dry_run, **kwargs)
    verb = "would remove" if args.dry_run else "removed"
    print(f"{root}: scanned {stats['scanned']} entries, "
          f"{verb} {stats['removed']} ({stats['bytes_freed']} bytes), "
          f"kept {stats['kept']} ({stats['bytes_kept']} bytes)")
    return 0


def _positive_seconds(text: str) -> float:
    """A deadline in seconds; zero or negative is refused (omit the flag
    for no deadline)."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"must be positive, got {text!r} (omit it for no deadline)")
    return value


#: proof-engine scheduling policies: equal to Prover.STRATEGIES (asserted
#: by tests/test_formal_portfolio.py), kept as a literal so building the
#: parser needs no engine imports
_STRATEGIES = ["auto", "bmc", "kind", "portfolio"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse definition (introspected by
    ``scripts/check_docs.py`` to keep documented flag lists honest)."""
    parser = argparse.ArgumentParser(prog="python -m repro",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="regenerate the paper's tables")
    p.add_argument("--full", action="store_true")
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("verify", help="prove a design's own assertions")
    p.add_argument("file")
    p.add_argument("--assume", action="append")
    p.add_argument("--strategy", default="auto", choices=_STRATEGIES,
                   help="proof-engine scheduling policy (default auto)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("equiv", help="check two assertions for equivalence")
    p.add_argument("reference")
    p.add_argument("candidate")
    p.add_argument("--width", action="append",
                   help="signal width, e.g. --width data=8")
    p.add_argument("--strategy", default="auto", choices=_STRATEGIES,
                   help="accepted for symmetry with verify; the bounded "
                        "equivalence engine is strategy-neutral")
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("generate", help="emit a synthetic design")
    p.add_argument("category", choices=["fsm", "pipeline"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("serve",
                       help="JSON-lines verification service on "
                            "stdin/stdout")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes of --executor process; with "
                        "more than one, responses stream out of order "
                        "with an 'index' field (default: "
                        "$FVEVAL_WORKERS, else 1; ignored inline)")
    p.add_argument("--deadline", type=_positive_seconds, default=None,
                   metavar="SECONDS",
                   help="default per-request wall-clock deadline; expiry "
                        "is a structured 'timeout' verdict (default: "
                        "$FVEVAL_DEADLINE_S, else none; must be "
                        "positive)")
    p.add_argument("--executor", default=None,
                   choices=["thread", "process"],
                   help="execution strategy: 'thread' computes inline "
                        "in the calling thread, in request order; "
                        "'process' runs work units in crash-isolated "
                        "worker processes (default: $FVEVAL_EXECUTOR, "
                        "else thread)")
    p.add_argument("--http", default=None, metavar="HOST:PORT",
                   help="serve HTTP instead of stdin/stdout JSON lines: "
                        "POST /v1/verify plus healthz/readyz/metrics "
                        "(port 0 binds an ephemeral port, printed to "
                        "stderr; docs/service.md)")
    p.add_argument("--max-queue", type=int, default=None, metavar="N",
                   help="bounded admission queue in requests; arrivals "
                        "past the high watermark get structured "
                        "'overloaded' responses (HTTP: 503 with "
                        "Retry-After) instead of queuing without bound "
                        "(default: $FVEVAL_MAX_QUEUE, else 256)")
    p.add_argument("--max-inflight", type=int, default=None, metavar="N",
                   help="cap on concurrently executing requests (also "
                        "the per-connection cap of the HTTP frontend; "
                        "default: $FVEVAL_MAX_INFLIGHT, else "
                        "min(32, 4*cores))")
    p.add_argument("--max-deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="server-wide deadline ceiling: every request's "
                        "effective deadline is clamped to this, "
                        "including requests that asked for none "
                        "(default: no ceiling)")
    p.add_argument("--cache-tiers", default=None, metavar="SPEC",
                   help="verdict-cache tier stack, e.g. "
                        "'memory,disk,remote=HOST:PORT' -- reads promote "
                        "front-ward, writes go to every tier, a dead "
                        "tier fails open; a bare 'disk' is "
                        "$FVEVAL_CACHE (default: $FVEVAL_CACHE_TIERS, "
                        "else memory,disk=$FVEVAL_CACHE when set, else "
                        "memory; docs/cache.md)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("route",
                       help="consistent-hash router over N serve "
                            "replicas (design-signature affinity)")
    p.add_argument("--replicas", required=True,
                   metavar="HOST:PORT,...",
                   help="comma-separated serve replica addresses; each "
                        "request routes to the ring owner of its design "
                        "signature, so one design cone's candidate "
                        "assertions share one replica's pooled prover "
                        "and warm cache (docs/router.md)")
    p.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                   help="listen address (default 127.0.0.1:0 -- an "
                        "ephemeral port, printed to stderr)")
    p.add_argument("--max-hops", type=int, default=3, metavar="N",
                   help="failover budget: how many distinct replicas "
                        "one request may try on connect error or 503 "
                        "before a structured overloaded/upstream "
                        "response (default 3)")
    p.add_argument("--health-interval", type=float, default=1.0,
                   metavar="SECONDS",
                   help="seconds between /readyz probes of every "
                        "replica; a failing member is ejected from the "
                        "ring and re-admitted when ready again "
                        "(default 1.0)")
    p.add_argument("--vnodes", type=int, default=64, metavar="N",
                   help="virtual nodes per ring member; more vnodes "
                        "smooth the keyspace split (default 64)")
    p.set_defaults(fn=_cmd_route)

    p = sub.add_parser("cache-serve",
                       help="shared warm-tier verdict-cache server "
                            "(the 'remote' cache tier)")
    p.add_argument("--listen", default="127.0.0.1:0", metavar="HOST:PORT",
                   help="listen address (default 127.0.0.1:0 -- an "
                        "ephemeral port, printed to stderr)")
    p.add_argument("--dir", default=None, metavar="DIR",
                   help="write-through disk directory so the warm tier "
                        "survives restarts (compacted by cache-gc; "
                        "default: memory only)")
    p.add_argument("--max-entries", type=int, default=None, metavar="N",
                   help="in-memory LRU entry cap per namespace "
                        "(default: $FVEVAL_CACHE_MEM_MAX, else 65536)")
    p.add_argument("--max-bytes", type=int, default=None, metavar="N",
                   help="approximate in-memory byte cap per namespace "
                        "(default: $FVEVAL_CACHE_MEM_MAX, else none)")
    p.add_argument("--ttl", type=float, default=None, metavar="SECONDS",
                   help="entry time-to-live: entries older than this "
                        "answer 404 and are dropped (lazy on GET plus "
                        "a periodic sweep; default: no expiry)")
    p.set_defaults(fn=_cmd_cache_serve)

    p = sub.add_parser("cache-gc",
                       help="compact a verdict-cache directory (age/LRU)")
    p.add_argument("dir", nargs="?",
                   help="cache directory (default: $FVEVAL_CACHE)")
    p.add_argument("--max-age-days", type=float,
                   help="evict entries not read for this many days")
    p.add_argument("--max-entries", type=int,
                   help="keep at most this many entries (LRU)")
    p.add_argument("--max-bytes", type=int,
                   help="keep at most this many bytes of entries (LRU)")
    p.add_argument("--dry-run", action="store_true",
                   help="report what would be evicted without deleting")
    p.set_defaults(fn=_cmd_cache_gc)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
