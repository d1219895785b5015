"""Spans around the public entry points of every layer, recorded from
outside the program.

:func:`install` wraps each entry point named in :data:`TARGETS` for the
duration of a traced run only -- a function by replacing every
``repro.*`` module attribute that *is* the original, a method on the
class that defines it -- and :func:`uninstall` puts every original
back.  No file under ``src/`` is edited.  Spans stay in memory
(:data:`SPANS`) until :func:`write_spans` writes them out at the end of
the run; :func:`layer_totals` turns them into per-layer call counts and
*self* times (a span's duration minus the part of it that its child
spans cover).

Run as a script it is the traced launcher of a server child::

    python bench/trace.py SPANS_OUT serve --http 127.0.0.1:0

which installs the wrappers, runs ``python -m repro <args>`` in this
process and writes the spans when the server has drained.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

#: span name -> ``module:function`` or ``module:Class.method``; the name
#: is the layer (module path under ``repro``) plus the operation
TARGETS = {
    "core.tasks.splice":
        "repro.datasets.design2sva.testbench_gen:merge_for_eval",
    "eval.metrics.bleu": "repro.eval.metrics:sentence_bleu",
    "rtl.parser.parse": "repro.rtl.parser:parse_rtl",
    "rtl.elaborate.elab": "repro.rtl.elaborate:elaborate",
    "sva.lexer.tokenize": "repro.sva.lexer:tokenize",
    "sva.parser.parse": "repro.sva.parser:parse_assertion",
    "sva.syntax.gate": "repro.sva.syntax:check_assertion_syntax",
    "sva.canonical.key": "repro.sva.canonical:canonical_key",
    "formal.coi.cone": "repro.formal.coi:cone_of_influence",
    "formal.prover.build": "repro.formal.prover:Prover.__init__",
    "formal.prover.prove": "repro.formal.prover:Prover.prove",
    "formal.sat.solve": "repro.formal.sat:Solver.solve",
    "formal.equivalence.check":
        "repro.formal.equivalence:EquivChecker.check",
    "service.service.run": "repro.service.service:VerificationService.run",
    "service.signature.design_sig":
        "repro.service.signature:design_signature",
    "service.signature.routing_sig":
        "repro.service.signature:routing_signature",
    "core.cache.get": "repro.core.cache:VerdictCache.get",
    "core.cache.put": "repro.core.cache:VerdictCache.put",
    "service.http.request_json": "repro.service.api:request_from_json",
    "service.http.response_json": "repro.service.api:response_to_json",
    "service.admission.admit":
        "repro.service.admission:AdmissionController.try_admit",
    "service.admission.start": "repro.service.admission:Ticket.start",
    "service.admission.finish": "repro.service.admission:Ticket.finish",
    "service.ring.lookup": "repro.service.ring:HashRing.nodes_for",
}

#: spans that carry a tag read off the call's return value: a string
#: splits the span's totals by outcome, a dict is summed as counters
_TAGS = {
    "formal.prover.prove": lambda result: result.status,
    "formal.sat.solve": lambda result: {
        "conflicts": result.conflicts, "decisions": result.decisions,
        "propagations": result.propagations},
}


def _operation(request_id) -> str:
    """The operation a wire request id (``op_id#sample``) belongs to."""
    return str(request_id or "").rpartition("#")[0]


def _first_request_id(_service, requests) -> str:
    if not isinstance(requests, (list, tuple)) or not requests:
        return ""
    return _operation(requests[0].request_id)


#: entry points that can name the request when no bench loop did
_REQUEST_IDS = {
    "service.service.run": _first_request_id,
    "service.http.request_json": lambda obj: _operation(
        obj.get("request_id") if isinstance(obj, dict) else ""),
    "service.signature.routing_sig": lambda request: _operation(
        getattr(request, "request_id", "")),
}

#: finished spans: ``[id, name, start, end, parent id, request id, tag]``
SPANS: list[list] = []

_ids = itertools.count()
_local = threading.local()


def _enter(name: str) -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    span = [next(_ids), name, 0.0, 0.0, stack[-1] if stack else -1,
            getattr(_local, "request_id", ""), ""]
    stack.append(span[0])
    span[2] = time.perf_counter()
    return span


def _exit(span: list) -> None:
    span[3] = time.perf_counter()
    _local.stack.pop()
    SPANS.append(span)


@contextmanager
def request(request_id: str, name: str = "op"):
    """A root span; every span opened under it on this thread carries
    *request_id*."""
    previous = getattr(_local, "request_id", "")
    _local.request_id = request_id
    span = _enter(name)
    try:
        yield
    finally:
        _exit(span)
        _local.request_id = previous


def _wrap(original, name: str):
    tag_of = _TAGS.get(name)
    request_id_of = _REQUEST_IDS.get(name)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        # in a server child no bench loop names the request: the first
        # entry point that sees the wire request ids adopts one
        adopted = (request_id_of is not None
                   and not getattr(_local, "request_id", ""))
        if adopted:
            _local.request_id = request_id_of(*args, **kwargs)
        span = _enter(name)
        try:
            result = original(*args, **kwargs)
            if tag_of is not None:
                span[6] = tag_of(result)
            return result
        finally:
            _exit(span)
            if adopted:
                _local.request_id = ""

    traced.__bench_original__ = original
    return traced


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def install(targets: dict[str, str] = TARGETS) -> None:
    """Wrap every target (see the module docstring)."""
    for name, path in targets.items():
        module_name, _, qualname = path.partition(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attr = qualname.split(".")
            owner = next(klass for klass in getattr(module,
                                                    class_name).__mro__
                         if attr in vars(klass))
            setattr(owner, attr, _wrap(vars(owner)[attr], name))
            continue
        original = getattr(module, qualname)
        wrapped = _wrap(original, name)
        for other in _repro_modules():
            for attr, value in list(vars(other).items()):
                if value is original:
                    setattr(other, attr, wrapped)


def _wrappers():
    """Every ``(owner, attribute, wrapper)`` still installed, found by
    scanning rather than remembered: a module first imported during the
    traced run binds the wrapper too, and must get the original back."""
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if hasattr(value, "__bench_original__"):
                yield module, attr, value
            elif isinstance(value, type):
                for member_name, member in list(vars(value).items()):
                    if hasattr(member, "__bench_original__"):
                        yield value, member_name, member


def uninstall() -> None:
    for owner, attr, wrapper in list(_wrappers()):
        setattr(owner, attr, wrapper.__bench_original__)


def still_wrapped() -> list[str]:
    """Names still bound to a wrapper (empty after :func:`uninstall`)."""
    return sorted({f"{getattr(owner, '__name__', owner)}.{attr}"
                   for owner, attr, _ in _wrappers()})


# -- span arithmetic ----------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Span id -> self time: the span's duration minus the part of its
    interval covered by the union of its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span[4], []).append((span[2], span[3]))
    out = {}
    for span in spans:
        start, end = span[2], span[3]
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(span[0], ())):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        out[span[0]] = (end - start) - covered
    return out


def layer_totals(spans) -> dict[str, dict]:
    """Per span name (and per ``name.tag`` where a span carries a string
    tag): ``calls``, ``self_s``, ``total_s``, ``by_parent`` call counts
    keyed by the calling span's layer (its name's first component) and
    ``counts``, the sums of dict tags."""
    own = self_times(spans)
    names = {span[0]: span[1] for span in spans}
    totals: dict[str, dict] = {}
    for span in spans:
        tag = span[6]
        keys = [span[1]]
        if tag and isinstance(tag, str):
            keys.append(f"{span[1]}.{tag}")
        caller = names.get(span[4], "bench").split(".")[0]
        for key in keys:
            row = totals.setdefault(key, {"calls": 0, "self_s": 0.0,
                                          "total_s": 0.0, "by_parent": {},
                                          "counts": {}})
            row["calls"] += 1
            row["self_s"] += own[span[0]]
            row["total_s"] += span[3] - span[2]
            row["by_parent"][caller] = row["by_parent"].get(caller, 0) + 1
            if isinstance(tag, dict):
                for counter, value in tag.items():
                    row["counts"][counter] = \
                        row["counts"].get(counter, 0) + value
    return totals


def write_spans(path, spans=None) -> None:
    """One JSON object per line: id, name, start, end, parent, request
    id, tag."""
    spans = SPANS if spans is None else spans
    with open(path, "w") as out:
        for span in spans:
            out.write(json.dumps(dict(zip(
                ("id", "name", "start", "end", "parent", "request_id",
                 "tag"), span))) + "\n")


def read_spans(path) -> list[list]:
    with open(path) as lines:
        return [list(json.loads(line).values()) for line in lines]


def _serve_traced(argv: list[str]) -> int:
    """Traced launcher of a ``python -m repro`` server child."""
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    sys.path[0] = str(root / "src")
    spans_out, *args = argv
    from repro.__main__ import main
    install()
    try:
        return main(args)
    finally:
        write_spans(spans_out)


if __name__ == "__main__":
    raise SystemExit(_serve_traced(sys.argv[1:]))
