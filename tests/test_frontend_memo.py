"""Text -> design once: the front-end memos and late-bound assertions.

The memoised functions hand *shared* ASTs and designs to every caller,
so this suite pins (a) that the per-problem base plus a late ``bind``
equals a from-scratch merge and elaboration for every response class,
(b) that nothing downstream mutates what is shared, under every
executor, (c) the LRU's bound, order and counters, (d) that the
counters reach ``stats()``, ``RunResult.stats`` and ``/metrics``, (f)
that the text-keyed memos of per-response results -- the syntax gate,
``canonical_key`` of a text, BLEU, response snippets -- answer what a
recomputation would, per context and per caller, and (g) that a warm
replay's records therefore equal a cold run's.
"""

import hashlib
import json
import math
import pickle
import random
import sys
import threading
from collections import Counter
from dataclasses import asdict
from http.client import HTTPConnection

import pytest

from repro import memo
from repro.core.runner import RunConfig, run_model_on_task
from repro.core.tasks import Design2SvaTask, Nl2SvaHumanTask, Nl2SvaMachineTask
from repro.datasets.design2sva import arbiter_gen, testbench_gen
from repro.datasets.design2sva.sweep import build_benchmark
from repro.datasets.design2sva.testbench_gen import (
    SpliceError, merge_for_eval, parse_snippet_items, problem_base,
)
from repro.datasets.nl2sva_machine.generator import SIGNAL_WIDTHS
from repro.eval.metrics import sentence_bleu, sva_tokens
from repro.models import design_assist
from repro.models.base import GenerationRequest, SimulatedModel
from repro.rtl import (
    ElaborationError, bind, bind_text, elaborate, elaborate_base, parse_rtl,
)
from repro.rtl.ast_nodes import (
    AssertionItem, ModuleDecl, PortDecl, SourceFile,
)
from repro.rtl.parser import RtlParser, _parse_snippet, preprocess
from repro.service import (
    BackgroundServer, VerificationService, VerifyRequest, design_signature,
)
from repro.service import service as service_module
from repro.sva.canonical import CanonicalizationError, canonical_key
from repro.sva.lexer import strip_code_fences
from repro.sva.parser import ParseError, parse_assertion
from repro.sva.syntax import check_assertion_syntax

PROVER = {"max_bmc": 5, "max_k": 3, "sim_traces": 4, "sim_cycles": 16}
CATEGORIES = ("fsm", "pipeline", "arbiter")

CLOCKED = "assert property (@(posedge clk) disable iff (tb_reset) "


def problems(category, count=2):
    return build_benchmark(category, count)


def correct_response(category, design, rng):
    if category == "arbiter":
        return arbiter_gen.arbiter_correct_response(design, rng)
    return design_assist.correct_response(design, rng)


def response_classes(category, design):
    """One snippet per response class (fences already stripped)."""
    assertion = strip_code_fences(
        correct_response(category, design, random.Random(0)))
    return {
        "assertion_only": assertion,
        "support_code": "wire probe__x;\nassign probe__x = tb_reset;\n"
                        + CLOCKED + "probe__x == tb_reset);",
        "support_error": "assign no_such_net = tb_reset;\n" + assertion,
        "splice_error": "assign x = ;",
        "unresolved_signal": CLOCKED + "no_such_signal |-> tb_reset);",
        "no_assertion": "",
        "support_without_assertion": "wire lonely__x;",
        "several_assertions": assertion + "\n" + CLOCKED + "1'b1);",
    }


# -- (a) base + bind == a fresh merge and full elaboration ---------------------


def fresh_merge(design, code):
    """The merge as the pre-memo code did it: everything parsed anew,
    one module built from scratch -- the reference for the memoised
    base."""
    def fresh_parse(text):
        text, defines = preprocess(text)
        return SourceFile(RtlParser(text).parse_source(), defines)

    dut_sf, tb_sf = fresh_parse(design.source), fresh_parse(design.tb_source)
    dut, tb = dut_sf.modules[design.top], tb_sf.modules[design.top + "_tb"]
    merged = ModuleDecl(name=tb.name, port_order=list(tb.port_order),
                        ports=list(tb.ports))
    for p in tb.params + dut.params:
        if p.name not in {q.name for q in merged.params}:
            merged.params.append(p)
    items = [i for mod in (tb, dut) for i in mod.items
             if not isinstance(i, PortDecl)]
    if code.strip():
        items += _parse_snippet(code, None).items
    merged.items += items
    modules = {k: v for k, v in dut_sf.modules.items() if k != design.top}
    modules[tb.name] = merged
    return SourceFile(modules, {}), tb.name


def outcome(thunk):
    """The design, or the error a record's detail would carry."""
    try:
        return thunk()
    except (SpliceError, ValueError) as exc:
        return f"{type(exc).__name__}: {str(exc)[:160]}"


@pytest.mark.parametrize("category", CATEGORIES)
def test_base_plus_bind_equals_full_elaboration(category):
    for design in problems(category):
        for name, code in response_classes(category, design).items():
            def memoised():
                # the route the task takes: bind onto the shared base,
                # or splice support code and elaborate the merge
                if all(isinstance(item, AssertionItem)
                       for item in parse_snippet_items(code).items):
                    return bind_text(
                        problem_base(design, design.tb_source), code)
                merged = merge_for_eval(design, design.tb_source, code)
                return elaborate(merged.source_file, top=merged.top)

            def reference():
                source_file, top = fresh_merge(design, code)
                return elaborate(source_file, top=top)

            got, want = outcome(memoised), outcome(reference)
            assert got == want, (category, name)
            if isinstance(want, str):
                assert "error" in name or name == "unresolved_signal"
                continue
            assert "error" not in name and name != "unresolved_signal"
            # field for field: dataclass equality skips nothing we set
            assert repr(got) == repr(want)
            assert design_signature(got) == design_signature(want)
            assert len(got.assertions) == {
                "no_assertion": 0, "support_without_assertion": 0,
                "several_assertions": 2}.get(name, 1)


@pytest.mark.parametrize("category", CATEGORIES)
def test_route_follows_from_what_the_snippet_contains(category):
    design = problems(category, 1)[0]
    classes = response_classes(category, design)
    task = Design2SvaTask(category, count=1, prover_kwargs=dict(PROVER))
    requests = {name: task.prove_request(design, code)
                for name, code in classes.items()
                if name != "splice_error"}
    assert {name for name, r in requests.items() if r.design is None} == {
        "support_code", "support_error", "support_without_assertion"}
    base = testbench_gen._problem_base(design.source, design.tb_source,
                                       design.top).design
    # an assertion-only request names the shared base and carries its
    # text; the service binds it
    for name, request in requests.items():
        if request.design is not None:
            assert request.design is base
            assert request.assertion == classes[name]
    late = bind_text(base, classes["assertion_only"])
    # a bound design shares the base's tables and replaces only its
    # assertions; the signature is computed once for all of them
    assert late.comb_exprs is base.comb_exprs
    assert late.next_exprs is base.next_exprs
    assert late.widths is base.widths and late.derived is base.derived
    assert late.assertions is not base.assertions
    assert design_signature(late) is design_signature(base)


def test_records_equal_whichever_side_raises():
    """An unresolved signal raises in the service for both an
    assertion-only response (binding its text onto the base) and one
    with support code (elaborating the merge): same verdict, same
    detail."""
    design = problems("fsm", 1)[0]
    bad = CLOCKED + "no_such_signal |-> tb_reset);"
    task = Design2SvaTask("fsm", count=1, prover_kwargs=dict(PROVER),
                          use_cache=False)
    late, full = task.evaluate_batch(
        design, [bad, "wire spare__x;\n" + bad])
    assert late.verdict == full.verdict == "syntax_error"
    assert late.detail == full.detail \
        == f"unresolved signal 'no_such_signal' in {design.top}_tb"
    # both reached the service
    assert task.service.stats()["requests"] == 2


def test_elaborate_is_base_plus_bind():
    source = """
    module m(input clk, input a, output reg b);
      always_ff @(posedge clk) b <= a;
      p0: assert property (@(posedge clk) a |=> b);
    endmodule
    """
    sf = parse_rtl(source)
    base = elaborate_base(sf)
    assert base.assertions == []
    full = elaborate(sf)
    assert [a.label for a in full.assertions] == ["p0"]
    again = bind(base, sf.modules["m"].assertions)
    assert again == full and again is not full
    # binding never touches the base, and can be repeated
    assert base.assertions == []
    twice = bind(full, sf.modules["m"].assertions)
    assert [a.label for a in twice.assertions] == ["p0", "p0"]
    with pytest.raises(ElaborationError, match="unresolved signal 'nope'"):
        bind(base, parse_snippet_items(
            "assert property (@(posedge clk) nope);").assertions)


def test_text_sources_share_one_base_but_not_one_design():
    text = """
    module t(input clk, input a, output reg b);
      always_ff @(posedge clk) b <= a;
      assert property (@(posedge clk) a |=> b);
    endmodule
    """
    first, second = elaborate(text), elaborate(text)
    assert first == second and first is not second
    assert first.comb_exprs is second.comb_exprs
    assert elaborate_base(text) is elaborate_base(text)
    # other arguments are part of the key
    assert elaborate_base(text, reset_names=("a",)) \
        is not elaborate_base(text)
    # a caller assigning a field (the prover's reset analysis does)
    # changes its own copy only
    first.init = {"b": 1}
    assert elaborate(text).init == {}


# -- (b) aliasing: nothing shared is mutated, under any executor ----------------


def digest(value) -> str:
    """Every field of every node, through the dataclass reprs (the
    unparse of every expression is a projection of this)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("options", [
    {}, {"workers": 4}, {"executor": "process", "workers": 2}],
    ids=["serial", "threads", "process"])
def test_shared_asts_and_bases_survive_evaluation(options):
    task = Design2SvaTask("pipeline", count=2, prover_kwargs=dict(PROVER),
                          use_cache=False, **options)
    try:
        for design in task.problems():
            base = testbench_gen._problem_base(
                design.source, design.tb_source, design.top)
            shared = {"dut": parse_rtl(design.source),
                      "tb": parse_rtl(design.tb_source),
                      "modules": base.modules, "design": base.design}
            before = {name: digest(value) for name, value in shared.items()}
            signature = design_signature(base.design)
            classes = response_classes("pipeline", design)
            records = task.evaluate_batch(design, list(classes.values()))
            verdicts = dict(zip(classes, (r.verdict for r in records)))
            assert verdicts["assertion_only"] in ("proven", "cex",
                                                  "undetermined")
            assert verdicts["splice_error"] == "syntax_error"
            assert verdicts["support_error"] == "syntax_error"
            assert {name: digest(value) for name, value in shared.items()} \
                == before
            # still the memo's entry, the prover's reset analysis
            # notwithstanding
            assert testbench_gen._problem_base(
                design.source, design.tb_source, design.top) is base
            assert base.design.init == {}
            assert design_signature(base.design) is signature
    finally:
        task.service.close()


def test_parsed_assertions_are_shared_and_immutable():
    text = "assert property (@(posedge clk) a |-> ##N b);"
    first = parse_assertion(text, {"N": 2})
    assert parse_assertion(text, {"N": 2}) is first
    assert parse_assertion(text, {"N": 3}) is not first
    with pytest.raises(Exception):
        first.label = "renamed"  # frozen dataclass


# -- (c) the LRU itself --------------------------------------------------------


def test_lru_bound_order_and_counters():
    lru = memo.LruMemo("test.lru", 2)
    try:
        calls = []

        def compute(key):
            calls.append(key)
            return key.upper()

        for key in ("a", "b", "a", "c", "b"):
            assert lru.get(key, lambda: compute(key)) == key.upper()
        # a was refreshed before c arrived, so b went; then a went for b
        assert calls == ["a", "b", "c", "b"]
        assert lru.keys() == ["c", "b"]
        assert lru.stats() == {"hits": 1, "misses": 4, "evictions": 2,
                               "entries": 2}
        assert memo.stats()["test.lru"] == lru.stats()
    finally:
        del memo._MEMOS["test.lru"]


def test_failures_are_not_stored_and_raise_fresh():
    errors = []
    for _ in range(2):
        with pytest.raises(ParseError) as caught:
            parse_assertion("assert property (@(posedge clk) a |-> );")
        errors.append(caught.value)
    assert errors[0] is not errors[1] and str(errors[0]) == str(errors[1])
    with pytest.raises(ParseError):
        parse_rtl("module broken(")
    with pytest.raises(ParseError):
        elaborate("module broken(")


def test_real_memos_stay_within_capacity():
    memo.clear()
    assert memo.stats()["rtl.elaborate"]["entries"] == 0
    sources = [f"module m{i}(input a, output b); assign b = a; endmodule"
               for i in range(40)]
    for source in sources:
        elaborate(source)
    stats = memo.stats()
    for name in ("rtl.parser", "rtl.elaborate"):
        assert stats[name]["entries"] == memo._MEMOS[name].capacity < 40
    before = stats["rtl.elaborate"]
    # most recent still there, oldest long gone
    elaborate(sources[-1])
    elaborate(sources[0])
    after = memo.stats()["rtl.elaborate"]
    assert after["hits"] == before["hits"] + 1
    assert after["misses"] == before["misses"] + 1


def test_memo_under_contention():
    lru = memo.LruMemo("test.contention", 8)
    calls_per_thread, threads = 2000, 8
    wrong = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(calls_per_thread):
            key = rng.randrange(24)
            if lru.get(key, lambda: key * key) != key * key:
                wrong.append(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker, args=(seed,))
                for seed in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in pool)
    finally:
        sys.setswitchinterval(interval)
        del memo._MEMOS["test.contention"]
    stats = lru.stats()
    assert not wrong
    # a lost update would break the balance or the bound
    assert stats["hits"] + stats["misses"] == calls_per_thread * threads
    assert stats["entries"] <= 8
    assert stats["evictions"] <= stats["misses"] - stats["entries"]


# -- (d) pickling --------------------------------------------------------------


def test_design_with_cached_signature_pickles():
    design = problems("fsm", 1)[0]
    base = problem_base(design, design.tb_source)
    bound = bind_text(base, strip_code_fences(
        design_assist.correct_response(design, random.Random(0))))
    signature = design_signature(bound)
    copy = pickle.loads(pickle.dumps(bound))
    assert copy == bound
    assert copy.derived == {"signature": signature,
                            "digest": base.derived["digest"]}
    assert design_signature(copy) == signature
    # the scope stays behind: a worker proves, it does not bind
    assert copy.scope is None
    with pytest.raises(ElaborationError, match="no elaboration scope"):
        bind(copy, [])


# -- (e) the counters are readable without a profiler --------------------------

MEMOS = {"sva.parser", "rtl.parser", "rtl.elaborate", "rtl.frame",
         "design2sva.testbench",
         "sva.syntax", "sva.canonical", "eval.bleu", "eval.bleu.reference",
         "design2sva.snippet"}
COUNTERS = {"hits", "misses", "evictions", "entries"}


def test_frontend_counters_in_service_stats_and_run_result():
    result = run_model_on_task(
        "gpt-4o", Design2SvaTask("fsm", count=2,
                                 prover_kwargs=dict(PROVER)),
        RunConfig(n_samples=3, temperature=0.8))
    frontend = result.stats["service"]["frontend"]
    assert set(frontend) >= MEMOS
    assert all(set(row) == COUNTERS for row in frontend.values())
    # three samples a problem: the base is built once and hit after
    assert frontend["design2sva.testbench"]["hits"] >= 2
    assert VerificationService().stats()["frontend"].keys() \
        == frontend.keys()


def test_human_testbenches_elaborate_once():
    task = Nl2SvaHumanTask(use_cache=False)
    problem = task.problems()[0]
    task.context(problem)
    before = memo.stats()["rtl.elaborate"]
    for _ in range(3):
        task.context(problem)
    after = memo.stats()["rtl.elaborate"]
    assert after["misses"] == before["misses"]
    assert after["hits"] == before["hits"] + 3


def test_frontend_counters_in_http_metrics():
    source = """
    module dup(input clk, input a, output reg b);
      always_ff @(posedge clk) b <= a;
      assert property (@(posedge clk) a |=> b);
    endmodule
    """
    wire = {"kind": "prove", "source": source, "use_cache": False}
    with BackgroundServer() as bg:
        host, port = bg.address

        def call(method, path, payload=None):
            conn = HTTPConnection(host, port, timeout=60)
            try:
                conn.request(method, path,
                             None if payload is None else json.dumps(payload))
                return json.loads(conn.getresponse().read())
            finally:
                conn.close()

        start = call("GET", "/metrics")["service"]["frontend"]
        for _ in range(2):  # an exact-duplicate wire source
            assert call("POST", "/v1/verify", wire)["verdict"] == "proven"
        end = call("GET", "/metrics")["service"]["frontend"]
    assert set(end) >= MEMOS
    assert end["rtl.elaborate"]["misses"] \
        == start["rtl.elaborate"]["misses"] + 1
    assert end["rtl.elaborate"]["hits"] == start["rtl.elaborate"]["hits"] + 1


def test_prove_request_carries_a_design_or_a_source():
    task = Design2SvaTask("fsm", count=1, prover_kwargs=dict(PROVER))
    design = task.problems()[0]
    classes = response_classes("fsm", design)
    late = task.prove_request(design, classes["assertion_only"])
    assert late.design is not None and late.source == ""
    assert late.assertion == classes["assertion_only"]
    full = task.prove_request(design, classes["support_code"])
    assert full.design is None and isinstance(full.source, SourceFile)
    assert isinstance(late, VerifyRequest) and late.design.name == full.top


# -- (f) text-keyed memos of per-response results ------------------------------

#: the default subsets of the paper's tables (benchmarks/conftest.py):
#: the whole Human corpus, 100 Machine problems, 10 designs a category,
#: five samples each at the paper's temperature
MODEL, SAMPLES, TEMPERATURE = "gpt-4o", 5, 0.8
MACHINE_COUNT, DESIGN_COUNT = 100, 10


def bleu_oracle(candidate, reference, max_n=4):
    """The unmemoised formula: both n-gram tables rebuilt per call."""
    cand, ref = sva_tokens(candidate), sva_tokens(reference)
    if not cand or not ref:
        return 0.0

    def ngrams(tokens, n):
        return Counter(tuple(tokens[i:i + n])
                       for i in range(len(tokens) - n + 1))

    log_precision = 0.0
    for n in range(1, max_n + 1):
        cand_ngrams, ref_ngrams = ngrams(cand, n), ngrams(ref, n)
        overlap = sum(min(count, ref_ngrams[gram])
                      for gram, count in cand_ngrams.items())
        total = max(1, sum(cand_ngrams.values()))
        if n == 1:
            precision = overlap / total
            if precision == 0.0:
                return 0.0
        else:
            precision = (overlap + 1) / (total + 1)
        log_precision += math.log(precision)
    log_precision /= max_n
    brevity = min(1.0, math.exp(1 - len(ref) / max(1, len(cand))))
    return brevity * math.exp(log_precision)


@pytest.fixture(scope="module")
def scored_responses():
    """Every response the default simulated model gives over the default
    subsets, with what it is scored against: ``(response, gate context,
    params, reference)``; Design2SVA rows have no reference."""
    model = SimulatedModel(MODEL)
    human = Nl2SvaHumanTask(use_cache=False)
    machine = Nl2SvaMachineTask(count=MACHINE_COUNT, use_cache=False)
    machine_gate = {"signal_widths": dict(SIGNAL_WIDTHS),
                    "extra_signals": {"clk"}}
    rows = []
    for name, problems in (
            ("nl2sva_human", human.problems()),
            ("nl2sva_machine", machine.problems()),
            ("design2sva", build_benchmark("fsm", DESIGN_COUNT)
             + build_benchmark("pipeline", DESIGN_COUNT))):
        for index, problem in enumerate(problems):
            context = (human.context(problem) if name == "nl2sva_human"
                       else {"widths": {}, "params": {}})
            responses = model.generate(GenerationRequest(
                task=name, problem=problem, n_samples=SAMPLES,
                temperature=TEMPERATURE, params=dict(context["params"]),
                widths=dict(context["widths"]),
                quantile=(index + 0.5) / len(problems)))
            for response in responses:
                if name == "nl2sva_human":
                    rows.append((response,
                                 {"signal_widths": context["widths"],
                                  "params": context["params"]},
                                 context["params"], problem.reference))
                elif name == "nl2sva_machine":
                    rows.append((response, machine_gate, None, problem.sva))
                else:
                    rows.append((response, {}, None, None))
    return rows


def results(rows):
    """Every memoised result of every row: the gate's ``(ok, errors)``,
    the text's canonical key, then BLEU against the reference (NL2SVA)
    or the snippet's items (Design2SVA)."""
    out = []
    for response, gate, params, reference in rows:
        report = check_assertion_syntax(response, **gate)
        text = strip_code_fences(response)
        out.append((
            (report.ok, report.errors),
            outcome(lambda: canonical_key(text, params)),
            sentence_bleu(response, reference) if reference is not None
            else outcome(lambda: repr(parse_snippet_items(text).items))))
    return out


def test_memoised_results_equal_a_recomputation(scored_responses):
    rows = scored_responses
    assert len(rows) == SAMPLES * (79 + MACHINE_COUNT + 2 * DESIGN_COUNT)
    results(rows)  # fill
    before = memo.stats()
    warm = results(rows)
    after = memo.stats()
    # every gate and every score was a lookup; canonical keys and
    # snippets hit wherever the text parses (failures are not stored)
    for name in ("sva.syntax", "eval.bleu"):
        assert after[name]["misses"] == before[name]["misses"], name
    for name in ("sva.canonical", "design2sva.snippet"):
        assert after[name]["hits"] > before[name]["hits"], name
    memo.clear()
    cold = results(rows)
    assert warm == cold
    scores = [(row[2], bleu_oracle(response, reference))
              for row, (response, _, _, reference) in zip(warm, rows)
              if reference is not None]
    assert all(got == want for got, want in scores)
    # the net covers every outcome class
    gates = {ok for (ok, _), _, _ in warm}
    keys = {isinstance(key, str) and key.startswith("Canon")
            for _, key, _ in warm}
    assert gates == {True, False} and keys == {True, False}


def test_gate_memo_keys_on_every_context_argument():
    clocked = "assert property (@(posedge clk) a |-> ##N b);"
    unclocked = "assert property (a |-> b);"
    widths = {"a": 1, "clk": 1}
    cases = [
        (clocked, {}),                                       # N unbound
        (clocked, {"params": {"N": 2}}),                     # widths None
        (clocked, {"params": {"N": 2}, "signal_widths": {}}),
        (clocked, {"params": {"N": 2}, "signal_widths": widths}),
        (clocked, {"params": {"N": 2, "b": 1}, "signal_widths": widths}),
        (clocked, {"params": {"N": 2}, "signal_widths": widths,
                   "extra_signals": {"b"}}),
        (clocked, {"params": {"N": 2}, "signal_widths": widths,
                   "extra_signals": set()}),
        (unclocked, {}),
        (unclocked, {"require_clock": False}),
    ]

    def recompute(text, kwargs):
        memo.clear()
        report = check_assertion_syntax(text, **kwargs)
        return report.ok, report.errors

    want = [recompute(text, kwargs) for text, kwargs in cases]
    oks = [ok for ok, _ in want]
    assert oks == [False, True, False, False, True, True, False, False, True]
    # None and {} widths differ; so does each argument against its twin
    assert want[1] != want[2]
    assert want[3] != want[4] and want[3] != want[5] and want[3] == want[6]
    assert want[7] != want[8]
    for _ in range(2):  # the second round is all hits
        got = [(r.ok, r.errors) for r in (
            check_assertion_syntax(text, **kwargs) for text, kwargs in cases)]
        assert got == want


def test_canonical_and_bleu_memos_key_on_their_arguments():
    text = "assert property (@(posedge clk) a |-> ##N b);"
    memo.clear()
    keys = {n: canonical_key(text, {"N": n}) for n in (1, 2)}
    assert keys[1] != keys[2]
    assert keys == {n: canonical_key(text, {"N": n}) for n in (1, 2)}
    assert canonical_key(text, {"N": 1}) \
        == canonical_key(parse_assertion(text, {"N": 1}), {"N": 1})
    for _ in range(2):  # unbound N: raised afresh, never stored
        with pytest.raises(CanonicalizationError):
            canonical_key(text)
    a = "assert property (@(posedge clk) req |-> ##1 gnt);"
    b = "assert property (@(posedge clk) req |=> gnt);"
    pairs = [(a, b, 4), (b, a, 4), (a, b, 2), (a, a, 4), ("", a, 4)]
    scores = [sentence_bleu(*pair) for pair in pairs]
    assert scores == [bleu_oracle(*pair) for pair in pairs]
    assert len(set(scores)) == len(scores)
    assert scores == [sentence_bleu(*pair) for pair in pairs]


def test_callers_cannot_corrupt_a_hit():
    text = "assert property (@(posedge clk) a |-> nope);"
    widths = {"a": 1, "clk": 1}
    first = check_assertion_syntax(text, signal_widths=widths)
    assert first.errors == ["unresolved signal 'nope'"]
    first.errors.append("appended")
    first.errors[0] = "overwritten"
    first.ok = True
    again = check_assertion_syntax(text, signal_widths=widths)
    assert not again.ok and again.errors == ["unresolved signal 'nope'"]

    design = problems("fsm", 1)[0]
    code = response_classes("fsm", design)["assertion_only"]
    snippet = parse_snippet_items(code)
    assert parse_snippet_items(code) is snippet  # shared, read-only
    before = digest(snippet)
    merged = merge_for_eval(design, design.tb_source, code)
    module = merged.source_file.modules[merged.top]
    count = len(module.items)
    module.items.clear()
    module.items.append(snippet.items[-1])
    again = merge_for_eval(design, design.tb_source, code)
    module = again.source_file.modules[again.top]
    assert len(module.items) == count
    assert len(bind_text(problem_base(design, design.tb_source),
                         code).assertions) == 1
    assert digest(snippet) == before


def test_plan_reads_its_constants_once_per_flush(monkeypatch):
    from repro.options import Options
    keyed, reads = [], []
    real_key = service_module.canonical_key
    real_from_env = Options.from_env.__func__

    def counting_key(assertion, params=None):
        keyed.append("text" if isinstance(assertion, str) else "ast")
        return real_key(assertion, params)

    def counting_from_env(cls, *args, **kwargs):
        reads.append(1)
        return real_from_env(cls, *args, **kwargs)

    monkeypatch.setattr(service_module, "canonical_key", counting_key)
    monkeypatch.setattr(Options, "from_env", classmethod(counting_from_env))
    reference = "assert property (@(posedge clk) a |-> b);"
    candidates = ["assert property (@(posedge clk) a |-> ##0 b);",
                  "assert property (@(posedge clk) a |=> b);",
                  "assert property (@(posedge clk) b |-> a);",
                  "assert property (@(posedge clk) !a || b);"]
    widths = {"a": 1, "b": 1, "clk": 1}
    requests = [VerifyRequest(kind="equivalence",
                              reference_ast=parse_assertion(reference),
                              reference=reference, candidate=candidate,
                              widths=widths) for candidate in candidates]
    requests += [VerifyRequest(kind="equivalence", reference=reference,
                               candidate=candidate, widths=widths)
                 for candidate in candidates]
    service = VerificationService(cache_tiers="memory")
    try:
        responses = service.run(requests)
    finally:
        service.close()
    assert [r.verdict for r in responses[:4]] \
        == [r.verdict for r in responses[4:]]
    # one key per distinct reference (the AST and the text), one per
    # candidate text, and one options read: at construction, none per
    # flush
    assert keyed.count("ast") == 1
    assert keyed.count("text") == 1 + len(requests)
    assert reads == [1]


# -- (g) a warm replay is a cold run's records, from cache and memos -----------


def replay(family, tiers):
    """One run of *family* on a fresh service over the *tiers* stack:
    its records, field for field, and the service's cache counters."""
    service = VerificationService(cache_tiers=tiers)
    try:
        if family == "arbiter":
            task = Design2SvaTask("arbiter", count=3,
                                  prover_kwargs=dict(PROVER),
                                  service=service)
            records = []
            for i, design in enumerate(task.problems()):
                rng = random.Random(i)
                records += task.evaluate_batch(design, [
                    arbiter_gen.arbiter_correct_response(design, rng),
                    arbiter_gen.arbiter_flawed_response(design, rng)])
        else:
            task = {"human": lambda: Nl2SvaHumanTask(service=service),
                    "machine": lambda: Nl2SvaMachineTask(count=6,
                                                         service=service),
                    "fsm": lambda: Design2SvaTask(
                        "fsm", count=3, prover_kwargs=dict(PROVER),
                        service=service)}[family]()
            records = run_model_on_task(
                MODEL, task, RunConfig(n_samples=SAMPLES,
                                       temperature=TEMPERATURE,
                                       limit=6)).records
        cache = service.cache_stats()
        return ([asdict(r) for r in records],
                {name: cache[name] for name in ("hits", "misses", "puts")})
    finally:
        service.close()


@pytest.mark.parametrize("family,puts,hits", [
    ("human", 16, 30), ("machine", 9, 30), ("fsm", 14, 15),
    ("arbiter", 6, 6)])
def test_warm_replay_records_equal_the_cold_run(family, puts, hits,
                                                tmp_path, monkeypatch):
    for name in ("FVEVAL_CACHE", "FVEVAL_CACHE_TIERS", "FVEVAL_NO_CACHE",
                 "FVEVAL_JOBS"):
        monkeypatch.delenv(name, raising=False)
    tiers = f"memory,disk={tmp_path}"
    memo.clear()
    cold, cold_cache = replay(family, tiers)
    warm, warm_cache = replay(family, tiers)  # same process, memos warm
    memo.clear()
    cleared, cleared_cache = replay(family, tiers)
    assert cold == warm == cleared
    assert any(record["bleu"] for record in cold) == (
        family in ("human", "machine"))
    # the counts the verdict cache read before the text memos existed:
    # the cold run puts each distinct verdict once (in-flight dedup
    # folds a batch's duplicates), a replay hits once per cached request
    assert cold_cache == {"hits": 0, "misses": puts, "puts": puts}
    assert warm_cache == cleared_cache == {"hits": hits, "misses": 0,
                                           "puts": 0}
