"""A wire ``prove`` source binds onto its problem's base.

Over the wire every pass@k sample of a Design2SVA problem carries the
whole merged text: DUT, testbench items and the sample's assertions
before ``endmodule``.  ``rtl.elaborate`` splits such a text at the
*frame* its parse recorded (the run of assertion items that ends the top
module) and binds the tail onto the base of prefix + suffix, built once
per problem.  The split must be invisible, so this suite pins that (a)
over every wire sample of the fsm, pipeline and arbiter generators and
several seeds, the split path gives the design the full path gives --
signature, unparsed assertions, every field -- and the service the same
response; (b) each edge of the split (token boundaries, directives,
support code, a second module, comments and strings, earlier and nested
assertions, labels, ``top``, a tail that fails only at bind) agrees with
the full path, error text included; (c) the router signs what the
replica pools on, on either path; (d) nothing the frame table shares is
mutated by serving; and (e) the table's counters reach ``stats()``.
"""

import hashlib
import importlib
import random
import re
import sys
import threading

import pytest

from repro import memo
from repro.datasets.design2sva import arbiter_gen
from repro.datasets.design2sva.sweep import build_benchmark
from repro.models.base import GenerationRequest, SimulatedModel
from repro.rtl import elaborate, elaborate_base, parse_rtl
from repro.rtl import parser as parser_module
from repro.rtl.parser import _parse_rtl
from repro.service import (
    VerificationService, VerifyRequest, design_signature, routing_signature,
)
from repro.service.service import PlanEntry
from repro.sva.lexer import strip_code_fences
from repro.sva.unparse import unparse

#: the module (``repro.rtl.elaborate`` is also the function's name)
elaborate_module = importlib.import_module("repro.rtl.elaborate")

PROVER = {"max_bmc": 5, "max_k": 3, "sim_traces": 4, "sim_cycles": 16}
CATEGORIES = ("fsm", "pipeline", "arbiter")
MODEL, SAMPLES, TEMPERATURE = "gpt-4o", 5, 0.8
CLOCKED = "assert property (@(posedge clk) disable iff (tb_reset) "


@pytest.fixture(autouse=True)
def _cold_memos():
    memo.clear()
    yield
    memo.clear()


def wire_source(design, response: str) -> str:
    """The merged text a wire client sends for one sample (the shape
    ``bench/workloads.py`` posts): the testbench's own items and the
    fence-stripped response spliced into the DUT's top module, right
    before its ``endmodule``."""
    lines = design.tb_source.splitlines()
    end = lines.index("endmodule")
    last_input = max(i for i, line in enumerate(lines[:end])
                     if line.lstrip().startswith("input"))
    body = ("\n".join(lines[last_input + 1:end]) + "\n"
            + strip_code_fences(response))
    source = design.source
    start = re.search(rf"\bmodule\s+{re.escape(design.top)}\b",
                      source).start()
    at = source.index("endmodule", start)
    return source[:at] + "\n" + body + "\n" + source[at:]


def responses(category, design, index, count) -> list[str]:
    """The simulated model's samples for one problem, plus one response
    of each class that must take the full path."""
    if category == "arbiter":
        rng = random.Random(index)
        sampled = [arbiter_gen.arbiter_correct_response(design, rng),
                   arbiter_gen.arbiter_flawed_response(design, rng)]
    else:
        sampled = SimulatedModel(MODEL).generate(GenerationRequest(
            task="design2sva", problem=design, n_samples=SAMPLES,
            temperature=TEMPERATURE, quantile=(index + 0.5) / count))
    return sampled + [
        "wire probe__x;\nassign probe__x = tb_reset;\n"
        + CLOCKED + "probe__x == tb_reset);",
        CLOCKED + "no_such_signal |-> tb_reset);",
        "assign x = ;",
    ]


def wire_problems(seed: int, count: int = 3):
    """``(category, design, [wire texts])`` for *count* problems of each
    category at dataset *seed*."""
    for category in CATEGORIES:
        for index, design in enumerate(
                build_benchmark(category, count, seed)):
            yield category, design, [
                wire_source(design, response)
                for response in responses(category, design, index, count)]


def outcome(thunk):
    """The design, or the error text a ``syntax_error`` detail carries."""
    try:
        return thunk()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def full(text, top=None):
    """The full path, unmemoised: a fresh parse of the whole text,
    elaborated."""
    return outcome(lambda: elaborate(_parse_rtl(text), top=top))


def assert_same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert design_signature(got) == design_signature(want)
    assert [unparse(a) for a in got.assertions] \
        == [unparse(a) for a in want.assertions]
    # field for field: dataclass reprs skip only derived and scope
    assert repr(got) == repr(want)


def parses() -> int:
    stats = memo.stats()["rtl.parser"]
    return stats["hits"] + stats["misses"]


def split_or_full(text, top=None):
    """``(path, outcome)`` of ``elaborate(text)``: "split" when it bound
    onto a learned frame without calling ``parse_rtl``."""
    before = parses()
    got = outcome(lambda: elaborate(text, top=top))
    return ("split" if parses() == before else "full"), got


# -- (a) the differential net ---------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_path_equals_full_elaboration(seed):
    paths = []
    for category, design, texts in wire_problems(seed, 6):
        for text in texts:
            path, got = split_or_full(text, design.top)
            assert_same(got, full(text, design.top))
            paths.append(path)
    # the net exercises both paths: most samples bind onto their
    # problem's base, the first of each problem and every support-code
    # or failing one take the full path
    assert paths.count("split") > len(paths) // 3
    assert paths.count("full") >= 18


def _frames_off(monkeypatch):
    """Force the full path: no parse records a frame."""
    memo.clear()
    monkeypatch.setattr(parser_module, "_frames", lambda text, parser: {})


def _serve(texts, top, **options):
    service = VerificationService(**options)
    try:
        return [(r.request_id, r.verdict, r.func, r.partial, r.detail,
                 r.meta)
                for r in service.run([
                    VerifyRequest(kind="prove", source=text, top=top,
                                  engine=dict(PROVER), use_cache=False,
                                  request_id=f"s{i}")
                    for i, text in enumerate(texts)])]
    finally:
        service.close()


def test_service_responses_equal_the_full_path(monkeypatch):
    problems = [next(p for p in wire_problems(seed, 1) if p[0] == category)
                for seed, category in zip((0, 1, 2), CATEGORIES)]
    split = [_serve(texts, design.top) for _, design, texts in problems]
    assert memo.stats()["rtl.frame"]["hits"] >= 6
    _frames_off(monkeypatch)
    reference = [_serve(texts, design.top) for _, design, texts in problems]
    assert memo.stats()["rtl.frame"]["entries"] == 0
    assert split == reference
    verdicts = {row[1] for rows in split for row in rows}
    assert {"proven", "syntax_error"} <= verdicts


# -- (b) edges of the split -----------------------------------------------------

SUB = """module sub(input clk, input d, output reg r);
  always_ff @(posedge clk) r <= d;
  assert property (@(posedge clk) r |-> 1'b1);
endmodule
"""

TOP = """module m(input clk, input a, output reg q);
  parameter N = 2;
  reg [3:0] cnt;
  wire r;
  always_ff @(posedge clk) q <= a;
  always_ff @(posedge clk) cnt <= cnt + 4'd1;
  sub u(.clk(clk), .d(a), .r(r));
{body}
endmodule
"""

A1 = "  assert property (@(posedge clk) a |=> q);"
A2 = "  assert property (@(posedge clk) cnt != 4'd9);"


def text_of(body, head=""):
    return head + SUB + TOP.format(body=body)


def learned(learn, top=None):
    """Teach the frame table *learn*'s frame (through the full path)."""
    memo.clear()
    outcome(lambda: elaborate(learn, top=top))


def check(learn, text, top=None) -> str:
    """Elaborate *text* after *learn* taught its frame; the result must
    be the full path's.  Returns the path taken."""
    learned(learn, top)
    path, got = split_or_full(text, top)
    assert_same(got, full(text, top))
    return path


def labels(text, top=None):
    return [a.label for a in elaborate(text, top=top).assertions]


def test_sibling_samples_bind_onto_one_base():
    learn, text = text_of(A1), text_of(A2)
    assert check(learn, text) == "split"
    # the child module's assertion, then the sample's
    design = elaborate(text)
    assert len(design.assertions) == 2
    # the base is the text base of prefix + suffix: one digest, one
    # signature for every sample of the problem
    prefix, suffix, length = parse_rtl(learn).frames["m"]
    assert length == 1
    base = elaborate_base(prefix + suffix)
    assert design.derived is base.derived is elaborate(learn).derived
    assert design_signature(design) is design_signature(base)
    assert base.derived["digest"]


def test_no_whitespace_at_a_boundary_records_no_frame():
    tight_prefix = text_of(A1).replace("r(r));\n" + A1, "r(r));" + A1.strip())
    tight_suffix = text_of(A1).replace(A1 + "\n", A1)
    for learn in (tight_prefix, tight_suffix):
        assert "m" not in parse_rtl(learn).frames
        assert check(learn, learn.replace("a |=> q", "a |-> q")) == "full"


def test_macros_in_the_tail():
    head = "`define HI 1'b1\n"
    learn = text_of(A1, head)
    # a macro use is substituted before the compare: its tail is plain
    use = text_of("  assert property (@(posedge clk) q != `HI);", head)
    assert check(learn, use) == "split"
    # a define line in the tail is removed by the preprocessor
    define = text_of("`define LO 1'b0\n"
                     "  assert property (@(posedge clk) q != `LO);", head)
    check(learn, define)
    # an undefined macro fails in the preprocessor, as the full path does
    assert check(learn, text_of("  assert property (@(posedge clk) `NO);",
                                head)) == "full"
    # a directive the preprocessor leaves in place is never split
    assert check(learn, text_of(A2 + " `define", head)) == "full"
    # nor is a macro use past its eight rounds of substitution: the
    # snippet parser would read `N as parameter N, the full parse as an
    # unknown signal
    chain = "".join(f"`define M{i} `M{i + 1}\n" for i in range(1, 8))
    chain += "`define M8 `N\n"
    deep = text_of("  assert property (@(posedge clk) cnt != `M1);", chain)
    assert check(text_of(A1, chain), deep) == "full"
    assert full(deep) == "ElaborationError: unresolved signal '`N' in m"


def test_support_code_in_the_tail_takes_the_full_path():
    for assertion in ("  assert property (@(posedge clk) w |=> q);", A2):
        support = text_of("  wire w;\n  assign w = a;\n" + assertion)
        assert check(text_of(A1), support) == "full"


def test_endmodule_in_the_tail_takes_the_full_path():
    second = text_of(A2 + "\nendmodule\nmodule extra(input clk, input b);\n"
                     "  assert property (@(posedge clk) b);")
    assert check(text_of(A1), second) == "full"
    assert elaborate(second).name == "extra"


@pytest.mark.parametrize("tail", [
    A2 + " /* open", A2 + " // closed by the suffix' newline",
    A2 + ' "open', "  /* closed */" + A2])
def test_comments_and_strings_in_the_tail(tail):
    check(text_of(A1), text_of(tail))


def test_earlier_assertions_stay_in_the_base_and_bind_first():
    body = "  p0: assert property (@(posedge clk) a |=> q);\n  wire w;\n" \
           "  assign w = a;\n"
    learn = text_of(body + "  p1: assert property (@(posedge clk) w);")
    text = text_of(body + "  p2: assert property (@(posedge clk) !w);")
    assert check(learn, text) == "split"
    assert labels(text) == [None, "p0", "p2"]


def test_assertions_in_a_generate_block():
    nested = text_of("  generate\n" + A1 + "\n  endgenerate")
    # a generate block is not part of the run: no frame
    assert "m" not in parse_rtl(nested).frames
    assert check(nested, nested.replace("a |=> q", "a |-> q")) == "full"
    # one in the tail parses to top-level assertion items, as in the
    # full parse
    check(text_of(A1), text_of("  generate\n" + A2 + "\n  endgenerate"))


def test_labelled_assertions():
    learn = text_of("  p1: " + A1.strip())
    text = text_of("  q1: " + A1.strip() + "\n  q2: " + A2.strip())
    assert check(learn, text) == "split"
    assert labels(text) == [None, "q1", "q2"]


def test_top_selects_the_frame():
    learn, text = text_of(A1), text_of(A2)
    # a frame of sub, which is not the last module
    sub_learn = learn.replace("r |-> 1'b1", "r |-> r")
    assert check(learn, sub_learn, top="sub") == "split"
    assert check(learn, text, top="m") == "split"
    # frames are kept per top as given: None and "m" learn separately
    learned(learn, top="m")
    assert split_or_full(text)[0] == "full"
    assert split_or_full(text_of(A1 + "\n" + A2))[0] == "split"


def test_a_tail_that_fails_at_bind_reports_the_full_path_error():
    bad = text_of("  assert property (@(posedge clk) nope);")
    assert check(text_of(A1), bad) == "full"
    assert full(bad) == "ElaborationError: unresolved signal 'nope' in m"


def test_a_parameter_bound_is_read_as_the_full_parse_reads_it():
    # the full parse has no parameters, so ##N fails there; the tail
    # must not parse with the base's
    bounded = text_of("  assert property (@(posedge clk) a |-> ##N q);")
    assert check(text_of(A1), bounded) == "full"
    assert full(bounded).startswith("ParseError")


def test_parameter_declarations_in_the_tail_take_the_full_path():
    # a declaration of the tail is no assertion item, but a parameter
    # adds none to the module's items: it must still keep the tail off
    # the base, whose parameters and names it would change
    redefine = text_of("  localparam N = 9;\n"
                       "  assert property (@(posedge clk) N == 2);")
    assert check(text_of(A1), redefine) == "full"
    fresh = text_of("  localparam M = 3;\n"
                    "  assert property (@(posedge clk) cnt != M);")
    assert check(text_of(A1), fresh) == "full"
    shadow = text_of("  parameter a = 0;\n"
                     "  assert property (@(posedge clk) a);")
    assert check(text_of(A1), shadow) == "full"


def test_syntax_error_details_match_the_full_path(monkeypatch):
    texts = [text_of(A1), text_of("  assert property (@(posedge clk) nope);"),
             text_of(A2 + " /* open"), text_of("  assign x = ;")]
    split = _serve(texts, None)
    _frames_off(monkeypatch)
    assert split == _serve(texts, None)
    assert [row[1] for row in split] == [
        "proven", "syntax_error", "syntax_error", "syntax_error"]


# -- (c) the router signs what the replica pools on ---------------------------


def test_routing_signature_matches_the_replica_pool_key():
    replica = VerificationService()
    paths = {"router": [], "replica": []}
    signed = 0
    try:
        for _, design, texts in wire_problems(0, 4):
            requests = [VerifyRequest(kind="prove", source=text,
                                      top=design.top, request_id=str(i))
                        for i, text in enumerate(texts)]
            # the router and the replica are separate processes: each
            # learns its own frame, and here from a different sample
            memo.clear()
            routed = {}
            for request in requests:
                before = parses()
                routed[request.request_id] = routing_signature(request)
                paths["router"].append(parses() == before)
            memo.clear()
            for request in reversed(requests):
                entry = PlanEntry(request, 0)
                before = parses()
                failed = replica._prepare_prove(request, entry)
                paths["replica"].append(parses() == before)
                if failed is not None:
                    assert failed.verdict == "syntax_error"
                    assert routed[request.request_id][0] == "source"
                    continue
                assert routed[request.request_id] \
                    == ("design", design_signature(entry.design))
                signed += 1
    finally:
        replica.close()
    assert signed >= 40
    for side in paths.values():
        assert True in side and False in side


# -- (d) what the frame table shares stays read-only --------------------------


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def shared_state(texts, top):
    table = elaborate_module._FRAMES
    frames = {key: digest(table.lookup(key)) for key in table.keys()}
    base = elaborate(texts[0], top=top)
    return {"frames": frames,
            "parse": digest((parse_rtl(texts[0]),
                             parse_rtl(texts[0]).frames)),
            "base": digest(base), "init": dict(base.init),
            "signature": design_signature(base)}


@pytest.mark.parametrize("options", [
    {}, {"executor": "process", "workers": 2}], ids=["inline", "process"])
def test_frame_table_survives_serving(options):
    _, design, texts = next(wire_problems(0, 1))
    elaborate(texts[0], top=design.top)  # learn
    before = shared_state(texts, design.top)
    assert before["frames"]
    rows = _serve(texts, design.top, **options)
    assert rows[0][1] in ("proven", "cex", "undetermined")
    after = shared_state(texts, design.top)
    # the support-code sample learned a frame of its own
    assert after.pop("frames").items() >= before.pop("frames").items()
    assert after == before


def test_frame_table_under_contention():
    """HTTP handler threads share the table: every design still equals
    the full path's, and no lookup is lost."""
    texts = [(text, design.top) for _, design, sample_texts
             in wire_problems(1, 2) for text in sample_texts]
    expected = [full(text, top) for text, top in texts]
    expected = [want if isinstance(want, str) else
                (design_signature(want), repr(want.assertions))
                for want in expected]
    memo.clear()
    calls_per_thread, threads = 40, 6
    wrong = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(calls_per_thread):
            index = rng.randrange(len(texts))
            got = outcome(lambda: elaborate(*texts[index]))
            if not isinstance(got, str):
                got = (design_signature(got), repr(got.assertions))
            if got != expected[index]:
                wrong.append(index)

    before = memo.stats()["rtl.frame"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker, args=(seed,))
                for seed in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in pool)
    finally:
        sys.setswitchinterval(interval)
    after = memo.stats()["rtl.frame"]
    hits, misses = (after[k] - before[k] for k in ("hits", "misses"))
    assert not wrong
    assert hits + misses == calls_per_thread * threads
    assert hits > misses
    assert after["entries"] <= elaborate_module._FRAMES.capacity


# -- (e) observability -----------------------------------------------------------


def test_five_pure_samples_learn_one_frame_and_build_one_base():
    design = build_benchmark("fsm", 1)[0]
    texts = [wire_source(design, response)
             for response in SimulatedModel(MODEL).generate(
                 GenerationRequest(task="design2sva", problem=design,
                                   n_samples=SAMPLES,
                                   temperature=TEMPERATURE, quantile=0.5))]
    assert len(set(texts)) > 1
    service = VerificationService()
    try:
        start = service.stats()["frontend"]
        service.run([VerifyRequest(kind="prove", source=text, top=design.top,
                                   engine=dict(PROVER), use_cache=False)
                     for text in texts])
        end = service.stats()["frontend"]
    finally:
        service.close()

    def delta(name):
        return {k: end[name][k] - start[name][k]
                for k in ("hits", "misses")}

    assert delta("rtl.frame") == {"hits": 4, "misses": 1}
    assert end["rtl.frame"]["entries"] == 1
    assert delta("rtl.elaborate") == {"hits": 4, "misses": 1}
    assert delta("rtl.parser") == {"hits": 0, "misses": 1}
