"""Verification-service API: request validation, dedup/cache provenance,
prover grouping, the two call shapes, and the JSON-lines serve
frontend."""

import functools
import io
import json
import threading

import pytest

from repro.service import (
    RequestError,
    VerificationService,
    VerifyRequest,
    request_from_json,
    response_to_json,
    serve_stream,
)

EQ_WIDTHS = {"clk": 1, "a": 1, "b": 1}
REF = "assert property (@(posedge clk) a |-> b);"
SAME = "assert property (@(posedge clk) a |-> ##0 b);"
WEAKER = "assert property (@(posedge clk) (a && b) |-> b);"

TOY_DESIGN = """
module toy(clk, rst, a, b);
input clk, rst, a;
output reg b;
always_ff @(posedge clk) begin
    if (rst) b <= 1'b0;
    else b <= a;
end
ap_follow: assert property (@(posedge clk) a |=> b);
endmodule
"""


def equiv_request(candidate, **overrides):
    kwargs = dict(kind="equivalence", reference=REF, candidate=candidate,
                  widths=dict(EQ_WIDTHS))
    kwargs.update(overrides)
    return VerifyRequest(**kwargs)


class TestRequestValidation:
    def test_unknown_kind(self):
        with pytest.raises(RequestError):
            VerifyRequest(kind="prove_hard").validate()

    def test_missing_fields(self):
        with pytest.raises(RequestError):
            VerifyRequest(kind="equivalence", candidate="x").validate()
        with pytest.raises(RequestError):
            VerifyRequest(kind="prove").validate()
        with pytest.raises(RequestError):
            VerifyRequest(kind="trace", candidate="x").validate()

    def test_wire_decode_rejects_unknown_fields(self):
        with pytest.raises(RequestError):
            request_from_json({"kind": "syntax", "candidate": "x",
                               "widths": {}, "bogus": 1})
        with pytest.raises(RequestError):
            request_from_json({"candidate": "x"})

    def test_invalid_request_becomes_error_response(self):
        service = VerificationService()
        [resp] = service.run([VerifyRequest(kind="nope")])
        assert not resp.ok and resp.verdict == "error"

    def test_unknown_engine_option_is_rejected(self):
        service = VerificationService()
        [resp] = service.run([equiv_request(SAME,
                                            engine={"max_bmc": 3})])
        assert not resp.ok and "unknown engine option" in resp.detail
        [resp] = service.run([VerifyRequest(
            kind="prove", source=TOY_DESIGN,
            engine={"definitely_not_a_knob": 1})])
        assert not resp.ok and "unknown engine option" in resp.detail
        [resp] = service.run([VerifyRequest(
            kind="prove", source=TOY_DESIGN,
            engine={"strategy": "psychic"})])
        assert not resp.ok and "unknown strategy" in resp.detail

    @pytest.mark.parametrize("engine", [
        {"horizons": [0]}, {"horizons": [-2]}, {"horizons": []},
        {"horizons": ["x"]}, {"horizons": [True]}, {"horizons": 6},
        {"horizons": [6, 41]}, {"horizons": [1000]},
        {"default_width": 0}, {"default_width": "1"},
        {"max_conflicts": 0}, {"max_conflicts": 2.5},
        {"max_conflicts": False},
    ], ids=repr)
    def test_out_of_range_equivalence_option_is_rejected(self, engine):
        """An equivalence engine option outside its range is a bad
        request, answered like an unknown option -- never a verdict."""
        resp = self.negated_over_the_wire(engine)
        assert (resp.ok, resp.verdict) == (False, "error")
        assert "engine option" in resp.detail

    def test_in_range_horizons_answer_as_before(self):
        resp = self.negated_over_the_wire({"horizons": [6]})
        assert (resp.ok, resp.verdict) == (True, "inequivalent")

    @pytest.mark.parametrize("engine", [
        {"max_bmc": -1}, {"max_k": -1}, {"sim_cycles": -1},
        {"sim_traces": -1}, {"sim_traces": 65},
        {"use_simulation": False, "max_bmc": -1},
    ], ids=repr)
    def test_out_of_range_prove_option_is_rejected(self, engine):
        """A prove engine option outside its range is a bad request
        over the wire, and a ValueError from ``Prover`` itself."""
        from repro.formal import Prover
        from repro.rtl.elaborate import elaborate
        [resp] = self.prove_over_the_wire(engine)
        assert (resp.ok, resp.verdict) == (False, "error")
        assert "engine option" in resp.detail
        with pytest.raises(ValueError, match="engine option"):
            Prover(elaborate(TOY_DESIGN), **engine)

    @pytest.mark.parametrize("engine,verdict,detail,depth", [
        ({"sim_traces": 64}, "proven", "", 1),
        ({"sim_traces": 0, "max_bmc": 0}, "proven", "", 1),
        ({"max_k": 0, "sim_cycles": 0}, "undetermined",
         "not inductive up to k=0", 0),
    ], ids=repr)
    def test_in_range_prove_options_answer_as_before(self, engine, verdict,
                                                     detail, depth):
        [resp] = self.prove_over_the_wire(engine)
        assert (resp.ok, resp.verdict, resp.detail) == (True, verdict, detail)
        assert resp.meta == {"engine": "k-induction", "depth": depth,
                             "vacuous": False}

    @staticmethod
    def prove_over_the_wire(engine):
        return VerificationService().run([request_from_json({
            "kind": "prove", "source": TOY_DESIGN, "engine": engine})])

    @staticmethod
    def negated_over_the_wire(engine):
        """``a |-> !b`` against ``a |-> b`` as a wire request."""
        [resp] = VerificationService().run([request_from_json({
            "kind": "equivalence", "reference": REF,
            "candidate": "assert property (@(posedge clk) a |-> !b);",
            "widths": EQ_WIDTHS, "engine": engine})])
        return resp


class TestSyntaxKind:
    def test_pass_and_fail(self):
        service = VerificationService()
        good, bad = service.run([
            VerifyRequest(kind="syntax", candidate=REF,
                          widths=dict(EQ_WIDTHS)),
            VerifyRequest(kind="syntax", candidate="not even verilog",
                          widths=dict(EQ_WIDTHS)),
        ])
        assert good.ok and good.verdict == "ok"
        # a failed syntax gate is a successfully *measured* verdict --
        # ok stays True; ok=False is reserved for broken requests
        assert bad.ok and bad.verdict == "syntax_error"
        assert bad.detail and bad.meta["errors"]


class TestEquivalenceKind:
    def test_verdicts(self):
        service = VerificationService()
        same, weaker = service.run([equiv_request(SAME),
                                    equiv_request(WEAKER)])
        assert same.verdict == "equivalent" and same.func and same.partial
        assert weaker.verdict == "ref_implies_candidate"
        assert weaker.partial and not weaker.func

    @pytest.mark.parametrize("candidate, detail", [
        ("assert property (@(posedge clk) a |-> (b && a);",
         "expected ')'"),
        ("assert property (@(posedge clk) a |-> (b == $random));",
         "$random"),
    ])
    def test_a_text_the_gate_rejects_is_an_encoding_error_on_the_wire(
            self, candidate, detail):
        """The vocabulary split of docs/service.md: a wire
        ``equivalence`` item has no syntax gate, so a candidate that does
        not parse or encode answers ``encoding_error``; the task gates
        first and records ``syntax_error``.  Both score no credit."""
        from repro.core.tasks import Nl2SvaMachineTask
        from repro.datasets.nl2sva_machine.generator import MachineProblem
        from repro.sva.parser import parse_assertion
        [wire] = VerificationService().run([request_from_json(
            {"kind": "equivalence", "reference": REF,
             "candidate": candidate, "widths": dict(EQ_WIDTHS),
             "use_cache": False})])
        assert (wire.verdict, wire.func, wire.partial) == (
            "encoding_error", False, False)
        assert detail in wire.detail
        problem = MachineProblem(problem_id="split", tier=1, sva=REF,
                                 assertion=parse_assertion(REF))
        record = Nl2SvaMachineTask(count=1, use_cache=False).evaluate(
            problem, candidate)
        assert (record.verdict, record.syntax_ok, record.func,
                record.partial) == ("syntax_error", False, False, False)
        assert detail in record.detail

    def test_dedup_in_flight(self, monkeypatch):
        monkeypatch.delenv("FVEVAL_CACHE", raising=False)
        service = VerificationService()
        first, second = service.run([equiv_request(SAME),
                                     equiv_request(SAME)])
        assert second.dedup_of == first.request_id
        assert first.dedup_of is None
        assert (second.verdict, second.func, second.partial,
                second.detail) == (first.verdict, first.func,
                                   first.partial, first.detail)
        assert service.stats()["dedup_hits"] == 1
        # duplicates never touch the cache, so misses == puts holds
        cache = service.cache_stats()
        assert cache["misses"] == cache["puts"] == 1

    def test_cache_hit_provenance(self, monkeypatch):
        monkeypatch.delenv("FVEVAL_CACHE", raising=False)
        service = VerificationService()
        [first] = service.run([equiv_request(SAME)])
        [again] = service.run([equiv_request(SAME)])
        assert not first.cache_hit and again.cache_hit
        assert again.verdict == first.verdict

    def test_use_cache_false_recomputes(self, monkeypatch):
        monkeypatch.delenv("FVEVAL_CACHE", raising=False)
        service = VerificationService()
        responses = service.run([equiv_request(SAME, use_cache=False),
                                 equiv_request(SAME, use_cache=False)])
        assert all(not r.cache_hit and r.dedup_of is None
                   for r in responses)
        assert service.cache_stats()["puts"] == 0

    def test_no_cache_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_NO_CACHE", "1")
        service = VerificationService()
        responses = service.run([equiv_request(SAME), equiv_request(SAME)])
        assert all(not r.cache_hit and r.dedup_of is None
                   for r in responses)
        stats = service.cache_stats()
        assert stats["hits"] == stats["misses"] == 0


class TestProveKind:
    def test_prove_from_source_text(self):
        service = VerificationService()
        [resp] = service.run([VerifyRequest(kind="prove",
                                            source=TOY_DESIGN)])
        assert resp.verdict == "proven" and resp.func
        assert set(resp.meta) == {"engine", "depth", "vacuous"}

    def test_elaboration_error_is_syntax_error(self):
        service = VerificationService()
        [resp] = service.run([VerifyRequest(kind="prove",
                                            source="module broken(")])
        assert resp.ok and resp.verdict == "syntax_error"

    def test_source_without_a_module_is_syntax_error(self):
        [resp] = VerificationService().run([VerifyRequest(
            kind="prove", source="// nothing\n")])
        assert (resp.ok, resp.verdict, resp.detail) == (
            True, "syntax_error", "no module to elaborate")
        assert resp.degraded == []

    @pytest.mark.parametrize("value", ["4 / 0", "4 % 0", "8 >> (0-1)",
                                       "8 << (0-1)", "Q"])
    def test_bad_constant_is_syntax_error(self, value):
        """A constant the elaborator cannot evaluate is a verdict about
        the input, never an engine fault."""
        source = TOY_DESIGN.replace(
            "output reg b;", f"output reg b;\nlocalparam P = {value};")
        service = VerificationService()
        [resp] = service.run([VerifyRequest(kind="prove", source=source)])
        assert resp.verdict == "syntax_error", resp.detail
        assert resp.degraded == []

    def test_no_assertion_detail(self):
        source = TOY_DESIGN.replace(
            "ap_follow: assert property (@(posedge clk) a |=> b);", "")
        service = VerificationService()
        [resp] = service.run([VerifyRequest(kind="prove", source=source)])
        assert resp.verdict == "syntax_error"
        assert resp.detail == "response contains no concurrent assertion"

    def test_explicit_assertion_text(self):
        service = VerificationService()
        good, bad = service.run([
            VerifyRequest(kind="prove", source=TOY_DESIGN,
                          assertion="assert property "
                                    "(@(posedge clk) a |=> b);"),
            VerifyRequest(kind="prove", source=TOY_DESIGN,
                          assertion="assert property "
                                    "(@(posedge clk) a |=> !b);"),
        ])
        assert good.verdict == "proven"
        assert bad.verdict == "cex"

    def test_one_cone_batch_equals_one_request_per_run(self, monkeypatch):
        """Two candidates on one design cone, scheduled together, answer
        exactly what each answers scheduled alone."""
        monkeypatch.delenv("FVEVAL_CACHE", raising=False)
        requests = [
            VerifyRequest(kind="prove", source=TOY_DESIGN,
                          assertion="assert property "
                                    "(@(posedge clk) a |=> b);"),
            VerifyRequest(kind="prove", source=TOY_DESIGN,
                          assertion="assert property "
                                    "(@(posedge clk) a |=> !b);"),
        ]
        together = VerificationService().run(requests)
        assert [r.verdict for r in together] == ["proven", "cex"]
        alone = [VerificationService().run([request])[0]
                 for request in requests]
        assert [(r.verdict, r.func, r.detail, r.meta) for r in alone] == \
            [(r.verdict, r.func, r.detail, r.meta) for r in together]

    def test_more_groups_than_max_provers(self, monkeypatch):
        """A batch with more prove groups than ``max_provers`` answers
        every group and leaves at most ``max_provers`` provers pooled."""
        monkeypatch.delenv("FVEVAL_CACHE", raising=False)
        designs = [TOY_DESIGN.replace("module toy", f"module toy{i}")
                   for i in range(3)]
        requests = [VerifyRequest(kind="prove", source=source, assertion=a)
                    for source in designs
                    for a in ("assert property (@(posedge clk) a |=> b);",
                              "assert property (@(posedge clk) a |=> !b);")]
        service = VerificationService(max_provers=2)
        responses = service.run(requests)
        assert [r.verdict for r in responses] == ["proven", "cex"] * 3
        assert service.stats()["prover_builds"] == 3
        pooled = [slot for slot in service._slots.values()
                  if slot.kind == "prove"]
        assert len(pooled) <= 2


#: a design whose state is an unpacked array: a text assertion reads
#: ``mem[1]`` only if it is bound in the module's scope (``mem__1``)
MEM_DESIGN = """
module m(clk, a, b);
input clk;
input [3:0] a, b;
reg [3:0] mem [0:1];
always_ff @(posedge clk) begin
    mem[0] <= a;
    mem[1] <= b;
end
{items}
endmodule
"""

MEM_ASSUME = "assume property (@(posedge clk) mem[0] == 4'd0);"


class TestTextAssertionBinds:
    """A text ``assertion`` / ``assumes`` on a prove request reads as
    the same text written in the design: array elements, slices and
    unresolved names resolve in its scope."""

    @pytest.mark.parametrize("text,verdict,detail", [
        ("##1 mem[1] == $past(b)", "proven", ""),
        ("mem[1] == mem[1]", "proven", ""),
        ("mem[1][3:2] == mem[1][3:2]", "proven", ""),
        ("nope", "syntax_error", "unresolved signal 'nope' in m"),
    ], ids=["past_of_element", "element", "element_slice", "unresolved"])
    def test_text_reads_as_the_source(self, text, verdict, detail):
        item = f"assert property (@(posedge clk) {text});"
        service = VerificationService()
        as_text, in_source = service.run([
            VerifyRequest(kind="prove", source=MEM_DESIGN.format(items=""),
                          assertion=item, use_cache=False),
            VerifyRequest(kind="prove", source=MEM_DESIGN.format(items=item),
                          use_cache=False)])
        assert (in_source.verdict, in_source.detail) == (verdict, detail)
        assert (as_text.ok, as_text.verdict, as_text.detail) \
            == (True, verdict, detail)

    def test_text_assumes_read_as_the_source(self):
        from repro.rtl import elaborate
        item = "assert property (@(posedge clk) mem[0] == 4'd0);"
        bound = elaborate(MEM_DESIGN.format(items=MEM_ASSUME + "\n" + item))
        service = VerificationService()
        unassumed, as_text, parsed = service.run([
            VerifyRequest(kind="prove", source=MEM_DESIGN.format(items=""),
                          assertion=item, use_cache=False),
            VerifyRequest(kind="prove", source=MEM_DESIGN.format(items=""),
                          assertion=item, assumes=(MEM_ASSUME,),
                          use_cache=False),
            # parsed assertions and assumes are taken as already bound
            VerifyRequest(kind="prove", design=bound,
                          assertion=bound.assertions[-1],
                          assumes=(bound.assertions[0],), use_cache=False)])
        assert unassumed.verdict == "cex"
        assert (as_text.ok, as_text.verdict) == (True, "proven")
        assert parsed.verdict == "proven"
        [bad] = service.run([VerifyRequest(
            kind="prove", source=MEM_DESIGN.format(items=""),
            assertion=item, assumes=(MEM_ASSUME.replace("mem[0]", "nope"),),
            use_cache=False)])
        assert (bad.verdict, bad.detail) \
            == ("syntax_error", "assume: unresolved signal 'nope' in m")

    def test_text_bounds_may_name_parameters(self):
        source = TOY_DESIGN.replace("output reg b;",
                                    "output reg b;\nparameter N = 1;")
        service = VerificationService()
        follows, wrong = service.run([
            VerifyRequest(kind="prove", source=source, use_cache=False,
                          assertion=f"assert property (@(posedge clk) "
                                    f"a |-> ##N {b});")
            for b in ("b", "!b")])
        assert (follows.verdict, wrong.verdict) == ("proven", "cex")

    def test_text_macro_uses_name_parameters(self):
        # the generated designs write `parameter WIDTH = `WIDTH;`: a
        # macro use in a text reads the parameter, as in the source
        source = "`define N 1\n" + TOY_DESIGN.replace(
            "output reg b;", "output reg b;\nparameter N = `N;")
        service = VerificationService()
        for b, verdict in (("b", "proven"), ("!b", "cex")):
            item = f"assert property (@(posedge clk) a |-> ##`N {b});"
            as_text, in_source = service.run([
                VerifyRequest(kind="prove", source=source, assertion=item,
                              use_cache=False),
                VerifyRequest(kind="prove", source=source.replace(
                    "endmodule", item + "\nendmodule"), use_cache=False)])
            assert (in_source.verdict, in_source.detail) == (verdict, "")
            assert (as_text.ok, as_text.verdict, as_text.detail) \
                == (True, verdict, "")
        [undefined] = service.run([VerifyRequest(
            kind="prove", source=source, use_cache=False,
            assertion="assert property (@(posedge clk) a |-> ##`M b);")])
        assert (undefined.verdict, undefined.detail) \
            == ("syntax_error", "undefined macro `M")

    def test_text_without_an_assertion(self):
        service = VerificationService()
        empty, other = service.run([
            VerifyRequest(kind="prove", source=TOY_DESIGN, assertion="",
                          use_cache=False),
            VerifyRequest(kind="prove", source=TOY_DESIGN,
                          assertion="wire spare;", use_cache=False)])
        assert (empty.verdict, empty.detail) == (
            "syntax_error", "response contains no concurrent assertion")
        assert other.verdict == "syntax_error"
        assert other.detail == "expected only assertions, got a NetDecl"

    def test_cli_verify_assume(self, tmp_path, capsys):
        from repro.__main__ import main
        design = tmp_path / "mem.sv"
        design.write_text(MEM_DESIGN.format(
            items="p0: assert property (@(posedge clk) mem[0] == 4'd0);"))
        assert main(["verify", str(design)]) == 1
        assert "cex" in capsys.readouterr().out
        assert main(["verify", str(design), "--assume", MEM_ASSUME]) == 0
        assert "proven" in capsys.readouterr().out


class TestTraceKind:
    def test_pass_and_violation(self):
        trace = {"clk": [0, 1] * 4, "a": [0, 1, 1, 1, 1, 1, 1, 1],
                 "b": [0, 0, 1, 1, 1, 1, 1, 1]}
        service = VerificationService()
        follow, broken = service.run([
            VerifyRequest(kind="trace",
                          candidate="assert property "
                                    "(@(posedge clk) a |=> b);",
                          trace=trace, widths={"a": 1, "b": 1, "clk": 1}),
            VerifyRequest(kind="trace",
                          candidate="assert property "
                                    "(@(posedge clk) a |=> !b);",
                          trace=trace, widths={"a": 1, "b": 1, "clk": 1}),
        ])
        assert follow.verdict == "pass" and follow.func
        assert broken.verdict == "violation" and not broken.func
        assert broken.meta["violation_at"] >= 0


def run_in_thread(service, requests):
    """``service.run(requests)`` called from another thread, as the HTTP
    frontend calls it from its executor threads."""
    responses = []
    thread = threading.Thread(
        target=lambda: responses.extend(service.run(requests)), daemon=True)
    thread.start()
    thread.join(timeout=60.0)
    assert not thread.is_alive(), "run() did not return"
    return responses


class TestCallShapes:
    def test_run_dedups_within_a_batch(self):
        service = VerificationService()
        first, second = run_in_thread(
            service, [equiv_request(SAME), equiv_request(SAME)])
        assert first.verdict == second.verdict == "equivalent"
        assert second.dedup_of == first.request_id

    def test_engine_crash_costs_its_request_only(self):
        """A request whose engine call crashes comes back as an ok=False
        error response; the batch itself never dies on a per-request
        failure."""
        service = VerificationService()
        broken, healthy = run_in_thread(service, [
            VerifyRequest(kind="prove", source=TOY_DESIGN,
                          engine={"max_bmc": "8"}),
            equiv_request(SAME)])
        assert not broken.ok and broken.verdict == "error"
        assert "TypeError" in broken.detail
        assert healthy.verdict == "equivalent"

    def test_stream_yields_in_order(self):
        # in-request-order delivery is the inline strategy's contract;
        # the process strategy's out-of-order streaming is tested in
        # tests/test_service_parity.py (TestExecutorParity)
        service = VerificationService(workers=1)
        ids = []
        for response in service.stream([equiv_request(SAME),
                                        equiv_request(WEAKER)]):
            ids.append(response.verdict)
        assert ids == ["equivalent", "ref_implies_candidate"]

    def test_stream_surfaces_request_index(self):
        service = VerificationService(workers=1)
        indexes = [response.index for response in service.stream(
            [equiv_request(SAME), equiv_request(SAME),
             equiv_request(WEAKER)])]
        assert indexes == [0, 1, 2]


#: the toy design under another name, whose prover cannot be built
BROKEN_DESIGN = TOY_DESIGN.replace("module toy", "module broken")


def verdict_fields(response):
    """Everything a response says but its ids, position and timing."""
    return (response.ok, response.verdict, response.func, response.partial,
            response.detail, response.meta, response.degraded,
            response.cache_hit)


class TestEngineBuildFailure:
    """An engine is built on first use, inside its group's computation:
    one that cannot be built costs that group's requests and nothing
    else -- the batch answers every index and the pin is released."""

    @pytest.mark.parametrize("options", [
        {"executor": "thread"}, {"executor": "process", "workers": 2}],
        ids=["inline", "process"])
    def test_failed_build_costs_its_group_only(self, monkeypatch, options):
        from repro.formal.prover import Prover
        real_init = Prover.__init__

        @functools.wraps(real_init)
        def init(self, design, *args, **kwargs):
            if design.name == "broken":
                raise RuntimeError("cannot build a prover for 'broken'")
            real_init(self, design, *args, **kwargs)

        monkeypatch.setattr(Prover, "__init__", init)

        def requests():
            return [equiv_request(SAME, use_cache=False),
                    VerifyRequest(kind="prove", source=TOY_DESIGN,
                                  use_cache=False)]

        service = VerificationService(**options)
        reference = VerificationService(**options)
        try:
            bad, *rest = service.run(
                [VerifyRequest(kind="prove", source=BROKEN_DESIGN,
                               use_cache=False), *requests()])
            want = reference.run(requests())
        finally:
            service.close()
            reference.close()
        assert not bad.ok and bad.verdict == "error"
        assert "RuntimeError" in bad.detail
        assert not any(event["code"] == "worker_crash"
                       for event in bad.degraded)
        assert [verdict_fields(r) for r in rest] == \
            [verdict_fields(r) for r in want]
        assert [r.verdict for r in rest] == ["equivalent", "proven"]
        assert service._active == set()


class TestServeFrontend:
    @staticmethod
    def serve(lines, workers=1):
        # the in-request-order assertions below are the inline
        # contract; out-of-order serving on the process strategy is
        # covered by tests/test_service_faults.py
        out = io.StringIO()
        status = serve_stream(io.StringIO("\n".join(lines) + "\n"), out,
                              VerificationService(workers=workers))
        return status, [json.loads(line)
                        for line in out.getvalue().splitlines()]

    def test_three_request_script(self):
        status, out = self.serve([
            json.dumps({"kind": "syntax", "candidate": REF,
                        "widths": EQ_WIDTHS, "request_id": "s1"}),
            json.dumps({"kind": "equivalence", "reference": REF,
                        "candidate": SAME, "widths": EQ_WIDTHS,
                        "request_id": "e1"}),
            json.dumps({"kind": "prove", "source": TOY_DESIGN,
                        "request_id": "p1"}),
        ])
        assert status == 0
        assert [o["request_id"] for o in out] == ["s1", "e1", "p1"]
        assert [o["verdict"] for o in out] == ["ok", "equivalent", "proven"]

    def test_blank_line_flushes_batches(self):
        status, out = self.serve([
            json.dumps({"kind": "equivalence", "reference": REF,
                        "candidate": SAME, "widths": EQ_WIDTHS}),
            "",
            json.dumps({"kind": "equivalence", "reference": REF,
                        "candidate": SAME, "widths": EQ_WIDTHS}),
        ])
        assert status == 0
        assert out[0]["verdict"] == out[1]["verdict"] == "equivalent"
        # separate batches: the second is a cache hit, not an in-flight dup
        assert not out[0]["cache_hit"] and out[1]["cache_hit"]
        assert out[1]["dedup_of"] is None

    def test_validation_error_echoes_request_id(self):
        status, out = self.serve([
            json.dumps({"kind": "bogus", "request_id": "x7"}),
        ])
        assert status == 1
        assert out[0]["request_id"] == "x7"
        assert out[0]["ok"] is False

    def test_bad_line_reports_and_continues(self):
        status, out = self.serve([
            "{not json",
            json.dumps({"kind": "syntax", "candidate": REF,
                        "widths": EQ_WIDTHS}),
        ])
        assert status == 1
        assert out[0]["ok"] is False and out[0]["verdict"] == "error"
        assert out[1]["verdict"] == "ok"

    def test_type_invalid_field_is_per_request_error(self):
        """Schema-valid but type-invalid requests must not kill the
        stream -- the other batched requests still get answers."""
        status, out = self.serve([
            json.dumps({"kind": "syntax", "candidate": REF,
                        "widths": "oops"}),
            json.dumps({"kind": "syntax", "candidate": REF,
                        "widths": EQ_WIDTHS}),
        ])
        assert status == 1
        assert out[0]["ok"] is False and out[0]["verdict"] == "error"
        assert "widths" in out[0]["detail"]
        assert out[1]["verdict"] == "ok"

    def test_engine_crash_still_answers_every_line(self):
        """A type-invalid engine value crashes inside the prover; the
        service converts it into an error response for that line only --
        the rest of the batch still gets real verdicts."""
        status, out = self.serve([
            json.dumps({"kind": "prove", "source": TOY_DESIGN,
                        "engine": {"max_bmc": "8"}}),
            json.dumps({"kind": "syntax", "candidate": REF,
                        "widths": EQ_WIDTHS}),
        ])
        assert status == 1
        assert len(out) == 2
        assert out[0]["ok"] is False and out[0]["verdict"] == "error"
        assert "TypeError" in out[0]["detail"]
        assert out[1]["ok"] is True and out[1]["verdict"] == "ok"

    def test_responses_carry_batch_index(self):
        status, out = self.serve([
            json.dumps({"kind": "syntax", "candidate": REF,
                        "widths": EQ_WIDTHS}),
            json.dumps({"kind": "syntax", "candidate": REF,
                        "widths": EQ_WIDTHS}),
            "",
            json.dumps({"kind": "syntax", "candidate": REF,
                        "widths": EQ_WIDTHS}),
        ])
        assert status == 0
        # index is zero-based per flushed batch, not per stream
        assert [o["index"] for o in out] == [0, 1, 0]

    def test_response_wire_form_is_stable(self):
        service = VerificationService()
        [resp] = service.run([equiv_request(SAME)])
        wire = response_to_json(resp)
        assert set(wire) == {"request_id", "kind", "ok", "verdict", "func",
                             "partial", "detail", "meta", "cache_hit",
                             "dedup_of", "elapsed_s", "index",
                             "worker_id", "degraded"}


class TestCli:
    def test_verify_file_and_strategy(self, tmp_path, capsys):
        from repro.__main__ import main
        design = tmp_path / "toy.sv"
        design.write_text(TOY_DESIGN)
        assert main(["verify", str(design)]) == 0
        assert "proven" in capsys.readouterr().out
        assert main(["verify", str(design), "--strategy", "kind"]) == 0
        assert "proven" in capsys.readouterr().out

    def test_equiv_strategy_flag(self, capsys):
        from repro.__main__ import main
        argv = ["equiv", REF, SAME, "--width", "a=1", "--width", "b=1"]
        assert main(argv) == 0
        assert "equivalent" in capsys.readouterr().out
        assert main(argv + ["--strategy", "portfolio"]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_equiv_inequivalent_exit_code(self, capsys):
        from repro.__main__ import main
        assert main(["equiv", REF,
                     "assert property (@(posedge clk) a |-> !b);",
                     "--width", "a=1", "--width", "b=1"]) == 2
        out = capsys.readouterr().out
        assert "counterexample" in out
