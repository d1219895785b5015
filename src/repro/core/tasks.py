"""The three FVEval sub-benchmark task definitions.

Public entry points: :class:`Nl2SvaHumanTask`, :class:`Nl2SvaMachineTask`
and :class:`Design2SvaTask` (or :func:`default_tasks` for the standard
instances).  Each task exposes the protocol the runner consumes --
``problems()``, ``prompt(problem)``, ``evaluate(problem, response)`` and
the batched ``evaluate_batch(problem, responses)`` -- and is usually
driven through :func:`repro.core.runner.run_model_on_task`::

    from repro.core import Design2SvaTask, RunConfig, run_model_on_task

    task = Design2SvaTask("fsm", count=16, strategy="portfolio")
    result = run_model_on_task("gpt-4o", task, RunConfig(n_samples=5,
                                                         temperature=0.8))

Tasks are thin adapters over the verification service
(:mod:`repro.service`): ``evaluate`` emits typed
:class:`~repro.service.api.VerifyRequest`\\ s (syntax gates, equivalence
checks, proofs -- mirroring the JasperGold-backed flow of the paper) and
folds the responses' verdict fields into :class:`EvalRecord`\\ s.  All
memoization, in-flight deduplication and prover pooling live in the
service; disable memoization per task with
``use_cache=False``.  ``Design2SvaTask`` forwards ``prover_kwargs`` /
``strategy`` as the request engine configuration, which is part of the
verdict-cache key, so reconfiguring invalidates instead of serving stale
verdicts (docs/engine.md).  ``evaluate_batch`` submits a whole problem's
samples as one batch -- that is what lets the service deduplicate them
and prove them all on one pooled prover (docs/service.md); per-sample
``evaluate`` is the degenerate batch of one and produces field-identical
records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..datasets.design2sva.pipeline_gen import GeneratedDesign
from ..datasets.design2sva.sweep import build_benchmark
from ..datasets.design2sva.testbench_gen import (
    SpliceError, merge_for_eval, problem_base,
)
from ..datasets.nl2sva_human import corpus
from ..datasets.nl2sva_human.corpus import HumanProblem
from ..datasets.nl2sva_machine.critic import build_problems
from ..datasets.nl2sva_machine.generator import (
    SIGNAL_WIDTHS,
    MachineProblem,
)
from ..rtl.ast_nodes import AssertionItem
from ..rtl.elaborate import Design, elaborate_base
from ..rtl.parser import parse_snippet_items
from ..service import RequestError, VerificationService, VerifyRequest
from ..sva.lexer import strip_code_fences
from ..eval.metrics import sentence_bleu
from . import prompts


def _checked(responses):
    """Fail fast on request-level service failures.

    ``ok=False`` means the *request* was broken (misconfigured engine
    options, malformed input) -- a task programming error, not a
    measured verdict -- and must abort the run loudly, exactly as the
    pre-service ``Prover(**kwargs)`` TypeError did, instead of folding
    into records as ``verdict="error"`` and silently zeroing pass@k.
    """
    for response in responses:
        if not response.ok:
            raise RequestError(
                f"verification request failed: {response.detail}")
    return responses


@dataclass
class EvalRecord:
    """Per-response evaluation outcome (one row of raw results)."""

    task: str
    model: str
    problem_id: str
    sample_idx: int
    response: str
    syntax_ok: bool = False
    verdict: str = ""       # equivalence verdict / proof status
    func: bool = False      # full equivalence / proven
    partial: bool = False   # relaxed functional credit
    bleu: float = 0.0
    detail: str = ""
    meta: dict = field(default_factory=dict)


class _EquivalenceTask:
    """Shared adapter plumbing for the two NL2SVA tasks.

    One evaluation is a syntax request followed (on pass) by an
    equivalence request against the reference; both go through the
    task's :class:`~repro.service.VerificationService`, which memoizes
    semantically duplicate samples so only the deterministic verdict
    fields ever reach the record (``tests/test_core_cache.py``).
    """

    def __init__(self, namespace: str, use_cache: bool,
                 service: VerificationService | None = None,
                 workers: int | None = None):
        self.use_cache = use_cache
        self.service = (service if service is not None
                        else VerificationService(workers=workers))
        self._namespace = namespace

    def cache_stats(self) -> dict[str, int]:
        return self.service.cache_stats()

    # -- per-kind request builders (subclasses supply the context) ----------

    def _syntax_request(self, problem, response: str) -> VerifyRequest:
        raise NotImplementedError

    def _equiv_request(self, problem, response: str) -> VerifyRequest:
        raise NotImplementedError

    def _reference_text(self, problem) -> str:
        raise NotImplementedError

    def evaluate(self, problem, response: str, model: str = "",
                 sample_idx: int = 0) -> EvalRecord:
        return self.evaluate_batch(problem, [response], model=model,
                                   start_idx=sample_idx)[0]

    def evaluate_batch(self, problem, responses, model: str = "",
                       start_idx: int = 0) -> list[EvalRecord]:
        """Evaluate all samples of one problem as one service batch."""
        records = []
        syntax = _checked(self.service.run(
            [self._syntax_request(problem, response)
             for response in responses]))
        pending: list[EvalRecord] = []
        equiv_requests: list[VerifyRequest] = []
        for offset, (response, gate) in enumerate(zip(responses, syntax)):
            record = EvalRecord(task=self.name, model=model,
                                problem_id=problem.problem_id,
                                sample_idx=start_idx + offset,
                                response=response)
            record.syntax_ok = gate.verdict == "ok"
            record.bleu = sentence_bleu(response,
                                        self._reference_text(problem))
            if not record.syntax_ok:
                record.verdict = "syntax_error"
                record.detail = gate.detail
            else:
                pending.append(record)
                equiv_requests.append(self._equiv_request(problem, response))
            records.append(record)
        for record, response in zip(
                pending, _checked(self.service.run(equiv_requests))):
            record.verdict = response.verdict
            record.func = response.func
            record.partial = response.partial
            record.detail = response.detail
            # response.meta may carry counterexample diagnostics; records
            # never did, so it is deliberately not folded
        return records


class Nl2SvaHumanTask(_EquivalenceTask):
    """NL2SVA-Human: assertion generation against real-world testbenches."""

    name = "nl2sva_human"

    def __init__(self, use_cache: bool = True,
                 service: VerificationService | None = None,
                 workers: int | None = None):
        super().__init__("nl2sva_human", use_cache, service, workers)

    def problems(self) -> list[HumanProblem]:
        return corpus.problems()

    def testbench_design(self, problem: HumanProblem) -> Design:
        """The testbench's elaborated base: its signal widths and
        parameters, which are all a request's context reads (memoised
        by the elaborator; the testbench's own assertions are never
        bound)."""
        return elaborate_base(corpus.testbench_source(problem.testbench))

    def context(self, problem: HumanProblem) -> dict:
        design = self.testbench_design(problem)
        return {"widths": design.widths, "params": design.params}

    def prompt(self, problem: HumanProblem) -> str:
        return prompts.nl2sva_human_prompt(
            corpus.testbench_source(problem.testbench),
            problem.question_text)

    def _reference_text(self, problem: HumanProblem) -> str:
        return problem.reference

    def _syntax_request(self, problem: HumanProblem,
                        response: str) -> VerifyRequest:
        design = self.testbench_design(problem)
        return VerifyRequest(kind="syntax", candidate=response,
                             widths=design.widths, params=design.params)

    def _equiv_request(self, problem: HumanProblem,
                       response: str) -> VerifyRequest:
        design = self.testbench_design(problem)
        return VerifyRequest(kind="equivalence",
                             reference=problem.reference,
                             candidate=strip_code_fences(response),
                             widths=design.widths, params=design.params,
                             cache_ns=self._namespace,
                             use_cache=self.use_cache)


class Nl2SvaMachineTask(_EquivalenceTask):
    """NL2SVA-Machine: synthetic NL-to-SVA translation stress test."""

    name = "nl2sva_machine"

    def __init__(self, count: int = 300, seed: int = 0,
                 use_cache: bool = True,
                 service: VerificationService | None = None,
                 workers: int | None = None):
        super().__init__("nl2sva_machine", use_cache, service, workers)
        self.count = count
        self.seed = seed
        self._problems: list[MachineProblem] | None = None

    def problems(self) -> list[MachineProblem]:
        if self._problems is None:
            self._problems = build_problems(self.count, self.seed)
        return self._problems

    def context(self, problem: MachineProblem) -> dict:
        return {"widths": dict(SIGNAL_WIDTHS), "params": {}}

    def prompt(self, problem: MachineProblem, shots: int = 0) -> str:
        return prompts.nl2sva_machine_prompt(problem.question_text, shots)

    def _reference_text(self, problem: MachineProblem) -> str:
        return problem.sva

    def _syntax_request(self, problem: MachineProblem,
                        response: str) -> VerifyRequest:
        return VerifyRequest(kind="syntax", candidate=response,
                             widths=dict(SIGNAL_WIDTHS),
                             extra_signals=("clk",))

    def _equiv_request(self, problem: MachineProblem,
                       response: str) -> VerifyRequest:
        return VerifyRequest(kind="equivalence",
                             reference_ast=problem.assertion,
                             reference=problem.sva,
                             candidate=strip_code_fences(response),
                             widths=dict(SIGNAL_WIDTHS),
                             cache_ns=self._namespace,
                             use_cache=self.use_cache)


class Design2SvaTask:
    """Design2SVA: propose a provable assertion from design RTL alone."""

    name = "design2sva"

    def __init__(self, category: str = "fsm", count: int = 96, seed: int = 0,
                 prover_kwargs: dict | None = None, use_cache: bool = True,
                 strategy: str | None = None,
                 service: VerificationService | None = None,
                 workers: int | None = None,
                 executor: str | None = None):
        self.category = category
        self.count = count
        self.seed = seed
        self.use_cache = use_cache
        self.prover_kwargs = dict(prover_kwargs or {})
        if strategy is not None and strategy != "auto":
            # engine scheduling policy (bmc | kind | portfolio), forwarded
            # as the request engine configuration and hence part of the
            # verdict-cache key; the default "auto" is omitted so
            # explicit-default tasks share cache entries with unconfigured
            # ones
            self.prover_kwargs["strategy"] = strategy
        self.prover_kwargs.setdefault("max_bmc", 8)
        self.prover_kwargs.setdefault("max_k", 5)
        self.prover_kwargs.setdefault("sim_traces", 8)
        self.prover_kwargs.setdefault("sim_cycles", 24)
        #: per-stage wall-clock + solver totals aggregated over all provers
        #: the service creates for this task (callers may inject a shared
        #: dict)
        self.profile: dict = self.prover_kwargs.setdefault("profile", {})
        #: engine settings that determine verdicts -- the request engine
        #: configuration; the profile dict is observability, not semantics
        self._engine = {k: v for k, v in self.prover_kwargs.items()
                        if k != "profile"}
        self._namespace = f"design2sva_{category}"
        self.service = (service if service is not None
                        else VerificationService(profile=self.profile,
                                                 workers=workers,
                                                 executor=executor))
        self._problems: list[GeneratedDesign] | None = None

    def cache_stats(self) -> dict[str, int]:
        return self.service.cache_stats()

    def problems(self) -> list[GeneratedDesign]:
        if self._problems is None:
            self._problems = build_benchmark(self.category, self.count,
                                             self.seed)
        return self._problems

    def prompt(self, problem: GeneratedDesign) -> str:
        return prompts.design2sva_prompt(problem.source, problem.tb_source)

    def prove_request(self, problem: GeneratedDesign,
                      response: str) -> VerifyRequest:
        """The service request one sample of *problem* evaluates as.

        The single construction path (fence stripping, testbench splice,
        engine/cache configuration) shared by :meth:`evaluate_batch` and
        external workload generators.  An assertion-only response names
        its base: ``design`` is the problem's shared base and
        ``assertion`` the response text, which the service binds in the
        base's scope (an unresolved signal is its ``syntax_error``).
        One with support code is spliced into the testbench and travels
        as ``source``, which the service elaborates.  Raises
        :class:`SpliceError` when the response does not parse as module
        items.
        """
        code = strip_code_fences(response)
        request = VerifyRequest(kind="prove", engine=dict(self._engine),
                                cache_ns=self._namespace,
                                use_cache=self.use_cache)
        if all(isinstance(item, AssertionItem)
               for item in parse_snippet_items(code).items):
            request.design = problem_base(problem, problem.tb_source)
            request.assertion = code
        else:
            merged = merge_for_eval(problem, problem.tb_source, code)
            request.source, request.top = merged.source_file, merged.top
        return request

    def evaluate(self, problem: GeneratedDesign, response: str,
                 model: str = "", sample_idx: int = 0) -> EvalRecord:
        return self.evaluate_batch(problem, [response], model=model,
                                   start_idx=sample_idx)[0]

    def evaluate_batch(self, problem: GeneratedDesign, responses,
                       model: str = "", start_idx: int = 0
                       ) -> list[EvalRecord]:
        """Evaluate all samples of one problem as one service batch.

        The service groups the samples by their (shared) design
        signature, so the batch's candidate assertions are proved on one
        prover.
        """
        records = []
        pending: list[EvalRecord] = []
        requests: list[VerifyRequest] = []
        for offset, response in enumerate(responses):
            record = EvalRecord(task=self.name, model=model,
                                problem_id=problem.instance_id,
                                sample_idx=start_idx + offset,
                                response=response)
            records.append(record)
            try:
                request = self.prove_request(problem, response)
            except (SpliceError, ValueError) as exc:
                record.verdict = "syntax_error"
                record.detail = str(exc)[:160]
                continue
            pending.append(record)
            requests.append(request)
        for record, response in zip(
                pending, _checked(self.service.run(requests))):
            if response.verdict == "syntax_error":
                record.verdict = "syntax_error"
                record.detail = response.detail
                continue
            record.syntax_ok = True
            record.verdict = response.verdict
            record.func = response.func
            record.partial = response.partial
            record.detail = response.detail
            record.meta = dict(response.meta)
        return records


@lru_cache(maxsize=None)
def default_tasks() -> dict[str, object]:
    return {
        "nl2sva_human": Nl2SvaHumanTask(),
        "nl2sva_machine": Nl2SvaMachineTask(),
        "design2sva_fsm": Design2SvaTask("fsm"),
        "design2sva_pipeline": Design2SvaTask("pipeline"),
    }
