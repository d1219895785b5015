"""The equivalence oracle's inputs: NL2SVA references and what is scored
against them.

* every NL2SVA-Human reference, and NL2SVA-Machine references of the
  given dataset seeds;
* against each, the five ``SimulatedModel`` responses the benchmark
  scores (one model, T = 0.8) that parse, and single
  :mod:`repro.models.perturb` mutants of the reference (one corruption,
  one partial rewrite and one style rewrite).

Every signal is cut to 1 bit, so a trace is a matrix of free bits.
"""

from __future__ import annotations

import random

from repro.core.tasks import Nl2SvaHumanTask
from repro.datasets.nl2sva_human import corpus
from repro.datasets.nl2sva_machine.critic import build_problems
from repro.datasets.nl2sva_machine.generator import SIGNAL_WIDTHS
from repro.models import perturb
from repro.models.base import GenerationRequest, SimulatedModel
from repro.sva.lexer import strip_code_fences
from repro.sva.parser import ParseError, parse_assertion
from repro.sva.unparse import unparse

from .equiv import Pair

MODEL = "gpt-4o"
SAMPLES = 5
TEMPERATURE = 0.8


def _candidates(name, reference, responses, params) -> list:
    """``(name, assertion)`` of every response that parses and every
    mutant, deduplicated by text."""
    out = []
    seen = set()

    def add(suffix, assertion):
        text = unparse(assertion)
        if text not in seen:
            seen.add(text)
            out.append((f"{name}~{suffix}", assertion))

    for i, response in enumerate(responses):
        try:
            add(f"r{i}", parse_assertion(strip_code_fences(response),
                                         params=params))
        except ParseError:
            pass  # scored by the syntax gate, never by the checker
    rng = random.Random(name)
    for transform in (perturb.apply_corrupt, perturb.apply_partial,
                      perturb.apply_style):
        mutant = transform(reference, rng)
        if mutant is not None:
            add(transform.__name__[6:], mutant)
    return out


def human_pairs() -> list[Pair]:
    model = SimulatedModel(MODEL)
    task = Nl2SvaHumanTask(use_cache=False)
    problems = corpus.problems()
    pairs = []
    for index, problem in enumerate(problems):
        context = task.context(problem)
        params = dict(context["params"])
        reference = parse_assertion(problem.reference, params=params)
        responses = model.generate(GenerationRequest(
            task="nl2sva_human", problem=problem, n_samples=SAMPLES,
            temperature=TEMPERATURE, widths=dict(context["widths"]),
            params=params, quantile=(index + 0.5) / len(problems)))
        pairs += [Pair(name, "human", reference, candidate, params)
                  for name, candidate in _candidates(
                      problem.problem_id, reference, responses, params)]
    return pairs


def machine_pairs(count: int, seed: int) -> list[Pair]:
    model = SimulatedModel(MODEL)
    problems = build_problems(count, seed)
    pairs = []
    for index, problem in enumerate(problems):
        responses = model.generate(GenerationRequest(
            task="nl2sva_machine", problem=problem, n_samples=SAMPLES,
            temperature=TEMPERATURE, widths=dict(SIGNAL_WIDTHS),
            quantile=(index + 0.5) / len(problems)))
        pairs += [Pair(name, "machine", problem.assertion, candidate)
                  for name, candidate in _candidates(
                      f"{seed}:{problem.problem_id}", problem.assertion,
                      responses, {})]
    return pairs


def pair_from_json(data: dict) -> Pair:
    params = dict(data.get("params") or {})
    return Pair(data["name"], data["family"],
                parse_assertion(data["reference"], params=params),
                parse_assertion(data["candidate"], params=params), params)
