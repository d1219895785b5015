"""The raw-key alias: a repeated answer is one lookup (docs/cache.md,
"Raw-key alias").

Planning maps a cached-kind request's *raw key* -- its namespace, kind
and every input its semantic key is a function of, as given -- to that
semantic key, process-wide.  The alias may only ever save work, so this
suite pins that (a) records with a warm alias equal records computed
after ``memo.clear()``, over NL2SVA-Human, NL2SVA-Machine and Design2SVA
fsm and pipeline responses, (b) changing any one raw field misses, (c)
a request that fails to key stores nothing and a reference AST named by
identity is pinned by its entry, and (d) a replay on a fresh service is
answered by the alias: no parse, bind, splice or canonicalisation.
"""

import copy
import tempfile
from dataclasses import asdict, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import memo
from repro.core import tasks as tasks_module
from repro.core.runner import RunConfig, run_model_on_task
from repro.core.tasks import Design2SvaTask, Nl2SvaHumanTask, Nl2SvaMachineTask
from repro.datasets.design2sva import testbench_gen
from repro.models.base import GenerationRequest, SimulatedModel
from repro.rtl import bind_text, elaborate_base
from repro.rtl.ast_nodes import AssertionItem
from repro.rtl.parser import SpliceError, parse_snippet_items
from repro.service import VerificationService, VerifyRequest
from repro.service import service as service_module

PROVER = {"max_bmc": 5, "max_k": 3, "sim_traces": 4, "sim_cycles": 16}
MODEL, SAMPLES, TEMPERATURE = "gpt-4o", 5, 0.8
CATEGORIES = ("fsm", "pipeline")


@pytest.fixture(autouse=True)
def _plain_environment(monkeypatch):
    for name in ("FVEVAL_CACHE", "FVEVAL_CACHE_TIERS", "FVEVAL_NO_CACHE",
                 "FVEVAL_JOBS", "FVEVAL_EXECUTOR", "FVEVAL_WORKERS"):
        monkeypatch.delenv(name, raising=False)


def alias_stats() -> dict:
    return memo.stats()["service.alias"]


def make_tasks(service) -> dict:
    tasks = {"human": Nl2SvaHumanTask(service=service),
             "machine": Nl2SvaMachineTask(count=8, service=service)}
    for category in CATEGORIES:
        tasks[category] = Design2SvaTask(
            category, count=3, prover_kwargs=dict(PROVER), service=service)
    return tasks


def responses_of(task, problem, index, count) -> list[str]:
    context = task.context(problem) if hasattr(task, "context") else {}
    return SimulatedModel(MODEL).generate(GenerationRequest(
        task=task.name, problem=problem, n_samples=SAMPLES,
        temperature=TEMPERATURE, params=dict(context.get("params", {})),
        widths=dict(context.get("widths", {})),
        quantile=(index + 0.5) / count))


def cached_requests(family: str, limit: int = 2) -> list[tuple]:
    """``(problem, request)`` for the cached-kind requests a run of
    *family* sends: equivalence requests for NL2SVA responses, prove
    requests for the Design2SVA responses that are assertions only."""
    task = make_tasks(VerificationService())[family]
    problems = task.problems()[:limit]
    requests = []
    for index, problem in enumerate(problems):
        for response in responses_of(task, problem, index, len(problems)):
            if family in CATEGORIES:
                try:
                    request = task.prove_request(problem, response)
                except SpliceError:
                    continue  # answered by the task, never sent
                if request.design is None:
                    continue  # support code: travels as a parsed source
            else:
                request = task._equiv_request(problem, response)
            requests.append((problem, request))
    return requests


def answer(request: VerifyRequest, service=None) -> tuple:
    """The verdict fields of *request* (a fresh copy, so the request
    itself is never stamped with an id)."""
    service = service or VerificationService(cache_tiers="memory")
    [response] = service.run([replace(request)])
    return (response.ok, response.verdict, response.func, response.partial,
            response.detail)


# -- (a) a warm alias changes no record --------------------------------------


def run_records(task) -> list[dict]:
    """One run of *task* on a fresh service with a fresh memory tier.
    The task (and so its problems, and a Machine reference AST the alias
    names by identity) is kept from run to run."""
    task.service = VerificationService(cache_tiers="memory")
    result = run_model_on_task(MODEL, task, RunConfig(
        n_samples=SAMPLES, temperature=TEMPERATURE, limit=4))
    return [asdict(record) for record in result.records]


@pytest.mark.parametrize("family", ["human", "machine", *CATEGORIES])
def test_records_with_a_warm_alias_equal_a_cleared_run(family):
    task = make_tasks(None)[family]
    memo.clear()
    cold = run_records(task)
    before = alias_stats()
    # a fresh memory tier: every alias hit misses the cache and computes
    warm = run_records(task)
    after = alias_stats()
    assert after["hits"] > before["hits"]
    assert after["misses"] == before["misses"]
    memo.clear()
    cleared = run_records(task)
    assert cold == warm == cleared


# -- (b) changing any one raw field misses -----------------------------------


def equivalence_variants(request: VerifyRequest) -> dict:
    widths = dict(request.widths)
    name = next(iter(widths))
    variants = {
        "namespace": replace(request, cache_ns=request.namespace + "_other"),
        "engine": replace(request, engine={"max_conflicts": 4000}),
        "widths": replace(request, widths={**widths, "spare__w": 1}),
        # equal as Python values, different in a semantic key's JSON
        "width_type": replace(request, widths={
            **widths, name: float(widths[name])}),
        "params": replace(request, params={**(request.params or {}),
                                           "SPARE__P": 1}),
        "reference": replace(request, reference=request.reference + " "),
        "response": replace(request, candidate=request.candidate + " "),
    }
    if request.reference_ast is not None:
        # an equal tree, but another object
        variants["reference_ast"] = replace(
            request, reference_ast=copy.deepcopy(request.reference_ast))
    return variants


def prove_variants(problem, request: VerifyRequest) -> dict:
    return {
        "namespace": replace(request, cache_ns=request.namespace + "_other"),
        "engine": replace(request, engine={**request.engine, "max_bmc": 6}),
        "engine_type": replace(request, engine={
            **request.engine, "max_bmc": float(request.engine["max_bmc"])}),
        # the same DUT under another testbench text is another base
        "base": replace(request, design=testbench_gen._build_base(
            problem.source, problem.tb_source + "\n", problem.top).design),
        "response": replace(request, assertion=request.assertion + "\n"),
        "assumes": replace(request, assumes=(
            "assume property (@(posedge clk) 1'b1);",)),
    }


@pytest.fixture(scope="module")
def samples() -> dict:
    return {family: cached_requests(family)
            for family in ("human", "machine", *CATEGORIES)}


def variants_of(family: str, problem, request: VerifyRequest) -> dict:
    return (prove_variants(problem, request) if family in CATEGORIES
            else equivalence_variants(request))


@pytest.mark.parametrize("family", ["human", "machine", *CATEGORIES])
def test_every_raw_field_is_part_of_the_key(family, samples):
    problem, request = samples[family][0]
    raw = service_module._raw_key(request)
    assert raw is not None
    variants = variants_of(family, problem, request)
    keys = {name: service_module._raw_key(variant)
            for name, variant in variants.items()}
    assert all(key is not None for key in keys.values())
    assert raw not in keys.values(), [
        name for name, key in keys.items() if key == raw]
    assert len(set(keys.values())) == len(keys)


@pytest.mark.parametrize("family", ["human", "machine", *CATEGORIES])
def test_a_changed_field_misses_and_answers_as_if_cold(family, samples,
                                                      tmp_path):
    problem, request = samples[family][0]
    for name, variant in variants_of(family, problem, request).items():
        (misses, hits), warm, cold = warm_then_cold(
            request, variant, tmp_path / name)
        assert (misses, hits) == (1, 0), name
        assert warm == cold, name


def warm_then_cold(request, variant, directory):
    """*variant* answered once right after *request* warmed the alias
    and a disk tier, each on a fresh service over that tier, and once
    more with every memo cleared: the alias counts of the warm answer,
    and both answers.  A wrong alias hit would read *request*'s verdict
    off the disk; fresh services keep pooled engines out of it."""
    tiers = f"memory,disk={directory}"
    memo.clear()
    answer(request, VerificationService(cache_tiers=tiers))
    before = alias_stats()
    warm = answer(variant, VerificationService(cache_tiers=tiers))
    after = alias_stats()
    memo.clear()
    cold = answer(variant)
    return ((after["misses"] - before["misses"],
             after["hits"] - before["hits"]), warm, cold)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_one_field_change_misses(samples, data):
    family = data.draw(st.sampled_from(sorted(samples)), label="family")
    problem, request = data.draw(st.sampled_from(samples[family]),
                                 label="request")
    variants = variants_of(family, problem, request)
    name = data.draw(st.sampled_from(sorted(variants)), label="field")
    with tempfile.TemporaryDirectory() as directory:
        counts, warm, cold = warm_then_cold(request, variants[name],
                                            directory)
    assert counts == (1, 0)
    assert warm == cold


def test_equal_requests_share_one_entry(samples):
    _, request = samples["machine"][0]
    copy_of = replace(request, widths=dict(request.widths),
                      engine=dict(request.engine))
    assert service_module._raw_key(copy_of) == \
        service_module._raw_key(request)


# -- (c) failures store nothing; references are pinned -----------------------


WIDTHS = {"a": 1, "b": 1, "clk": 1}
REF = "assert property (@(posedge clk) a |-> b);"
FOLLOWER = """
module t(input clk, input a, output reg b);
  always_ff @(posedge clk) b <= a;
endmodule"""


def follower_prove(assertion: str) -> VerifyRequest:
    """A prove request naming a digested text base."""
    return VerifyRequest(kind="prove", design=elaborate_base(FOLLOWER),
                         assertion=assertion)


@pytest.mark.parametrize("make", [
    # canonicalisation fails: computed, never keyed
    lambda: VerifyRequest(
        kind="equivalence", reference=REF, widths=WIDTHS,
        candidate="assert property (@(posedge clk) a |-> );"),
    # an unknown engine option: an error response
    lambda: VerifyRequest(kind="equivalence", reference=REF, candidate=REF,
                          widths=WIDTHS, engine={"not_a_knob": 1}),
    # the text does not parse as module items
    lambda: follower_prove("assert property (@(posedge clk) a |=> );"),
    # an unresolved signal: the bind fails
    lambda: follower_prove("assert property (@(posedge clk) nope);"),
], ids=["canonical", "engine", "parse", "bind"])
def test_failures_store_nothing(make):
    memo.clear()
    request_ = make()
    assert service_module._raw_key(request_) is not None
    first = answer(request_)
    assert service_module._ALIAS.keys() == []
    before = alias_stats()
    assert answer(request_) == first
    after = alias_stats()
    assert after["misses"] == before["misses"] + 1
    assert after["hits"] == before["hits"]
    assert service_module._ALIAS.keys() == []


def test_unaliasable_requests_have_no_raw_key(samples):
    _, prove = samples["fsm"][0]
    base = prove.design
    # a design is named by its base's digest; one without a digest
    # (here: a copy, whose derived values start empty) is never aliased
    assert service_module._raw_key(replace(
        prove, design=replace(base))) is None
    # nor is a source, which names no base
    assert service_module._raw_key(VerifyRequest(
        kind="prove", source=FOLLOWER, assertion=prove.assertion)) is None
    # the digest does not name what was bound onto the base, so a design
    # whose assertion is implicit (its last) is never aliased either
    assert service_module._raw_key(replace(prove, assertion=None)) is None
    # parsed prove assertions and assumes are not named by identity
    ast = bind_text(base, prove.assertion).assertions[-1]
    assert service_module._raw_key(replace(prove, assertion=ast)) is None
    assert service_module._raw_key(replace(prove, assumes=(ast,))) is None
    _, machine = samples["machine"][0]
    assert service_module._raw_key(replace(
        machine, widths={"a": {1}})) is None  # unhashable


def test_the_entry_pins_its_reference_ast(samples):
    memo.clear()
    _, request = samples["machine"][0]
    reference = copy.deepcopy(request.reference_ast)
    pinned = replace(request, reference_ast=reference)
    raw = service_module._raw_key(pinned)
    answer(pinned)
    [(key, pin)] = [service_module._ALIAS.lookup(k)
                    for k in service_module._ALIAS.keys()]
    assert raw in service_module._ALIAS.keys()
    assert pin is reference
    # a request with no reference AST pins nothing
    memo.clear()
    answer(replace(request, reference_ast=None))
    [(_, pin)] = [service_module._ALIAS.lookup(k)
                  for k in service_module._ALIAS.keys()]
    assert pin is None


# -- (d) a replay is answered by the alias -----------------------------------


def test_replay_is_answered_by_the_alias(tmp_path, monkeypatch):
    """Two runs over one ``memory,disk=DIR`` stack in one process, the
    second on a fresh service: every cached-kind request of the replay
    is an alias hit, nothing is parsed again, and the verdict cache
    reads what it read before the alias existed."""
    splices = []
    real_merge = tasks_module.merge_for_eval

    def counting_merge(*args, **kwargs):
        splices.append(args[2])
        return real_merge(*args, **kwargs)

    monkeypatch.setattr(tasks_module, "merge_for_eval", counting_merge)
    tiers = f"memory,disk={tmp_path}"

    tasks = (Design2SvaTask("fsm", count=3, prover_kwargs=dict(PROVER)),
             Nl2SvaMachineTask(count=6))

    def run():
        service = VerificationService(cache_tiers=tiers)
        kinds = []
        real_run = service.run

        def counting_run(requests):
            requests = list(requests)
            kinds.extend(r.kind for r in requests)
            return real_run(requests)

        service.run = counting_run
        records = []
        for task in tasks:
            task.service = service
            records += [asdict(r) for r in run_model_on_task(
                MODEL, task, RunConfig(n_samples=SAMPLES,
                                       temperature=TEMPERATURE,
                                       limit=3)).records]
        return records, service, kinds

    memo.clear()
    first, _, _ = run()
    before = memo.stats()
    splices.clear()
    second, service, kinds = run()
    after = memo.stats()
    assert first == second
    cached = sum(kind in ("equivalence", "prove") for kind in kinds)
    # a response with support code travels as a parsed source, which
    # has no raw key; every other cached-kind request is one alias hit
    assert cached > len(splices) > 0
    assert after["service.alias"]["hits"] \
        == before["service.alias"]["hits"] + cached - len(splices)
    assert after["service.alias"]["misses"] \
        == before["service.alias"]["misses"]
    for name in ("sva.canonical", "design2sva.snippet", "rtl.parser"):
        assert after[name]["misses"] == before[name]["misses"], name
    # the splice is for support code only
    assert all(not all(
        isinstance(item, AssertionItem)
        for item in parse_snippet_items(code).items) for code in splices)
    # what the verdict cache read before the alias existed: every
    # cached request hits, the 20 distinct verdicts on disk (promoted)
    # and their 10 repeats in memory
    cache = service.cache_stats()
    assert cache["misses"] == cache["puts"] == 0
    assert cache["hits"] == cached == 30
    assert cache["tiers"]["disk"]["hits"] == 20
    assert cache["tiers"]["memory"]["promotions"] == 20


def test_alias_capacity_and_name():
    alias = service_module._ALIAS
    assert alias.capacity == 4096
    assert memo._MEMOS["service.alias"] is alias
    assert "service.alias" in VerificationService().stats()["frontend"]


def test_requests_differing_only_in_engine_share_no_entry(samples):
    """Two requests that differ only in their engine must not share an
    alias entry: if they did, the second would read the first's
    verdict."""
    _, request = samples["fsm"][0]
    other = replace(request, engine={**request.engine, "max_bmc": 1,
                                     "max_k": 0})
    assert service_module._raw_key(request) \
        != service_module._raw_key(other)
    memo.clear()
    service = VerificationService(cache_tiers="memory")
    answer(request, service)
    warm = answer(other, service)
    memo.clear()
    assert warm == answer(other)
