"""Tests of the benchmark's own machinery.

No timing assertions and no server children: span arithmetic, the
percentile rule, the manifest, and an in-process smoke of the three
in-process workloads at tiny counts.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import harness, metrics, runners, trace, workloads  # noqa: E402

#: counts of one or two per design family, a dozen Machine problems
TINY = 0.02


# -- span arithmetic -----------------------------------------------------------


def _span(ident, name, start, end, parent=-1, tag=""):
    return [ident, name, start, end, parent, "r", tag]


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span(0, "op", 0.0, 10.0),
        _span(1, "rtl.parser.parse", 1.0, 4.0, parent=0),
        _span(2, "sva.lexer.tokenize", 2.0, 3.0, parent=1),
        _span(3, "formal.prover.prove", 5.0, 9.0, parent=0, tag="cex"),
        # overlapping children (another thread's view of the same
        # parent) count once, and a child is clipped to its parent
        _span(4, "formal.sat.solve", 6.0, 8.0, parent=3,
              tag={"conflicts": 3}),
        _span(5, "formal.sat.solve", 7.0, 9.5, parent=3,
              tag={"conflicts": 4}),
    ]
    own = trace.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(4.0 - 3.0)  # children cover [6, 9]
    totals = trace.layer_totals(spans)
    assert totals["formal.prover.prove.cex"]["calls"] == 1
    assert totals["formal.sat.solve"]["counts"] == {"conflicts": 7}
    assert totals["sva.lexer.tokenize"]["by_parent"] == {"rtl": 1}
    assert totals["rtl.parser.parse"]["by_parent"] == {"op": 1}


def test_spans_round_trip_through_the_file(tmp_path):
    spans = [_span(0, "op", 0.0, 1.0), _span(1, "x.y", 0.2, 0.4, parent=0)]
    path = tmp_path / "spans.jsonl"
    trace.write_spans(path, spans)
    assert trace.read_spans(path) == spans
    assert set(json.loads(path.read_text().splitlines()[0])) == {
        "id", "name", "start", "end", "parent", "request_id", "tag"}


# -- statistics ----------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert harness.tail_percentile(list(range(19)))[0] == 50
    assert harness.tail_percentile(list(range(40)))[0] == 75
    assert harness.tail_percentile(list(range(100)))[0] == 90
    assert harness.tail_percentile(list(range(200)))[0] == 95
    p, value = harness.tail_percentile(list(range(1, 1001)))
    assert (p, value) == (99, 990)
    assert harness.percentile([5, 1, 3], 50) == 3
    assert harness.best_of([[3, 1], [2, 4]]) == [2, 1]


# -- the manifest --------------------------------------------------------------


def test_benchmark_json_is_the_declared_manifest():
    found = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert found == metrics.manifest()
    assert metrics.problems(found) == []
    assert found["paths"] == ["bench"]
    assert set(runners.RUNNERS) == {w["name"] for w in found["workloads"]}


def test_manifest_validation_catches_bad_documents():
    good = metrics.manifest()
    bad = json.loads(json.dumps(good))
    bad["workloads"][0]["name"] = "has space"
    bad["per_layer"].append({"name": "wall_s", "unit": "s",
                             "better": "lower"})
    bad["end_to_end"][1]["bound"] = 0.5
    wrong = metrics.problems(bad)
    assert any("bad name" in w for w in wrong)
    assert any("duplicate" in w for w in wrong)
    assert any("end-to-end entry wall_s" in w for w in wrong)


def test_design_prover_matches_the_paper_fidelity_suite():
    spec = importlib.util.spec_from_file_location(
        "_fidelity_conftest", ROOT / "benchmarks" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert workloads.DESIGN_PROVER == module.DESIGN_PROVER


# -- inputs --------------------------------------------------------------------


def test_same_seed_same_inputs_other_seed_other_inputs():
    def digest(seed):
        return [(op.op_id, op.responses) for op in
                workloads.build_ops("d2s_prove_cold", seed, TINY)]
    assert digest(3) == digest(3)
    assert digest(3) != digest(4)
    for workload in workloads.STREAM:
        ids = [op.op_id for op in workloads.build_ops(workload, 0, TINY)]
        assert len(ids) == len(set(ids))
    assert (workloads.build_ops("route_open_steps", 2, TINY)[0].op_id
            == workloads.build_ops("http_closed_batches", 2, TINY)[0].op_id)


def test_committed_goldens_cover_seeds_0_and_1():
    for stream in set(workloads.STREAM.values()):
        for seed in (0, 1):
            answers = harness.load_golden(stream, seed, workloads.SCALE)
            assert answers, (stream, seed)


# -- the in-process workloads, end to end at tiny counts -------------------------


def _traced_run(name, seed=0):
    runner = runners.RUNNERS[name](seed, TINY, True)
    try:
        runner.setup()
        trace.SPANS.clear()
        runner.measure(0.0)
        return runner, runner.layers({})
    finally:
        runner.teardown()


@pytest.mark.parametrize("name", metrics.IN_PROCESS)
def test_in_process_smoke(name):
    exact = [metric for metric, row in metrics.PER_LAYER.items() if row[2]]
    runner, values = _traced_run(name)
    # the wrappers of a traced pass are gone once it ends
    assert trace.still_wrapped() == []
    assert len(runner.traced_passes) >= 2 and len(runner.plain) >= 2
    assert all(span[5] for span in trace.SPANS)  # every span has its op
    # the fast path agrees with the oracle on every operation
    golden = runner.golden()
    assert runner.failed(golden) == 0
    assert runner.attempted() > 0
    # a flipped known answer fails the run
    request_id, (verdict, func, partial) = next(iter(golden.items()))
    assert runner.failed({**golden,
                          request_id: (verdict, not func, partial)}) > 0
    # counts marked exact repeat exactly at a fixed seed
    _again, repeat = _traced_run(name)
    assert {m: values[m] for m in exact if m in values} \
        == {m: repeat[m] for m in exact if m in repeat}
    assert set(values) <= set(metrics.PER_LAYER)


def test_run_workload_reports_every_declared_metric():
    plain = runners.run_workload("nl2sva_equiv_cold", 5, 0.0, False, TINY)
    assert set(plain["metrics"]) == set(metrics.END_TO_END)
    assert plain["correct"] and plain["failed"] == 0
    assert plain["golden"] == "oracle"
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    for field in ("git_rev", "git_dirty", "python", "nproc", "seed",
                  "scale", "n"):
        assert field in plain
