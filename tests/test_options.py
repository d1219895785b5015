"""One ``Options``, read once: every ``FVEVAL_*`` knob parsed in one place.

* a table over every variable -- valid, typo, empty and non-positive
  values -- against literal expected fields;
* explicit constructor keywords beat the environment;
* read once: changing the environment after construction changes
  nothing for that object;
* ``FVEVAL_CACHE=DIR`` and ``FVEVAL_CACHE_TIERS=memory,disk=DIR`` build
  the same tier stack, and ``FVEVAL_NO_CACHE`` beats both;
* the deadline rule: an explicit non-positive deadline raises, an
  environment one means none;
* the structural gate: no module of ``src/repro`` but ``options.py`` and
  ``core/faults.py`` reads an ``FVEVAL_*`` variable from the environment.
"""

import ast
import dataclasses
import os
from pathlib import Path

import pytest

from repro.core.cache import VerdictCache
from repro.options import MAX_PROC_WORKERS, Options
from repro.service import AdmissionController, VerificationService
from repro.service import VerifyRequest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the variables Options owns (FVEVAL_FAULTS* stay in core/faults.py)
NAMES = ("JOBS", "EXECUTOR", "WORKERS", "DEADLINE_S", "NO_EQUIV_SHARE",
         "CACHE", "CACHE_TIERS", "NO_CACHE", "CACHE_MEM_MAX", "MAX_QUEUE",
         "MAX_INFLIGHT")

TYPO = ("FVEVAL_EXECUTOR='porcess' is not one of ('thread', 'process'); "
        "fell back to 'thread'")

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


@pytest.fixture(autouse=True)
def _hermetic_env(monkeypatch):
    for name in NAMES:
        monkeypatch.delenv(f"FVEVAL_{name}", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)


def parse(**env) -> dict:
    """The fields parsed from ``FVEVAL_<name>=<value>`` pairs."""
    return dataclasses.asdict(Options.from_env(
        {f"FVEVAL_{name}": value for name, value in env.items()}))


def prove(**overrides) -> VerifyRequest:
    return VerifyRequest(**{"kind": "prove", "source": TOY_DESIGN,
                            "use_cache": False, **overrides})


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


TABLE = [
    # name, raw value, expected fields
    ("JOBS", "3", {"jobs": 3}),
    ("JOBS", "auto", {"jobs": 8}),
    ("JOBS", "0", {"jobs": 8}),
    ("JOBS", "many", {"jobs": 1}),
    ("JOBS", "", {"jobs": 1}),
    ("JOBS", "-2", {"jobs": 1}),
    ("EXECUTOR", "process", {"executor": "process", "executor_error": None}),
    ("EXECUTOR", " Thread ", {"executor": "thread", "executor_error": None}),
    ("EXECUTOR", "porcess", {"executor": "thread", "executor_error": TYPO}),
    ("EXECUTOR", "", {"executor": "thread", "executor_error": None}),
    ("WORKERS", "3", {"workers": 3}),
    ("WORKERS", "auto", {"workers": 8}),
    ("WORKERS", "0", {"workers": 8}),
    ("WORKERS", "lots", {"workers": 1}),
    ("WORKERS", "", {"workers": 1}),
    ("WORKERS", "-4", {"workers": 1}),
    ("WORKERS", "1000", {"workers": MAX_PROC_WORKERS}),
    ("DEADLINE_S", "2.5", {"deadline_s": 2.5}),
    ("DEADLINE_S", "0", {"deadline_s": None}),
    ("DEADLINE_S", "-1", {"deadline_s": None}),
    ("DEADLINE_S", "soon", {"deadline_s": None}),
    ("DEADLINE_S", "", {"deadline_s": None}),
    ("NO_EQUIV_SHARE", "1", {"share_equiv": False}),
    ("NO_EQUIV_SHARE", "true", {"share_equiv": True}),
    ("NO_EQUIV_SHARE", "", {"share_equiv": True}),
    ("NO_CACHE", "1", {"caching": False}),
    ("NO_CACHE", "on", {"caching": True}),
    ("NO_CACHE", "", {"caching": True}),
    ("CACHE", "/c", {"cache_dir": "/c", "cache_tiers": "memory,disk=/c"}),
    ("CACHE", "", {"cache_dir": None, "cache_tiers": "memory"}),
    ("CACHE_TIERS", "memory,remote=h:1", {"cache_tiers": "memory,remote=h:1"}),
    ("CACHE_TIERS", "warp-drive", {"cache_tiers": "warp-drive"}),
    ("CACHE_TIERS", "memory,disk", {"cache_tiers": "memory,disk"}),
    ("CACHE_TIERS", "", {"cache_tiers": "memory"}),
    ("MAX_QUEUE", "7", {"max_queue": 7}),
    ("MAX_QUEUE", "0", {"max_queue": None}),
    ("MAX_QUEUE", "-3", {"max_queue": None}),
    ("MAX_QUEUE", "deep", {"max_queue": None}),
    ("MAX_QUEUE", "", {"max_queue": None}),
    ("MAX_INFLIGHT", "3", {"max_inflight": 3}),
    ("MAX_INFLIGHT", "0", {"max_inflight": None}),
    ("MAX_INFLIGHT", "wide", {"max_inflight": None}),
]


class TestTable:
    @pytest.mark.parametrize("name,raw,expected", TABLE,
                             ids=[f"{n}={r!r}" for n, r, _ in TABLE])
    def test_value(self, name, raw, expected):
        fields = parse(**{name: raw})
        assert {key: fields[key] for key in expected} == expected
        # every other field keeps its default
        defaults = dataclasses.asdict(Options())
        assert {key: value for key, value in fields.items()
                if key not in expected} == \
            {key: value for key, value in defaults.items()
             if key not in expected}

    def test_table_covers_every_name(self):
        assert {name for name, _, _ in TABLE} | {"CACHE_MEM_MAX"} == \
            set(NAMES)

    def test_unset_is_the_defaults(self):
        assert Options.from_env() == Options()
        assert Options() == Options(
            jobs=1, executor="thread", workers=1, deadline_s=None,
            share_equiv=True, caching=True, cache_dir=None,
            cache_tiers="memory", max_cache_entries=None,
            max_cache_bytes=None, max_queue=None, max_inflight=None,
            executor_error=None)

    def test_reads_os_environ_by_default(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_WORKERS", "3")
        monkeypatch.setenv("FVEVAL_NO_EQUIV_SHARE", "1")
        options = Options.from_env()
        assert (options.workers, options.share_equiv) == (3, False)

    def test_bare_disk_binds_to_the_cache_dir(self):
        assert parse(CACHE="/c", CACHE_TIERS="memory, DISK ,remote=h:1")[
            "cache_tiers"] == "memory,disk=/c,remote=h:1"
        # an explicit path is never rebound
        assert parse(CACHE="/c", CACHE_TIERS="disk=/d")["cache_tiers"] == \
            "disk=/d"

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Options().workers = 2


class TestMemCap:
    """``FVEVAL_CACHE_MEM_MAX``: entries, a byte budget, or both."""

    @pytest.mark.parametrize("raw,expected", [
        ("", (None, None)),
        ("50000", (50000, None)),
        ("64M", (None, 64 * 1024 ** 2)),
        ("50000,64K", (50000, 64 * 1024)),
        ("64k", (None, 64 * 1024)),  # case-insensitive suffix
        ("junk", (None, None)),
        ("-5,0", (None, None)),  # non-positive terms cap nothing
        ("2G", (None, 2 * 1024 ** 3)),
    ])
    def test_mem_cap(self, raw, expected):
        fields = parse(CACHE_MEM_MAX=raw)
        assert (fields["max_cache_entries"],
                fields["max_cache_bytes"]) == expected


class TestJobs:
    """``FVEVAL_JOBS`` as the runner reads it."""

    def test_default_is_serial(self):
        assert Options.from_env().jobs == 1

    def test_explicit_count(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_JOBS", "3")
        assert Options.from_env().jobs == 3

    def test_auto_uses_cores(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_JOBS", "auto")
        assert Options.from_env().jobs == 8
        monkeypatch.setenv("FVEVAL_JOBS", "0")
        assert Options.from_env().jobs == 8

    def test_garbage_degrades_to_serial(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_JOBS", "many")
        assert Options.from_env().jobs == 1


class TestWorkers:
    """``FVEVAL_WORKERS``: the process pool's size."""

    def test_default_is_serial(self):
        assert VerificationService().options.workers == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_WORKERS", "3")
        assert VerificationService().options.workers == 3
        assert VerificationService(workers=6).options.workers == 6
        assert VerificationService(workers=1).options.workers == 1

    def test_auto_uses_all_cores(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_WORKERS", "auto")
        assert Options.from_env().workers == 8
        monkeypatch.setenv("FVEVAL_WORKERS", "0")
        assert Options.from_env().workers == 8
        # explicit 0 follows the same 0 = all-cores convention
        monkeypatch.delenv("FVEVAL_WORKERS")
        assert Options.from_env(workers=0).workers == 8

    def test_garbage_env_falls_back_serial(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_WORKERS", "lots")
        assert Options.from_env().workers == 1


class TestCacheEnv:
    def test_env_controls(self, monkeypatch, tmp_path):
        monkeypatch.setenv("FVEVAL_CACHE", str(tmp_path))
        options = Options.from_env()
        assert options.cache_dir == str(tmp_path)
        assert options.caching
        monkeypatch.setenv("FVEVAL_NO_CACHE", "1")
        assert not Options.from_env().caching

    def test_cache_dir_and_tiers_build_identical_stacks(self, tmp_path):
        plain = Options.from_env({"FVEVAL_CACHE": str(tmp_path)})
        tiered = Options.from_env(
            {"FVEVAL_CACHE_TIERS": f"memory,disk={tmp_path}"})
        assert plain.cache_tiers == tiered.cache_tiers
        stacks = [VerdictCache("ns", tiers=options.cache_tiers)
                  for options in (plain, tiered)]
        for cache in stacks:
            assert [type(b).__name__ for b in cache.backends] == \
                ["MemoryBackend", "DiskBackend"]
            assert cache.backends[1].root == str(tmp_path)
            assert list(cache.stats()["tiers"]) == ["memory", "disk"]
            assert cache.drain_faults() == []

    def test_no_cache_beats_both(self, monkeypatch, tmp_path):
        monkeypatch.setenv("FVEVAL_CACHE", str(tmp_path))
        monkeypatch.setenv("FVEVAL_CACHE_TIERS", f"memory,disk={tmp_path}")
        monkeypatch.setenv("FVEVAL_NO_CACHE", "1")
        service = VerificationService()
        assert not service.options.caching
        service.run([prove(use_cache=True), prove(use_cache=True)])
        assert service.cache_stats()["puts"] == 0
        assert not list(tmp_path.rglob("*.json"))

    def test_cache_tiers_keyword_binds_the_env_dir(self, monkeypatch,
                                                   tmp_path):
        monkeypatch.setenv("FVEVAL_CACHE", str(tmp_path))
        service = VerificationService(cache_tiers="disk")
        assert service.options.cache_tiers == f"disk={tmp_path}"


class TestExplicitKeywords:
    def test_keywords_beat_the_environment(self, monkeypatch):
        for name, value in (("EXECUTOR", "porcess"), ("WORKERS", "3"),
                            ("DEADLINE_S", "9"), ("NO_EQUIV_SHARE", "1"),
                            ("CACHE_TIERS", "warp-drive"),
                            ("CACHE_MEM_MAX", "10,1M")):
            monkeypatch.setenv(f"FVEVAL_{name}", value)
        service = VerificationService(
            executor="process", workers=2, deadline_s=1.5,
            share_equiv=True, cache_tiers="memory", max_cache_entries=4,
            max_cache_bytes=2048)
        assert dataclasses.asdict(service.options) == {
            **dataclasses.asdict(Options()),
            "executor": "process", "workers": 2, "deadline_s": 1.5,
            "share_equiv": True, "cache_tiers": "memory",
            "max_cache_entries": 4, "max_cache_bytes": 2048}

    def test_none_keywords_take_the_environment(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_NO_EQUIV_SHARE", "1")
        assert not VerificationService(share_equiv=None).options.share_equiv

    def test_admission_keywords_beat_the_environment(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_MAX_QUEUE", "7")
        monkeypatch.setenv("FVEVAL_MAX_INFLIGHT", "3")
        adm = AdmissionController()
        assert (adm.max_queue, adm.max_inflight) == (7, 3)
        adm = AdmissionController(max_queue=9, max_inflight=2)
        assert (adm.max_queue, adm.max_inflight) == (9, 2)

    def test_bad_explicit_executor_raises(self):
        with pytest.raises(ValueError):
            Options.from_env(executor="fork_bomb")

    def test_explicit_executor_clears_the_env_typo(self):
        options = Options.from_env({"FVEVAL_EXECUTOR": "porcess"},
                                   executor="thread")
        assert options.executor_error is None

    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError):
            Options.from_env(executer="thread")


class TestReadOnce:
    def test_service_ignores_later_env_changes(self, monkeypatch):
        service = VerificationService()
        before = service.options
        for name, value in (("EXECUTOR", "process"), ("WORKERS", "4"),
                            ("DEADLINE_S", "0.001"), ("NO_EQUIV_SHARE", "1"),
                            ("NO_CACHE", "1"),
                            ("CACHE_TIERS", "warp-drive")):
            monkeypatch.setenv(f"FVEVAL_{name}", value)
        first, second = service.run([prove(use_cache=True),
                                     prove(use_cache=True)])
        assert service.options == before
        # no deadline, inline, cached (dedup engaged), no tier fault
        assert first.verdict == second.verdict == "proven"
        assert second.dedup_of == first.request_id
        assert service._procpool is None
        assert first.degraded == second.degraded == []
        [third] = service.run([prove(use_cache=True)])
        assert third.cache_hit

    def test_admission_ignores_later_env_changes(self, monkeypatch):
        adm = AdmissionController()
        monkeypatch.setenv("FVEVAL_MAX_QUEUE", "2")
        assert adm.max_queue == 256
        assert AdmissionController().max_queue == 2

    def test_pickled_service_keeps_its_options(self, monkeypatch):
        import pickle
        monkeypatch.setenv("FVEVAL_NO_EQUIV_SHARE", "1")
        service = VerificationService()
        monkeypatch.delenv("FVEVAL_NO_EQUIV_SHARE")
        assert not pickle.loads(pickle.dumps(service)).options.share_equiv

    def test_executor_typo_event_once(self, monkeypatch):
        monkeypatch.setenv("FVEVAL_EXECUTOR", "porcess")
        service = VerificationService()
        monkeypatch.delenv("FVEVAL_EXECUTOR")  # read already: still owed
        [first] = service.run([prove()])
        [event] = first.degraded
        assert (event["code"], event["detail"]) == ("config", TYPO)
        [second] = service.run([prove()])
        assert second.degraded == []


class TestDeadlineRule:
    """One rule for the default deadline: an explicit non-positive value
    raises at construction, a non-positive environment value means no
    deadline.  (A non-positive default used to time out every proof:
    ``deadline_s=0`` answered ``timeout`` / "deadline exceeded (0s)".)"""

    @pytest.mark.parametrize("value", [0, 0.0, -1, -0.5])
    def test_explicit_non_positive_raises(self, value):
        with pytest.raises(ValueError, match="deadline_s must be positive"):
            VerificationService(deadline_s=value)

    @pytest.mark.parametrize("raw", ["0", "-1"])
    def test_env_non_positive_means_none(self, monkeypatch, raw):
        monkeypatch.setenv("FVEVAL_DEADLINE_S", raw)
        service = VerificationService()
        assert service.options.deadline_s is None
        [response] = service.run([prove()])
        assert response.verdict == "proven" and not response.degraded

    @pytest.mark.parametrize("raw", ["0", "-1"])
    def test_cli_rejects_non_positive(self, raw, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--deadline", raw])
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the structural gate
# ---------------------------------------------------------------------------


#: the only modules that may read FVEVAL_* from the environment
ALLOWED = {"options.py", "core/faults.py"}


def fveval_env_reads(source: str) -> list[int]:
    """Lines of *source* where an ``os.environ`` / ``os.getenv`` access
    (a call, a subscript or a membership test) names an ``FVEVAL_*``
    string, literal or f-string."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Call, ast.Subscript, ast.Compare)):
            continue
        inner = list(ast.walk(node))
        touches_env = any(
            (isinstance(n, ast.Attribute) and n.attr in ("environ",
                                                          "getenv"))
            or (isinstance(n, ast.Name) and n.id in ("environ", "getenv"))
            for n in inner)
        names_knob = any(isinstance(n, ast.Constant)
                         and isinstance(n.value, str)
                         and n.value.startswith("FVEVAL_") for n in inner)
        if touches_env and names_knob:
            lines.append(node.lineno)
    return sorted(set(lines))


class TestEnvironmentGate:
    def test_only_options_and_faults_read_fveval(self):
        offenders = {}
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            if rel in ALLOWED:
                continue
            lines = fveval_env_reads(path.read_text())
            if lines:
                offenders[rel] = lines
        assert offenders == {}

    def test_allowed_modules_are_where_the_reads_are(self):
        for rel in ALLOWED:
            assert fveval_env_reads((SRC / rel).read_text()), rel

    @pytest.mark.parametrize("line", [
        'os.environ.get("FVEVAL_X", "")',
        'os.getenv("FVEVAL_Y")',
        'os.environ["FVEVAL_Z"]',
        '"FVEVAL_W" in os.environ',
        'environ.get(f"FVEVAL_{name}")',
    ])
    def test_scanner_flags_each_access_shape(self, line):
        assert fveval_env_reads(f"import os\nvalue = {line}\n") == [2]

    def test_scanner_ignores_other_variables_and_prose(self):
        assert fveval_env_reads(
            '"""Set FVEVAL_CACHE to persist."""\nimport os\n'
            'home = os.environ.get("HOME")\n'
            'hint = "set FVEVAL_CACHE or write disk=DIR"\n') == []
