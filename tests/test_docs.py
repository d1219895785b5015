"""Documentation stays healthy: the tier-1 slice of scripts/check_docs.py.

The CI docs job runs the full checker (including smoke-executing the
README quickstart); this file keeps the *static* guarantees -- intra-repo
links resolve, anchors exist, referenced scripts exist, python blocks
compile -- inside the tier-1 suite, plus unit tests of the checker's own
parsing so a lenient regression cannot silently stop checking anything.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_docs", ROOT / "scripts" / "check_docs.py")
check_docs = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_docs", check_docs)
_spec.loader.exec_module(check_docs)


class TestRepoDocs:
    def test_static_checks_pass(self, capsys):
        """Links, anchors, referenced paths and python blocks of the real
        documentation set are all valid."""
        assert check_docs.main(["--no-execute"]) == 0
        out = capsys.readouterr().out
        assert "docs check passed" in out

    def test_docs_exist(self):
        for rel in ("README.md", "docs/architecture.md", "docs/engine.md",
                    "docs/benchmarks.md"):
            assert (ROOT / rel).is_file(), rel

    def test_readme_quickstart_is_marked_runnable(self):
        text = (ROOT / "README.md").read_text()
        assert check_docs.RUN_MARKER in text

    def test_one_benchmark_harness(self):
        """bench/ is the benchmark of record: docs/benchmarks.md is
        written around it, and the harness it replaced is gone."""
        text = (ROOT / "docs" / "benchmarks.md").read_text()
        assert "bench/run.py" in text and "bench/compare.py" in text
        assert not (ROOT / "scripts" / "bench_prover.py").exists()
        assert not (ROOT / "BENCH_prover.json").exists()

    def test_checker_sees_the_doc_set(self):
        checker = check_docs.Checker(execute=False)
        for rel in check_docs.DOC_FILES:
            checker.check_file(rel)
        assert not checker.problems
        assert checker.checked_links >= 10
        assert checker.checked_commands >= 5


class TestCheckerUnits:
    def test_anchor_slugs(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text("# Big Title\n## The `code` & stuff!\n"
                       "```bash\n# not a heading\n```\n")
        slugs = check_docs.anchors_of(doc)
        assert "big-title" in slugs
        assert "the-code--stuff" in slugs
        assert "not-a-heading" not in slugs

    def test_broken_link_detected(self, monkeypatch, tmp_path):
        (tmp_path / "ok.md").write_text("# ok\n")
        (tmp_path / "doc.md").write_text(
            "# Doc\n"
            "[good](ok.md) [bad](missing.md) [anchor](ok.md#nope)\n"
            "[web](https://example.com) [frag](#doc)\n")
        monkeypatch.setattr(check_docs, "ROOT", tmp_path)
        checker = check_docs.Checker(execute=False)
        checker.check_file("doc.md")
        assert len(checker.problems) == 2
        assert any("missing.md" in p for p in checker.problems)
        assert any("broken anchor" in p for p in checker.problems)

    def test_links_inside_fences_ignored(self, monkeypatch, tmp_path):
        (tmp_path / "doc.md").write_text(
            "```bash\n# see [fake](never.md)\n```\n")
        monkeypatch.setattr(check_docs, "ROOT", tmp_path)
        checker = check_docs.Checker(execute=False)
        checker.check_file("doc.md")
        assert not checker.problems

    def test_missing_script_detected(self, monkeypatch, tmp_path):
        (tmp_path / "doc.md").write_text(
            "```bash\nPYTHONPATH=src python scripts/nope.py --x\n```\n")
        monkeypatch.setattr(check_docs, "ROOT", tmp_path)
        checker = check_docs.Checker(execute=False)
        checker.check_file("doc.md")
        assert any("missing script" in p for p in checker.problems)

    def test_python_block_must_compile(self, monkeypatch, tmp_path):
        (tmp_path / "doc.md").write_text(
            "```python\ndef broken(:\n```\n")
        monkeypatch.setattr(check_docs, "ROOT", tmp_path)
        checker = check_docs.Checker(execute=False)
        checker.check_file("doc.md")
        assert any("python block" in p for p in checker.problems)

    def test_shell_parsing(self):
        commands = check_docs.shell_commands([
            "$ FOO=1 python x.py \\", "    --flag value",
            "# a comment", "", "pip install something",
        ])
        assert commands == ["FOO=1 python x.py --flag value",
                            "pip install something"]
        env, rest = check_docs.split_env_prefix(
            "A=1 B=two python x.py".split())
        assert env == {"A": "1", "B": "two"}
        assert rest == ["python", "x.py"]

    def test_non_python_commands_skipped(self, monkeypatch, tmp_path):
        (tmp_path / "doc.md").write_text(
            "```bash\ngit status\nexport X=1\ncd somewhere\n```\n")
        monkeypatch.setattr(check_docs, "ROOT", tmp_path)
        checker = check_docs.Checker(execute=False)
        checker.check_file("doc.md")
        assert not checker.problems
        assert checker.checked_commands == 0
