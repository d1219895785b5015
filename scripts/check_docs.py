#!/usr/bin/env python
"""Documentation checker: intra-repo links and runnable shell blocks.

Run from the repo root (CI's docs job does)::

    PYTHONPATH=src python scripts/check_docs.py

Checks, over README.md and docs/*.md:

* **intra-repo links** -- every relative markdown link target must exist,
  and a ``#fragment`` into a markdown file must match one of its heading
  anchors (GitHub slug rules);
* **shell blocks** -- ``bash``/``sh``/``console`` fences are validated
  line by line: referenced repo paths must exist, and ``python -m <mod>``
  / ``python <script>`` invocations are smoke-run with ``--help`` (which
  exercises import + argparse without the workload);
* **python blocks** -- ``python`` fences must at least compile;
* **smoke execution** -- a fenced block immediately preceded by an
  ``<!-- check-docs: run -->`` comment is executed for real, line by
  line, with ``PYTHONPATH=src`` from the repo root (the README
  quickstart carries this marker);
* **CLI flag drift** -- the long options of every ``python -m repro``
  subcommand and of the repo's argparse-based scripts are diffed
  against the documentation corpus: a live flag that no doc file
  mentions fails (new flags cannot ship undocumented -- the ROADMAP
  docs-drift gate), and a ``--flag`` token documented on a line that
  names one of our commands must exist on some live parser (stale docs
  fail).

Exit status is nonzero iff any check failed; every failure is reported
with ``file:line``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = ["README.md", *sorted(
    p.relative_to(ROOT).as_posix() for p in (ROOT / "docs").glob("*.md"))]

RUN_MARKER = "<!-- check-docs: run -->"
_LINK_RE = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(r"^```(\w*)\s*$")
#: shell commands never validated (package managers, shell built-ins)
_SKIP_COMMANDS = {"pip", "export", "cd", "git", "source"}

_SMOKE_TIMEOUT_S = 120


def anchors_of(path: Path) -> set[str]:
    """GitHub-style heading slugs of a markdown file."""
    slugs = set()
    in_fence = False
    for line in path.read_text().splitlines():
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence or not line.startswith("#"):
            continue
        title = line.lstrip("#").strip()
        title = re.sub(r"[`*_]", "", title)
        # GitHub keeps each space as a hyphen (consecutive hyphens survive)
        slug = re.sub(r"[^\w\- ]", "", title.lower()).strip()
        slugs.add(slug.replace(" ", "-"))
    return slugs


def iter_blocks(lines: list[str]):
    """Yield (start_line_1based, language, block_lines, marked_run)."""
    i = 0
    while i < len(lines):
        match = _FENCE_RE.match(lines[i])
        if not match:
            i += 1
            continue
        language = match.group(1).lower()
        marked = any(RUN_MARKER in lines[j] for j in range(max(0, i - 2), i))
        block: list[str] = []
        i += 1
        start = i + 1
        while i < len(lines) and not lines[i].startswith("```"):
            block.append(lines[i])
            i += 1
        i += 1  # closing fence
        yield start, language, block, marked


def shell_commands(block: list[str]):
    """Command lines of a shell block (prompts, comments, blanks removed),
    with line continuations joined."""
    joined: list[str] = []
    for raw in block:
        line = raw.strip()
        if line.startswith("$ "):
            line = line[2:]
        if not line or line.startswith("#"):
            continue
        if joined and joined[-1].endswith("\\"):
            joined[-1] = joined[-1][:-1].rstrip() + " " + line
        else:
            joined.append(line)
    return joined


def split_env_prefix(tokens: list[str]) -> tuple[dict, list[str]]:
    env = {}
    rest = list(tokens)
    while rest and re.match(r"^[A-Za-z_][A-Za-z0-9_]*=", rest[0]):
        name, _, value = rest.pop(0).partition("=")
        env[name] = value
    return env, rest


class Checker:
    def __init__(self, execute: bool = True):
        self.execute = execute
        self.problems: list[str] = []
        self.checked_links = 0
        self.checked_commands = 0
        self.executed = 0

    def fail(self, rel: str, line: int, message: str) -> None:
        self.problems.append(f"{rel}:{line}: {message}")

    # -- links ---------------------------------------------------------------

    def check_links(self, rel: str, text: str) -> None:
        lines = text.splitlines()
        in_fence = False
        for lineno, line in enumerate(lines, 1):
            if _FENCE_RE.match(line):
                in_fence = not in_fence
            if in_fence:
                continue
            for target in _LINK_RE.findall(line):
                if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:
                    continue
                self.checked_links += 1
                path_part, _, fragment = target.partition("#")
                base = (ROOT / rel).parent
                if not path_part:
                    dest = ROOT / rel  # pure fragment: same file
                else:
                    dest = (base / path_part).resolve()
                if not dest.exists():
                    self.fail(rel, lineno, f"broken link: {target}")
                    continue
                if fragment and dest.suffix == ".md":
                    if fragment not in anchors_of(dest):
                        self.fail(rel, lineno,
                                  f"broken anchor: {target}")

    # -- shell / python blocks ----------------------------------------------

    def smoke_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = ("src" + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else "src")
        return env

    def run(self, rel: str, lineno: int, argv: list[str],
            extra_env: dict) -> None:
        env = self.smoke_env()
        env.update(extra_env)
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env,
                                  capture_output=True, text=True,
                                  timeout=_SMOKE_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            self.fail(rel, lineno, f"{' '.join(argv)}: {exc}")
            return
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            self.fail(rel, lineno, f"{' '.join(argv)} exited "
                                   f"{proc.returncode}: {' / '.join(tail)}")
        else:
            self.executed += 1

    def check_command(self, rel: str, lineno: int, command: str,
                      marked: bool) -> None:
        tokens = command.split()
        env, rest = split_env_prefix(tokens)
        if not rest:
            return  # pure environment assignment
        program = rest[0]
        if program in _SKIP_COMMANDS:
            return
        if program not in ("python", "python3"):
            return  # only python invocations are validated
        self.checked_commands += 1
        args = rest[1:]
        if args[:2] == ["-m", "pip"] or args[:1] == ["pip"]:
            return
        if marked and self.execute:
            self.run(rel, lineno, [sys.executable, *args], env)
            return
        if args[:1] == ["-m"]:
            if len(args) < 2:
                self.fail(rel, lineno, "python -m without a module")
                return
            module = args[1]
            if module == "pytest":
                return  # tier-1 command; running it here would be the CI job
            if self.execute:
                # --help exercises import + argparse wiring, not the workload
                sub = [a for a in args[2:] if not a.startswith("-")][:1]
                self.run(rel, lineno,
                         [sys.executable, "-m", module, *sub, "--help"], env)
            return
        script = next((a for a in args if not a.startswith("-")), None)
        if script is None:
            return
        if not (ROOT / script).exists():
            self.fail(rel, lineno, f"missing script: {script}")
            return
        if self.execute:
            self.run(rel, lineno, [sys.executable, script, "--help"], env)

    def check_file(self, rel: str) -> None:
        text = (ROOT / rel).read_text()
        self.check_links(rel, text)
        lines = text.splitlines()
        for start, language, block, marked in iter_blocks(lines):
            if language in ("bash", "sh", "shell", "console"):
                for command in shell_commands(block):
                    self.check_command(rel, start, command, marked)
            elif language == "python":
                try:
                    compile("\n".join(block), f"{rel}:{start}", "exec")
                except SyntaxError as exc:
                    self.fail(rel, start, f"python block: {exc}")


# ---------------------------------------------------------------------------
# CLI flag drift: documented flag lists vs live argparse definitions
# ---------------------------------------------------------------------------

#: substrings identifying a doc line that talks about one of our CLIs
_CLI_MARKERS = ("repro", "check_docs")
_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _parser_flags(parser) -> set[str]:
    import argparse
    flags = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            continue
        for opt in action.option_strings:
            if opt.startswith("--") and opt != "--help":
                flags.add(opt)
    return flags


def _script_parser(path: Path):
    """Load an argparse-based script's ``build_parser`` without running
    its workload."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_parser()


def live_cli_flags() -> dict[str, set[str]]:
    """Command label -> the long options its live parser accepts."""
    import argparse
    sys.path.insert(0, str(ROOT / "src"))
    from repro.__main__ import build_parser as repro_parser
    commands: dict[str, set[str]] = {}
    parser = repro_parser()
    commands["python -m repro"] = _parser_flags(parser)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                commands[f"python -m repro {name}"] = _parser_flags(sub)
    commands["scripts/check_docs.py"] = _parser_flags(
        _script_parser(ROOT / "scripts" / "check_docs.py"))
    return commands


def check_cli_flags(checker: Checker, doc_files: list[str]) -> int:
    """Diff live CLI flags against the documentation corpus.

    Returns the number of live flags checked.  Forward direction: every
    live long flag must appear in at least one doc file.  Reverse
    direction: a ``--flag`` token on a doc line that names one of our
    commands must be a live flag somewhere.
    """
    commands = live_cli_flags()
    live = set().union(*commands.values())
    corpus = {rel: (ROOT / rel).read_text() for rel in doc_files
              if (ROOT / rel).exists()}
    # exact token set, not substring containment: '--out' must not pass
    # because some doc mentions '--output'
    documented = set(_FLAG_RE.findall("\n".join(corpus.values())))
    for label, flags in sorted(commands.items()):
        for flag in sorted(flags):
            if flag not in documented:
                checker.problems.append(
                    f"docs: undocumented flag: {label} {flag}")
    for rel, text in corpus.items():
        for lineno, line in enumerate(text.splitlines(), 1):
            if not any(marker in line for marker in _CLI_MARKERS):
                continue
            for token in _FLAG_RE.findall(line):
                if token not in live and token != "--help":
                    checker.fail(rel, lineno,
                                 f"documented flag does not exist on any "
                                 f"live parser: {token}")
    return len(live)


def build_parser():
    import argparse
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--no-execute", action="store_true",
                        help="static checks only (links, paths, syntax)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    checker = Checker(execute=not args.no_execute)
    for rel in DOC_FILES:
        if (ROOT / rel).exists():
            checker.check_file(rel)
    flags_checked = check_cli_flags(checker, DOC_FILES)
    print(f"checked {len(DOC_FILES)} files: {checker.checked_links} links, "
          f"{checker.checked_commands} python commands, "
          f"{checker.executed} executed, {flags_checked} CLI flags")
    if checker.problems:
        print(f"{len(checker.problems)} problem(s):")
        for problem in checker.problems:
            print(f"  {problem}")
        return 1
    print("docs check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
