"""Table and figure regeneration (the paper's evaluation artifacts).

Each ``table_*`` function runs the corresponding experiment and returns rows
in the paper's layout plus a formatted text rendering; ``figure_*`` functions
return the underlying series.  Benchmarks under ``benchmarks/`` call these
and print the output next to the paper's reference values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..datasets.nl2sva_human.corpus import corpus_stats, problems
from ..eval.metrics import pearson_corr
from ..eval.tokenizer import count_tokens, length_histogram
from ..models.profiles import (
    DESIGN_MODELS,
    SAMPLING_MODELS,
    TABLE_MODELS,
)
from .runner import RunConfig, RunResult, run_model_on_task
from .tasks import Design2SvaTask, Nl2SvaHumanTask, Nl2SvaMachineTask


@dataclass
class Table:
    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)

    def render(self) -> str:
        widths = [max(len(str(c)), *(len(_fmt(r[i])) for r in self.rows))
                  if self.rows else len(str(c))
                  for i, c in enumerate(self.columns)]
        lines = [self.title]
        header = "  ".join(str(c).ljust(w)
                           for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(_fmt(v).ljust(w)
                                   for v, w in zip(row, widths)))
        return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def table1_nl2sva_human(models: list[str] | None = None,
                        limit: int | None = None) -> Table:
    """Table 1: NL2SVA-Human, greedy decoding."""
    task = Nl2SvaHumanTask()
    table = Table("Table 1: NL2SVA-Human (zero-shot, greedy)",
                  ["Model", "Syntax", "Func.", "Partial Func.", "BLEU"])
    for name in models or TABLE_MODELS:
        res = run_model_on_task(name, task, RunConfig(limit=limit))
        table.rows.append([name, res.syntax_rate, res.func_rate,
                           res.partial_rate, res.bleu])
    return table


def table2_human_passk(models: list[str] | None = None,
                       limit: int | None = None,
                       n_samples: int = 5) -> Table:
    """Table 2: NL2SVA-Human pass@k under sampling (T=0.8, p=0.95)."""
    task = Nl2SvaHumanTask()
    table = Table("Table 2: NL2SVA-Human pass@k (n=5, T=0.8)",
                  ["Model", "Syntax@5", "Func.@3", "Func.@5",
                   "Partial.@3", "Partial.@5"])
    config = RunConfig(n_samples=n_samples, temperature=0.8, limit=limit)
    for name in models or SAMPLING_MODELS:
        res = run_model_on_task(name, task, config)
        table.rows.append([name, res.syntax_at(5), res.func_at(3),
                           res.func_at(5), res.partial_at(3),
                           res.partial_at(5)])
    return table


def table3_nl2sva_machine(models: list[str] | None = None,
                          count: int = 300,
                          limit: int | None = None) -> Table:
    """Table 3: NL2SVA-Machine, 0-shot vs 3-shot."""
    task = Nl2SvaMachineTask(count=count)
    table = Table("Table 3: NL2SVA-Machine (0-shot / 3-shot, greedy)",
                  ["Model",
                   "Syntax(0s)", "Func.(0s)", "Partial(0s)", "BLEU(0s)",
                   "Syntax(3s)", "Func.(3s)", "Partial(3s)", "BLEU(3s)"])
    for name in models or TABLE_MODELS:
        r0 = run_model_on_task(name, task, RunConfig(shots=0, limit=limit))
        r3 = run_model_on_task(name, task, RunConfig(shots=3, limit=limit))
        table.rows.append([name,
                           r0.syntax_rate, r0.func_rate, r0.partial_rate,
                           r0.bleu,
                           r3.syntax_rate, r3.func_rate, r3.partial_rate,
                           r3.bleu])
    return table


def table4_machine_passk(models: list[str] | None = None, count: int = 300,
                         limit: int | None = None,
                         n_samples: int = 5) -> Table:
    """Table 4: NL2SVA-Machine pass@k (3-shot, T=0.8)."""
    task = Nl2SvaMachineTask(count=count)
    table = Table("Table 4: NL2SVA-Machine pass@k (3-shot, n=5, T=0.8)",
                  ["Model", "Syntax@5", "Func.@3", "Func.@5",
                   "Partial.@3", "Partial.@5"])
    config = RunConfig(n_samples=n_samples, temperature=0.8, shots=3,
                       limit=limit)
    for name in models or SAMPLING_MODELS:
        res = run_model_on_task(name, task, config)
        table.rows.append([name, res.syntax_at(5), res.func_at(3),
                           res.func_at(5), res.partial_at(3),
                           res.partial_at(5)])
    return table


def table5_design2sva(models: list[str] | None = None, count: int = 96,
                      n_samples: int = 5,
                      prover_kwargs: dict | None = None) -> Table:
    """Table 5: Design2SVA syntax/func pass@{1,5} per design category."""
    table = Table("Table 5: Design2SVA (n=5, T=0.8)",
                  ["Model",
                   "Pipe Syn@1", "Pipe Syn@5", "Pipe Func@1", "Pipe Func@5",
                   "FSM Syn@1", "FSM Syn@5", "FSM Func@1", "FSM Func@5"])
    config = RunConfig(n_samples=n_samples, temperature=0.8)
    tasks = {cat: Design2SvaTask(cat, count=count,
                                 prover_kwargs=prover_kwargs)
             for cat in ("pipeline", "fsm")}
    for name in models or DESIGN_MODELS:
        row: list = [name]
        for cat in ("pipeline", "fsm"):
            res = run_model_on_task(name, tasks[cat], config)
            row.extend([res.syntax_at(1), res.syntax_at(5),
                        res.func_at(1), res.func_at(5)])
        table.rows.append(row)
    return table


def table6_corpus_stats() -> Table:
    """Table 6: NL2SVA-Human corpus composition."""
    table = Table("Table 6: NL2SVA-Human corpus statistics",
                  ["Name", "# Variations", "# Assertions"])
    for family, stats in corpus_stats().items():
        table.rows.append([family, stats["variations"],
                           stats["assertions"]])
    return table


# ---------------------------------------------------------------------------
# Run summaries
# ---------------------------------------------------------------------------


#: scheduler counters the portfolio accumulates in the prover profile
PORTFOLIO_COUNTERS = ("portfolio_solves", "portfolio_requeues",
                      "portfolio_cancelled")


def strategy_stats(profile: dict) -> tuple[dict, dict, dict]:
    """Extract ``(wins, win_rates, scheduler_counters)`` from a prover
    profile dict.

    The single decoder of the ``win_*`` / ``portfolio_*`` keys the prover
    writes -- :func:`run_summary` renders through this, so a new counter
    shows up there at once.  All three dicts are empty when the profile
    carries no strategy data.
    """
    wins = {key[len("win_"):]: value for key, value in sorted(profile.items())
            if key.startswith("win_")}
    total = sum(wins.values())
    rates = ({engine: count / total for engine, count in wins.items()}
             if total else {})
    sched = {key: profile[key] for key in PORTFOLIO_COUNTERS
             if key in profile}
    return wins, rates, sched


def run_summary(result: RunResult, task=None) -> str:
    """Human-readable summary of one run: aggregate metrics plus engine
    observability (verdict-cache hit rates, per-stage prover wall-clock,
    SAT statistics -- decisions, propagations, conflicts, learned-DB size
    -- and per-strategy win rates: which engine produced each verdict,
    including the portfolio scheduler's requeue/cancel counters).

    ``result.stats`` is populated by :func:`~repro.core.runner.
    run_model_on_task`; pass the task to read live counters instead.
    """
    stats = dict(result.stats)
    if task is not None:
        from .runner import _stats_since
        stats = _stats_since(task, {}) or stats
    lines = [f"run: model={result.model} task={result.task} "
             f"records={len(result.records)}"]
    lines.append(f"  rates: syntax={result.syntax_rate:.3f} "
                 f"func={result.func_rate:.3f} "
                 f"partial={result.partial_rate:.3f}")
    cache = stats.get("cache")
    if cache:
        total = cache.get("hits", 0) + cache.get("misses", 0)
        rate = cache.get("hits", 0) / total if total else 0.0
        # per-tier labels are "disk", or "disk1", "disk2"... when a
        # stack holds several disk tiers
        disk_hits = sum(tier.get("hits", 0) for label, tier
                        in cache.get("tiers", {}).items()
                        if label.startswith("disk"))
        lines.append(f"  verdict cache: {cache.get('hits', 0)} hits / "
                     f"{total} lookups ({rate:.1%}), "
                     f"{disk_hits} from disk, "
                     f"{cache.get('entries', 0)} entries")
    service = stats.get("service")
    if service:
        lines.append(f"  service: {service.get('requests', 0)} requests, "
                     f"{service.get('dedup_hits', 0)} dedup'd in flight, "
                     f"{service.get('batch_members', 0)} batch-scheduled "
                     f"in {service.get('batch_groups', 0)} packed groups")
    prover = stats.get("prover")
    if prover:
        stages = [(label, prover.get(key)) for label, key in
                  (("sim", "sim_s"), ("bmc", "bmc_s"), ("k-ind", "kind_s"),
                   ("encode", "encode_s"), ("sat", "sat_s"))
                  if prover.get(key) is not None]
        if stages:
            lines.append("  prover stages: " + "  ".join(
                f"{label}={value:.3f}s" for label, value in stages))
        sat = [(label, prover.get(key)) for label, key in
               (("decisions", "decisions"), ("propagations", "propagations"),
                ("conflicts", "conflicts"), ("learned-db", "learned_db"))
               if prover.get(key) is not None]
        if sat:
            lines.append("  solver: " + "  ".join(
                f"{label}={value}" for label, value in sat))
        wins, rates, sched = strategy_stats(prover)
        if wins:
            lines.append("  strategy wins: " + "  ".join(
                f"{engine}={count} ({rates[engine]:.0%})"
                for engine, count in wins.items()))
        if sched:
            lines.append("  portfolio: " + "  ".join(
                f"{key.split('_', 1)[1]}={value}"
                for key, value in sched.items()))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


def figure2_human_lengths() -> dict[str, list[int]]:
    """Figure 2 (right): token lengths of human NL specs and reference SVA."""
    nl = [count_tokens(p.question_text) for p in problems()]
    sva = [count_tokens(p.reference) for p in problems()]
    return {"nl_lengths": nl, "sva_lengths": sva}


def figure3_machine_lengths(count: int = 300) -> dict[str, list[int]]:
    """Figure 3 (right): token lengths of machine NL and SVA."""
    task = Nl2SvaMachineTask(count=count)
    nl = [count_tokens(p.question_text) for p in task.problems()]
    sva = [count_tokens(p.sva) for p in task.problems()]
    return {"nl_lengths": nl, "sva_lengths": sva}


def figure4_design_complexity(count: int = 96) -> dict[str, list[int]]:
    """Figure 4: token length of the random logic in generated designs."""
    out: dict[str, list[int]] = {}
    for cat in ("pipeline", "fsm"):
        task = Design2SvaTask(cat, count=count)
        out[cat] = [count_tokens(d.source) for d in task.problems()]
    return out


def figure6_bleu_correlation(models: list[str] | None = None,
                             limit: int | None = None) -> dict[str, dict]:
    """Figure 6: per-problem BLEU vs formal functional correctness."""
    task = Nl2SvaHumanTask()
    out: dict[str, dict] = {}
    for name in models or ["gpt-4o", "llama-3.1-70b"]:
        res = run_model_on_task(name, task, RunConfig(limit=limit))
        firsts = [r for r in res.records if r.sample_idx == 0]
        bleus = [r.bleu for r in firsts]
        funcs = [1.0 if r.func else 0.0 for r in firsts]
        out[name] = {
            "bleu": bleus,
            "func": funcs,
            "corr": pearson_corr(bleus, funcs),
        }
    return out


def render_histogram(values: list[int], bins: int = 10, width: int = 40,
                     label: str = "") -> str:
    """ASCII histogram for the figure benches."""
    rows = length_histogram(values, bins=bins)
    peak = max((c for _lo, _hi, c in rows), default=1) or 1
    lines = [label] if label else []
    for lo, hi, count in rows:
        bar = "#" * max(1 if count else 0, int(width * count / peak))
        lines.append(f"  {lo:4d}-{hi:<4d} |{bar} {count}")
    return "\n".join(lines)
