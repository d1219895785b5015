"""Testbench-harness generation and DUT/TB merging for Design2SVA.

For every generated design we emit the accompanying formal testbench header
(paper Appendix C.1: all DUT ports mirrored as testbench inputs, plus
``tb_reset``).  DUT + TB are merged into a single elaborable module, the
problem base (the role JasperGold's elaborate/bind step plays in the paper's
flow).  At evaluation time a response that is assertions only binds onto
that base; one that brings support code is spliced into the testbench and
the merge elaborated in full.  The snippet parser both use lives in
:mod:`repro.rtl.parser` (re-exported here).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ...memo import LruMemo
from ...rtl.ast_nodes import ModuleDecl, PortDecl, SourceFile
from ...rtl.elaborate import Design, elaborate, with_digest
from ...rtl.parser import (  # noqa: F401  (SpliceError: re-exported)
    SpliceError, parse_rtl, parse_snippet_items,
)
from ...sva.unparse import unparse
from .pipeline_gen import GeneratedDesign


def generate_testbench(design: GeneratedDesign) -> str:
    """The formal testbench header accompanying a generated design."""
    top = parse_rtl(design.source).modules[design.top]
    port_lines = []
    for pd in top.ports:
        dims = ""
        if pd.packed:
            r = pd.packed[0]
            dims = f" [{unparse(r.msb)}:{unparse(r.lsb)}]"
        for name in pd.names:
            port_lines.append(f"input{dims} {name};")
    params = "\n".join(
        f"parameter {p.name} = {unparse(p.value)};"
        for p in top.params if not p.local)
    names = ",\n  ".join(top.port_order)
    return f"""module {design.top}_tb (
  {names}
);
{params}

{chr(10).join(port_lines)}

wire tb_reset;
assign tb_reset = (reset_ == 1'b0);
endmodule
"""


@dataclass
class MergedBench:
    """A DUT+TB+response merged into one elaborable source."""

    source_file: SourceFile
    top: str


@dataclass
class _ProblemBase:
    """What every response to one problem shares, read-only: the DUT's
    submodules plus the DUT body inlined into the testbench module, and
    that merge elaborated."""

    modules: dict[str, ModuleDecl]
    top: str
    design: Design


#: problem bases by (DUT text, testbench text, DUT top).  One is 20-150
#: KB (both ASTs, the elaborated design, its signature) and a pass@k
#: batch needs only its own, so the memo holds the problems in flight,
#: not a whole benchmark: a sweep over more problems than this re-builds
#: each base once per visit and still shares it between the samples.
_BASES = LruMemo("design2sva.testbench", 32)


def _problem_base(dut_source: str, tb_source: str, dut_top: str
                  ) -> _ProblemBase:
    return _BASES.get((dut_source, tb_source, dut_top),
                      lambda: _build_base(dut_source, tb_source, dut_top))


def problem_base(design: GeneratedDesign, tb_source: str) -> Design:
    """The elaborated DUT+TB merge every response to *design* shares
    (read-only): a response that is assertions only binds onto it
    (:func:`~repro.rtl.elaborate.bind_text`) instead of being spliced."""
    return _problem_base(design.source, tb_source, design.top).design


def _build_base(dut_source: str, tb_source: str, dut_top: str
                ) -> _ProblemBase:
    dut_sf = parse_rtl(dut_source)
    dut = dut_sf.modules[dut_top]
    top = dut_top + "_tb"
    tb = parse_rtl(tb_source).modules[top]

    merged = ModuleDecl(name=top)
    merged.port_order = list(tb.port_order)
    merged.ports = list(tb.ports)
    seen_params = set()
    for p in list(tb.params) + list(dut.params):
        if p.name in seen_params:
            continue
        seen_params.add(p.name)
        merged.params.append(p)
    for source_mod in (tb, dut):
        merged.items += [item for item in source_mod.items
                         if not isinstance(item, PortDecl)]

    modules = dict(dut_sf.modules)
    del modules[dut_top]
    modules[top] = merged
    return _ProblemBase(modules, top, with_digest(
        elaborate(SourceFile(modules=modules, defines={}), top=top),
        "design2sva.testbench", dut_source, tb_source, dut_top))


def merge_for_eval(design: GeneratedDesign, tb_source: str,
                   response_code: str = "") -> MergedBench:
    """Merge DUT body, testbench and the model's response into one module.

    The DUT's top-module *body* is inlined into the testbench module (its
    port declarations dropped -- the TB already mirrors every port as an
    input), reproducing the single-scope visibility a formal tool gives the
    testbench.  Submodules of the DUT (pipeline exec units) are kept for
    instantiation.  The model's support code and assertion are appended.

    Everything but the response is fixed per problem and memoised
    (:class:`_ProblemBase`).  A response that is only assertions never
    needs this: it binds onto :func:`problem_base` instead.
    """
    base = _problem_base(design.source, tb_source, design.top)
    items = (parse_snippet_items(response_code).items
             if response_code.strip() else [])
    # a fresh item list around the shared item nodes: the base's is
    # never appended to
    shared = base.modules[base.top]
    merged = replace(shared, items=[*shared.items, *items])
    return MergedBench(
        source_file=SourceFile(modules={**base.modules, base.top: merged},
                               defines={}),
        top=base.top)
