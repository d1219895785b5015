"""Testbench-harness generation and DUT/TB merging for Design2SVA.

For every generated design we emit the accompanying formal testbench header
(paper Appendix C.1: all DUT ports mirrored as testbench inputs, plus
``tb_reset``).  At evaluation time the model's response -- one assertion plus
optional support code -- is spliced into the testbench, and DUT + TB are
merged into a single elaborable module (the role JasperGold's
elaborate/bind step plays in the paper's flow).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ...memo import LruMemo
from ...rtl.ast_nodes import (
    AlwaysBlock,
    AssertionItem,
    ContinuousAssign,
    GenerateFor,
    Instance,
    ModuleDecl,
    NetDecl,
    PortDecl,
    SourceFile,
)
from ...rtl.elaborate import Design, bind, elaborate
from ...rtl.parser import RtlParser, parse_rtl, preprocess
from ...sva.parser import ParseError
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


class SpliceError(ValueError):
    """The model's support code does not parse as module items."""


#: parsed response snippets by code: about 3 KB of AST each, shared
#: read-only like every memoised AST (merges copy the item lists, never
#: the items).  1024 covers one model's 960 Design2SVA responses (2
#: categories x 96 designs x 5 samples).
_SNIPPETS = LruMemo("design2sva.snippet", 1024)


def parse_snippet_items(code: str) -> ModuleDecl:
    """Parse a model-response snippet (declarations/assigns/assertions) as
    the body of an anonymous module; raises :class:`SpliceError` on bad
    syntax (this is the Design2SVA syntax gate for support code).
    Memoised: the module is shared and read-only."""
    return _SNIPPETS.get(code, lambda: _parse_snippet(code))


def _parse_snippet(code: str) -> ModuleDecl:
    wrapped = f"module __snippet__ (); {code} endmodule"
    try:
        text, _ = preprocess(wrapped)
        parser = RtlParser(text)
        modules = parser.parse_source()
    except ParseError as exc:
        raise SpliceError(str(exc)) from exc
    return modules["__snippet__"]


@dataclass
class MergedBench:
    """A DUT+TB+response merged into one elaborable source."""

    source_file: SourceFile
    top: str
    #: the elaborated merge when the response is assertions only (bound
    #: late onto the problem's shared base design); None when it brings
    #: support code, which changes the design and must elaborate in full
    design: Design | None = None


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
        for item in source_mod.items:
            if not isinstance(item, PortDecl):
                _classify(merged, item)

    modules = dict(dut_sf.modules)
    del modules[dut_top]
    modules[top] = merged
    return _ProblemBase(
        modules, top,
        elaborate(SourceFile(modules=modules, defines={}), top=top))


def merge_for_eval(design: GeneratedDesign, tb_source: str,
                   response_code: str = "") -> MergedBench:
    """Merge DUT body, testbench and the model's response into one module.

    The DUT's top-module *body* is inlined into the testbench module (its
    port declarations dropped -- the TB already mirrors every port as an
    input), reproducing the single-scope visibility a formal tool gives the
    testbench.  Submodules of the DUT (pipeline exec units) are kept for
    instantiation.  The model's support code and assertion are appended.

    Everything but the response is fixed per problem and memoised, parsed
    and elaborated once (:class:`_ProblemBase`); a response that is only
    assertions costs one snippet parse and one late
    :func:`~repro.rtl.elaborate.bind`.
    """
    base = _problem_base(design.source, tb_source, design.top)
    items = (parse_snippet_items(response_code).items
             if response_code.strip() else [])
    # fresh item lists around the shared item nodes: the base's are
    # never appended to
    shared = base.modules[base.top]
    merged = replace(
        shared, items=list(shared.items), nets=list(shared.nets),
        assigns=list(shared.assigns),
        always_blocks=list(shared.always_blocks),
        generates=list(shared.generates), instances=list(shared.instances),
        assertions=list(shared.assertions))
    for item in items:
        _classify(merged, item)
    bench = MergedBench(
        source_file=SourceFile(modules={**base.modules, base.top: merged},
                               defines={}),
        top=base.top)
    if all(isinstance(item, AssertionItem) for item in items):
        bench.design = bind(base.design, items)
    return bench


def _classify(mod: ModuleDecl, item) -> None:
    mod.items.append(item)
    if isinstance(item, NetDecl):
        mod.nets.append(item)
    elif isinstance(item, ContinuousAssign):
        mod.assigns.append(item)
    elif isinstance(item, AlwaysBlock):
        mod.always_blocks.append(item)
    elif isinstance(item, GenerateFor):
        mod.generates.append(item)
    elif isinstance(item, Instance):
        mod.instances.append(item)
    elif isinstance(item, AssertionItem):
        mod.assertions.append(item)
