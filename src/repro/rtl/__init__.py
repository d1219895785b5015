"""RTL front end: parsing, elaboration and simulation of the SystemVerilog
subset used by the benchmark's designs and formal testbenches."""

from .ast_nodes import ModuleDecl, SourceFile
from .elaborate import (
    Design,
    ElaborationError,
    bind,
    bind_text,
    const_eval,
    elaborate,
    elaborate_base,
    reset_inactive_value,
    rewrite,
    substitute,
)
from .parser import RtlParser, parse_rtl, preprocess
from .simulator import Simulator, derive_init

__all__ = [
    "Design", "ElaborationError", "ModuleDecl", "RtlParser", "Simulator",
    "SourceFile", "bind", "bind_text", "const_eval", "derive_init",
    "elaborate", "elaborate_base", "parse_rtl", "preprocess",
    "reset_inactive_value", "rewrite", "substitute",
]
