"""Cycle-accurate 2-state simulation of elaborated designs.

Drives a :class:`~repro.rtl.elaborate.Design` with concrete input values,
evaluating combinational expressions in topological order and registering
state updates at each clock edge.  Used by the examples, as a fast falsifier
inside the prover (simulation-first, see docs/architecture.md decision 3), and as an
oracle in the test suite.
"""

from __future__ import annotations

import random

from ..formal.bitvec import EvalError, ExprEvaluator, IntBackend, SignalSource
from .elaborate import Design, reset_inactive_value


class _MapSource(SignalSource):
    """Reads signal values from the simulator's per-cycle history."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim

    def width(self, name: str) -> int:
        try:
            return self.sim.design.widths[name]
        except KeyError:
            raise EvalError(f"unknown signal {name!r}") from None

    def read(self, name: str, t: int):
        w = self.width(name)
        if t < 0:
            return 0, w
        try:
            return self.sim.history[t][name], w
        except (IndexError, KeyError):
            raise EvalError(f"signal {name!r} not available at cycle {t}") \
                from None


class Simulator:
    """Concrete simulator over an elaborated design.

    Usage::

        sim = Simulator(design)
        sim.reset()
        out = sim.step({"in_vld": 1, "in_data": 0x2a})
    """

    def __init__(self, design: Design, seed: int | None = None):
        self.design = design
        self.rng = random.Random(seed)
        self.state: dict[str, int] = {
            s: design.init.get(s, 0) for s in design.state}
        self.history: list[dict[str, int]] = []
        self._source = _MapSource(self)
        self._evaluator = ExprEvaluator(IntBackend(), self._source,
                                        design.params)
        # signal -> expression compiled to straight-line Python, once per
        # design, on the first step; signals outside the compilable
        # subset (or every signal, under an empty table) fall back to
        # the evaluator
        self._compiled: dict[str, object] | None = None

    # -- driving ------------------------------------------------------------

    def reset(self, cycles: int = 2, inactive: bool = False) -> None:
        """Apply reset for *cycles* cycles (active-low convention: reset
        inputs driven 0), starting from an all-zero state."""
        self.state = {s: 0 for s in self.design.state}
        self.history.clear()
        for _ in range(cycles):
            inputs = {name: 0 for name in self.design.inputs}
            for r in self.design.resets:
                active = 1 - reset_inactive_value(r)
                inputs[r] = reset_inactive_value(r) if inactive else active
            self.step(inputs)
        # after reset, hold reset inactive
        self._release_resets = True

    def step(self, inputs: dict[str, int] | None = None) -> dict[str, int]:
        """Advance one clock cycle; returns all signal values for the cycle."""
        values: dict[str, int] = {}
        for name in self.design.inputs:
            w = self.design.widths[name]
            provided = (inputs or {}).get(name)
            if provided is None and name in self.design.resets:
                provided = reset_inactive_value(name)
            if provided is None:
                provided = 0
            values[name] = provided & ((1 << w) - 1)
        values.update(self.state)
        self.history.append(values)
        t = len(self.history) - 1
        compiled = self._compiled
        if compiled is None:
            from .compile import compile_design
            compiled = self._compiled = compile_design(self.design)
        widths = self.design.widths
        try:
            for name, expr in self.design.comb_exprs.items():
                fn = compiled.get(name)
                if fn is not None:
                    values[name] = fn(values)
                    continue
                v, w = self._evaluator.eval(expr, t)
                values[name] = v & ((1 << w) - 1) if w else 0
                values[name] &= (1 << widths[name]) - 1
            next_state = {}
            for name, expr in self.design.next_exprs.items():
                fn = compiled.get(name)
                if fn is not None:
                    next_state[name] = fn(values)
                    continue
                v, _w = self._evaluator.eval(expr, t)
                next_state[name] = v & ((1 << widths[name]) - 1)
        except KeyError as exc:  # compiled read of an undriven signal
            raise EvalError(f"signal {exc.args[0]!r} not available "
                            f"at cycle {t}") from None
        self.state = {s: next_state.get(s, self.state.get(s, 0))
                      for s in self.design.state}
        return dict(values)

    def run_random(self, cycles: int,
                   pins: dict[str, int] | None = None) -> None:
        """Drive random inputs for *cycles* cycles (pins stay fixed)."""
        for _ in range(cycles):
            inputs = {}
            for name in self.design.inputs:
                if pins and name in pins:
                    inputs[name] = pins[name]
                elif name in self.design.resets:
                    inputs[name] = reset_inactive_value(name)
                else:
                    inputs[name] = self.rng.getrandbits(
                        self.design.widths[name])
            self.step(inputs)

    # -- observation ------------------------------------------------------------

    def trace(self) -> dict[str, list[int]]:
        """Full recorded trace: signal -> per-cycle values."""
        if not self.history:
            return {}
        names = set()
        for frame in self.history:
            names.update(frame)
        return {n: [frame.get(n, 0) for frame in self.history]
                for n in names}

    def value(self, name: str, t: int = -1) -> int:
        frame = self.history[t]
        return frame[name]

    def __len__(self) -> int:
        return len(self.history)


def derive_init(design: Design, cycles: int = 2) -> dict[str, int]:
    """Compute the post-reset initial state by simulating the reset phase
    (the formal tool's 'reset analysis'); updates ``design.init`` in place.

    The steps run on the interpreter: ``exec``-compiling every expression
    of the full design costs far more than *cycles* evaluations of each,
    and the prover simulates COI-reduced copies afterwards, never this
    design."""
    sim = Simulator(design)
    sim._compiled = {}
    sim.state = {s: 0 for s in design.state}
    for _ in range(cycles):
        inputs = {name: 0 for name in design.inputs}
        for r in design.resets:
            inputs[r] = 1 - reset_inactive_value(r)  # assert reset
        sim.step(inputs)
    design.init = dict(sim.state)
    return design.init
