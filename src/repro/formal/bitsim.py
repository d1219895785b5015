"""Word-level bit-parallel simulation: one bitwise operation, many lanes.

Every AIG node value is one Python int whose bit ``l`` is the node's
value on lane ``l`` (AND is ``&``, negation is ``mask ^ v``), so one pass
over a circuit evaluates every lane at once.  Two pieces:

* :class:`PackedSimulator` -- compiles the design's one-step transition
  relation (:func:`repro.rtl.compile.bitblast_step`) to straight-line
  Python over lane ints, driven by per-lane seeded stimulus that
  reproduces :class:`repro.rtl.simulator.Simulator` bit for bit; and
* :func:`block_values` -- evaluates a ``TraceChecker``'s attempt
  template once over (trace, attempt) lanes of a :class:`PackedTraces`:
  block ``j`` of ``lanes`` bits reads every trace shifted by ``j``
  cycles, through one shift of each signal's :meth:`PackedTraces.stream`.

Designs outside the single-frame subset (``$past``-style reads), and
step AIGs over the caller's node budget, raise :class:`PackedUnsupported`;
the prover then generates that cone's traces word-level and packs them
(:func:`pack_traces`).  Either way the check is one :func:`block_values`
walk per pack.  ``Prover(use_packed_sim=False)`` forces the word-level
generator on every cone: the reference of ``tests/test_formal_bitsim.py``.
"""

from __future__ import annotations

import random

from ..rtl.elaborate import Design, reset_inactive_value

#: lanes per packed word, and the most traces a falsifier may ask for:
#: all of them fit one pack (no chunking is attempted)
MAX_LANES = 64


class PackedUnsupported(Exception):
    """Design outside the packed-simulation subset or over the node
    budget; generate its traces word-level."""


# ---------------------------------------------------------------------------
# AIG -> straight-line lane code
# ---------------------------------------------------------------------------


def compile_packed_aig(aig, source_nodes: list[int], outputs: list[int]):
    """Compile the cone of *outputs* to ``fn(M, V) -> list[int]``.

    ``V`` supplies one lane int per node in *source_nodes* (positive input
    literals' node indices); unconstrained inputs read 0 on every lane,
    matching :func:`block_values`.  ``M`` is the lane mask.  Each
    AND node becomes one bitwise-and statement, so evaluating the returned
    function is one pass of straight-line code for all lanes at once.
    """
    names: dict[int, str] = {0: "M"}
    lines = []
    for i, node in enumerate(source_nodes):
        names[node] = f"V[{i}]"

    def ref(lit: int) -> str:
        name = names.get(lit >> 1, "0")
        if lit & 1:
            if name == "M":
                return "0"
            if name == "0":
                return "M"
            return f"(M^{name})"
        return name

    fanins = aig._fanins
    for node in aig.cone(outputs):
        if fanins[node] is None:
            if node not in names:
                names[node] = "0"  # unconstrained input defaults to 0
            continue
        a, b = fanins[node]
        names[node] = f"n{node}"
        lines.append(f"    n{node} = {ref(a)} & {ref(b)}")
    lines.append("    return [" + ",".join(ref(o) for o in outputs) + "]")
    src = "def _packed(M, V):\n" + "\n".join(lines) + "\n"
    namespace: dict = {}
    exec(src, namespace)  # generated from the design's own AIG only
    fn = namespace["_packed"]
    fn.__source__ = src
    return fn


# ---------------------------------------------------------------------------
# Packed traces
# ---------------------------------------------------------------------------


class PackedTraces:
    """A bundle of concrete traces in lane-transposed form.

    ``series(name)[t][i]`` is a lane int: bit ``l`` holds bit ``i`` of
    signal *name* at cycle ``t`` on trace ``l``.  The signal set and cycle
    count match ``Simulator.trace()`` exactly.

    Two backings: the bit-parallel simulator produces the transposed form
    directly (``bits``); :func:`pack_traces` wraps scalar traces and
    transposes *lazily per signal*, so a property check only pays for the
    signals its cone reads.
    """

    def __init__(self, lanes: int, length: int,
                 bits: dict[str, list[list[int]]] | None = None,
                 scalar: list[dict[str, list[int]]] | None = None,
                 widths: dict[str, int] | None = None):
        self.lanes = lanes
        self.length = length
        self.mask = (1 << lanes) - 1
        self._bits: dict[str, list[list[int]]] = bits if bits is not None \
            else {}
        self._scalar = scalar
        self._widths = widths or {}
        self._streams: dict[str, list[int]] = {}

    def series(self, name: str) -> list[list[int]] | None:
        """Per-cycle packed bit frames of one signal (None: no such
        signal)."""
        frames = self._bits.get(name)
        if frames is not None:
            return frames
        if self._scalar is None or name not in self._scalar[0]:
            return None
        w = self._widths.get(name, 1)
        wmask = (1 << w) - 1
        per_lane = [trace[name] for trace in self._scalar]
        frames = []
        for t in range(self.length):
            frame = [0] * w
            for lane, values in enumerate(per_lane):
                v = values[t] & wmask
                i = 0
                while v:
                    if v & 1:
                        frame[i] |= 1 << lane
                    v >>= 1
                    i += 1
            frames.append(frame)
        self._bits[name] = frames
        return frames

    def stream(self, name: str) -> list[int]:
        """Per bit of *name*, one int over all cycles: bit ``c * lanes +
        l`` is cycle ``c`` of trace ``l`` (empty: no such signal)."""
        streams = self._streams.get(name)
        if streams is None:
            frames = self.series(name) or ()
            streams = self._streams[name] = [
                sum(frame[i] << (c * self.lanes)
                    for c, frame in enumerate(frames))
                for i in range(len(frames[0]) if frames else 0)]
        return streams

    def lane_trace(self, lane: int) -> dict[str, list[int]]:
        """Unpack one lane back into a scalar ``signal -> values`` trace."""
        if self._scalar is not None:
            return {name: list(values[:self.length])
                    for name, values in self._scalar[lane].items()}
        out: dict[str, list[int]] = {}
        for name, frames in self._bits.items():
            series = []
            for frame in frames:
                v = 0
                for i, lane_bits in enumerate(frame):
                    v |= ((lane_bits >> lane) & 1) << i
                series.append(v)
            out[name] = series
        return out


class PackedSimulator:
    """Bit-parallel re-implementation of the prover's random-trace stimulus.

    Reproduces, for lane ``l``, exactly the trace of::

        sim = Simulator(design, seed=seed_base + l)
        sim.reset()
        sim.run_random(cycles)

    but evaluates the compiled one-step circuit once per cycle for all
    lanes together.
    """

    def __init__(self, design: Design, max_nodes: int | None = None):
        from ..rtl.compile import Uncompilable, bitblast_step
        self.design = design
        try:
            # the budget aborts mid-build: a wide datapath (one word-level
            # op explodes into hundreds of bit-level ANDs) is better served
            # by the scalar compiled simulator, and finding that out must
            # not cost a full bit-blast
            aig, input_bits, comb_bits, next_bits = bitblast_step(
                design, max_nodes=max_nodes)
        except Uncompilable as exc:
            raise PackedUnsupported(str(exc)) from exc
        self._input_order: list[tuple[str, int]] = []
        source_nodes: list[int] = []
        for name, bits in input_bits.items():
            for i, lit in enumerate(bits):
                self._input_order.append((name, i))
                source_nodes.append(lit >> 1)
        self._out_names: list[tuple[str, int, bool]] = []
        outputs: list[int] = []
        for name, bits in comb_bits.items():
            for i, lit in enumerate(bits):
                self._out_names.append((name, i, False))
                outputs.append(lit)
        for name, bits in next_bits.items():
            for i, lit in enumerate(bits):
                self._out_names.append((name, i, True))
                outputs.append(lit)
        self._fn = compile_packed_aig(aig, source_nodes, outputs)
        self._slot = {(name, i): k
                      for k, (name, i) in enumerate(self._input_order)}
        # per-signal slot plans: slot index of bit i, or -1 if the step
        # function never reads it (resolved once, not per cycle)
        self._input_slots = {
            name: [self._slot.get((name, i), -1)
                   for i in range(design.widths[name])]
            for name in design.inputs}
        self._state_slots = {
            name: [self._slot.get((name, i), -1)
                   for i in range(design.widths[name])]
            for name in design.state}

    # -- stimulus ------------------------------------------------------------

    def run(self, lanes: int, seed_base: int, cycles: int,
            reset_cycles: int = 2) -> PackedTraces:
        if not 1 <= lanes <= MAX_LANES:
            raise ValueError(f"lanes must be in [1, {MAX_LANES}]")
        design = self.design
        mask = (1 << lanes) - 1
        rngs = [random.Random(seed_base + lane) for lane in range(lanes)]
        state = {name: [0] * design.widths[name] for name in design.state}
        frames: dict[str, list[list[int]]] = {}
        length = reset_cycles + cycles
        input_slots = self._input_slots
        state_slots = self._state_slots
        nslots = len(self._input_order)
        resets = design.resets
        random_names = [n for n in design.inputs if n not in resets]
        pinned: dict[str, list[int]] = {}  # reset pins held at a constant
        for name in resets:
            inactive = reset_inactive_value(name)
            pinned[name] = [mask if (inactive >> i) & 1 else 0
                            for i in range(design.widths[name])]
        for t in range(length):
            inputs: dict[str, list[int]] = {}
            if t < reset_cycles:
                for name in design.inputs:
                    w = design.widths[name]
                    value = 0
                    if name in resets:
                        value = 1 - reset_inactive_value(name)
                    inputs[name] = [mask if (value >> i) & 1 else 0
                                    for i in range(w)]
            else:
                for name in resets:
                    inputs[name] = pinned[name]
                for name in random_names:
                    w = design.widths[name]
                    lane_vals = [rng.getrandbits(w) for rng in rngs]
                    inputs[name] = [
                        sum(((v >> i) & 1) << lane
                            for lane, v in enumerate(lane_vals))
                        for i in range(w)]
            V = [0] * nslots
            for name, bits in inputs.items():
                for k, v in zip(input_slots[name], bits):
                    if k >= 0:
                        V[k] = v
            for name, bits in state.items():
                for k, v in zip(state_slots[name], bits):
                    if k >= 0:
                        V[k] = v
            outs = self._fn(mask, V)
            comb: dict[str, list[int]] = {}
            next_state: dict[str, list[int]] = {}
            for (name, i, is_next), v in zip(self._out_names, outs):
                table = next_state if is_next else comb
                bits = table.get(name)
                if bits is None:
                    bits = table[name] = []
                bits.append(v)
            # frame = inputs, overlaid by state, overlaid by comb -- the
            # same precedence as Simulator.step's in-place value dict
            # (bit lists are never mutated, so sharing references is safe)
            frame_vals = dict(inputs)
            frame_vals.update(state)
            frame_vals.update(comb)
            for name, bits in frame_vals.items():
                frames.setdefault(name, []).append(bits)
            state = {name: next_state.get(name, state[name])
                     for name in design.state}
        return PackedTraces(lanes, length, frames)


def pack_traces(traces: list[dict[str, list[int]]],
                widths: dict[str, int]) -> PackedTraces:
    """Wrap scalar traces (trace ``l`` -> lane ``l``) as a lazily
    transposing :class:`PackedTraces`.

    Used when the transition relation itself is cheaper to simulate
    word-level (wide datapaths): the scalar simulator generates the traces,
    and only the property-cone *checking* runs bit-parallel -- signals the
    cone never reads are never transposed.
    """
    lanes = len(traces)
    if not 1 <= lanes <= MAX_LANES:
        raise ValueError(f"need 1..{MAX_LANES} traces, got {lanes}")
    length = min(min((len(v) for v in t.values()), default=0)
                 for t in traces)
    return PackedTraces(lanes, length, scalar=traces, widths=widths)


# ---------------------------------------------------------------------------
# Packed property-cone evaluation
# ---------------------------------------------------------------------------


def block_values(cone, packed: PackedTraces, shift: int,
                 blocks: int) -> list[int]:
    """Lane ints of a property cone's outputs over *blocks* blocks.

    *cone* is ``(aig, inputs, order, outputs)``: ``inputs`` maps ``(name,
    rel)`` to a ``FreeSignalSource``'s bit literals, ``order`` is the
    topo-sorted cone.  Lane ``j * packed.lanes + l`` is trace ``l`` read
    at cycle ``shift + j + rel`` (0 outside the trace), so one pass
    evaluates every (trace, block) pair.
    """
    aig, inputs, order, outputs = cone
    lanes = packed.lanes
    mask = (1 << (lanes * blocks)) - 1
    fanins = aig._fanins
    values: dict[int, int] = {0: mask}
    for (name, rel), bits in inputs.items():
        streams = packed.stream(name)
        s = (shift + rel) * lanes
        for i, lit in enumerate(bits):
            v = streams[i] if i < len(streams) else 0
            values[lit >> 1] = (v >> s if s >= 0 else v << -s) & mask
    for n in order:
        if n in values:
            continue
        fi = fanins[n]
        if fi is None:
            values[n] = 0  # unconstrained input defaults to 0
            continue
        a, b = fi
        va = values[a >> 1]
        if a & 1:
            va ^= mask
        vb = values[b >> 1]
        if b & 1:
            vb ^= mask
        values[n] = va & vb
    return [values[lit >> 1] ^ (mask if lit & 1 else 0) for lit in outputs]


def packed_violation_lanes(checker, packed: PackedTraces) -> int:
    """Bitmask of lanes on which *checker*'s assertion has >= 1 violated
    attempt (:meth:`~repro.formal.prover.TraceChecker.violations`)."""
    viol = 0
    for _t, lanes in checker.violations(packed):
        viol |= lanes
    return viol
