"""Statistical (synthetic) trace generation.

The paper's related-work section discusses statistical simulation [Eeckhout
et al.; Oskin et al.]: generating a synthetic instruction trace from a set of
program statistics.  This module provides that capability as an extension of
the workload suite.  It is useful for two things:

* stress-testing the mechanistic model and the detailed simulator on
  workloads with *controlled* characteristics (exact instruction mix,
  dependency-distance distribution, branch behaviour, memory footprint), and
* generating corner cases the hand-written kernels do not cover (e.g. very
  long dependency distances, extreme branch misprediction rates).

Generation is one loop that writes the six packed trace columns from one
seeded random stream, interning each static instruction once.  It yields
bounded chunks, so the same loop builds an in-memory
:class:`~repro.trace.trace.Trace` and streams scaled workloads into a spill
store; everything downstream consumes either exactly like a trace produced
by the functional simulator.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.trace.trace import INSTR_BYTES, OP_CLASS_IDS, Trace
from repro.trace.trace_schema import NO_VALUE

#: Registers available to the generator (r0 is the zero register, excluded).
_NUM_REGS = 31

#: First byte address of the synthetic data footprint.
_DATA_BASE = 0x100000

#: Record classes.  The class draw tests the spec's fractions in this order;
#: ALU work takes whatever probability is left.
_LOAD, _STORE, _MUL, _DIV, _BRANCH, _ALU = range(6)


@dataclass(frozen=True)
class SyntheticWorkloadSpec:
    """Statistical description of a synthetic workload.

    Fractions need not sum to one; the remainder becomes plain ALU work.
    ``dependency_distances`` maps distance -> weight and is sampled for every
    instruction that has a register source.
    """

    name: str = "synthetic"
    instructions: int = 20_000
    load_fraction: float = 0.2
    store_fraction: float = 0.08
    multiply_fraction: float = 0.02
    divide_fraction: float = 0.002
    branch_fraction: float = 0.12
    branch_taken_rate: float = 0.6
    #: Probability that a branch follows a fixed (learnable) pattern rather
    #: than being random: 1.0 means perfectly predictable loop-like branches.
    branch_predictability: float = 0.9
    dependency_distances: dict[int, float] = field(
        default_factory=lambda: {1: 0.35, 2: 0.25, 3: 0.15, 4: 0.10, 8: 0.10, 16: 0.05}
    )
    #: Size of the synthetic static code footprint, in instructions.
    static_code_size: int = 2_000
    #: Data working-set size in bytes; addresses are drawn from it.
    data_footprint_bytes: int = 64 * 1024
    #: Fraction of memory accesses that stream sequentially (the rest are
    #: uniform random within the footprint).
    streaming_fraction: float = 0.7
    seed: int = 2012

    def __post_init__(self) -> None:
        fractions = (
            self.load_fraction + self.store_fraction + self.multiply_fraction
            + self.divide_fraction + self.branch_fraction
        )
        if fractions > 1.0:
            raise ValueError("instruction class fractions exceed 1.0")
        for value in (self.load_fraction, self.store_fraction, self.multiply_fraction,
                      self.divide_fraction, self.branch_fraction,
                      self.branch_taken_rate, self.branch_predictability,
                      self.streaming_fraction):
            if not 0.0 <= value <= 1.0:
                raise ValueError("fractions and rates must lie in [0, 1]")
        if self.instructions <= 0:
            raise ValueError("instructions must be positive")
        if self.static_code_size <= 0:
            raise ValueError("static_code_size must be positive")
        if self.data_footprint_bytes <= 0:
            raise ValueError("data_footprint_bytes must be positive")
        # Rotating destination registers keep a distance exact only below
        # _NUM_REGS; a longer one would silently alias a shorter one.
        for distance, weight in self.dependency_distances.items():
            if type(distance) is not int or not 1 <= distance < _NUM_REGS:
                raise ValueError(f"dependency distances must be integers in [1, {_NUM_REGS - 1}]")
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError("dependency weights must be finite and non-negative")
        if not 0 < sum(self.dependency_distances.values()) < math.inf:
            raise ValueError("dependency weights must have a positive sum")


def _static(kind: int, dest: int, source: int) -> Instruction:
    """The static instruction a record of class ``kind`` executes."""
    if kind == _LOAD:
        return Instruction(Opcode.LW, dest=dest, src1=source)
    if kind == _STORE:
        return Instruction(Opcode.SW, src1=source, src2=source)
    if kind == _BRANCH:
        return Instruction(Opcode.BNE, src1=source, src2=0, target="loop")
    opcode = {_MUL: Opcode.MUL, _DIV: Opcode.DIV, _ALU: Opcode.ADD}[kind]
    return Instruction(opcode, dest=dest, src1=source, src2=source)


class SyntheticTraceGenerator:
    """Generates dynamic instruction traces matching a statistical spec.

    :meth:`generate` and :meth:`generate_store` share one column loop, so a
    ``scale`` x store holds the rows of a ``scale`` x longer spec's trace.
    """

    def __init__(self, spec: SyntheticWorkloadSpec):
        self.spec = spec

    def generate(self) -> Trace:
        total = self.spec.instructions
        ((statics, _, columns),) = self._columns(total, total)
        return Trace.from_columns(statics=statics, name=self.spec.name, **columns)

    def generate_store(self, path, *, scale: int = 1,
                       chunk_length: int = 65536):
        """Stream ``scale * spec.instructions`` records into a spill store.

        Memory is bounded by ``chunk_length``, not by the trace length: each
        chunk of the generation loop goes straight to a
        :class:`~repro.trace.store.TraceStoreWriter`, carrying the statics
        table as of its flush (the prefix-consistent layout the store's
        manifest expects).  This is how 100–1000x workloads are produced
        without 100–1000x memory.
        """
        from repro.trace.store import TraceStoreWriter

        if scale < 1:
            raise ValueError("scale must be at least 1")
        spec = self.spec
        writer = TraceStoreWriter(path, name=spec.name, chunk_length=chunk_length)
        for statics, start, columns in self._columns(
                spec.instructions * scale, chunk_length):
            writer.append(Trace.from_columns(statics=statics, name=spec.name,
                                             seq_start=start, **columns))
        return writer.finalize()

    def _columns(self, total: int, chunk_length: int):
        """Yield ``(statics, seq_start, columns)`` for ``total`` records.

        ``columns`` holds up to ``chunk_length`` rows as the keywords of
        :meth:`Trace.from_columns`; ``statics`` is the table interned so far
        (it only grows).  Per record the seeded stream draws, in order: the
        class; the dependency distance (not for the first record); for a
        load or store whether it streams, then a word only if it does not;
        for a branch whether it is predictable, then its direction (once
        per pc if predictable, else per execution).
        """
        spec = self.spec
        rng = random.Random(spec.seed)
        draw = rng.random
        # ``rng.choices(distances, weights)`` inlined exactly as CPython
        # computes it, so the stream and its results are unchanged.
        distances = list(spec.dependency_distances)
        cum_weights = list(accumulate(spec.dependency_distances.values()))
        weight_total = cum_weights[-1] + 0.0
        hi = len(cum_weights) - 1
        load, store, mul, div, branch = (
            spec.load_fraction, spec.store_fraction, spec.multiply_fraction,
            spec.divide_fraction, spec.branch_fraction)
        code_size = spec.static_code_size
        cursor = 0
        # Direction chosen once per static branch location: history-based
        # predictors learn these, so ``branch_predictability`` controls the
        # achievable prediction accuracy while the overall taken rate stays
        # at ``branch_taken_rate``.
        pc_bias: dict[int, bool] = {}
        statics: list[Instruction] = []
        slot_classes = bytearray()
        # (class, dest, source) packed into one int -> statics slot; stores
        # and branches write no register, so their key leaves dest out.
        slots: dict[int, int] = {}

        for start in range(0, total, chunk_length):
            stop = min(start + chunk_length, total)
            mem_addrs = array("q", [NO_VALUE]) * (stop - start)
            taken = array("b", [NO_VALUE]) * (stop - start)
            static_index = array("q")
            for seq in range(start, stop):
                choice = draw()
                # Destination register: rotating allocation guarantees the
                # value written ``d`` instructions ago still lives in a
                # unique register for any d < _NUM_REGS, so dependency
                # distances are exact.
                dest = 1 + seq % _NUM_REGS
                if seq:
                    distance = distances[
                        bisect_right(cum_weights, draw() * weight_total, 0, hi)]
                    source = (1 + (seq - distance) % _NUM_REGS
                              if distance < seq else 1)
                else:
                    source = 0
                # The class draw is tested against each fraction in turn,
                # subtracting as it goes (float rounding included).
                if choice < load:
                    kind = _LOAD
                elif (choice := choice - load) < store:
                    kind = _STORE
                elif (choice := choice - store) < mul:
                    kind = _MUL
                elif (choice := choice - mul) < div:
                    kind = _DIV
                elif choice - div < branch:
                    kind = _BRANCH
                else:
                    kind = _ALU

                if kind <= _STORE:
                    if draw() < spec.streaming_fraction:
                        mem_addrs[seq - start] = _DATA_BASE + cursor
                        cursor = (cursor + 4) % spec.data_footprint_bytes
                    else:
                        mem_addrs[seq - start] = _DATA_BASE + 4 * rng.randrange(
                            spec.data_footprint_bytes // 4)
                    if kind == _STORE:
                        dest = 0
                elif kind == _BRANCH:
                    # Predictable branches always go the same way at a given
                    # pc; unpredictable ones flip per execution.
                    if draw() < spec.branch_predictability:
                        outcome = pc_bias.get(seq % code_size)
                        if outcome is None:
                            outcome = pc_bias[seq % code_size] = (
                                draw() < spec.branch_taken_rate)
                    else:
                        outcome = draw() < spec.branch_taken_rate
                    taken[seq - start] = outcome
                    dest = 0

                key = kind << 10 | dest << 5 | source
                slot = slots.get(key)
                if slot is None:
                    slot = slots[key] = len(statics)
                    instruction = _static(kind, dest, source)
                    statics.append(instruction)
                    slot_classes.append(OP_CLASS_IDS[instruction.op_class])
                static_index.append(slot)

            # The program re-executes a hot loop of ``static_code_size``
            # instructions, so the instruction-cache behaviour is realistic.
            pcs = array("q", [seq % code_size * INSTR_BYTES
                              for seq in range(start, stop + 1)])
            yield tuple(statics), start, {
                "pcs": pcs[:-1], "next_pcs": pcs[1:], "mem_addrs": mem_addrs,
                "op_classes": array("b", map(slot_classes.__getitem__,
                                             static_index)),
                "taken": taken, "static_index": static_index,
            }


def generate_synthetic_trace(spec: SyntheticWorkloadSpec | None = None) -> Trace:
    """Convenience wrapper: generate a trace from ``spec`` (or the defaults)."""
    return SyntheticTraceGenerator(spec if spec is not None else SyntheticWorkloadSpec()).generate()


def generate_synthetic_store(path, spec: SyntheticWorkloadSpec | None = None,
                             *, scale: int = 1, chunk_length: int = 65536):
    """Stream a (possibly scaled) synthetic trace into a spill store at ``path``.

    ``scale`` multiplies ``spec.instructions``; peak memory stays bounded by
    one ``chunk_length`` chunk regardless of scale.  Returns the opened
    :class:`~repro.trace.trace.ChunkedTrace` backed by the store.
    """
    generator = SyntheticTraceGenerator(
        spec if spec is not None else SyntheticWorkloadSpec())
    return generator.generate_store(path, scale=scale,
                                    chunk_length=chunk_length)
