"""Dataflow execution: functional simulation and cycle-approximate timing.

Two separate concerns:

* :class:`FunctionalDataflowSimulator` executes the generated HLS-dialect
  kernel on numpy arrays.  Dataflow stages are interpreted in program order
  with unbounded FIFOs, which is functionally equivalent to the concurrent
  execution on the device; the runtime data movers come from
  :mod:`repro.runtime`.  This is what correctness tests use (on small grids).
* :class:`TimingModel` turns a :class:`~repro.fpga.synthesis.KernelDesign`
  into cycle counts / runtime: stages within a group overlap (dataflow), the
  groups run back-to-back, every stage costs ``trip_count × II + depth``
  cycles and the memory stages bound the throughput from the HBM side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.plan import DataflowPlan
from repro.dialects import hls, llvm as llvm_d, scf
from repro.dialects.builtin import ModuleOp
from repro.interp.interpreter import Interpreter, InterpreterError, Step
from repro.ir.core import Operation, SSAValue
from repro.fpga.synthesis import KernelDesign
from repro.runtime.data_movers import make_externals
from repro.runtime.streams import FIFOStream


class HLSInterpreter(Interpreter):
    """Interpreter extended with HLS-dialect and llvm aggregate semantics.

    In a map loop (see :meth:`_map_body`) ``hls.read`` takes the next
    trip-count items of its stream as one array, ``llvm.extractvalue``
    takes a column of it and ``hls.write`` appends one item per iteration.
    """

    def __init__(self, module: ModuleOp, externals: dict[str, Callable] | None = None) -> None:
        super().__init__(module, externals)
        self.streams: list[FIFOStream] = []
        self.handlers.update(
            {
                hls.CreateStreamOp: HLSInterpreter._create_stream,
                hls.EmptyOp: HLSInterpreter._stream_empty,
                hls.FullOp: HLSInterpreter._stream_full,
                hls.PipelineOp: HLSInterpreter._directive,
                hls.UnrollOp: HLSInterpreter._directive,
                hls.ArrayPartitionOp: HLSInterpreter._directive,
                hls.InterfaceOp: HLSInterpreter._directive,
                hls.DataflowOp: HLSInterpreter._dataflow,
                llvm_d.InsertValueOp: HLSInterpreter._insert_value,
                llvm_d.UndefOp: HLSInterpreter._undef,
                llvm_d.ConstantOp: HLSInterpreter._llvm_constant,
            }
        )

    def _decode_op(self, op: Operation) -> Step:
        # An extractvalue's container and position, and a stream access's
        # operands, are constants of the op: read them once per run rather
        # than once per point.
        if isinstance(op, llvm_d.ExtractValueOp):
            return HLSInterpreter._extract_value, (op.operands[0], op.position), op.results
        if isinstance(op, hls.ReadOp):
            return HLSInterpreter._stream_read, op.stream, op.results
        if isinstance(op, hls.WriteOp):
            return HLSInterpreter._stream_write, (op.stream, op.value), op.results
        return super()._decode_op(op)

    def _map_body(self, op: scf.ForOp) -> list[Step] | None:
        # Reading a stream twice, or reading and writing it, in one iteration
        # interleaves its items across iterations; whole-array reads would not.
        streams = [o.operands[0] for o in op.body.ops if isinstance(o, (hls.ReadOp, hls.WriteOp))]
        if len(set(streams)) != len(streams):
            return None
        return super()._map_body(op)

    # -- HLS handlers ----------------------------------------------------------

    def _create_stream(self, op: hls.CreateStreamOp, env) -> list[Any]:
        stream = FIFOStream(
            name=op.result.name_hint or f"stream{len(self.streams)}",
            depth=op.depth,
        )
        self.streams.append(stream)
        return [stream]

    def _stream_read(self, stream: SSAValue, env) -> list[Any]:
        return [env[stream].read()]

    def _stream_write(self, decoded: tuple[SSAValue, SSAValue], env) -> list[Any]:
        stream, value = decoded
        env[stream].write(env[value])
        return []

    def _stream_empty(self, op: hls.EmptyOp, env) -> list[Any]:
        return [env[op.stream].empty()]

    def _stream_full(self, op: hls.FullOp, env) -> list[Any]:
        return [env[op.stream].full()]

    def _directive(self, op, env) -> list[Any]:
        return []

    def _dataflow(self, op: hls.DataflowOp, env) -> list[Any]:
        # Functional semantics: run the region to completion.  Dataflow
        # concurrency only affects timing, which is modelled separately.
        self._run_block(op.body, env)
        return []

    # -- llvm aggregate handlers ---------------------------------------------------

    def _extract_value(self, decoded: tuple[SSAValue, tuple[int, ...]], env) -> list[Any]:
        container, position = decoded
        value = env[container]
        for index in position:
            value = value[index]
        return [float(value)]

    def _insert_value(self, op: llvm_d.InsertValueOp, env) -> list[Any]:
        container = np.array(env[op.operands[0]], copy=True)
        container[op.position[0]] = env[op.operands[1]]
        return [container]

    def _undef(self, op: llvm_d.UndefOp, env) -> list[Any]:
        return [np.zeros(1)]

    def _llvm_constant(self, op: llvm_d.ConstantOp, env) -> list[Any]:
        return [op.value]

    # -- array handlers (map loop bodies) ----------------------------------------

    def _map_read(self, op: hls.ReadOp, loop: scf.ForOp, varying: set[SSAValue]) -> Step:
        varying.add(op.result)
        return HLSInterpreter._read_rows, (op.stream, loop.induction_variable), op.results

    def _read_rows(self, decoded: tuple[SSAValue, SSAValue], env) -> list[Any]:
        stream, induction_variable = decoded
        return [np.asarray(env[stream].read_many(len(env[induction_variable])))]

    def _map_write(self, op: hls.WriteOp, loop: scf.ForOp, varying: set[SSAValue]) -> Step:
        if op.value in varying:
            return HLSInterpreter._write_rows, (op.stream, op.value), op.results
        decoded = (op.stream, op.value, loop.induction_variable)
        return HLSInterpreter._write_repeated, decoded, op.results

    def _write_rows(self, decoded: tuple[SSAValue, SSAValue], env) -> list[Any]:
        stream, value = decoded
        rows = env[value]
        # Scalars go out as Python numbers, as one iteration's write would.
        env[stream].extend(rows.tolist() if rows.ndim == 1 else rows)
        return []

    def _write_repeated(self, decoded: tuple[SSAValue, SSAValue, SSAValue], env) -> list[Any]:
        stream, value, induction_variable = decoded
        env[stream].extend([env[value]] * len(env[induction_variable]))
        return []

    def _map_extract(
        self, op: llvm_d.ExtractValueOp, loop: scf.ForOp, varying: set[SSAValue]
    ) -> Step:
        container = op.operands[0]
        if container not in varying:
            return self._decode_op(op)
        return HLSInterpreter._column, (container, (slice(None), *op.position)), op.results

    def _column(self, decoded: tuple[SSAValue, tuple], env) -> list[Any]:
        container, index = decoded
        return [env[container][index]]


HLSInterpreter.array_handlers = {
    **Interpreter.array_handlers,
    hls.ReadOp: HLSInterpreter._map_read,
    hls.WriteOp: HLSInterpreter._map_write,
    llvm_d.ExtractValueOp: HLSInterpreter._map_extract,
    **{
        directive: Interpreter._once
        for directive in (hls.PipelineOp, hls.UnrollOp, hls.ArrayPartitionOp, hls.InterfaceOp)
    },
}


class FunctionalDataflowSimulator:
    """Execute a compiled Stencil-HMLS kernel on numpy arrays."""

    def __init__(self, hls_module: ModuleOp, plan: DataflowPlan) -> None:
        self.module = hls_module
        self.plan = plan

    def run(self, arrays: dict[str, np.ndarray], scalars: dict[str, float] | None = None) -> dict[str, np.ndarray]:
        """Run the kernel; output/intermediate arrays are modified in place.

        ``arrays`` maps field / small-data argument names to numpy arrays;
        ``scalars`` maps scalar argument names to Python floats.
        """
        scalars = dict(scalars or {})
        externals = make_externals(self.plan)
        interpreter = HLSInterpreter(self.module, externals)
        args: list[Any] = []
        for info in self.plan.analysis.arguments:
            if info.kind == "scalar":
                if info.name not in scalars:
                    raise InterpreterError(f"missing scalar argument '{info.name}'")
                args.append(float(scalars[info.name]))
            else:
                if info.name not in arrays:
                    raise InterpreterError(f"missing array argument '{info.name}'")
                array = np.asarray(arrays[info.name], dtype=np.float64)
                if info.is_field and tuple(array.shape) != tuple(info.shape):
                    raise InterpreterError(
                        f"argument '{info.name}' has shape {array.shape}, expected {info.shape}"
                    )
                arrays[info.name] = array
                args.append(array)
        interpreter.run(self.plan.kernel_name, *args)
        return {
            info.name: arrays[info.name]
            for info in self.plan.analysis.arguments
            if info.kind == "field_output"
        }


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------


@dataclass
class TimingReport:
    """Cycle-approximate execution estimate of one kernel run."""

    cycles: int
    runtime_s: float
    clock_mhz: float
    compute_units: int
    achieved_ii: int
    points: int
    mpts: float                  # million points per second (the paper's metric)
    sustained_bandwidth_gbs: float
    activity: float              # useful-work fraction (drives dynamic power)

    def as_dict(self) -> dict[str, float]:
        return {
            "cycles": self.cycles,
            "runtime_s": self.runtime_s,
            "clock_mhz": self.clock_mhz,
            "compute_units": self.compute_units,
            "achieved_ii": self.achieved_ii,
            "mpts": self.mpts,
            "sustained_bandwidth_gbs": self.sustained_bandwidth_gbs,
            "activity": self.activity,
        }


class TimingModel:
    """Estimate cycles / runtime / MPt/s for a synthesised design."""

    def estimate(self, design: KernelDesign, problem_points: int | None = None) -> TimingReport:
        if problem_points is None:
            problem_points = design.plan.domain_points if design.plan is not None else 0
        total_cycles = 0
        for group in design.stage_groups:
            group_cycles = max((stage.cycles for stage in group), default=0)
            total_cycles += group_cycles
        total_cycles = max(total_cycles, 1)
        runtime_s = total_cycles / (design.clock_mhz * 1e6)
        mpts = problem_points / runtime_s / 1e6 if runtime_s > 0 else 0.0
        bandwidth = design.bytes_moved / runtime_s / 1e9 if runtime_s > 0 else 0.0
        activity = min(1.0, 1.0 / max(design.achieved_ii, 1))
        return TimingReport(
            cycles=total_cycles,
            runtime_s=runtime_s,
            clock_mhz=design.clock_mhz,
            compute_units=design.compute_units,
            achieved_ii=design.achieved_ii,
            points=problem_points,
            mpts=mpts,
            sustained_bandwidth_gbs=bandwidth,
            activity=activity,
        )
