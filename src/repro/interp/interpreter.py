"""A reference interpreter for the stencil / scf / arith level IR.

The interpreter is deliberately simple — it walks each block's ops in
Python over numpy buffers — because its only job is to provide a trusted
semantics against which the compiler's lowerings are validated on small
grids.  One shortcut keeps the functional simulator affordable: an
``scf.for`` whose iterations are independent (a *map*, see
:meth:`Interpreter._map_body`) runs its body once over arrays as long as
its trip count; every other loop runs one iteration at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.ir.core import Block, Operation, SSAValue
from repro.dialects import arith, math as math_d, memref as memref_d, scf, stencil
from repro.dialects.builtin import ModuleOp, UnrealizedConversionCastOp
from repro.dialects.func import CallOp, FuncOp, ReturnOp
from repro.ir.attributes import StringAttr
from repro.ir.types import FloatType, IndexType, IntegerType, MemRefType


class InterpreterError(Exception):
    """Raised when the interpreter meets IR it cannot execute."""


@dataclass
class FieldValue:
    """Runtime value of a ``!stencil.field``: an array plus its lower bounds."""

    array: np.ndarray
    lower: tuple[int, ...]

    def at(self, index: Sequence[int]) -> float:
        local = tuple(i - l for i, l in zip(index, self.lower))
        return self.array[local]

    def set(self, index: Sequence[int], value: float) -> None:
        local = tuple(i - l for i, l in zip(index, self.lower))
        self.array[local] = value


@dataclass
class TempValue:
    """Runtime value of a ``!stencil.temp``: an array over [origin, origin+shape)."""

    array: np.ndarray
    origin: tuple[int, ...]

    def at(self, index: Sequence[int]) -> float:
        local = tuple(i - o for i, o in zip(index, self.origin))
        return self.array[local]


#: The ops that end a block's execution and hand back their operands.
_TERMINATORS = (ReturnOp, scf.YieldOp, stencil.ReturnOp)

#: One decoded op: its handler, what the handler reads (the op itself unless
#: ``_decode_op`` read the op's constants in advance) and the op's results.
Step = tuple[Callable, Any, Sequence[SSAValue]]

#: A decoded block: the steps up to its terminator and the terminator's
#: operands (``None`` for a block without one).
DecodedBlock = tuple[list[Step], tuple[SSAValue, ...] | None]

#: An array handler: given an op of a map loop's body, the loop and the
#: values found to vary so far, the step that runs the op once for all
#: iterations (see :meth:`Interpreter._map_body`).
ArrayHandler = Callable[["Interpreter", Operation, scf.ForOp, set[SSAValue]], Step]


class Interpreter:
    """Executes functions in a module on concrete numpy / scalar arguments.

    Each block is decoded once per :meth:`run`, on first entry, into the
    steps up to its terminator; executing the block then walks the steps.
    Each ``scf.for`` is tested once per run for being a map, and the
    module's symbols are looked up in a table built when the run starts.
    All of this is dropped when the run ends, so a module mutated between
    runs executes as it then stands.
    """

    #: How each op of a map loop's body runs once for all iterations; a
    #: loop whose body holds an op missing here runs one iteration at a time.
    array_handlers: dict[type, ArrayHandler] = {}  # filled in below the class

    def __init__(self, module: ModuleOp, externals: dict[str, Callable] | None = None) -> None:
        self.module = module
        self.externals = dict(externals or {})
        # Per-instance handler table so specialised interpreters (e.g. the HLS
        # functional simulator) can register handlers for additional dialects.
        self.handlers: dict[type, Callable] = dict(_HANDLERS)
        self._decoded: dict[Block, DecodedBlock] = {}
        self._maps: dict[scf.ForOp, list[Step] | None] = {}
        self._symbols: dict[str, Operation] = {}

    # -- public API -----------------------------------------------------------

    def run(self, func_name: str, *args: Any) -> list[Any]:
        symbols: dict[str, Operation] = {}
        for op in self.module.body.ops:
            sym = op.attributes.get("sym_name")
            if isinstance(sym, StringAttr):
                symbols.setdefault(sym.data, op)     # the first one wins, as in get_symbol
        func = symbols.get(func_name)
        if not isinstance(func, FuncOp):
            raise InterpreterError(f"no function named '{func_name}' in module")
        self._decoded, self._maps, self._symbols = {}, {}, symbols
        try:
            return self._run_func(func, list(args))
        finally:
            self._decoded, self._maps, self._symbols = {}, {}, {}

    # -- function / block execution -------------------------------------------

    def _run_func(self, func: FuncOp, args: list[Any]) -> list[Any]:
        if func.is_declaration:
            if func.sym_name in self.externals:
                result = self.externals[func.sym_name](*args)
                if result is None:
                    return []
                return list(result) if isinstance(result, (tuple, list)) else [result]
            raise InterpreterError(
                f"call to external function '{func.sym_name}' with no registered implementation"
            )
        entry = func.entry_block
        if len(entry.args) != len(args):
            raise InterpreterError(
                f"function '{func.sym_name}' expects {len(entry.args)} arguments, got {len(args)}"
            )
        env: dict[SSAValue, Any] = dict(zip(entry.args, args))
        return self._run_block(entry, env)

    def _run_block(self, block: Block, env: dict[SSAValue, Any]) -> list[Any]:
        decoded = self._decoded.get(block)
        if decoded is None:
            decoded = self._decoded[block] = self._decode(block)
        steps, terminator = decoded
        self._walk(steps, env)
        return [env[o] for o in terminator] if terminator is not None else []

    def _walk(self, steps: list[Step], env: dict[SSAValue, Any]) -> None:
        for handler, arg, results in steps:
            values = handler(self, arg, env)
            if values:
                for res, value in zip(results, values):
                    env[res] = value

    # -- op dispatch ------------------------------------------------------------

    def _decode(self, block: Block) -> DecodedBlock:
        """The block's steps up to its first terminator, and that terminator's
        operands; ops after the terminator are never decoded or run."""
        steps: list[Step] = []
        for op in block.ops:
            if isinstance(op, _TERMINATORS):
                return steps, op.operands
            steps.append(self._decode_op(op))
        return steps, None

    def _decode_op(self, op: Operation) -> Step:
        handler = self.handlers.get(type(op))
        if handler is None:
            for klass, fn in self.handlers.items():
                if isinstance(op, klass):
                    handler = fn
                    break
            else:
                handler = _no_handler
        return handler, op, op.results

    def _execute(self, op: Operation, env: dict[SSAValue, Any]) -> None:
        handler, arg, results = self._decode_op(op)
        values = handler(self, arg, env)
        if values:
            for res, value in zip(results, values):
                env[res] = value

    # -- handlers ---------------------------------------------------------------

    def _constant(self, op: arith.ConstantOp, env) -> list[Any]:
        return [op.value]

    def _binary(self, op: Operation, env) -> list[Any]:
        lhs, rhs = env[op.operands[0]], env[op.operands[1]]
        value = type(op).py_func(lhs, rhs)
        if isinstance(op.result.type, (IntegerType, IndexType)):
            value = int(value)
        return [value]

    def _negf(self, op: arith.NegfOp, env) -> list[Any]:
        return [-env[op.operand]]

    def _cmp(self, op: Operation, env) -> list[Any]:
        lhs, rhs = env[op.operands[0]], env[op.operands[1]]
        return [bool(op.py_func(lhs, rhs))]

    def _select(self, op: arith.SelectOp, env) -> list[Any]:
        return [env[op.true_value] if env[op.condition] else env[op.false_value]]

    def _cast_numeric(self, op: Operation, env) -> list[Any]:
        value = env[op.operands[0]]
        if isinstance(op.result.type, FloatType):
            return [float(value)]
        return [int(value)]

    def _unary_math(self, op: Operation, env) -> list[Any]:
        return [type(op).py_func(env[op.operands[0]])]

    def _powf(self, op: math_d.PowFOp, env) -> list[Any]:
        return [env[op.lhs] ** env[op.rhs]]

    def _fma(self, op: math_d.FmaOp, env) -> list[Any]:
        a, b, c = (env[o] for o in op.operands)
        return [a * b + c]

    # memref ---------------------------------------------------------------------

    def _alloc(self, op: Operation, env) -> list[Any]:
        memref_type: MemRefType = op.result.type
        dtype = np.float64 if isinstance(memref_type.element_type, FloatType) else np.int64
        shape = list(memref_type.shape)
        dynamic = [i for i, s in enumerate(shape) if s < 0]
        for dim, operand in zip(dynamic, op.operands):
            shape[dim] = int(env[operand])
        return [np.zeros(shape, dtype=dtype)]

    def _memref_load(self, op: memref_d.LoadOp, env) -> list[Any]:
        array = env[op.memref]
        indices = tuple(int(env[i]) for i in op.indices)
        return [array[indices]]

    def _memref_store(self, op: memref_d.StoreOp, env) -> list[Any]:
        array = env[op.memref]
        indices = tuple(int(env[i]) for i in op.indices)
        array[indices] = env[op.value]
        return []

    def _memref_dim(self, op: memref_d.DimOp, env) -> list[Any]:
        array = env[op.memref]
        return [int(array.shape[int(env[op.dimension])])]

    def _memref_copy(self, op: memref_d.CopyOp, env) -> list[Any]:
        env[op.target][...] = env[op.source]
        return []

    def _memref_cast(self, op: memref_d.CastOp, env) -> list[Any]:
        return [env[op.source]]

    def _noop(self, op: Operation, env) -> list[Any]:
        return []

    def _identity(self, op: Operation, env) -> list[Any]:
        return [env[op.operands[0]]]

    # scf --------------------------------------------------------------------------

    def _for(self, op: scf.ForOp, env) -> list[Any]:
        lb = int(env[op.lower_bound])
        ub = int(env[op.upper_bound])
        step = int(env[op.step])
        iterations = range(lb, ub, step)
        if op not in self._maps:
            self._maps[op] = self._map_body(op)
        array_steps = self._maps[op]
        if array_steps is not None:
            if iterations:
                self._run_map(array_steps, op.induction_variable, np.arange(lb, ub, step), env)
            return []
        carried = [env[a] for a in op.iter_args]
        body, induction_variable, body_args = op.body, op.induction_variable, op.body_iter_args
        # One copy per loop keeps the body's values out of ``env``.  Sharing
        # it between iterations changes nothing: by dominance an iteration
        # reads only values it defined itself, the induction variable and
        # the iteration arguments, and those are rebound first.
        local = dict(env)
        for iv in iterations:
            local[induction_variable] = iv
            for arg, value in zip(body_args, carried):
                local[arg] = value
            carried = self._run_block(body, local)
        return carried

    def _map_body(self, op: scf.ForOp) -> list[Step] | None:
        """The steps that run ``op``'s body once for all its iterations, or
        ``None`` if the loop is not a map.

        A map has no iteration arguments, and its body is one block whose
        ops up to the terminator have no regions and each have an entry in
        :attr:`array_handlers`.  None of those ops stores to memory or
        calls a function, so the iterations are independent (cf. the
        contract of ``scf.parallel``) and the body can run once with the
        induction variable bound to all its values.  A value *varies* if it
        is the induction variable, is computed from a varying value or
        comes from an op that yields one item per iteration (``hls.read``);
        it is then an array with one entry per iteration along its first
        axis.  Every other value is loop-invariant and keeps the form it
        has in one iteration.  ``HLSInterpreter`` also requires each stream
        to be touched by at most one ``hls.read`` or ``hls.write``.
        """
        if op.iter_args or len(op.regions[0].blocks) != 1:
            return None
        varying = {op.induction_variable}
        steps: list[Step] = []
        for body_op in op.body.ops:
            if isinstance(body_op, _TERMINATORS):
                break
            array_handler = self.array_handlers.get(type(body_op))
            if array_handler is None or body_op.regions:
                return None
            steps.append(array_handler(self, body_op, op, varying))
            if not varying.isdisjoint(body_op.operands):
                varying.update(body_op.results)
        return steps

    def _run_map(
        self, steps: list[Step], induction_variable: SSAValue, values: np.ndarray, env
    ) -> None:
        local = dict(env)
        local[induction_variable] = values
        # Python floats overflow to inf and make NaNs silently; numpy warns.
        with np.errstate(all="ignore"):
            self._walk(steps, local)

    def _if(self, op: scf.IfOp, env) -> list[Any]:
        block = op.then_block if env[op.condition] else op.else_block
        local = dict(env)
        return self._run_block(block, local)

    def _parallel(self, op: scf.ParallelOp, env) -> list[Any]:
        rank = op.rank
        lbs = [int(env[v]) for v in op.lower_bounds]
        ubs = [int(env[v]) for v in op.upper_bounds]
        steps = [int(env[v]) for v in op.steps]
        ranges = [range(lb, ub, st) for lb, ub, st in zip(lbs, ubs, steps)]

        def recurse(dim: int, point: list[int]) -> None:
            if dim == rank:
                local = dict(env)
                for arg, value in zip(op.induction_variables, point):
                    local[arg] = value
                self._run_block(op.body, local)
                return
            for i in ranges[dim]:
                recurse(dim + 1, point + [i])

        recurse(0, [])
        return []

    # func ----------------------------------------------------------------------

    def _call(self, op: CallOp, env) -> list[Any]:
        callee = self._symbols.get(op.callee)
        args = [env[o] for o in op.operands]
        if isinstance(callee, FuncOp):
            return self._run_func(callee, args)
        if op.callee in self.externals:
            result = self.externals[op.callee](*args)
            if result is None:
                return []
            return list(result) if isinstance(result, (tuple, list)) else [result]
        raise InterpreterError(f"call to unknown function '{op.callee}'")

    # stencil ---------------------------------------------------------------------

    def _external_load(self, op: stencil.ExternalLoadOp, env) -> list[Any]:
        array = env[op.source]
        field_type: stencil.FieldType = op.result.type
        expected = field_type.shape
        if tuple(array.shape) != tuple(expected):
            raise InterpreterError(
                f"stencil.external_load: array shape {array.shape} does not match "
                f"field shape {expected}"
            )
        lower = tuple(lb for lb, _ in field_type.bounds)
        return [FieldValue(array, lower)]

    def _external_store(self, op: stencil.ExternalStoreOp, env) -> list[Any]:
        # The field aliases the external buffer, so nothing to do.
        return []

    def _stencil_cast(self, op: stencil.CastOp, env) -> list[Any]:
        field: FieldValue = env[op.field]
        field_type: stencil.FieldType = op.result.type
        lower = tuple(lb for lb, _ in field_type.bounds)
        return [FieldValue(field.array, lower)]

    def _stencil_load(self, op: stencil.LoadOp, env) -> list[Any]:
        field: FieldValue = env[op.field]
        return [TempValue(field.array, field.lower)]

    def _stencil_apply(self, op: stencil.ApplyOp, env) -> list[Any]:
        # Lazily evaluated: materialised by the consuming stencil.store (or by
        # a downstream apply that accesses the result).
        lazy = _LazyApply(self, op, [env[o] for o in op.operands])
        return [_LazyApplyResult(lazy, i) for i in range(len(op.results))]

    def _stencil_store(self, op: stencil.StoreOp, env) -> list[Any]:
        temp = env[op.temp]
        field: FieldValue = env[op.field]
        lb, ub = op.lower_bound, op.upper_bound
        if isinstance(temp, _LazyApplyResult):
            temp = temp.materialise(lb, ub)
        for index in _box_points(lb, ub):
            field.set(index, temp.at(index))
        return []

    def _unrealized_cast(self, op: UnrealizedConversionCastOp, env) -> list[Any]:
        return [env[op.input]]

    # array handlers (map loop bodies) ---------------------------------------------

    def _once(self, op: Operation, loop: scf.ForOp, varying: set[SSAValue]) -> Step:
        """For ops that take no varying operand, or do nothing: run once, as
        one iteration would."""
        return self._decode_op(op)

    def _map_binary(self, op: Operation, loop: scf.ForOp, varying: set[SSAValue]) -> Step:
        lhs, rhs = op.operands
        divides = op.name if isinstance(op, _DIVISIONS) else None
        return Interpreter._binary_array, (lhs, rhs, type(op).py_func, divides), op.results

    def _binary_array(self, decoded: tuple, env) -> list[Any]:
        # Varying integers are int64 arrays, which wrap where Python ints
        # grow; a stencil loop's index arithmetic stays far inside that range.
        lhs, rhs, py_func, divides = decoded
        divisor = env[rhs]
        # Python raises on a zero divisor where numpy returns 0 or inf.
        if divides and np.any(divisor == 0):
            raise ZeroDivisionError(f"{divides}: division by zero")
        return [py_func(env[lhs], divisor)]

    def _map_load(self, op: memref_d.LoadOp, loop: scf.ForOp, varying: set[SSAValue]) -> Step:
        if varying.isdisjoint(op.indices):
            return self._decode_op(op)
        return Interpreter._gather, (op.memref, tuple(op.indices)), op.results

    def _gather(self, decoded: tuple[SSAValue, tuple[SSAValue, ...]], env) -> list[Any]:
        memref, indices = decoded
        return [env[memref][tuple(env[i] for i in indices)]]


@dataclass
class _LazyApplyResult:
    """One result of a deferred ``stencil.apply`` evaluation."""

    lazy: "_LazyApply"
    index: int

    def materialise(self, lb: Sequence[int], ub: Sequence[int]) -> TempValue:
        arrays = self.lazy.evaluate(lb, ub)
        return TempValue(arrays[self.index], tuple(lb))


class _LazyApply:
    """Deferred evaluation of a ``stencil.apply`` over a box of indices.

    Chained applies (one apply consuming another's result, as in the tracer
    advection kernel) are handled by recursively materialising the producer
    over the consumer's box expanded by the consumer's access extent.
    """

    def __init__(self, interp: Interpreter, op: stencil.ApplyOp, operand_values: list[Any]) -> None:
        self.interp = interp
        self.op = op
        self.operand_values = operand_values
        self._cache: dict[tuple[tuple[int, ...], tuple[int, ...]], list[np.ndarray]] = {}

    def _operand_extent(self, operand_index: int, rank: int) -> tuple[tuple[int, int], ...]:
        """(min, max) access offsets applied to a given operand's block arg."""
        arg = self.op.body.args[operand_index]
        mins = [0] * rank
        maxs = [0] * rank
        for access in self.op.walk_type(stencil.AccessOp):
            if access.temp is not arg:
                continue
            for d, value in enumerate(access.offset):
                mins[d] = min(mins[d], value)
                maxs[d] = max(maxs[d], value)
        return tuple(zip(mins, maxs))

    def evaluate(self, lb: Sequence[int], ub: Sequence[int]) -> list[np.ndarray]:
        key = (tuple(lb), tuple(ub))
        if key in self._cache:
            return self._cache[key]
        rank = len(lb)
        # Materialise lazy operands over the expanded box they will be read on.
        concrete_operands: list[Any] = []
        for i, value in enumerate(self.operand_values):
            if isinstance(value, _LazyApplyResult):
                extent = self._operand_extent(i, rank)
                sub_lb = tuple(l + mn for l, (mn, _) in zip(lb, extent))
                sub_ub = tuple(u + mx for u, (_, mx) in zip(ub, extent))
                concrete_operands.append(value.materialise(sub_lb, sub_ub))
            else:
                concrete_operands.append(value)
        shape = tuple(u - l for l, u in zip(lb, ub))
        outputs = [np.zeros(shape, dtype=np.float64) for _ in self.op.results]
        block = self.op.body
        for index in _box_points(lb, ub):
            env: dict[SSAValue, Any] = {}
            for arg, value in zip(block.args, concrete_operands):
                env[arg] = value
            values = self._run_apply_block(block, env, index)
            local = tuple(i - l for i, l in zip(index, lb))
            for out, value in zip(outputs, values):
                out[local] = value
        self._cache[key] = outputs
        return outputs

    def _run_apply_block(self, block: Block, env: dict[SSAValue, Any], index: tuple[int, ...]) -> list[Any]:
        for op in block.ops:
            if isinstance(op, stencil.ReturnOp):
                return [env[o] for o in op.operands]
            if isinstance(op, stencil.AccessOp):
                env[op.result] = self._access(env[op.temp], index, op.offset)
            elif isinstance(op, stencil.IndexOp):
                env[op.result] = index[op.dim]
            elif isinstance(op, stencil.DynAccessOp):
                offsets = tuple(int(env[o]) for o in op.operands[1:])
                env[op.result] = self._access(env[op.temp], offsets, (0,) * len(offsets))
            else:
                self.interp._execute(op, env)
        return []

    def _access(self, source: Any, index: Sequence[int], offset: Sequence[int]) -> float:
        target = tuple(i + o for i, o in zip(index, offset))
        if isinstance(source, (TempValue, FieldValue)):
            return source.at(target)
        if isinstance(source, _LazyApplyResult):
            point_ub = tuple(t + 1 for t in target)
            return source.materialise(target, point_ub).at(target)
        raise InterpreterError(f"cannot access into value of type {type(source).__name__}")


def _no_handler(interp: Interpreter, op: Operation, env: dict[SSAValue, Any]) -> list[Any]:
    raise InterpreterError(f"no interpreter handler for '{op.name}'")


def _box_points(lb: Sequence[int], ub: Sequence[int]):
    """Iterate all integer points of the half-open box [lb, ub)."""
    if len(lb) == 0:
        yield ()
        return
    head_lb, head_ub = lb[0], ub[0]
    for i in range(head_lb, head_ub):
        for rest in _box_points(lb[1:], ub[1:]):
            yield (i, *rest)


_HANDLERS: dict[type, Callable] = {
    arith.ConstantOp: Interpreter._constant,
    arith.NegfOp: Interpreter._negf,
    arith.CmpfOp: Interpreter._cmp,
    arith.CmpiOp: Interpreter._cmp,
    arith.SelectOp: Interpreter._select,
    arith.IndexCastOp: Interpreter._cast_numeric,
    arith.SIToFPOp: Interpreter._cast_numeric,
    arith.FPToSIOp: Interpreter._cast_numeric,
    arith.ExtFOp: Interpreter._cast_numeric,
    arith.TruncFOp: Interpreter._cast_numeric,
    math_d.PowFOp: Interpreter._powf,
    math_d.FmaOp: Interpreter._fma,
    memref_d.AllocOp: Interpreter._alloc,
    memref_d.AllocaOp: Interpreter._alloc,
    memref_d.DeallocOp: Interpreter._noop,
    memref_d.LoadOp: Interpreter._memref_load,
    memref_d.StoreOp: Interpreter._memref_store,
    memref_d.DimOp: Interpreter._memref_dim,
    memref_d.CopyOp: Interpreter._memref_copy,
    memref_d.CastOp: Interpreter._memref_cast,
    scf.ForOp: Interpreter._for,
    scf.IfOp: Interpreter._if,
    scf.ParallelOp: Interpreter._parallel,
    CallOp: Interpreter._call,
    stencil.ExternalLoadOp: Interpreter._external_load,
    stencil.ExternalStoreOp: Interpreter._external_store,
    stencil.CastOp: Interpreter._stencil_cast,
    stencil.LoadOp: Interpreter._stencil_load,
    stencil.ApplyOp: Interpreter._stencil_apply,
    stencil.StoreOp: Interpreter._stencil_store,
    UnrealizedConversionCastOp: Interpreter._unrealized_cast,
}

for _binary_cls in arith.BINARY_OPS:
    _HANDLERS[_binary_cls] = Interpreter._binary
for _unary_cls in math_d.UNARY_OPS:
    _HANDLERS[_unary_cls] = Interpreter._unary_math

#: The binary ops whose ``py_func`` also applies elementwise to numpy arrays
#: (``max``/``min``, those of the maximum/minimum ops, do not), with Python's
#: floor semantics for ``//`` and ``%``.
_ARRAY_BINARY_OPS = (
    arith.AddfOp, arith.SubfOp, arith.MulfOp, arith.DivfOp,
    arith.AddiOp, arith.SubiOp, arith.MuliOp, arith.DivsiOp, arith.RemsiOp,
)
_DIVISIONS = (arith.DivfOp, arith.DivsiOp, arith.RemsiOp)

Interpreter.array_handlers = {
    arith.ConstantOp: Interpreter._once,
    memref_d.LoadOp: Interpreter._map_load,
    **{cls: Interpreter._map_binary for cls in _ARRAY_BINARY_OPS},
}


def interpret_stencil_module(
    module: ModuleOp,
    func_name: str,
    arrays: dict[str, np.ndarray] | Sequence[np.ndarray],
    externals: dict[str, Callable] | None = None,
) -> list[Any]:
    """Run a stencil-level function on the given numpy arrays.

    ``arrays`` may be a sequence (positional arguments) or a mapping from
    argument names (the block-argument ``name_hint``) to arrays.
    """
    interp = Interpreter(module, externals)
    func = module.get_symbol(func_name)
    if not isinstance(func, FuncOp):
        raise InterpreterError(f"no function named '{func_name}' in module")
    if isinstance(arrays, dict):
        ordered = []
        for arg in func.entry_block.args:
            hint = arg.name_hint
            if hint is None or hint not in arrays:
                raise InterpreterError(
                    f"missing array for argument '{hint}' of '{func_name}'"
                )
            ordered.append(arrays[hint])
        return interp.run(func_name, *ordered)
    return interp.run(func_name, *arrays)
