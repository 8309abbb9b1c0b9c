"""Cached dataflow analyses keyed on module content hashes.

The :class:`AnalysisManager` mirrors MLIR's analysis manager in miniature:
analyses are registered by name, computed on demand, and cached under
``(analysis name, module_hash(module))``.  The key is the module's
content, so a mutated module misses and structurally equal modules share
entries: ``shmls-lint`` and the orchestrator's ``--dry-run``, which
analyse one kernel for many planned variants, pay for each analysis once.
:meth:`AnalysisManager.get` hashes the module on every call;
:meth:`AnalysisManager.view` hashes it once for several lookups of an
unchanged module, which is how each lint target reads its analyses.  The
pass manager calls :mod:`repro.ir.verifier` directly instead: a pass's
output is rarely a module state it has verified before, so hashing it
costs more than the verifications it would save.

Hit/miss counters are kept per analysis (:class:`AnalysisStats`).

Built-in analyses
-----------------

``verify``
    All structural findings (:func:`~repro.ir.verifier.verify_module_diagnostics`).
``def-use``
    Unused op results and unused function entry arguments (liveness at the
    def-use granularity the lint rules need).
``access-bounds``
    Every ``stencil.access`` offset checked against the accessed field's
    ``FieldType`` bounds and the consuming store's iteration domain.
``stencil-deps``
    Inter-stencil dependency reachability (transitive closure over the
    stage dependency graph of ``stencil_analysis``).

The stencil analyses import :mod:`repro.transforms` lazily so the IR
layer stays import-clean.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar

from repro.ir.core import BlockArgument, Operation, OpResult
from repro.ir.hashing import module_hash


@dataclass
class AnalysisStats:
    """Per-analysis cache hit/miss counters."""

    hits: dict[str, int] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)

    def record_hit(self, name: str) -> None:
        self.hits[name] = self.hits.get(name, 0) + 1

    def record_miss(self, name: str) -> None:
        self.misses[name] = self.misses.get(name, 0) + 1

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    def as_dict(self) -> dict[str, Any]:
        return {"hits": dict(self.hits), "misses": dict(self.misses)}


class AnalysisManager:
    """On-demand, content-keyed cache of module analyses.

    Share one instance between everything that analyses the same modules,
    such as the lint targets of one sweep (the orchestrator's
    ``--dry-run`` lints every planned variant of a kernel through one).
    """

    _registry: ClassVar[dict[str, Callable[[Operation], Any]]] = {}

    def __init__(self, max_entries: int = 128) -> None:
        self.max_entries = max_entries
        self._cache: OrderedDict[tuple[str, str], Any] = OrderedDict()
        self.stats = AnalysisStats()

    # -- registry ---------------------------------------------------------------

    @classmethod
    def register(cls, name: str) -> Callable[[Callable[[Operation], Any]], Any]:
        """Register an analysis function under ``name`` (decorator form)."""

        def decorator(fn: Callable[[Operation], Any]) -> Callable[[Operation], Any]:
            cls._registry[name] = fn
            return fn

        return decorator

    @classmethod
    def registered(cls) -> list[str]:
        return sorted(cls._registry)

    # -- lookup -----------------------------------------------------------------

    def get(self, name: str, module: Operation) -> Any:
        """The ``name`` analysis of ``module``, computed or cached.

        Hashes ``module`` on every call, so a lookup after a mutation
        misses.
        """
        return self._lookup(name, module, module_hash(module))

    def view(self, module: Operation) -> "ModuleAnalyses":
        """``module``'s analyses through this manager, under one hash taken
        now (see :class:`ModuleAnalyses`)."""
        return ModuleAnalyses(self, module, module_hash(module))

    def _lookup(self, name: str, module: Operation, digest: str) -> Any:
        fn = self._registry.get(name)
        if fn is None:
            raise KeyError(
                f"unknown analysis '{name}' (registered: {', '.join(self.registered())})"
            )
        key = (name, digest)
        if key in self._cache:
            self._cache.move_to_end(key)
            self.stats.record_hit(name)
            return self._cache[key]
        self.stats.record_miss(name)
        value = fn(module)
        self._cache[key] = value
        while len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
        return value

    def __len__(self) -> int:
        return len(self._cache)


@dataclass(frozen=True)
class ModuleAnalyses:
    """One module's analyses, keyed by the hash its manager took when the
    view was made.

    Several lookups cost one hash.  The view must not outlive a mutation
    of its module: take a new one (or call :meth:`AnalysisManager.get`)
    after changing the IR.
    """

    manager: AnalysisManager
    module: Operation
    digest: str

    def get(self, name: str) -> Any:
        """The ``name`` analysis of the viewed module, computed or cached."""
        return self.manager._lookup(name, self.module, self.digest)


# ---------------------------------------------------------------------------
# Built-in analyses
# ---------------------------------------------------------------------------


@AnalysisManager.register("verify")
def _verify_analysis(module: Operation) -> tuple:
    from repro.ir.verifier import verify_module_diagnostics

    return tuple(verify_module_diagnostics(module))


@dataclass
class DefUseAnalysis:
    """Liveness at the def-use granularity: values defined but never used."""

    num_values: int
    num_uses: int
    unused_results: tuple[OpResult, ...]
    unused_args: tuple[BlockArgument, ...]


@AnalysisManager.register("def-use")
def _def_use_analysis(module: Operation) -> DefUseAnalysis:
    from repro.dialects.func import FuncOp

    num_values = 0
    num_uses = 0
    unused_results: list[OpResult] = []
    unused_args: list[BlockArgument] = []
    for op in module.walk():
        for result in op.results:
            num_values += 1
            uses = len(result.users)
            num_uses += uses
            if uses == 0:
                unused_results.append(result)
        if isinstance(op, FuncOp) and not op.is_declaration:
            for arg in op.entry_block.args:
                num_values += 1
                uses = len(arg.users)
                num_uses += uses
                if uses == 0:
                    unused_args.append(arg)
    return DefUseAnalysis(
        num_values=num_values,
        num_uses=num_uses,
        unused_results=tuple(unused_results),
        unused_args=tuple(unused_args),
    )


@dataclass
class AccessRecord:
    """One ``stencil.access`` checked against field bounds.

    ``access_lower``/``access_upper`` are the store iteration domain
    shifted by the access offset; the access is in bounds when that box
    sits inside ``field_lower``/``field_upper`` on every axis.
    """

    access_op: Operation
    apply_op: Operation
    field_name: str
    offset: tuple[int, ...]
    access_lower: tuple[int, ...]
    access_upper: tuple[int, ...]
    field_lower: tuple[int, ...]
    field_upper: tuple[int, ...]

    @property
    def out_of_bounds_axes(self) -> tuple[int, ...]:
        return tuple(
            axis
            for axis in range(len(self.offset))
            if self.access_lower[axis] < self.field_lower[axis]
            or self.access_upper[axis] > self.field_upper[axis]
        )

    @property
    def in_bounds(self) -> bool:
        return not self.out_of_bounds_axes


@dataclass
class AccessBoundsAnalysis:
    """All stencil accesses of a module, bounds-checked."""

    records: tuple[AccessRecord, ...]

    @property
    def violations(self) -> tuple[AccessRecord, ...]:
        return tuple(r for r in self.records if not r.in_bounds)


def _field_type_of(value: Any) -> Any:
    """Follow load/cast chains from an apply operand to its ``FieldType``."""
    from repro.dialects import stencil

    current = value
    for _ in range(32):
        current_type = current.type
        if isinstance(current_type, stencil.FieldType):
            return current_type
        if isinstance(current, OpResult) and isinstance(
            current.op, (stencil.ExternalLoadOp, stencil.LoadOp, stencil.CastOp)
        ):
            current = current.op.operands[0]
            continue
        return None
    return None


@AnalysisManager.register("access-bounds")
def _access_bounds_analysis(module: Operation) -> AccessBoundsAnalysis:
    from repro.dialects import stencil
    from repro.transforms.stencil_analysis import _arg_name, _trace_to_argument

    stores = list(module.walk_type(stencil.StoreOp))
    records: list[AccessRecord] = []
    for apply_op in module.walk_type(stencil.ApplyOp):
        bounds = None
        for store in stores:
            if any(store.temp is result for result in apply_op.results):
                bounds = (tuple(store.lower_bound), tuple(store.upper_bound))
                break
        if bounds is None:
            continue  # result never stored: the dead-field lint covers it
        store_lower, store_upper = bounds
        for access in apply_op.walk_type(stencil.AccessOp):
            temp = access.temp
            if not isinstance(temp, BlockArgument) or temp.block is not apply_op.body:
                continue
            operand = apply_op.operands[temp.index]
            field_type = _field_type_of(operand)
            if field_type is None:
                continue
            arg = _trace_to_argument(operand)
            name = _arg_name(arg, arg.index) if arg is not None else "<temp>"
            offset = tuple(access.offset)
            rank = min(len(offset), len(store_lower), len(field_type.bounds))
            records.append(
                AccessRecord(
                    access_op=access,
                    apply_op=apply_op,
                    field_name=name,
                    offset=offset,
                    access_lower=tuple(
                        store_lower[i] + offset[i] for i in range(rank)
                    ),
                    access_upper=tuple(
                        store_upper[i] + offset[i] for i in range(rank)
                    ),
                    field_lower=tuple(lb for lb, _ in field_type.bounds[:rank]),
                    field_upper=tuple(ub for _, ub in field_type.bounds[:rank]),
                )
            )
    return AccessBoundsAnalysis(records=tuple(records))


@dataclass
class StencilDependencyAnalysis:
    """Transitive inter-stencil dependency reachability."""

    func_name: str
    depends_on: tuple[tuple[int, ...], ...]
    reachable: tuple[frozenset[int], ...]
    waves: tuple[tuple[int, ...], ...]

    def reaches(self, earlier: int, later: int) -> bool:
        """Whether stage ``later`` transitively depends on stage ``earlier``."""
        return earlier in self.reachable[later]


@AnalysisManager.register("stencil-kernel")
def _stencil_kernel_analysis(module: Operation) -> Any:
    """The full :class:`StencilKernelAnalysis`, or None for non-stencil modules."""
    from repro.transforms.stencil_analysis import AnalysisError, analyse_module

    try:
        return analyse_module(module)
    except AnalysisError:
        return None


@AnalysisManager.register("stencil-deps")
def _stencil_deps_analysis(module: Operation) -> StencilDependencyAnalysis | None:
    from repro.transforms.stencil_analysis import AnalysisError, analyse_module

    try:
        analysis = analyse_module(module)
    except AnalysisError:
        return None
    reachable: list[frozenset[int]] = []
    for stage in analysis.stages:
        reached: set[int] = set()
        frontier = list(stage.depends_on)
        while frontier:
            dep = frontier.pop()
            if dep in reached:
                continue
            reached.add(dep)
            frontier.extend(analysis.stages[dep].depends_on)
        reachable.append(frozenset(reached))
    return StencilDependencyAnalysis(
        func_name=analysis.func_name,
        depends_on=tuple(tuple(s.depends_on) for s in analysis.stages),
        reachable=tuple(reachable),
        waves=tuple(tuple(w) for w in analysis.dependency_waves()),
    )
