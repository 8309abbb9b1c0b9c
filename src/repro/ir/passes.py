"""Module passes, the pass manager and the typed pass context.

The :class:`PassManager` drives a sequence of :class:`ModulePass` objects
over a module, verifying in between and recording per-pass
:class:`PassStatistics`.  Passes communicate through a :class:`PassContext`
— a typed blackboard carried on the pass manager and injected into every
pass as ``pass_.ctx`` before it runs — which is how the staged stencil→HLS
lowering threads its ``LoweringContext`` between sub-passes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, TypeVar

from repro.ir import verifier
from repro.ir.core import Operation, VerifyException
from repro.ir.diagnostics import DiagnosticError

T = TypeVar("T")


class PassContext:
    """Typed blackboard shared by the passes of one pipeline.

    Entries are keyed by their type: at most one value per type is stored.
    ``get``/``set``/``get_or_create`` deliberately mirror MLIR's analysis
    manager in miniature.
    """

    def __init__(self) -> None:
        self._entries: dict[type, Any] = {}

    def get(self, cls: type[T]) -> T | None:
        return self._entries.get(cls)

    def set(self, value: T) -> T:
        self._entries[type(value)] = value
        return value


def format_option_value(value: Any) -> str:
    """Render one pipeline option value in MLIR textual-spec form.

    >>> format_option_value(True), format_option_value(32)
    ('true', '32')
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@dataclass
class PassStatistics:
    """Timing and change information recorded for each executed pass."""

    name: str
    seconds: float
    changed: bool
    note: str = ""

    def as_dict(self) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "name": self.name,
            "seconds": self.seconds,
            "changed": self.changed,
        }
        if self.note:
            entry["note"] = self.note
        return entry


class ModulePass:
    """A transformation over a whole module (a ``builtin.module`` op)."""

    name: str = "unnamed-pass"

    #: The pass context of the driving pass manager; injected by
    #: :meth:`PassManager.run` right before ``apply`` is called.
    ctx: "PassContext | None" = None

    def apply(self, module: Operation) -> bool:
        """Transform ``module`` in place; return whether anything changed."""
        raise NotImplementedError

    def pipeline_options(self) -> dict[str, Any]:
        """Options to render in the textual pipeline description."""
        return {}

    def describe(self) -> str:
        """This pass as one entry of a textual pipeline spec.

        Options render key-sorted: ``{split=0,pack=0}`` and
        ``{pack=0,split=0}`` are the same configuration, so they must
        canonicalise (and therefore cache-key) identically.
        """
        options = self.pipeline_options()
        if not options:
            return self.name
        rendered = ",".join(
            f"{key}={format_option_value(value)}"
            for key, value in sorted(options.items())
        )
        return f"{self.name}{{{rendered}}}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ModulePass {self.name}>"


class FunctionPassAdapter(ModulePass):
    """Lift a per-function callable into a module pass."""

    def __init__(self, name: str, fn: Callable[[Operation], bool]) -> None:
        self.name = name
        self.fn = fn

    def apply(self, module: Operation) -> bool:
        from repro.dialects.func import FuncOp

        changed = False
        for func in list(module.walk_type(FuncOp)):
            changed |= bool(self.fn(func))
        return changed


@dataclass
class PassManager:
    """Runs a sequence of module passes, optionally verifying between them.

    Usually built from a textual spec via
    :meth:`repro.ir.pass_registry.PassRegistry.parse`; the description
    round-trips:

    >>> from repro.ir.pass_registry import PassRegistry
    >>> manager = PassRegistry.parse("canonicalize,dce")
    >>> [p.name for p in manager.passes]
    ['canonicalize', 'dce']
    >>> manager.pipeline_description()
    'canonicalize,dce'
    """

    passes: list[ModulePass] = field(default_factory=list)
    verify_each: bool = True
    statistics: list[PassStatistics] = field(default_factory=list)
    context: PassContext = field(default_factory=PassContext)

    def add(self, *passes: ModulePass) -> "PassManager":
        self.passes.extend(passes)
        return self

    def run(
        self,
        module: Operation,
        on_pass_start: Callable[[ModulePass, Operation], None] | None = None,
        on_pass_end: Callable[[ModulePass, Operation, PassStatistics], None] | None = None,
        start_index: int = 0,
    ) -> Operation:
        """Run the scheduled passes over ``module``.

        ``start_index`` skips the first passes (used when a cached pipeline
        prefix was restored); ``on_pass_end`` fires after each pass has run
        and verified — the hook the per-pass artefact cache stores from.

        With ``verify_each`` the module is verified once on entry and once
        after every pass, as in MLIR's pass manager: running N passes costs
        N+1 verifications.  Each pass's input is the state the previous
        output check already verified, so ``on_pass_start`` and
        ``on_pass_end`` must not mutate the module; reading, cloning,
        hashing or pickling it is fine.

        Every pass also stamps its provenance (name, pipeline position,
        canonical spec) on the module — with ``verify_each=False`` too — so
        a later manual :func:`~repro.ir.verifier.verify_module` can still
        attribute a broken module to the pass that produced it.
        """
        spec = self.pipeline_description()
        if self.verify_each:
            self._verify(module)
        for position in range(start_index, len(self.passes)):
            pass_ = self.passes[position]
            if on_pass_start is not None:
                on_pass_start(pass_, module)
            pass_.ctx = self.context
            start = time.perf_counter()
            changed = pass_.apply(module)
            elapsed = time.perf_counter() - start
            module._pass_provenance = (pass_.name, position, spec)
            self.statistics.append(PassStatistics(pass_.describe(), elapsed, bool(changed)))
            if self.verify_each:
                self._verify(module, pass_=pass_, position=position, spec=spec)
            if on_pass_end is not None:
                on_pass_end(pass_, module, self.statistics[-1])
        return module

    def _verify(
        self,
        module: Operation,
        pass_: ModulePass | None = None,
        position: int | None = None,
        spec: str = "",
    ) -> None:
        # Looked up at call time, so wrappers installed on the verifier
        # module (profilers, test counters) see every verification.
        diagnostics = verifier.verify_module_diagnostics(module)
        errors = [d for d in diagnostics if d.severity == "error"]
        if not errors:
            return
        err = DiagnosticError(errors)
        if pass_ is None:
            raise err
        raise VerifyException(
            f"verification failed after pass '{pass_.name}' "
            f"(position {position} in pipeline '{spec}'): {err}"
        ) from err

    def pipeline_description(self) -> str:
        return ",".join(p.describe() for p in self.passes)
