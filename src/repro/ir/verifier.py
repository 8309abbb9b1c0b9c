"""Structural IR verification.

Checks the invariants every well-formed module must satisfy:

* parent/child links between operations, blocks and regions are consistent;
* every operand is defined before use (dominance within a block, or is a
  block argument of an enclosing region);
* terminators appear only at the end of blocks;
* per-operation ``verify_`` hooks pass.

Failures are reported as :class:`~repro.ir.diagnostics.Diagnostic` records
with op-path locations.  :func:`verify_module` raises a
:class:`~repro.ir.diagnostics.DiagnosticError` (a ``VerifyException``) on
the first error; :func:`verify_module_diagnostics` collects *all* findings
— the mode the cached ``verify`` analysis and ``shmls-lint`` run in.

Dominance is checked in the same single walk: :class:`ModuleVerifier`
keeps the set of values in scope at the current point (a block's
arguments join when the walk enters the block, an op's results once the
op is checked, and the block's values leave with the walk), so each
operand costs one set lookup.
"""

from __future__ import annotations

import dataclasses

from repro.ir.core import Block, Operation, SSAValue, VerifyException
from repro.ir.diagnostics import Diagnostic, DiagnosticEngine, DiagnosticError


def provenance_note(module: Operation) -> str | None:
    """Describe the pass that last transformed ``module``, if known.

    :class:`~repro.ir.passes.PassManager` stamps ``_pass_provenance`` on the
    module after every pass — even with ``verify_each=False`` — so a later
    manual verify can still say which pass produced a broken module.
    """
    provenance = getattr(module, "_pass_provenance", None)
    if not provenance:
        return None
    pass_name, position, spec = provenance
    return (
        f"module last transformed by pass '{pass_name}' "
        f"(position {position} in pipeline '{spec}')"
    )


class ModuleVerifier:
    """One verification run over an operation tree.

    ``collect=True`` gathers every finding into :attr:`engine` and never
    raises; the default raises a :class:`DiagnosticError` at the first
    error (matching the historical fail-fast contract).
    """

    def __init__(
        self,
        *,
        collect: bool = False,
        engine: DiagnosticEngine | None = None,
    ) -> None:
        self.collect = collect
        self.engine = engine if engine is not None else DiagnosticEngine()
        # The values in scope at the current point of the walk.
        self._visible: set[SSAValue] = set()

    # -- failure reporting -----------------------------------------------------

    def _fail(self, message: str, *, op: Operation | None = None) -> None:
        diag = self.engine.error(message, op=op, rule="structural")
        if not self.collect:
            raise DiagnosticError([diag])

    # -- tree walk ---------------------------------------------------------------

    def _enter_scope_of(self, root: Operation) -> None:
        """Make visible what ``root``'s enclosing blocks define before it."""
        op: Operation | None = root
        while op is not None and op.parent is not None:
            block = op.parent
            self._visible.update(arg for arg in block.args if arg.block is block)
            ops = block._ops
            if op in ops:
                for earlier in ops[: ops.index(op)]:
                    if earlier.parent is block:
                        self._visible.update(earlier.results)
            op = block.parent_op()

    def _verify_operation(self, op: Operation) -> None:
        for i, result in enumerate(op.results):
            if result.op is not op or result.index != i:
                self._fail(f"result {i} back-reference is broken", op=op)
        for region in op.regions:
            if region.parent is not op:
                self._fail("region parent link is broken", op=op)
            for block in region.blocks:
                if block.parent is not region:
                    self._fail("block parent link is broken", op=region.parent)
                self._verify_block(block)
        if op.parent is not None:
            visible = self._visible
            for i, operand in enumerate(op._operands):
                if operand not in visible:
                    self._fail(
                        f"operand {i} is not visible/dominated at its use", op=op
                    )
        try:
            op.verify_()
        except DiagnosticError as err:
            if not self.collect:
                raise
            self.engine.diagnostics.extend(err.diagnostics)
        except VerifyException as err:
            self._fail(str(err), op=op)

    def _verify_block(self, block: Block) -> None:
        visible = self._visible
        # Values enter scope only through intact links: a value whose
        # owner link is broken is visible nowhere.
        defined: list[SSAValue] = []
        for i, arg in enumerate(block.args):
            if arg.block is not block or arg.index != i:
                self._fail(
                    "block argument back-reference is broken", op=block.parent_op()
                )
            if arg.block is block:
                defined.append(arg)
        visible.update(defined)
        ops = block._ops
        last_index = len(ops) - 1
        for i, op in enumerate(ops):
            if op.parent is not block:
                self._fail("parent block link is broken", op=op)
            if op.is_terminator and i != last_index:
                self._fail(
                    "terminator is not the last operation of its block", op=op
                )
            self._verify_operation(op)
            if op.parent is block:
                results = op.results
                visible.update(results)
                defined.extend(results)
        visible.difference_update(defined)

    def verify(self, root: Operation) -> list[Diagnostic]:
        """Verify the tree rooted at ``root``; return collected findings.

        A root nested in a larger tree sees the values its enclosing blocks
        define before it.  A known pass provenance is attached as a note to
        every finding.
        """
        self._visible = set()
        self._enter_scope_of(root)
        self._verify_operation(root)
        note = provenance_note(root)
        if note is not None and self.engine.diagnostics:
            self.engine.diagnostics[:] = [
                dataclasses.replace(diag, notes=diag.notes + (note,))
                for diag in self.engine.diagnostics
            ]
        return list(self.engine.diagnostics)


def verify_module(module: Operation) -> None:
    """Verify an operation tree rooted at ``module``; raises on failure."""
    try:
        ModuleVerifier().verify(module)
    except DiagnosticError as err:
        note = provenance_note(module)
        if note is None:
            raise
        raise DiagnosticError(
            [
                dataclasses.replace(diag, notes=diag.notes + (note,))
                for diag in err.diagnostics
            ]
        ) from err.__cause__


def verify_module_diagnostics(module: Operation) -> list[Diagnostic]:
    """Collect *all* structural findings about ``module`` without raising."""
    return ModuleVerifier(collect=True).verify(module)
