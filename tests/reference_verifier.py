"""The structural verifier as it stood before the one-walk rewrite.

Kept as the reference oracle for :mod:`repro.ir.verifier`:
:func:`assert_agrees_with_reference` checks that both report the same
diagnostics (``tests/test_verifier_negative.py``,
``tests/test_verifier_differential.py``), and
``benchmarks/test_verifier_perf.py`` times the one-walk verifier against
it.  The class body is the former ``ModuleVerifier`` unchanged: it derives
each operand's visibility from the op's parent links
(``_value_visible_from``), with a per-block ``op → index`` map
(``cache_indices=True``) or ``block.index_of`` scans (``cache_indices=False``).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.ir.core import (
    Block,
    BlockArgument,
    Operation,
    OpResult,
    Region,
    SSAValue,
    VerifyException,
)
from repro.ir.diagnostics import Diagnostic, DiagnosticEngine, DiagnosticError
from repro.ir import verifier as one_walk
from repro.ir.verifier import provenance_note


class ReferenceVerifier:
    """One verification run over an operation tree.

    ``collect=True`` gathers every finding into :attr:`engine` and never
    raises; the default raises a :class:`DiagnosticError` at the first
    error (matching the historical fail-fast contract).
    """

    def __init__(
        self,
        *,
        collect: bool = False,
        cache_indices: bool = True,
        engine: DiagnosticEngine | None = None,
    ) -> None:
        self.collect = collect
        self.cache_indices = cache_indices
        self.engine = engine if engine is not None else DiagnosticEngine()
        self._block_indices: dict[Block, dict[Operation, int]] = {}

    # -- failure reporting -----------------------------------------------------

    def _fail(self, message: str, *, op: Operation | None = None) -> None:
        diag = self.engine.error(message, op=op, rule="structural")
        if not self.collect:
            raise DiagnosticError([diag])

    # -- per-block op index cache (linear dominance checks) --------------------

    def _indices_of(self, block: Block) -> dict[Operation, int]:
        mapping = self._block_indices.get(block)
        if mapping is None:
            mapping = {op: i for i, op in enumerate(block.ops)}
            self._block_indices[block] = mapping
        return mapping

    def _index_in(self, block: Block, op: Operation) -> int:
        """Position of ``op`` in ``block``, or -1 when it is not there."""
        if self.cache_indices:
            return self._indices_of(block).get(op, -1)
        try:
            return block.index_of(op)
        except ValueError:
            return -1

    # -- dominance -------------------------------------------------------------

    def _enclosing_blocks(self, op: Operation) -> list[Block]:
        """All blocks lexically enclosing ``op`` (innermost first)."""
        blocks: list[Block] = []
        current: Operation | None = op
        while current is not None and current.parent is not None:
            blocks.append(current.parent)
            current = current.parent_op()
        return blocks

    def _value_visible_from(self, value: SSAValue, op: Operation) -> bool:
        """Whether ``value`` is defined in a scope enclosing ``op``."""
        enclosing = self._enclosing_blocks(op)
        if isinstance(value, BlockArgument):
            return value.block in enclosing
        if isinstance(value, OpResult):
            defining = value.op
            if defining.parent is None:
                return False
            if defining.parent not in enclosing:
                return False
            # Same block: the definition must come before the outermost
            # ancestor of `op` that lives in that block (which may be `op`).
            block = defining.parent
            container: Operation = op
            while container.parent is not block:
                parent = container.parent_op()
                if parent is None:
                    return False
                container = parent
            if defining is container:
                return False
            defining_index = self._index_in(block, defining)
            container_index = self._index_in(block, container)
            if defining_index < 0 or container_index < 0:
                return False
            return defining_index < container_index
        return False

    # -- tree walk ---------------------------------------------------------------

    def verify_operation(self, op: Operation) -> None:
        for i, result in enumerate(op.results):
            if result.op is not op or result.index != i:
                self._fail(f"result {i} back-reference is broken", op=op)
        for region in op.regions:
            if region.parent is not op:
                self._fail("region parent link is broken", op=op)
            self.verify_region(region)
        for i, operand in enumerate(op.operands):
            if op.parent is not None and not self._value_visible_from(operand, op):
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

    def verify_block(self, block: Block) -> None:
        for i, arg in enumerate(block.args):
            if arg.block is not block or arg.index != i:
                self._fail(
                    "block argument back-reference is broken", op=block.parent_op()
                )
        if self.cache_indices:
            indices = self._indices_of(block)
            ops = list(indices)
            last_index = len(ops) - 1
        else:
            ops = block.ops
            last_index = len(ops) - 1
        for i, op in enumerate(ops):
            if op.parent is not block:
                self._fail("parent block link is broken", op=op)
            if op.is_terminator and i != last_index:
                self._fail(
                    "terminator is not the last operation of its block", op=op
                )
            self.verify_operation(op)

    def verify_region(self, region: Region) -> None:
        for block in region.blocks:
            if block.parent is not region:
                self._fail("block parent link is broken", op=region.parent)
            self.verify_block(block)

    def verify(self, module: Operation) -> list[Diagnostic]:
        """Verify the tree rooted at ``module``; return collected findings.

        A known pass provenance is attached as a note to every finding.
        """
        self.verify_operation(module)
        note = provenance_note(module)
        if note is not None and self.engine.diagnostics:
            self.engine.diagnostics[:] = [
                dataclasses.replace(diag, notes=diag.notes + (note,))
                for diag in self.engine.diagnostics
            ]
        return list(self.engine.diagnostics)


def verify_module(module: Operation) -> None:
    """Verify an operation tree rooted at ``module``; raises on failure."""
    try:
        ReferenceVerifier().verify_operation(module)
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
    return ReferenceVerifier(collect=True).verify(module)


def outcome(verify: Callable[[Operation], Any], module: Operation) -> tuple:
    """What ``verify(module)`` did: its return value, or the error it raised."""
    try:
        return ("returned", verify(module))
    except DiagnosticError as err:
        return ("raised", err.diagnostics)
    except Exception as err:  # a verify_ hook failing on malformed IR
        return ("crashed", type(err).__name__, str(err))


def assert_agrees_with_reference(module: Operation) -> tuple:
    """Both verifiers report the same diagnostics on ``module`` — message,
    path, notes and order — in fail-fast and in collect mode.  Returns the
    collect-mode outcome."""
    fail_fast = outcome(one_walk.verify_module, module)
    assert fail_fast == outcome(verify_module, module)
    collected = outcome(one_walk.ModuleVerifier(collect=True).verify, module)
    assert collected == outcome(ReferenceVerifier(collect=True).verify, module)
    return collected
