"""Common subexpression elimination for pure operations."""

from __future__ import annotations

from repro.ir.core import Block, Operation
from repro.ir.passes import ModulePass


def _op_key(op: Operation) -> tuple:
    """Structural identity of a pure operation within a block.

    Attributes and result types enter as themselves, not as their
    ``hash()``: hashes collide (``hash(-1) == hash(-2)``), and a collision
    would merge ops that differ.
    """
    return (
        op.name,
        tuple(id(operand) for operand in op.operands),
        tuple(sorted(op.attributes.items())),
        tuple(r.type for r in op.results),
    )


class CSEPass(ModulePass):
    """Deduplicate identical pure operations within each block.

    Only intra-block, no-region operations are considered, which is enough
    for the arithmetic-heavy stencil apply bodies this flow produces.
    """

    name = "cse"

    def apply(self, module: Operation) -> bool:
        changed = False
        for block in _all_blocks(module):
            changed |= self._process_block(block)
        return changed

    def _process_block(self, block: Block) -> bool:
        seen: dict[tuple, Operation] = {}
        changed = False
        for op in list(block.ops):
            if not op.is_pure or op.regions or not op.results:
                continue
            key = _op_key(op)
            existing = seen.get(key)
            if existing is None:
                seen[key] = op
                continue
            for old_res, new_res in zip(op.results, existing.results):
                old_res.replace_all_uses_with(new_res)
            op.erase()
            changed = True
        return changed


def _all_blocks(root: Operation):
    for region in root.regions:
        for block in region.blocks:
            yield block
            for op in block.ops:
                yield from _all_blocks(op)
