"""Canonical module serialization and stable content hashing.

The compile cache (:mod:`repro.core.compile_cache`) needs a *content
address* for IR modules: two modules that are structurally identical must
hash the same, and any op or attribute mutation must change the hash.  The
canonical form ignores SSA ``name_hint``s entirely (a print→parse
round-trip may turn printed names back into hints) and numbers values
purely positionally.

:func:`module_hash` does not print the module.  It folds a structural
fingerprint ``(digest, free values)`` bottom-up over the op tree:

* the digest covers the op name, sorted attributes, operand/result types,
  region/block structure and — for every nested child — the child's
  digest plus the *binding* of the child's free values in this op's
  positional numbering;
* the free-value tuple lists, in first-use order, the SSA values the
  subtree references but does not define, so sharing (``add %a, %a`` vs
  ``add %a, %b``) is distinguished at the level that knows the binding.

Nothing is cached on the IR: every call hashes the whole subtree, so a
hash always reflects the module as it is now, whatever mutated it.
Callers that look one module up several times (the lint targets of a
sweep) hash it once and reuse the digest.  :func:`canonical_module_text`
remains available as the executable specification of the canonical form.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from repro.ir.core import Block, Operation, SSAValue
from repro.ir.interning import frame as _frame
from repro.ir.printer import Printer


class CanonicalPrinter(Printer):
    """A printer whose SSA names are positional only (hints are ignored)."""

    def name_of(self, value: SSAValue) -> str:
        name = self._names.get(value)
        if name is None:
            name = f"%{self._counter}"
            self._counter += 1
            self._names[value] = name
        return name


def canonical_module_text(op: Operation) -> str:
    """The canonical (hint-free, deterministic) textual form of ``op``."""
    printer = CanonicalPrinter()
    printer.print_operation(op)
    return printer.result()


# ---------------------------------------------------------------------------
# Structural fingerprints
# ---------------------------------------------------------------------------

class _Scope:
    """One fingerprint naming scope: positional locals + first-use frees."""

    __slots__ = ("names", "free", "counter")

    def __init__(self) -> None:
        self.names: dict[SSAValue, str] = {}
        self.free: list[SSAValue] = []
        self.counter = 0

    def ref(self, value: SSAValue) -> str:
        token = self.names.get(value)
        if token is None:
            token = f"^{len(self.free)}"
            self.names[value] = token
            self.free.append(value)
        return token

    def define(self, value: SSAValue) -> None:
        self.names[value] = f"%{self.counter}"
        self.counter += 1


def _append_block(parts: list[str], block: Block, scope: _Scope) -> None:
    """Append one block's payload: arg types, then for each child op its
    digest plus the binding of the child's free values in ``scope``."""
    parts.append("^")
    for arg in block.args:
        scope.define(arg)
        parts.append(str(arg.type))
    for child in block.ops:
        child_digest, child_free = operation_fingerprint(child)
        parts.append(child_digest)
        for value in child_free:
            parts.append(scope.ref(value))
        for child_result in child.results:
            scope.define(child_result)


def operation_fingerprint(op: Operation) -> tuple[str, tuple[SSAValue, ...]]:
    """Bottom-up structural fingerprint of one operation subtree.

    Returns ``(digest, free_values)`` where ``free_values`` are the SSA
    values used but not defined inside the subtree, in first-use order.
    """
    parts: list[str] = [op.name]
    scope = _Scope()
    for operand in op.operands:
        parts.append(scope.ref(operand))
        parts.append(str(operand.type))
    attributes = op.attributes
    if attributes:
        for key in sorted(attributes):
            parts.append(key)
            parts.append(str(attributes[key]))
    for result in op.results:
        parts.append(str(result.type))
    for region in op.regions:
        parts.append("(")
        for block in region.blocks:
            _append_block(parts, block, scope)
        parts.append(")")

    return hashlib.sha256(_frame(parts)).hexdigest(), tuple(scope.free)


def module_hash(op: Operation) -> str:
    """Stable content hash (sha256 hex) of an operation/module.

    Invariant under print→parse round-trips and under SSA-value renaming;
    changes whenever any op, type or attribute changes.  Each call hashes
    the whole subtree from scratch.
    """
    digest, free = operation_fingerprint(op)
    if not free:
        return digest
    # A fragment referencing values defined outside itself: fold the free
    # value types into the digest so the hash is still self-contained.
    payload = _frame([digest, *(str(value.type) for value in free)])
    return hashlib.sha256(payload).hexdigest()


def fingerprint_text(text: str) -> str:
    """sha256 hex digest of a piece of text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [_jsonable(o) for o in obj]
        return sorted(items, key=repr) if isinstance(obj, (set, frozenset)) else items
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def fingerprint_mapping(mapping: Mapping[str, Any]) -> str:
    """Stable digest of a (possibly nested) option mapping."""
    payload = json.dumps(_jsonable(mapping), sort_keys=True, separators=(",", ":"))
    return fingerprint_text(payload)
