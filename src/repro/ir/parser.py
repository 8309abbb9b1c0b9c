"""Parser for the generic textual IR form produced by :mod:`repro.ir.printer`.

Supports round-tripping modules through text, which is how xDSL/MLIR
exchange IR between tools: every operation is printed in the generic form

    %0 = "dialect.op"(%a, %b) {attr = value} : (t1, t2) -> (t3) ({ ... })

The parser rebuilds operations as their registered Python classes (falling
back to a :class:`GenericOperation` for unknown names) so that re-verified,
re-interpreted or re-lowered modules behave identically to the originals.
Every attribute/type the parser constructs is interned through the
flyweight table of :mod:`repro.ir.interning` (via the ``Attribute``
metaclass), so a parsed module shares canonical attribute instances with
the rest of the process — parse→hash round-trips stay cheap.
"""

from __future__ import annotations

import re
from typing import Any

from repro.ir.core import Attribute, Block, Operation, Region, SSAValue, VerifyException
from repro.ir.attributes import (
    ArrayAttr,
    BoolAttr,
    DenseIntArrayAttr,
    FloatAttr,
    IntAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    UnitAttr,
)
from repro.ir.types import (
    FloatType,
    FunctionType,
    IndexType,
    IntegerType,
    LLVMArrayType,
    LLVMPointerType,
    LLVMStructType,
    LLVMVoidType,
    MemRefType,
    NoneType,
    TensorType,
    VectorType,
)


class ParseError(Exception):
    """Raised when the textual IR cannot be parsed."""


class GenericOperation(Operation):
    """Fallback operation used for op names with no registered class."""

    name = "unregistered.generic"


# ---------------------------------------------------------------------------
# Operation registry
# ---------------------------------------------------------------------------


def _build_registry() -> dict[str, type[Operation]]:
    """Map op names to classes by importing every dialect module."""
    from repro.dialects import arith, func, hls, llvm, math, memref, scf, stencil
    from repro.dialects import builtin

    registry: dict[str, type[Operation]] = {}
    for module in (builtin, arith, math, func, scf, memref, llvm, stencil, hls):
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, Operation) and value is not Operation:
                if value.name != Operation.name:
                    registry[value.name] = value
    return registry


_REGISTRY: dict[str, type[Operation]] | None = None


def op_registry() -> dict[str, type[Operation]]:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


def _construct_op(
    name: str,
    operands: list[SSAValue],
    result_types: list[Attribute],
    attributes: dict[str, Attribute],
    regions: list[Region],
) -> Operation:
    """Instantiate the registered class without calling its specific __init__."""
    cls = op_registry().get(name)
    if cls is None:
        op = GenericOperation(operands, result_types, attributes, regions)
        op.attributes["__unregistered_name__"] = StringAttr(name)
        return op
    op = object.__new__(cls)
    Operation.__init__(op, operands=operands, result_types=result_types,
                       attributes=attributes, regions=regions)
    return op


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<number>-?\d+\.\d*(?:[eE][+-]?\d+)?|-?\d+(?:[eE][+-]?\d+)?)
      | (?P<percent>%[A-Za-z_0-9.\-]+)
      | (?P<caret>\^[A-Za-z_0-9]+)
      | (?P<at>@[A-Za-z_0-9.\-]+)
      | (?P<exclaim>![A-Za-z_0-9.]+)
      | (?P<hash>\#[A-Za-z_0-9.]+)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9.]*)
      | (?P<punct>->|[()\[\]{}<>=:,*?])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            remaining = text[position:].strip()
            if not remaining:
                break
            raise ParseError(f"unexpected character {text[position]!r} at offset {position}")
        position = match.end()
        for kind in ("string", "number", "percent", "caret", "at", "exclaim", "hash", "ident", "punct"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class Parser:
    """Recursive descent parser over the token stream."""

    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.position = 0
        self.values: dict[str, SSAValue] = {}

    # -- token helpers ----------------------------------------------------------

    def _peek(self) -> tuple[str, str] | None:
        return self.tokens[self.position] if self.position < len(self.tokens) else None

    def _next(self) -> tuple[str, str]:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self.position += 1
        return token

    def _accept(self, text: str) -> bool:
        token = self._peek()
        if token is not None and token[1] == text:
            self.position += 1
            return True
        return False

    def _expect(self, text: str) -> None:
        token = self._next()
        if token[1] != text:
            raise ParseError(f"expected '{text}', found '{token[1]}'")

    def _next_int(self, what: str) -> int:
        text = self._next()[1]
        try:
            return int(text)
        except ValueError as err:
            raise ParseError(f"expected {what}, found '{text}'") from err

    # -- types -------------------------------------------------------------------

    def parse_type(self) -> Attribute:
        kind, text = self._next()
        try:
            if kind == "ident":
                return self._parse_named_type(text)
            if kind == "exclaim":
                return self._parse_dialect_type(text)
        except VerifyException as err:
            raise ParseError(f"invalid type '{text}': {err}") from err
        if text == "(":
            # Function type: (t1, t2) -> (t3)
            inputs = []
            if not self._accept(")"):
                inputs.append(self.parse_type())
                while self._accept(","):
                    inputs.append(self.parse_type())
                self._expect(")")
            self._expect("->")
            outputs = []
            self._expect("(")
            if not self._accept(")"):
                outputs.append(self.parse_type())
                while self._accept(","):
                    outputs.append(self.parse_type())
                self._expect(")")
            return FunctionType(inputs, outputs)
        raise ParseError(f"cannot parse a type starting with '{text}'")

    def _parse_named_type(self, text: str) -> Attribute:
        if text == "index":
            return IndexType()
        if text == "none":
            return NoneType()
        try:
            if re.fullmatch(r"i\d+", text):
                return IntegerType(int(text[1:]))
            if re.fullmatch(r"f\d+", text):
                return FloatType(int(text[1:]))
        except VerifyException as err:
            raise ParseError(f"invalid type '{text}': {err}") from err
        if text in ("memref", "tensor", "vector"):
            return self._parse_shaped_type(text)
        raise ParseError(f"unknown type '{text}'")

    def _parse_shaped_type(self, kind: str) -> Attribute:
        self._expect("<")
        dims, element = self._parse_dims_and_element()
        # Optional memory space suffix, e.g. memref<4xf64, bram>.
        space = ""
        if self._accept(","):
            space = self._next()[1]
        self._expect(">")
        if kind == "memref":
            return MemRefType(dims, element, space)
        if kind == "tensor":
            return TensorType(dims, element)
        return VectorType(dims, element)

    def _parse_dims_and_element(self) -> tuple[list[int], Attribute]:
        """Parse '4x5x6xf64', '?x?xf64', ... — dims are separated by 'x', but
        the tokenizer may fold separators into identifiers like 'xf64'."""
        dims: list[int] = []
        element: Attribute | None = None
        while element is None:
            token_kind, text = self._next()
            if text == "?":
                dims.append(-1)
                continue
            if token_kind == "number" and "." not in text:
                dims.append(int(text))
                continue
            if token_kind == "ident":
                if text == "x":
                    continue
                parsed_dims, element = self._split_shape_ident(text)
                dims.extend(parsed_dims)
                continue
            raise ParseError(f"unexpected '{text}' in shaped type")
        return dims, element

    def _split_shape_ident(self, text: str) -> tuple[list[int], Attribute]:
        """Split '4x5x6xf64' / 'f64' style identifiers into dims + element type."""
        parts = text.split("x")
        dims: list[int] = []
        element_text = ""
        for index, part in enumerate(parts):
            if re.fullmatch(r"\d+", part):
                dims.append(int(part))
            elif part == "?":
                dims.append(-1)
            elif part == "" and index < len(parts) - 1:
                continue
            else:
                element_text = "x".join(parts[index:])
                break
        if not element_text:
            raise ParseError(f"could not find an element type in '{text}'")
        return dims, self._parse_named_type(element_text)

    def _parse_dialect_type(self, text: str) -> Attribute:
        name = text[1:]
        if name == "llvm.ptr":
            if self._accept("<"):
                pointee = self.parse_type()
                self._expect(">")
                return LLVMPointerType(pointee)
            return LLVMPointerType()
        if name == "llvm.void":
            return LLVMVoidType()
        if name == "llvm.struct":
            self._expect("<")
            self._expect("(")
            elements = []
            if not self._accept(")"):
                elements.append(self.parse_type())
                while self._accept(","):
                    elements.append(self.parse_type())
                self._expect(")")
            self._expect(">")
            return LLVMStructType(elements)
        if name == "llvm.array":
            self._expect("<")
            count = self._next_int("an element count in '!llvm.array'")
            # The printed form is "<8 x f64>"; the 'x' may appear fused.
            kind, text = self._next()
            if text == "x":
                element = self.parse_type()
            else:
                element = self._parse_named_type(text.lstrip("x")) if text.startswith("x") else self._parse_named_type(text)
            self._expect(">")
            return LLVMArrayType(count, element)
        if name == "hls.stream":
            from repro.dialects.hls import StreamType

            self._expect("<")
            element = self.parse_type()
            self._expect(">")
            return StreamType(element)
        if name == "stencil.field":
            from repro.dialects.stencil import FieldType

            self._expect("<")
            bounds: list[tuple[int, int]] = []
            element: Attribute | None = None
            while element is None:
                self._expect("[")
                lower = self._next_int("a lower bound in '!stencil.field'")
                self._expect(",")
                upper = self._next_int("an upper bound in '!stencil.field'")
                self._expect("]")
                bounds.append((lower, upper))
                kind, text = self._next()
                if kind != "ident":
                    raise ParseError(f"unexpected '{text}' in stencil.field type")
                if text == "x":
                    continue                      # separator before the next bound
                # 'xf64' style: the trailing element type fused with the separator.
                _, element = self._split_shape_ident(text)
            self._expect(">")
            return FieldType(bounds, element)
        if name == "stencil.temp":
            from repro.dialects.stencil import TempType

            self._expect("<")
            dims, element = self._parse_dims_and_element()
            self._expect(">")
            return TempType(dims, element)
        if name == "stencil.result":
            from repro.dialects.stencil import ResultType

            self._expect("<")
            element = self.parse_type()
            self._expect(">")
            return ResultType(element)
        raise ParseError(f"unknown dialect type '!{name}'")

    # -- attributes -----------------------------------------------------------------

    def parse_attribute(self) -> Attribute:
        kind, text = self._next()
        if kind == "string":
            return StringAttr(text[1:-1])
        if kind == "at":
            return SymbolRefAttr(text[1:])
        if kind == "number":
            value_text = text
            if self._accept(":"):
                value_type = self.parse_type()
                try:
                    if isinstance(value_type, FloatType):
                        return FloatAttr(float(value_text), value_type)
                    return IntAttr(int(float(value_text)), value_type)
                except (OverflowError, VerifyException) as err:
                    raise ParseError(
                        f"invalid attribute '{value_text} : {value_type}': {err}"
                    ) from err
            if "." in value_text or "e" in value_text or "E" in value_text:
                return FloatAttr(float(value_text))
            return IntAttr(int(value_text))
        if text == "[":
            # "[1, -2, 0]" (no element types) is a DenseIntArrayAttr;
            # "[4 : i64, ...]" and any other element kind is an ArrayAttr.
            elements: list[Any] = []
            all_plain_ints = True
            if not self._accept("]"):
                while True:
                    token = self._peek()
                    following = self.tokens[self.position + 1] if self.position + 1 < len(self.tokens) else None
                    if (
                        token is not None
                        and token[0] == "number"
                        and "." not in token[1]
                        and (following is None or following[1] != ":")
                    ):
                        self._next()
                        elements.append(int(token[1]))
                    else:
                        all_plain_ints = False
                        elements.append(self.parse_attribute())
                    if self._accept("]"):
                        break
                    self._expect(",")
            if all_plain_ints:
                return DenseIntArrayAttr(elements)
            return ArrayAttr([e if isinstance(e, Attribute) else IntAttr(e) for e in elements])
        if text == "true":
            return BoolAttr(True)
        if text == "false":
            return BoolAttr(False)
        if text == "unit":
            return UnitAttr()
        if kind in ("ident", "exclaim") or text == "(":
            # A bare type used as an attribute (wrapped in TypeAttr); this
            # includes function types such as func.func's function_type.
            self.position -= 1
            return TypeAttr(self.parse_type())
        if kind == "hash":
            return self._parse_dialect_attribute(text)
        raise ParseError(f"cannot parse attribute starting with '{text}'")

    def _parse_dialect_attribute(self, text: str) -> Attribute:
        name = text[1:]
        if name == "hls.axi_protocol":
            from repro.dialects.hls import AxiProtocolAttr

            self._expect("<")
            protocol = self._next()[1]
            self._expect(">")
            try:
                return AxiProtocolAttr(protocol)
            except VerifyException as err:
                raise ParseError(f"invalid AXI protocol '{protocol}': {err}") from err
        raise ParseError(f"unknown dialect attribute '#{name}'")

    def parse_attribute_dict(self) -> dict[str, Attribute]:
        attributes: dict[str, Attribute] = {}
        self._expect("{")
        if self._accept("}"):
            return attributes
        while True:
            name = self._next()[1]
            self._expect("=")
            attributes[name] = self.parse_attribute()
            if self._accept("}"):
                return attributes
            self._expect(",")

    # -- operations -----------------------------------------------------------------

    def parse_module(self) -> Operation:
        op = self.parse_operation()
        if self._peek() is not None:
            raise ParseError(f"trailing input starting at '{self._peek()[1]}'")
        return op

    def parse_operation(self) -> Operation:
        result_names: list[str] = []
        token = self._peek()
        if token is not None and token[0] == "percent":
            result_names.append(self._next()[1])
            while self._accept(","):
                result_names.append(self._next()[1])
            self._expect("=")
        kind, quoted_name = self._next()
        if kind != "string":
            raise ParseError(f"expected a quoted operation name, found '{quoted_name}'")
        op_name = quoted_name[1:-1]

        self._expect("(")
        operand_names: list[str] = []
        if not self._accept(")"):
            operand_names.append(self._next()[1])
            while self._accept(","):
                operand_names.append(self._next()[1])
            self._expect(")")

        attributes: dict[str, Attribute] = {}
        if self._peek() is not None and self._peek()[1] == "{":
            attributes = self.parse_attribute_dict()

        self._expect(":")
        signature = self.parse_type()
        if not isinstance(signature, FunctionType):
            raise ParseError("operation signature must be a function type")

        regions: list[Region] = []
        if self._accept("("):
            regions.append(self.parse_region())
            while self._accept(","):
                regions.append(self.parse_region())
            self._expect(")")

        operands = []
        for name in operand_names:
            if name not in self.values:
                raise ParseError(f"use of undefined value '{name}'")
            operands.append(self.values[name])

        op = _construct_op(op_name, operands, list(signature.outputs), attributes, regions)
        for result, name in zip(op.results, result_names):
            self.values[name] = result
            result.name_hint = name.lstrip("%")
        return op

    def parse_region(self) -> Region:
        self._expect("{")
        region = Region()
        block = Block()
        region.add_block(block)
        # Optional block header with arguments: ^bb(%a: t, ...):
        token = self._peek()
        if token is not None and token[0] == "caret":
            self._next()
            self._expect("(")
            if not self._accept(")"):
                while True:
                    name = self._next()[1]
                    self._expect(":")
                    arg_type = self.parse_type()
                    arg = block.add_arg(arg_type, name.lstrip("%"))
                    self.values[name] = arg
                    if self._accept(")"):
                        break
                    self._expect(",")
            self._expect(":")
        while not self._accept("}"):
            block.add_op(self.parse_operation())
        return region


def parse_module(text: str) -> Operation:
    """Parse the generic textual form of a module (or any single operation)."""
    return Parser(text).parse_module()
