"""Builtin data attributes: integers, floats, strings, arrays, dictionaries."""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

from repro.ir.core import Attribute, VerifyException
from repro.ir.types import FloatType, IndexType, IntegerType, f64, i64, index


class IntAttr(Attribute):
    """An integer constant with an associated integer/index type."""

    name = "builtin.int_attr"

    def __init__(self, value: int, type: Attribute = i64) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise VerifyException(f"IntAttr value must be an int, got {value!r}")
        if not isinstance(type, (IntegerType, IndexType)):
            raise VerifyException(f"IntAttr type must be integer-like, got {type}")
        self.value = value
        self.type = type

    def parameters(self) -> tuple:
        return (self.value, self.type)

    def __str__(self) -> str:
        return f"{self.value} : {self.type}"


class BoolAttr(Attribute):
    name = "builtin.bool_attr"

    def __init__(self, value: bool) -> None:
        self.value = bool(value)

    def parameters(self) -> tuple:
        return (self.value,)

    def __str__(self) -> str:
        return "true" if self.value else "false"


class FloatAttr(Attribute):
    """A floating point constant with an associated float type."""

    name = "builtin.float_attr"

    def __init__(self, value: float, type: Attribute = f64) -> None:
        if not isinstance(type, FloatType):
            raise VerifyException(f"FloatAttr type must be a float type, got {type}")
        self.value = float(value)
        self.type = type

    def parameters(self) -> tuple:
        # Exact: ``==`` on floats would merge -0.0 into 0.0 and never find
        # NaN, so the value enters as its hex spelling.
        return (self.value.hex(), self.type)

    def __str__(self) -> str:
        return f"{self.value} : {self.type}"


class StringAttr(Attribute):
    name = "builtin.string_attr"

    def __init__(self, data: str) -> None:
        if not isinstance(data, str):
            raise VerifyException(f"StringAttr data must be a str, got {data!r}")
        self.data = data

    def parameters(self) -> tuple:
        return (self.data,)

    def __str__(self) -> str:
        return f'"{self.data}"'


class SymbolRefAttr(Attribute):
    """A reference to a symbol (e.g. a function name)."""

    name = "builtin.symbol_ref_attr"

    def __init__(self, symbol: str) -> None:
        self.symbol = symbol

    def parameters(self) -> tuple:
        return (self.symbol,)

    def __str__(self) -> str:
        return f"@{self.symbol}"


class TypeAttr(Attribute):
    """Wraps a type so it can be stored in an attribute dictionary."""

    name = "builtin.type_attr"

    def __init__(self, type: Attribute) -> None:
        self.type = type

    def parameters(self) -> tuple:
        return (self.type,)

    def __str__(self) -> str:
        return str(self.type)


class ArrayAttr(Attribute):
    """An ordered list of attributes."""

    name = "builtin.array_attr"

    def __init__(self, data: Sequence[Attribute]) -> None:
        self.data = tuple(data)

    def parameters(self) -> tuple:
        return (self.data,)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, idx: int) -> Attribute:
        return self.data[idx]

    def __str__(self) -> str:
        return "[" + ", ".join(str(a) for a in self.data) + "]"


class DenseIntArrayAttr(Attribute):
    """A compact list of integers, used for stencil offsets and bounds."""

    name = "builtin.dense_int_array_attr"

    def __init__(self, values: Sequence[int]) -> None:
        self.values = tuple(int(v) for v in values)

    def parameters(self) -> tuple:
        return (self.values,)

    def as_tuple(self) -> tuple[int, ...]:
        return self.values

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, idx: int) -> int:
        return self.values[idx]

    def __str__(self) -> str:
        return "[" + ", ".join(str(v) for v in self.values) + "]"


class DictionaryAttr(Attribute):
    name = "builtin.dictionary_attr"

    def __init__(self, data: Mapping[str, Attribute]) -> None:
        self.data = dict(data)

    def parameters(self) -> tuple:
        return (tuple(sorted(self.data.items())),)

    def __getitem__(self, key: str) -> Attribute:
        return self.data[key]

    def __contains__(self, key: str) -> bool:
        return key in self.data

    def __str__(self) -> str:
        inner = ", ".join(f"{k} = {v}" for k, v in self.data.items())
        return "{" + inner + "}"


class UnitAttr(Attribute):
    """Presence-only attribute (e.g. marking a function as an HLS kernel)."""

    name = "builtin.unit_attr"

    def __str__(self) -> str:
        return "unit"


unit = UnitAttr()


def int_attr(value: int, type: Attribute = i64) -> IntAttr:
    return IntAttr(value, type)


def index_attr(value: int) -> IntAttr:
    return IntAttr(value, index)


def float_attr(value: float, type: Attribute = f64) -> FloatAttr:
    return FloatAttr(value, type)


def py_value(attr: Attribute) -> Any:
    """Unwrap an attribute into a plain Python value (best effort)."""
    if isinstance(attr, (IntAttr, FloatAttr, BoolAttr)):
        return attr.value
    if isinstance(attr, StringAttr):
        return attr.data
    if isinstance(attr, SymbolRefAttr):
        return attr.symbol
    if isinstance(attr, DenseIntArrayAttr):
        return attr.as_tuple()
    if isinstance(attr, ArrayAttr):
        return [py_value(a) for a in attr.data]
    if isinstance(attr, DictionaryAttr):
        return {k: py_value(v) for k, v in attr.data.items()}
    if isinstance(attr, TypeAttr):
        return attr.type
    return attr
