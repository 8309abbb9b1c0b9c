"""Malformed IR text raises :class:`ParseError`, never a bare exception.

The fuzz test makes seeded random mutations of the printed HLS module of a
PW advection design: each inserts, deletes or replaces one to four
characters, drawn from the characters the text already uses.  Each
mutation must either parse or raise ``ParseError``.  The regression tests
pin the call sites that used to escape: a type or attribute constructor's
``VerifyException`` (``f64`` → ``f6``, a negative ``!llvm.array`` count,
an unknown AXI protocol), ``int()``'s ``ValueError`` on a non-numeric
``!llvm.array`` element count, and the ``OverflowError`` of an infinite
integer.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.core.pipeline import StencilHMLSCompiler
from repro.ir.core import VerifyException
from repro.ir.parser import ParseError, Parser, parse_module
from repro.ir.printer import print_module
from repro.kernels.pw_advection import build_pw_advection

#: Each parse of the module takes about 15 ms.
MUTATIONS = 250


@pytest.fixture(scope="module")
def pw_hls_text() -> str:
    xclbin = StencilHMLSCompiler().compile(build_pw_advection((8, 7, 6)))
    return print_module(xclbin.hls_module)


def _mutate(text: str, alphabet: str, rng: random.Random) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        position = rng.randrange(len(chars))
        edit = rng.randrange(3)
        if edit == 0:
            del chars[position]
        elif edit == 1:
            chars.insert(position, rng.choice(alphabet))
        else:
            chars[position] = rng.choice(alphabet)
    return "".join(chars)


def test_mutated_module_parses_or_raises_parse_error(pw_hls_text):
    rng = random.Random(24)
    alphabet = "".join(sorted(set(pw_hls_text)))
    escaped = []
    for number in range(MUTATIONS):
        mutated = _mutate(pw_hls_text, alphabet, rng)
        try:
            parse_module(mutated)
        except ParseError:
            pass
        except Exception as err:  # noqa: BLE001 - what the test looks for
            escaped.append(f"mutation {number}: {type(err).__name__}: {err}")
    assert not escaped, "\n".join(escaped)


@pytest.mark.parametrize(
    "original, broken, token, cause",
    [
        ("f64", "f6", "f6", VerifyException),
        ("!llvm.array<", "!llvm.array<?", "?", ValueError),
    ],
    ids=["float-width", "array-count"],
)
def test_bad_token_is_a_parse_error_naming_it(pw_hls_text, original, broken, token, cause):
    assert original in pw_hls_text
    with pytest.raises(ParseError, match=re.escape(f"'{token}'")) as raised:
        parse_module(pw_hls_text.replace(original, broken, 1))
    assert isinstance(raised.value.__cause__, cause)


@pytest.mark.parametrize(
    "text, token, cause",
    [
        ("!llvm.array<-3 x f64>", "!llvm.array", VerifyException),
        ("memref<-2xf64>", "memref", VerifyException),
        ("memref<4xf6>", "f6", VerifyException),
        ("!stencil.field<[3,1]xf64>", "!stencil.field", VerifyException),
        ("!stencil.field<[x,1]xf64>", "x", ValueError),
    ],
)
def test_invalid_type_is_a_parse_error(text, token, cause):
    with pytest.raises(ParseError, match=re.escape(f"'{token}'")) as raised:
        Parser(text).parse_type()
    assert isinstance(raised.value.__cause__, cause)


@pytest.mark.parametrize(
    "text, token, cause",
    [
        ("1e999 : i64", "1e999 : i64", OverflowError),
        ("5 : memref<4xf64>", "5 : memref<4xf64>", VerifyException),
        ("#hls.axi_protocol<m_axki>", "m_axki", VerifyException),
    ],
)
def test_invalid_attribute_is_a_parse_error(text, token, cause):
    with pytest.raises(ParseError, match=re.escape(f"'{token}'")) as raised:
        Parser(text).parse_attribute()
    assert isinstance(raised.value.__cause__, cause)
