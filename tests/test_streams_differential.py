"""Differential check: the block-queued FIFO against the per-item reference.

``reference_streams`` holds the FIFO the simulator used before, a deque
with one Python object per item.  :class:`repro.runtime.streams.FIFOStream`
keeps what each ``write``/``extend`` queued as one block.  On random
sequences of writes, extends (lists, generators, 1-D and 2-D arrays, empty
ones) and reads, both must give the same items in the same order, the same
:class:`StreamClosedError` messages and, after every step, the same
``len``/``empty``/``full`` answers and statistics.  A bulk read
must return a list unless it returns an array that one ``extend`` queued,
whole and unread.
"""

from __future__ import annotations

from itertools import count

import numpy as np
import reference_streams as reference
from hypothesis import given, settings, strategies as st

from repro.runtime.streams import FIFOStream, StreamClosedError

_WRITE = st.tuples(st.just("write"), st.sampled_from(["float", "array"]))
_EXTEND = st.tuples(
    st.just("extend"),
    st.sampled_from(["list", "generator", "1d", "2d"]),
    st.integers(0, 5),
)
_READ = st.one_of(
    st.tuples(st.just("read")),
    st.tuples(st.just("read_many"), st.integers(0, 7)),
    st.tuples(st.just("drain")),
)
_OPS = st.lists(st.one_of(_WRITE, _EXTEND, _READ), max_size=40)


def _values(kind: str, size: int, numbers) -> object:
    """``size`` items of ``kind``, numbered on from ``numbers`` so that any
    reordering shows."""
    first = next(numbers) * 100.0
    if kind == "list":
        return [first + i for i in range(size)]
    if kind == "generator":
        return (first + i for i in range(size))
    if kind == "1d":
        return np.arange(first, first + size)
    return np.arange(first, first + 3 * size).reshape(size, 3)


def _outcome(call):
    try:
        return "ok", call()
    except StreamClosedError as err:
        return "raised", str(err)


def _stats(stream) -> tuple:
    return (
        len(stream), stream.empty(), stream.full(),
        stream.total_pushed, stream.total_popped, stream.high_water_mark,
    )


def _assert_same_items(expected: list, actual) -> None:
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 6), _OPS)
def test_block_fifo_matches_the_per_item_fifo(depth, ops):
    want, got = reference.FIFOStream("s", depth), FIFOStream("s", depth)
    numbers = count()
    queued_arrays: list[np.ndarray] = []
    for op in ops:
        name = op[0]
        if name == "write":
            value = next(numbers) * 1.0 if op[1] == "float" else np.full(2, next(numbers) * 1.0)
            want.write(value)
            got.write(value)
        elif name == "extend":
            values = _values(op[1], op[2], numbers)
            if isinstance(values, np.ndarray):
                queued_arrays.append(values)
                want.extend(values)
                got.extend(values)
            else:
                items, make = list(values), iter if op[1] == "generator" else list
                want.extend(make(items))
                got.extend(make(items))
        elif name == "read":
            expected, actual = _outcome(want.read), _outcome(got.read)
            assert expected[0] == actual[0]
            if expected[0] == "raised":
                assert actual == expected
            else:
                assert np.array_equal(actual[1], expected[1])
        elif name in ("read_many", "drain"):
            if name == "drain":
                expected, actual = _outcome(want.drain), _outcome(got.drain)
            else:
                expected = _outcome(lambda: want.read_many(op[1]))
                actual = _outcome(lambda: got.read_many(op[1]))
            assert expected[0] == actual[0]
            if expected[0] == "raised":
                assert actual == expected
            else:
                # A list, or an array that one extend queued, returned whole.
                items = actual[1]
                assert type(items) is list or any(items is array for array in queued_arrays)
                _assert_same_items(expected[1], items)
        assert _stats(got) == _stats(want)
