"""Differential check: the whole-domain data movers against the reference.

``reference_data_movers`` holds the per-point movers the simulator used
before: ``shift_buffer`` built each window lane by lane for one point at a
time, ``write_data`` stored one result per point.  The movers in
:mod:`repro.runtime.data_movers` gather every window of the domain at once
and store each result stream with one indexed assignment.  On random grids
(ranks 1-3, radius 1-3, non-zero field origins, domain boxes whose windows
stay inside the field) both must emit the same stream items in the same
order, leave the streams with the same statistics and write the same
arrays.
"""

from __future__ import annotations

import numpy as np
import pytest
import reference_data_movers as reference
from hypothesis import given, settings, strategies as st

from repro.runtime import data_movers
from repro.runtime.streams import FIFOStream


@st.composite
def shift_cases(draw):
    """A field, its origin and a domain box the radius-``r`` windows fit in.

    Every axis of the box spans at least two points, so an emission order
    other than row-major shows up in every example.
    """
    rank = draw(st.integers(1, 3))
    radius = draw(st.integers(1, 3))
    shape, field_lower, domain_lower, domain_upper = [], [], [], []
    for _ in range(rank):
        size = draw(st.integers(2 * radius + 2, 2 * radius + 5))
        origin = draw(st.integers(-4, 4))
        extent = draw(st.integers(2, size - 2 * radius))
        first = draw(st.integers(origin + radius, origin + size - radius - extent))
        shape.append(size)
        field_lower.append(origin)
        domain_lower.append(first)
        domain_upper.append(first + extent)
    lanes = draw(st.sampled_from([1, 3, 8]))
    seed = draw(st.integers(0, 2**32 - 1))
    field = np.random.default_rng(seed).standard_normal(shape)
    return {
        "field": field,
        "lanes": lanes,
        "grid_shape": tuple(shape),
        "field_lower": tuple(field_lower),
        "domain_lower": tuple(domain_lower),
        "domain_upper": tuple(domain_upper),
        "radius": radius,
    }


def _stats(stream: FIFOStream) -> tuple[int, int, int, int]:
    return (len(stream), stream.total_pushed, stream.total_popped, stream.high_water_mark)


def _assert_same_items(expected: list, actual: list) -> None:
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert np.array_equal(got, want)


def _run_movers(movers, case):
    """Load, shift and duplicate one field; returns each stage's items and
    its streams' statistics."""
    def load() -> FIFOStream:
        packed = FIFOStream("packed")
        movers.load_data([case["field"]], [packed], case["lanes"])
        return packed

    packed = load()
    # The shift buffer's output starts non-empty so its statistics show
    # whether the windows were appended to what was already there.
    windows = FIFOStream("windows")
    windows.write(np.full(1, -1.0))
    movers.shift_buffer(
        packed,
        windows,
        grid_shape=case["grid_shape"],
        field_lower=case["field_lower"],
        domain_lower=case["domain_lower"],
        domain_upper=case["domain_upper"],
        radius=case["radius"],
    )
    stats = [_stats(packed), _stats(windows)]
    emitted = windows.drain()
    source, copies = FIFOStream("source"), [FIFOStream("a"), FIFOStream("b")]
    source.extend(emitted)
    movers.duplicate_stream(source, copies)
    stats += [_stats(s) for s in (source, *copies)]
    return {
        "packs": load().drain(),
        "windows": emitted,
        "copies": [copy.drain() for copy in copies],
        "stats": stats,
    }


@settings(max_examples=60, deadline=None)
@given(shift_cases())
def test_load_shift_and_duplicate_emit_the_same_items(case):
    expected = _run_movers(reference, case)
    actual = _run_movers(data_movers, case)
    _assert_same_items(expected["packs"], actual["packs"])
    _assert_same_items(expected["windows"], actual["windows"])
    for want, got in zip(expected["copies"], actual["copies"]):
        _assert_same_items(want, got)
    assert actual["stats"] == expected["stats"]


@settings(max_examples=60, deadline=None)
@given(shift_cases(), st.integers(1, 3), st.integers(0, 3))
def test_write_data_writes_the_same_arrays(case, fields, extra):
    """Several result streams, each with ``extra`` values beyond its domain
    that neither version may consume."""
    points = int(np.prod(np.subtract(case["domain_upper"], case["domain_lower"])))
    rng = np.random.default_rng(points + fields)
    spec = {
        "lower": case["domain_lower"],
        "upper": case["domain_upper"],
        "field_lower": case["field_lower"],
    }
    values = [rng.standard_normal(points + extra) for _ in range(fields)]
    results = {}
    for movers in (reference, data_movers):
        streams = [FIFOStream(f"r{i}") for i in range(fields)]
        for stream, column in zip(streams, values):
            stream.extend(float(v) for v in column)
        arrays = [np.full(case["grid_shape"], np.nan) for _ in range(fields)]
        movers.write_data(streams, arrays, [spec] * fields, case["lanes"])
        stats = [_stats(s) for s in streams]
        results[movers] = (arrays, stats, [s.drain() for s in streams])
    want, got = results[reference], results[data_movers]
    for want_array, got_array in zip(want[0], got[0]):
        assert np.array_equal(got_array, want_array, equal_nan=True)
    assert got[1:] == want[1:]


@pytest.mark.parametrize("domain_upper", [(1, 3), (3, 1), (0, 3)], ids=["no-rows", "no-columns", "inverted"])
def test_empty_domain_emits_and_writes_nothing(domain_upper):
    case = {
        "field": np.arange(16.0).reshape(4, 4),
        "lanes": 8,
        "grid_shape": (4, 4),
        "field_lower": (0, 0),
        "domain_lower": (1, 1),
        "domain_upper": domain_upper,
        "radius": 1,
    }
    expected = _run_movers(reference, case)
    actual = _run_movers(data_movers, case)
    assert len(actual["windows"]) == len(expected["windows"]) == 1   # the marker only
    assert actual["stats"] == expected["stats"]
    for movers in (reference, data_movers):
        stream, array = FIFOStream("r"), np.zeros((4, 4))
        stream.write(1.0)
        spec = {"lower": (1, 1), "upper": domain_upper, "field_lower": (0, 0)}
        movers.write_data([stream], [array], [spec], lanes=8)
        assert not array.any() and len(stream) == 1
