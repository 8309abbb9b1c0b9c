"""Functional implementations of the dataflow runtime functions.

These mirror the C++ runtime the paper links against the generated LLVM-IR:

* ``load_data``  — reads each input field from external memory in 512-bit
  chunks and pushes the elements onto that field's input stream;
* ``shift_buffer`` — consumes a field's input stream and produces, for every
  point of the output domain, the full window of neighbouring values;
* ``write_data`` — pops results from the compute stages' output streams and
  writes them back to external memory in 512-bit chunks.

The hardware moves one element per cycle; functionally only what is moved,
and in which order, matters, so every mover handles whole blocks of a
:class:`~repro.runtime.streams.FIFOStream` at once:

* ``load_data`` copies each field once and queues it as one ``(packs,
  lanes)`` array (a short last pack goes on its own);
* ``shift_buffer`` takes its input's blocks with
  :meth:`~repro.runtime.streams.FIFOStream.drain_blocks`, flattens each by
  reshaping it, and gathers every window of the domain with one flat index
  into the field, queued as one ``(points, lanes)`` array.  The index
  depends only on the :class:`~repro.core.plan.ShiftSpec` geometry, so it
  is built once per distinct geometry and kept, read-only, in a bounded
  cache shared by every simulator in the process;
* ``duplicate_stream`` drains its source once and gives every consumer its
  own copy of each block, so no two consumers share memory;
* ``write_data`` stores each result stream with one indexed assignment.

A stream owns what is queued on it (see :mod:`repro.runtime.streams`), so
the movers copy exactly where an array could otherwise be written by two
owners: ``load_data`` copies the caller's field and ``duplicate_stream``
copies per consumer.

The factory :func:`make_externals` builds callables specialised for a given
:class:`~repro.core.plan.DataflowPlan` (the paper specialises ``load_data``
for the number of required input fields, §3.3 step 7) and returns them keyed
by the callee names the transformation emitted, so the functional simulator
can simply hand the dictionary to the interpreter.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.plan import DataflowPlan, LoadSpec, ShiftSpec, WriteSpec
from repro.runtime.streams import FIFOStream
from repro.runtime.window import window_offsets


def load_data(arrays: Sequence[np.ndarray], streams: Sequence[FIFOStream], lanes: int) -> None:
    """Stream each array's elements, grouped into ``lanes``-wide packs.

    Each array is copied once and queued as one ``(packs, lanes)`` view of
    the copy; when ``lanes`` does not divide the array's size, the shorter
    last pack is written on its own.
    """
    for array, stream in zip(arrays, streams):
        flat = np.array(array, dtype=np.float64, order="C").reshape(-1)
        whole = flat.size - flat.size % lanes
        stream.extend(flat[:whole].reshape(-1, lanes))
        if whole < flat.size:
            stream.write(flat[whole:])


def shift_buffer(
    in_stream: FIFOStream,
    out_stream: FIFOStream,
    *,
    grid_shape: Sequence[int],
    field_lower: Sequence[int],
    domain_lower: Sequence[int],
    domain_upper: Sequence[int],
    radius: int,
) -> None:
    """Reassemble the field and emit one full neighbour window per domain point.

    The hardware implementation keeps ``2·radius`` planes of the grid in BRAM
    and shifts one element per cycle; functionally that is equivalent to the
    gather below, and the resource/timing cost is modelled separately from
    :class:`~repro.core.plan.ShiftSpec`.  All windows come from one numpy
    gather: the points in row-major order, each window's lanes in
    :func:`~repro.runtime.window.window_offsets` order, which is the order
    the compiler mapped the ``stencil.access`` offsets to.

    >>> from repro.runtime.streams import FIFOStream
    >>> packs, windows = FIFOStream("in"), FIFOStream("out")
    >>> load_data([np.arange(16.0).reshape(4, 4)], [packs], lanes=8)
    >>> shift_buffer(packs, windows, grid_shape=(4, 4), field_lower=(0, 0),
    ...              domain_lower=(1, 1), domain_upper=(3, 3), radius=1)
    >>> window_offsets(2, 1)
    [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]
    >>> len(windows), windows.read()
    (4, array([ 0.,  1.,  2.,  4.,  5.,  6.,  8.,  9., 10.]))
    >>> windows.read()
    array([ 1.,  2.,  3.,  5.,  6.,  7.,  9., 10., 11.])
    """
    shape = tuple(grid_shape)
    size = int(np.prod(shape))
    pieces = [_flatten(block) for block in in_stream.drain_blocks()]
    flat = np.concatenate(pieces)[:size] if pieces else np.zeros(size)
    field = flat.reshape(shape)
    index = _window_index(
        shape, tuple(field_lower), tuple(domain_lower), tuple(domain_upper), radius
    )
    out_stream.extend(np.take(field, index))


def _flatten(block: Sequence[Any]) -> np.ndarray:
    """A queued block's values in stream order, as one flat float64 array."""
    if isinstance(block, np.ndarray):
        return block.reshape(-1).astype(np.float64, copy=False)
    return np.concatenate([np.asarray(item, dtype=np.float64).reshape(-1) for item in block])


@lru_cache(maxsize=256)
def _window_index(
    grid_shape: tuple[int, ...],
    field_lower: tuple[int, ...],
    domain_lower: tuple[int, ...],
    domain_upper: tuple[int, ...],
    radius: int,
) -> np.ndarray:
    """The flat index into the field of every window lane, ``(points, lanes)``.

    Built once per geometry and shared, so it is read-only; a window that
    leaves the field raises ``ValueError``.
    """
    rank = len(grid_shape)
    offsets = np.array(window_offsets(rank, radius)).T          # (rank, lanes)
    extents = [max(upper - lower, 0) for lower, upper in zip(domain_lower, domain_upper)]
    points = np.indices(extents).reshape(rank, -1)               # (rank, points)
    start = np.subtract(domain_lower, field_lower)[:, None]
    coords = (points + start)[:, :, None] + offsets[:, None, :]  # (rank, points, lanes)
    index = np.ravel_multi_index(tuple(coords), grid_shape)
    index.flags.writeable = False
    return index


def duplicate_stream(source: FIFOStream, copies: Sequence[FIFOStream]) -> None:
    """Fan one stream out to several consumers (step 3's duplication stage).

    Every consumer gets its own copy of each block.
    """
    blocks = source.drain_blocks()
    for copy in copies:
        for block in blocks:
            if isinstance(block, np.ndarray):
                copy.extend(block.copy())
            else:
                copy.extend([np.array(item, copy=True) for item in block])


def write_data(
    streams: Sequence[FIFOStream],
    arrays: Sequence[np.ndarray],
    field_specs: Sequence[dict],
    lanes: int,
) -> None:
    """Write each result stream back into its field's domain region.

    Each stream holds one value per domain point in row-major order; each
    is read in one go and stored with one indexed assignment per field.
    """
    for stream, array, spec in zip(streams, arrays, field_specs):
        box = [
            np.arange(lower - origin, upper - origin)
            for lower, upper, origin in zip(spec["lower"], spec["upper"], spec["field_lower"])
        ]
        extents = [axis.size for axis in box]
        values = stream.read_many(int(np.prod(extents)))
        array[np.ix_(*box)] = np.asarray(values, dtype=np.float64).reshape(extents)


# ---------------------------------------------------------------------------
# Externals factory
# ---------------------------------------------------------------------------


def make_externals(plan: DataflowPlan) -> dict[str, Callable]:
    """Build the specialised runtime callables for a dataflow plan.

    The returned mapping is keyed by the callee names the stencil→HLS
    transformation emitted (``load_data_w<i>``, ``shift_buffer_<field>_w<i>``,
    ``duplicate_<field>_w<i>``, ``write_data_w<i>``) and is handed to the
    interpreter as its ``externals`` table.
    """
    externals: dict[str, Callable] = {}

    for wave in plan.waves:
        load = wave.load

        def _load(*args, _spec: LoadSpec = load):
            count = len(_spec.fields)
            arrays, streams = args[:count], args[count:]
            load_data(arrays, streams, _spec.lanes)

        externals[load.callee] = _load

        for shift in wave.shifts:
            def _shift(in_stream, out_stream, _spec: ShiftSpec = shift):
                shift_buffer(
                    in_stream,
                    out_stream,
                    grid_shape=_spec.grid_shape,
                    field_lower=_spec.field_lower,
                    domain_lower=_spec.domain_lower,
                    domain_upper=_spec.domain_upper,
                    radius=_spec.radius,
                )

            externals[shift.callee] = _shift

        for dup in wave.duplicates:
            def _dup(source, *copies, _n=len(dup.copies)):
                duplicate_stream(source, copies)

            externals[dup.callee] = _dup

        write = wave.write

        def _write(*args, _spec: WriteSpec = write):
            count = len(_spec.fields)
            streams, arrays = args[:count], args[count:]
            specs = [
                {"lower": f.lower, "upper": f.upper, "field_lower": f.field_lower}
                for f in _spec.fields
            ]
            write_data(streams, arrays, specs, _spec.lanes)

        externals[write.callee] = _write

    return externals
