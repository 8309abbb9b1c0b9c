"""The per-point data movers as they stood before the whole-domain gathers.

Kept as the reference oracle for :mod:`repro.runtime.data_movers`:
``tests/test_data_movers_differential.py`` checks that both emit the same
stream items in the same order and write the same arrays, and
``tests/test_simulator_variants.py`` runs whole designs on both.  The
bodies below are the former ``load_data``, ``shift_buffer``,
``duplicate_stream``, ``write_data`` and ``make_externals`` unchanged:
``shift_buffer`` builds each window lane by lane, point by point, and
``write_data`` stores one result per point.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.plan import DataflowPlan, LoadSpec, ShiftSpec, WriteSpec
from repro.runtime.streams import FIFOStream
from repro.runtime.window import window_offsets


def _iter_box(lower: Sequence[int], upper: Sequence[int]):
    if len(lower) == 0:
        yield ()
        return
    for head in range(lower[0], upper[0]):
        for rest in _iter_box(lower[1:], upper[1:]):
            yield (head, *rest)


def load_data(arrays: Sequence[np.ndarray], streams: Sequence[FIFOStream], lanes: int) -> None:
    """Stream each array's elements, grouped into ``lanes``-wide packs."""
    for array, stream in zip(arrays, streams):
        flat = np.asarray(array, dtype=np.float64).reshape(-1)
        for start in range(0, flat.size, lanes):
            stream.write(np.array(flat[start : start + lanes]))


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
    :class:`~repro.core.plan.ShiftSpec`.
    """
    shape = tuple(grid_shape)
    packs = []
    while not in_stream.empty():
        packs.append(np.asarray(in_stream.read(), dtype=np.float64).reshape(-1))
    if packs:
        flat = np.concatenate(packs)[: int(np.prod(shape))]
    else:
        flat = np.zeros(int(np.prod(shape)))
    field = flat.reshape(shape)
    offsets = window_offsets(len(shape), radius)
    lower = tuple(field_lower)
    for point in _iter_box(domain_lower, domain_upper):
        window = np.empty(len(offsets), dtype=np.float64)
        for lane, offset in enumerate(offsets):
            idx = tuple(p + o - l for p, o, l in zip(point, offset, lower))
            window[lane] = field[idx]
        out_stream.write(window)


def duplicate_stream(source: FIFOStream, copies: Sequence[FIFOStream]) -> None:
    """Fan one stream out to several consumers (step 3's duplication stage)."""
    while not source.empty():
        value = source.read()
        for copy in copies:
            copy.write(np.array(value, copy=True))


def write_data(
    streams: Sequence[FIFOStream],
    arrays: Sequence[np.ndarray],
    field_specs: Sequence[dict],
    lanes: int,
) -> None:
    """Write each result stream back into its field's domain region."""
    for stream, array, spec in zip(streams, arrays, field_specs):
        lower = spec["lower"]
        upper = spec["upper"]
        field_lower = spec["field_lower"]
        for point in _iter_box(lower, upper):
            value = stream.read()
            idx = tuple(p - l for p, l in zip(point, field_lower))
            array[idx] = float(value)


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
