"""Shift-buffer window ordering.

The shift buffer does not provide a single value per cycle but *all* the
stencil values that could be required: 3 values in 1-D, 9 in 2-D and 27 in
3-D for unit-radius stencils (§3.3 step 3 and Figure 2).  The compiler maps
each ``stencil.access`` offset to a lane of that window (step 5); the
runtime's shift buffer must therefore fill the window in exactly the same
order.  Both sides use the helpers below.
"""

from __future__ import annotations

from typing import Sequence


def window_offsets(rank: int, radius: int) -> list[tuple[int, ...]]:
    """All relative offsets of the window, in canonical (row-major) order.

    >>> window_offsets(2, 1)[:4]
    [(-1, -1), (-1, 0), (-1, 1), (0, -1)]
    """
    if rank <= 0:
        return [()]
    offsets: list[tuple[int, ...]] = [()]
    for _ in range(rank):
        offsets = [
            (*prefix, component)
            for prefix in offsets
            for component in range(-radius, radius + 1)
        ]
    return offsets


def window_strides(rank: int, radius: int) -> tuple[int, ...]:
    """Strides used to linearise an offset into a window lane index."""
    side = 2 * radius + 1
    strides = []
    for d in range(rank):
        strides.append(side ** (rank - 1 - d))
    return tuple(strides)


def window_index(offset: Sequence[int], radius: int) -> int:
    """Lane index of ``offset`` within the canonical window ordering.

    >>> offset = window_offsets(2, 1)[4]
    >>> offset, window_index(offset, 1)
    ((0, 0), 4)
    """
    rank = len(offset)
    strides = window_strides(rank, radius)
    index = 0
    for component, stride in zip(offset, strides):
        if abs(component) > radius:
            raise ValueError(
                f"offset {tuple(offset)} exceeds the window radius {radius}"
            )
        index += (component + radius) * stride
    return index


def window_size(rank: int, radius: int) -> int:
    return (2 * radius + 1) ** rank
