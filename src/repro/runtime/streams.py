"""HLS FIFO stream model.

Functionally a stream is an unbounded FIFO (the dataflow stages are executed
to completion one after another by the functional simulator, so capacity
never limits correctness).  The declared depth is only recorded: the timing
model and the f++ stream-depth intrinsic read it, and :meth:`FIFOStream.full`
compares the queued count with it, but no write ever blocks or fails on it.

Items stay queued as the blocks they were written in: :meth:`FIFOStream.write`
queues a one-item block and :meth:`FIFOStream.extend` queues a whole ndarray
(its rows, or elements, are the items) without copying it.  Reading is still
item by item as far as the statistics and the FIFO order go, but a stage that
drains what one ``extend`` queued gets that array back whole.

Ownership: an array passed to :meth:`~FIFOStream.extend` belongs to the
stream from then on, and the caller must not write to it afterwards; an
array a read returns belongs to the reader.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Sequence

import numpy as np


class StreamClosedError(Exception):
    """Raised when reading from a stream whose producer finished early."""


class FIFOStream:
    """A first-in first-out stream of elements, queued in blocks."""

    def __init__(self, name: str = "stream", depth: int = 16, element_bits: int = 64) -> None:
        self.name = name
        self.depth = depth
        self.element_bits = element_bits
        #: Each block is a list of items or an ndarray whose rows are items;
        #: none is empty.
        self._blocks: deque[Sequence[Any]] = deque()
        self._offset = 0                 # items of the first block already read
        self._count = 0                  # items queued
        self._total_pushed = 0
        self._total_popped = 0
        self.high_water_mark = 0

    # -- blocking interface (functional semantics) ------------------------------

    def write(self, value: Any) -> None:
        self._push([value])

    def extend(self, values: Iterable[Any]) -> None:
        """Write each of ``values`` in order (the statistics match that many
        :meth:`write` calls).

        An ndarray is queued as it is, without a copy, so the caller must
        not write to it afterwards; any other iterable is copied into a list.
        """
        self._push(values if isinstance(values, np.ndarray) else list(values))

    def _push(self, block: Sequence[Any]) -> None:
        size = len(block)
        if size:
            self._blocks.append(block)
            self._count += size
            self._total_pushed += size
            self.high_water_mark = max(self.high_water_mark, self._count)

    def read(self) -> Any:
        if not self._count:
            raise StreamClosedError(
                f"stream '{self.name}': read from an empty stream "
                "(producer under-produced or stage ordering is wrong)"
            )
        block = self._blocks[0]
        item = block[self._offset]
        self._offset += 1
        if self._offset == len(block):
            self._blocks.popleft()
            self._offset = 0
        self._count -= 1
        self._total_popped += 1
        return item

    def read_many(self, count: int) -> Sequence[Any]:
        """Remove and return the next ``count`` elements in order (the
        statistics match that many :meth:`read` calls); take none if fewer
        are queued.

        The elements come back as the array one :meth:`extend` queued when
        they are exactly that array's unread items, and as a list otherwise.

        >>> stream = FIFOStream("s")
        >>> stream.extend([1.0, 2.0, 3.0])
        >>> stream.read_many(2), stream.total_popped, len(stream)
        ([1.0, 2.0], 2, 1)
        >>> stream.read_many(2)  # doctest: +ELLIPSIS
        Traceback (most recent call last):
            ...
        repro.runtime.streams.StreamClosedError: stream 's': read of 2 elements with 1 queued ...
        >>> stream.total_popped, len(stream)
        (2, 1)
        >>> rows = np.zeros((4, 3))
        >>> stream.extend(rows)
        >>> stream.read(), stream.read_many(4) is rows
        (3.0, True)
        """
        if count > self._count:
            raise StreamClosedError(
                f"stream '{self.name}': read of {count} elements with {self._count} queued "
                "(producer under-produced or stage ordering is wrong)"
            )
        self._total_popped += count
        self._count -= count
        blocks = self._blocks
        if count and not self._offset and len(blocks[0]) == count:
            return blocks.popleft()      # the usual case: a stage drains one block
        items: list[Any] = []
        while count:
            block = blocks[0]
            start = self._offset
            stop = min(len(block), start + count)
            items.extend(block[start:stop])
            count -= stop - start
            if stop == len(block):
                blocks.popleft()
                self._offset = 0
            else:
                self._offset = stop
        return items

    def drain(self) -> Sequence[Any]:
        """Remove and return all remaining elements (as :meth:`read_many`)."""
        return self.read_many(self._count)

    def drain_blocks(self) -> list[Sequence[Any]]:
        """Remove all remaining elements and return them as the blocks they
        were queued in (the first without the items already read): for the
        data movers, which handle a block at a time."""
        blocks = list(self._blocks)
        if self._offset:
            blocks[0] = blocks[0][self._offset :]
        self._blocks.clear()
        self._offset = 0
        self._total_popped += self._count
        self._count = 0
        return blocks

    # -- non-blocking queries -----------------------------------------------------

    def empty(self) -> bool:
        return not self._count

    def full(self) -> bool:
        return self._count >= self.depth

    def __len__(self) -> int:
        return self._count

    # -- statistics -----------------------------------------------------------------

    @property
    def total_pushed(self) -> int:
        return self._total_pushed

    @property
    def total_popped(self) -> int:
        return self._total_popped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FIFOStream {self.name} depth={self.depth} queued={self._count}>"
