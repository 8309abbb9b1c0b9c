"""The FIFO stream as it stood before it queued whole blocks.

Kept as the reference oracle for :class:`repro.runtime.streams.FIFOStream`:
``tests/test_streams_differential.py`` runs random sequences of writes and
reads on both and checks that they give the same items, the same
statistics and the same :class:`~repro.runtime.streams.StreamClosedError`s.
The class below is the former ``FIFOStream`` unchanged: a deque holding one
Python object per item, so ``extend`` iterates its argument and
``read_many`` always builds a list.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable

from repro.runtime.streams import StreamClosedError


class FIFOStream:
    """A first-in first-out stream of elements."""

    def __init__(self, name: str = "stream", depth: int = 16, element_bits: int = 64) -> None:
        self.name = name
        self.depth = depth
        self.element_bits = element_bits
        self._queue: deque[Any] = deque()
        self._total_pushed = 0
        self._total_popped = 0
        self.high_water_mark = 0

    # -- blocking interface (functional semantics) ------------------------------

    def write(self, value: Any) -> None:
        self._queue.append(value)
        self._total_pushed += 1
        self.high_water_mark = max(self.high_water_mark, len(self._queue))

    def read(self) -> Any:
        if not self._queue:
            raise StreamClosedError(
                f"stream '{self.name}': read from an empty stream "
                "(producer under-produced or stage ordering is wrong)"
            )
        self._total_popped += 1
        return self._queue.popleft()

    def read_many(self, count: int) -> list[Any]:
        """Remove and return the next ``count`` elements in order (the
        statistics match that many :meth:`read` calls); take none if fewer
        are queued.

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
        """
        queue = self._queue
        if count > len(queue):
            raise StreamClosedError(
                f"stream '{self.name}': read of {count} elements with {len(queue)} queued "
                "(producer under-produced or stage ordering is wrong)"
            )
        self._total_popped += count
        if count == len(queue):              # the usual case: a stage drains its input
            items = list(queue)
            queue.clear()
            return items
        return [queue.popleft() for _ in range(count)]

    # -- non-blocking queries -----------------------------------------------------

    def empty(self) -> bool:
        return not self._queue

    def full(self) -> bool:
        return len(self._queue) >= self.depth

    def __len__(self) -> int:
        return len(self._queue)

    # -- statistics -----------------------------------------------------------------

    @property
    def total_pushed(self) -> int:
        return self._total_pushed

    @property
    def total_popped(self) -> int:
        return self._total_popped

    def drain(self) -> list[Any]:
        """Remove and return all remaining elements."""
        return self.read_many(len(self._queue))

    def extend(self, values: Iterable[Any]) -> None:
        """Write each of ``values`` in order (the statistics match that many
        :meth:`write` calls)."""
        before = len(self._queue)
        self._queue.extend(values)
        self._total_pushed += len(self._queue) - before
        self.high_water_mark = max(self.high_water_mark, len(self._queue))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FIFOStream {self.name} depth={self.depth} queued={len(self._queue)}>"
