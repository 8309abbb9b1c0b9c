"""Tests for the dataflow runtime: streams, window ordering, data movers."""

import numpy as np
import pytest

from repro.core.config import CompilerOptions
from repro.ir.passes import PassManager
from repro.kernels.pw_advection import build_pw_advection
from repro.runtime.data_movers import (
    duplicate_stream,
    load_data,
    make_externals,
    shift_buffer,
    write_data,
)
from repro.runtime.streams import FIFOStream, StreamClosedError
from repro.runtime.window import window_index, window_offsets, window_size, window_strides
from repro.transforms.stencil_to_hls import StencilToHLSPass


class TestFIFOStream:
    def test_fifo_order(self):
        stream = FIFOStream("s", depth=4)
        for value in range(5):
            stream.write(value)
        assert [stream.read() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_empty_and_full(self):
        stream = FIFOStream("s", depth=2)
        assert stream.empty() and not stream.full()
        stream.write(1)
        stream.write(2)
        assert stream.full()
        stream.read()
        assert not stream.full()

    def test_read_empty_raises(self):
        with pytest.raises(StreamClosedError):
            FIFOStream("s").read()

    def test_statistics(self):
        stream = FIFOStream("s")
        stream.extend([1, 2, 3])
        stream.read()
        assert stream.total_pushed == 3
        assert stream.total_popped == 1
        assert stream.high_water_mark == 3
        assert len(stream) == 2

    def test_drain(self):
        stream = FIFOStream("s")
        stream.extend([1, 2])
        assert stream.drain() == [1, 2]
        assert stream.empty()


class TestOwnership:
    """What a stream holds is its own: no caller or reader can change it,
    and no two readers share an array."""

    def test_extended_list_is_copied(self):
        values = [1.0, 2.0]
        stream = FIFOStream("s")
        stream.extend(values)
        values[0] = -1.0
        values.append(3.0)
        assert stream.drain() == [1.0, 2.0]

    def test_mutating_a_read_list_leaves_the_stream_alone(self):
        stream = FIFOStream("s")
        stream.extend([1.0, 2.0, 3.0])
        stream.extend([4.0, 5.0])
        whole = stream.read_many(3)
        whole[0] = -1.0
        part = stream.read_many(1)
        part[0] = -1.0
        part.append(-2.0)
        assert stream.drain() == [5.0]
        assert stream.total_popped == 5

    def test_load_data_copies_the_field(self):
        array = np.arange(20.0).reshape(4, 5)
        stream = FIFOStream("in")
        load_data([array], [stream], lanes=8)
        array[...] = -1.0
        packs = stream.drain()
        assert np.array_equal(np.concatenate(packs), np.arange(20.0))
        assert not any(np.shares_memory(pack, array) for pack in packs)

    def test_duplicate_stream_consumers_share_no_memory(self):
        windows = np.arange(12.0).reshape(4, 3)
        single = np.array([7.0, 8.0])
        source = FIFOStream("src")
        source.extend(windows)
        source.write(single)
        copies = [FIFOStream("a"), FIFOStream("b"), FIFOStream("c")]
        duplicate_stream(source, copies)
        drained = [copy.drain() for copy in copies]
        for items in drained:
            assert np.array_equal(np.concatenate(items), np.r_[np.arange(12.0), 7.0, 8.0])
        arrays = [item for items in drained for item in items]
        for position, item in enumerate(arrays):
            assert not np.shares_memory(item, windows)
            assert not np.shares_memory(item, single)
            assert not any(np.shares_memory(item, other) for other in arrays[position + 1 :])


class TestWindowOrdering:
    def test_window_size(self):
        assert window_size(1, 1) == 3
        assert window_size(2, 1) == 9
        assert window_size(3, 1) == 27       # the paper's 1/9/27 values
        assert window_size(3, 2) == 125

    def test_offsets_cover_window_exactly_once(self):
        offsets = window_offsets(3, 1)
        assert len(offsets) == 27
        assert len(set(offsets)) == 27
        assert (0, 0, 0) in offsets
        assert (-1, -1, -1) in offsets and (1, 1, 1) in offsets

    def test_index_matches_offset_order(self):
        offsets = window_offsets(3, 1)
        for lane, offset in enumerate(offsets):
            assert window_index(offset, 1) == lane

    def test_strides(self):
        assert window_strides(3, 1) == (9, 3, 1)
        assert window_strides(2, 2) == (5, 1)

    def test_out_of_window_offset_rejected(self):
        with pytest.raises(ValueError):
            window_index((2, 0, 0), 1)


class TestDataMovers:
    def test_load_data_packs_lanes(self):
        array = np.arange(20.0).reshape(4, 5)
        stream = FIFOStream("in")
        load_data([array], [stream], lanes=8)
        packs = stream.drain()
        assert len(packs) == 3                 # ceil(20 / 8)
        assert np.array_equal(packs[0], np.arange(8.0))
        assert len(packs[-1]) == 4

    def test_shift_buffer_windows_match_direct_gather(self):
        shape = (4, 4, 4)
        rng = np.random.default_rng(0)
        field = rng.standard_normal(shape)
        in_stream, out_stream = FIFOStream("in"), FIFOStream("out")
        load_data([field], [in_stream], lanes=8)
        shift_buffer(
            in_stream, out_stream,
            grid_shape=shape, field_lower=(0, 0, 0),
            domain_lower=(1, 1, 1), domain_upper=(3, 3, 3), radius=1,
        )
        offsets = window_offsets(3, 1)
        expected_points = [(i, j, k) for i in range(1, 3) for j in range(1, 3) for k in range(1, 3)]
        windows = out_stream.drain()
        assert len(windows) == len(expected_points)
        for point, window in zip(expected_points, windows):
            for lane, offset in enumerate(offsets):
                idx = tuple(p + o for p, o in zip(point, offset))
                assert window[lane] == field[idx]

    @pytest.mark.parametrize("domain_lower, domain_upper", [((0, 1), (2, 3)), ((1, 1), (3, 4))])
    def test_shift_buffer_rejects_a_window_outside_the_field(self, domain_lower, domain_upper):
        packs, windows = FIFOStream("in"), FIFOStream("out")
        load_data([np.arange(16.0).reshape(4, 4)], [packs], lanes=8)
        with pytest.raises(ValueError):
            shift_buffer(
                packs, windows,
                grid_shape=(4, 4), field_lower=(0, 0),
                domain_lower=domain_lower, domain_upper=domain_upper, radius=1,
            )
        assert windows.empty()

    def test_duplicate_stream(self):
        source = FIFOStream("src")
        source.extend([np.array([1.0]), np.array([2.0])])
        copies = [FIFOStream("a"), FIFOStream("b")]
        duplicate_stream(source, copies)
        assert source.empty()
        for copy in copies:
            assert [float(v[0]) for v in copy.drain()] == [1.0, 2.0]

    def test_write_data_places_domain_values(self):
        stream = FIFOStream("res")
        values = list(range(8))
        stream.extend([float(v) for v in values])
        out = np.zeros((4, 4, 4))
        write_data(
            [stream], [out],
            [{"lower": (1, 1, 1), "upper": (3, 3, 3), "field_lower": (0, 0, 0)}],
            lanes=8,
        )
        assert out[1, 1, 1] == 0.0 and out[2, 2, 2] == 7.0
        assert out[0, 0, 0] == 0.0                      # halo untouched
        assert np.count_nonzero(out) == 7               # value 0.0 at (1,1,1)

    def test_write_data_short_stream_raises(self):
        stream = FIFOStream("res")
        stream.extend([1.0] * 7)                        # one short of the 2x2x2 box
        out = np.zeros((4, 4, 4))
        with pytest.raises(StreamClosedError):
            write_data(
                [stream], [out],
                [{"lower": (1, 1, 1), "upper": (3, 3, 3), "field_lower": (0, 0, 0)}],
                lanes=8,
            )
        assert not out.any()


class TestExternalsFactory:
    def test_externals_cover_every_runtime_callee(self, small_shape):
        module = build_pw_advection(small_shape)
        pass_ = StencilToHLSPass(CompilerOptions())
        PassManager([pass_]).run(module)
        plan = pass_.plans["pw_advection_hls"]
        externals = make_externals(plan)
        expected = {plan.waves[0].load.callee, plan.waves[0].write.callee}
        expected.update(s.callee for s in plan.waves[0].shifts)
        expected.update(d.callee for d in plan.waves[0].duplicates)
        assert expected == set(externals)
        assert all(callable(fn) for fn in externals.values())
