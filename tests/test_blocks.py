"""Data blocks: reference counting, copy-on-write, wrapping."""

import numpy as np
import pytest

from repro import compile_source
from repro.runtime import SequentialExecutor, default_registry
from repro.runtime.blocks import (
    BufferPool,
    DataBlock,
    copy_payload,
    get_block_hook,
    payload_nbytes,
    release,
    retain,
    set_block_hook,
    unwrap,
    value_nbytes,
    wrap_payload,
)
from repro.runtime.values import NULL, MultiValue, OperatorValue


class TestDataBlock:
    def test_fresh_block_has_zero_refs(self):
        assert DataBlock([1, 2]).rc == 0

    def test_unique_iff_rc_one(self):
        block = DataBlock([1])
        block.rc = 1
        assert block.unique()
        block.rc = 2
        assert not block.unique()

    def test_copy_isolates_list_payload(self):
        block = DataBlock([1, [2]])
        clone = block.copy()
        clone.payload[1].append(3)
        assert block.payload == [1, [2]]

    def test_copy_isolates_numpy_payload(self):
        block = DataBlock(np.zeros(4))
        clone = block.copy()
        clone.payload[0] = 9.0
        assert block.payload[0] == 0.0

    def test_copy_starts_unreferenced(self):
        block = DataBlock([1])
        block.rc = 5
        assert block.copy().rc == 0

    def test_nbytes_numpy_exact(self):
        assert DataBlock(np.zeros(10, dtype=np.float64)).nbytes == 80


class TestRetainRelease:
    def test_retain_release_block(self):
        block = DataBlock([1])
        retain(block, 3)
        assert block.rc == 3
        release(block, 2)
        assert block.rc == 1

    def test_retain_recurses_into_multivalue(self):
        a, b = DataBlock([1]), DataBlock([2])
        mv = MultiValue((a, 5, b))
        retain(mv, 2)
        assert a.rc == 2 and b.rc == 2

    def test_nested_multivalue(self):
        a = DataBlock([1])
        mv = MultiValue((MultiValue((a,)),))
        retain(mv)
        assert a.rc == 1

    def test_retain_zero_is_noop(self):
        block = DataBlock([1])
        retain(block, 0)
        assert block.rc == 0

    def test_negative_rc_raises_runtime_error(self):
        # A real error, not an assert: must fire even under ``python -O``.
        block = DataBlock([1])
        with pytest.raises(RuntimeError, match="went negative"):
            release(block, 1)

    def test_negative_rc_restores_count(self):
        block = DataBlock([1])
        retain(block, 1)
        with pytest.raises(RuntimeError):
            release(block, 2)
        assert block.rc == 1  # the failed release must not corrupt rc

    def test_negative_rc_inside_multivalue(self):
        a = DataBlock([1])
        retain(a, 1)
        mv = MultiValue((a,))
        with pytest.raises(RuntimeError):
            release(mv, 2)

    def test_scalars_ignored(self):
        retain(42, 3)
        release("s", 0)
        retain(NULL, 2)  # must not raise


class TestWrapPayload:
    def test_immutable_atoms_pass_through(self):
        for value in (1, 2.5, "s", b"b", True, None):
            assert wrap_payload(value) is value

    def test_numpy_scalar_passes_through(self):
        v = np.float64(1.5)
        assert wrap_payload(v) is v

    def test_mutable_payloads_wrapped(self):
        for payload in ([1], {"a": 1}, np.zeros(3), bytearray(b"x")):
            wrapped = wrap_payload(payload)
            assert isinstance(wrapped, DataBlock)
            assert wrapped.payload is payload

    def test_tuple_becomes_multivalue(self):
        wrapped = wrap_payload((1, [2], "x"))
        assert isinstance(wrapped, MultiValue)
        assert wrapped.items[0] == 1
        assert isinstance(wrapped.items[1], DataBlock)

    def test_existing_wrappers_pass_through(self):
        block = DataBlock([1])
        assert wrap_payload(block) is block
        mv = MultiValue((1,))
        assert wrap_payload(mv) is mv
        op = OperatorValue("f")
        assert wrap_payload(op) is op
        assert wrap_payload(NULL) is NULL

    def test_home_recorded(self):
        assert wrap_payload([1], home=3).home == 3


class TestUnwrap:
    def test_block_unwraps_to_payload(self):
        payload = [1, 2]
        assert unwrap(DataBlock(payload)) is payload

    def test_multivalue_unwraps_to_tuple(self):
        mv = MultiValue((DataBlock([1]), 5))
        assert unwrap(mv) == ([1], 5)

    def test_atoms_unchanged(self):
        assert unwrap(7) == 7
        assert unwrap(NULL) is NULL


class TestBufferPool:
    def test_round_trip_same_shape_dtype(self):
        pool = BufferPool()
        arr = np.ascontiguousarray(
            np.arange(6, dtype=np.float64).reshape(2, 3)
        ).copy()
        assert pool.put(arr)
        got = pool.get((2, 3), np.float64)
        assert got is arr
        assert pool.stats()["recycled"] == 1
        assert pool.stats()["recycled_bytes"] == arr.nbytes

    def test_get_miss_returns_none(self):
        pool = BufferPool()
        pool.put(np.zeros((2, 3)))
        assert pool.get((3, 2), np.float64) is None
        assert pool.get((2, 3), np.float32) is None

    def test_views_rejected(self):
        pool = BufferPool()
        arr = np.zeros((4, 4))
        assert not pool.put(arr[1:])
        assert pool.stats()["dropped"] == 1

    def test_non_contiguous_rejected(self):
        pool = BufferPool()
        assert not pool.put(np.zeros((4, 4)).T.copy(order="F"))

    def test_empty_rejected(self):
        pool = BufferPool()
        assert not pool.put(np.zeros((0,)))

    def test_non_array_rejected(self):
        pool = BufferPool()
        assert not pool.put([1, 2, 3])

    def test_capacity_bound(self):
        pool = BufferPool(max_bytes=100)
        assert pool.put(np.zeros(10))  # 80 bytes held
        assert not pool.put(np.zeros(10))  # would exceed 100
        assert pool.stats()["held_bytes"] == 80
        assert pool.stats()["dropped"] == 1

    def test_held_bytes_tracks_get(self):
        pool = BufferPool()
        pool.put(np.zeros(10))
        pool.get((10,), np.float64)
        assert pool.stats()["held_bytes"] == 0


class TestSizes:
    def test_payload_nbytes_containers(self):
        assert payload_nbytes([np.zeros(10)]) > 80

    def test_value_nbytes_multivalue_sums(self):
        mv = MultiValue((DataBlock(np.zeros(10)), DataBlock(np.zeros(5))))
        assert value_nbytes(mv) == 120

    def test_value_nbytes_closure_is_small(self):
        assert value_nbytes(OperatorValue("x")) == 16

    def test_copy_payload_deepcopies_objects(self):
        class Thing:
            def __init__(self):
                self.data = [1]

        thing = Thing()
        clone = copy_payload(thing)
        clone.data.append(2)
        assert thing.data == [1]


class TestLazySize:
    def test_construction_does_not_size(self, sizing_calls):
        DataBlock([1, [2, 3]])
        assert sizing_calls == []

    def test_sized_at_most_once_across_reads(self, sizing_calls):
        block = DataBlock([1, [2, 3]])
        first = block.nbytes
        one_sizing = len(sizing_calls)  # the sizer recurses into items
        assert one_sizing > 0
        assert {block.nbytes for _ in range(5)} == {first}
        assert len(sizing_calls) == one_sizing
        assert first == payload_nbytes([1, [2, 3]])

    def test_forget_size_resizes_on_next_read(self):
        block = DataBlock([])
        before = block.nbytes
        block.payload.extend(range(100))
        assert block.nbytes == before  # cached until told otherwise
        block.forget_size()
        assert block.nbytes == payload_nbytes(block.payload) > before

    @staticmethod
    def _cow_registry():
        reg = default_registry()

        @reg.register(name="make_list")
        def make_list():
            return [0] * 10

        @reg.register(name="grow", modifies=(0,))
        def grow(lst, n):
            lst.extend(range(n))
            return lst

        @reg.register(name="length", pure=True)
        def length(lst):
            return len(lst)

        return reg

    @pytest.mark.parametrize("check_purity", [False, True])
    def test_in_place_write_resets_read_size(self, check_purity):
        # ``grow`` appends in place and returns its input, so the engine
        # keeps the block; a size read before the write must not survive.
        # check_purity=True sends the fire through the generic
        # begin/complete path instead of the single-pass inline one.
        reg = self._cow_registry()
        compiled = compile_source("main() grow(make_list(), 200)", registry=reg)
        seen: list[DataBlock] = []

        def hook(kind, block, n):
            if kind == "alloc":
                seen.append(block)
            block.nbytes  # read the size at every count change

        previous = get_block_hook()
        set_block_hook(hook)
        try:
            result = SequentialExecutor(check_purity=check_purity).run(
                compiled.graph, registry=reg
            )
        finally:
            set_block_hook(previous)
        assert result.stats.in_place_writes == 1
        assert len(result.value) == 210
        grown = [b for b in seen if b.payload is result.value]
        assert len(grown) == 1
        for block in seen:
            assert block.nbytes == payload_nbytes(block.payload)

    def test_cow_copy_bytes_equal_payload_size(self):
        src = """
        main()
          let base = make_list()
              x = grow(base, 5)
              y = grow(base, 7)
          in <length(x), length(y), length(base)>
        """
        reg = self._cow_registry()
        compiled = compile_source(src, registry=reg)
        result = SequentialExecutor().run(compiled.graph, registry=reg)
        assert result.value == (15, 17, 10)
        stats = result.stats
        assert stats.cow_copies >= 1
        assert stats.copy_bytes_by_operator["grow"] == (
            stats.cow_copies * payload_nbytes([0] * 10)
        )
