"""The single-frame array accessors and the block-wise ``init`` against
reference implementations kept here: the nested ``yield from`` accessors
built on ``addr`` and the :mod:`repro.scribe.similarity` converters, and
a per-word ``store_word`` initializer."""
import math
import struct

import pytest
from hypothesis import given, strategies as st

from repro.isa.instructions import Load, Store
from repro.mem.backing import BackingStore
from repro.scribe.similarity import (
    bits_to_float, bits_to_int, float_to_bits, int_to_bits,
)
from repro.workloads.alloc import SharedMemory

LENGTH = 5


# -- reference accessors ------------------------------------------------
def _wrap32(value):
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & 0x80000000 else value


def ref_i32_load(arr, index):
    bits = yield Load(arr.addr(index))
    return bits_to_int(bits)


def ref_i32_store(arr, index, value):
    yield Store(arr.addr(index), int_to_bits(value))


def ref_i32_add(arr, index, delta):
    cur = yield from ref_i32_load(arr, index)
    yield from ref_i32_store(arr, index, _wrap32(cur + delta))
    return _wrap32(cur + delta)


def ref_f32_load(arr, index):
    bits = yield Load(arr.addr(index))
    return bits_to_float(bits)


def ref_f32_store(arr, index, value):
    yield Store(arr.addr(index), float_to_bits(value))


def ref_f32_add(arr, index, delta):
    cur = yield from ref_f32_load(arr, index)
    new = float(bits_to_float(float_to_bits(cur + delta)))
    yield from ref_f32_store(arr, index, new)
    return new


# -- harness ---------------------------------------------------------------
def drive(gen, word):
    """Run an accessor, answering every Load with ``word``; returns
    ``(ops, outcome)`` where outcome is ``("ok", value)`` or
    ``("raise", exception type)``."""
    ops = []
    try:
        op = next(gen)
        while True:
            ops.append(op)
            op = gen.send(word if isinstance(op, Load) else None)
    except StopIteration as stop:
        return ops, ("ok", _canon(stop.value))
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ops, ("raise", type(exc))


def _canon(value):
    """Floats by bit pattern, so NaN and -0.0 compare exactly."""
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return value


def _arrays():
    mem = SharedMemory(BackingStore(64), 64)
    mem.alloc_i32(1, "pad")          # unaligned bases
    return mem.alloc_i32(LENGTH, "i"), mem.alloc_f32(LENGTH, "f")


def _same(new, ref, word):
    assert drive(new, word) == drive(ref, word)


I32_EDGES = [0, 1, -1, 2**31 - 1, -(2**31), 2**31, 2**32 - 1, 7, -7]
WORD_EDGES = [0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0x12345678]


class TestI32:
    @pytest.mark.parametrize("index", [-1, 0, LENGTH - 1, LENGTH])
    @pytest.mark.parametrize("word", WORD_EDGES)
    def test_load(self, index, word):
        a, _ = _arrays()
        _same(a.load(index), ref_i32_load(a, index), word)

    @pytest.mark.parametrize("index", [-1, 0, LENGTH])
    @pytest.mark.parametrize("value", I32_EDGES + [2**32, -(2**31) - 1])
    def test_store(self, index, value):
        a, _ = _arrays()
        _same(a.store(index, value), ref_i32_store(a, index, value), None)

    @pytest.mark.parametrize("index", [-1, 0, LENGTH - 1, LENGTH])
    @pytest.mark.parametrize("word", WORD_EDGES)
    @pytest.mark.parametrize("delta", [0, 1, -1, 2**31, -(2**31), 2**40])
    def test_add_wraps_at_2_to_31(self, index, word, delta):
        a, _ = _arrays()
        _same(a.add(index, delta), ref_i32_add(a, index, delta), word)

    def test_add_wraparound_values(self):
        a, _ = _arrays()
        ops, (_, value) = drive(a.add(0, 1), 0x7FFFFFFF)
        assert value == -(2**31)
        assert ops == [Load(a.base), Store(a.base, 0x80000000)]
        ops, (_, value) = drive(a.add(0, -1), 0x80000000)
        assert value == 2**31 - 1 and ops[1].value == 0x7FFFFFFF

    @given(st.integers(0, LENGTH - 1), st.integers(0, 2**32 - 1),
           st.integers(-(2**33), 2**33))
    def test_add_property(self, index, word, delta):
        a, _ = _arrays()
        _same(a.add(index, delta), ref_i32_add(a, index, delta), word)


F32_WORDS = WORD_EDGES + [float_to_bits(v) for v in (
    1.0, -2.5, 0.1, 3.4028234663852886e38, 1e-45, math.inf, -math.inf,
    math.nan, -0.0)]
F32_DELTAS = [0.0, 1.0, -1.0, 0.1, 1e-8, 1e30, 3.4e38, math.inf, math.nan]


class TestF32:
    @pytest.mark.parametrize("index", [-1, 0, LENGTH - 1, LENGTH])
    @pytest.mark.parametrize("word", F32_WORDS)
    def test_load(self, index, word):
        _, f = _arrays()
        _same(f.load(index), ref_f32_load(f, index), word)

    @pytest.mark.parametrize("index", [-1, 0, LENGTH])
    @pytest.mark.parametrize("value", F32_DELTAS + [1e39, -0.0, 0.1 + 0.2])
    def test_store(self, index, value):
        _, f = _arrays()
        _same(f.store(index, value), ref_f32_store(f, index, value), None)

    @pytest.mark.parametrize("index", [-1, 0, LENGTH])
    @pytest.mark.parametrize("word", F32_WORDS)
    @pytest.mark.parametrize("delta", F32_DELTAS)
    def test_add_rounds_through_binary32(self, index, word, delta):
        _, f = _arrays()
        _same(f.add(index, delta), ref_f32_add(f, index, delta), word)

    def test_add_rounding_value(self):
        _, f = _arrays()
        ops, (_, value) = drive(f.add(0, 0.1), float_to_bits(0.2))
        exact = bits_to_float(float_to_bits(0.2)) + 0.1
        rounded = bits_to_float(float_to_bits(exact))
        assert ops[1].value == float_to_bits(exact)
        assert value == _canon(rounded) and rounded != exact

    @given(st.integers(0, 2**32 - 1),
           st.floats(allow_nan=True, allow_infinity=True, width=64))
    def test_add_property(self, word, delta):
        _, f = _arrays()
        _same(f.add(1, delta), ref_f32_add(f, 1, delta), word)


# -- block-wise init -------------------------------------------------------
def _per_word_image(base, words, block_bytes=64, prior=()):
    backing = BackingStore(block_bytes)
    for addr, value in prior:
        backing.store_word(addr, value)
    for i, w in enumerate(words):
        backing.store_word(base + 4 * i, w)
    return backing.memory_image()


class TestInit:
    @pytest.mark.parametrize("skip_words", [0, 1, 5, 15])
    @pytest.mark.parametrize("length", [1, 3, 16, 17, 37])
    def test_i32_image_matches_per_word(self, skip_words, length):
        mem = SharedMemory(BackingStore(64), 64)
        prior = None
        if skip_words:
            prior = mem.alloc_i32(skip_words, "prior",
                                  init=range(1, skip_words + 1))
        values = [(-1) ** i * (i * 2654435761 % 2**31)
                  for i in range(length)]
        arr = mem.alloc_i32(length, "a", init=values)
        expected = _per_word_image(
            arr.base, [int_to_bits(v) for v in values],
            prior=[] if prior is None else
            [(prior.base + 4 * i, i + 1) for i in range(skip_words)])
        # same blocks, same words, same insertion order
        assert list(mem.backing.memory_image().items()) == list(
            expected.items())
        assert arr.read_back() == values

    def test_f32_image_matches_per_word(self):
        mem = SharedMemory(BackingStore(64), 64)
        mem.alloc_i32(3, "pad", init=[7, 8, 9])
        values = [0.1 * i - 1.5 for i in range(21)]
        arr = mem.alloc_f32(len(values), "f", init=values)
        assert arr.base % 64 == 12
        expected = _per_word_image(
            arr.base, [float_to_bits(v) for v in values],
            prior=[(arr.base - 12, 7), (arr.base - 8, 8), (arr.base - 4, 9)])
        assert list(mem.backing.memory_image().items()) == list(
            expected.items())

    def test_too_many_initializers_from_an_endless_iterator(self):
        import itertools

        mem = SharedMemory(BackingStore(64), 64)
        arr = mem.alloc_i32(4, "a")
        with pytest.raises(ValueError):
            arr.init(itertools.count())
