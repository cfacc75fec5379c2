"""Unit + property tests for the SRAM array and tree pseudo-LRU."""
from hypothesis import given, strategies as st

from repro.cache.sram import CacheArray, _PlruTree
from repro.common.config import CacheConfig


def _cfg(size=1024, assoc=2, block=64):
    return CacheConfig(size, assoc, block)


class TestLookupInstall:
    def test_miss_then_hit(self):
        arr = CacheArray(_cfg())
        assert arr.lookup(0x40) is None
        line = arr.find_free_or_victim(0x40, lambda l: True)
        arr.install(line, 0x40)
        line.words = [1] * 16
        assert arr.lookup(0x40) is line

    def test_same_set_conflict(self):
        cfg = _cfg()  # 8 sets, 2 ways
        arr = CacheArray(cfg)
        blocks = [0x40 + i * 64 * cfg.num_sets for i in range(3)]  # same set
        for b in blocks[:2]:
            line = arr.find_free_or_victim(b, lambda l: True)
            assert not line.valid
            arr.install(line, b)
        victim = arr.find_free_or_victim(blocks[2], lambda l: True)
        assert victim.valid  # set is full: a victim must be offered
        assert victim.tag in blocks[:2]

    def test_pinned_lines_not_victimized(self):
        cfg = _cfg()
        arr = CacheArray(cfg)
        same_set = [64 * cfg.num_sets * i for i in range(3)]
        for b in same_set[:2]:
            line = arr.find_free_or_victim(b, lambda l: True)
            arr.install(line, b)
            line.pinned = True
        assert arr.find_free_or_victim(same_set[2], lambda l: True) is None

    def test_evictable_filter_respected(self):
        cfg = _cfg()
        arr = CacheArray(cfg)
        same_set = [64 * cfg.num_sets * i for i in range(3)]
        for b in same_set[:2]:
            line = arr.find_free_or_victim(b, lambda l: True)
            arr.install(line, b)
        victim = arr.find_free_or_victim(
            same_set[2], lambda l: l.tag == same_set[0]
        )
        assert victim.tag == same_set[0]

    def test_occupancy(self):
        arr = CacheArray(_cfg())
        assert arr.occupancy() == 0
        line = arr.find_free_or_victim(0, lambda l: True)
        arr.install(line, 0)
        assert arr.occupancy() == 1


class TestPlru:
    def test_two_way_victimizes_cold_way(self):
        t = _PlruTree(2)
        t.touch(0)
        assert t.victim(lambda w: True) == 1
        t.touch(1)
        assert t.victim(lambda w: True) == 0

    def test_single_way(self):
        t = _PlruTree(1)
        t.touch(0)
        assert t.victim(lambda w: True) == 0
        assert t.victim(lambda w: False) is None

    def test_victim_never_most_recent(self):
        for assoc in (2, 4, 8):
            t = _PlruTree(assoc)
            for w in range(assoc):
                t.touch(w)
                assert t.victim(lambda x: True) != w

    def test_fills_all_ways_before_reuse(self):
        """Starting cold and touching the chosen victim each time should
        cycle through every way before repeating (PLRU covers the set)."""
        for assoc in (2, 4, 8):
            t = _PlruTree(assoc)
            seen = []
            for _ in range(assoc):
                v = t.victim(lambda w: True)
                seen.append(v)
                t.touch(v)
            assert sorted(seen) == list(range(assoc))

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                    max_size=200))
    def test_victim_always_valid_way(self, touches):
        t = _PlruTree(8)
        for w in touches:
            t.touch(w)
            v = t.victim(lambda x: True)
            assert 0 <= v < 8

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                    max_size=100))
    def test_fallback_when_plru_way_blocked(self, touches):
        t = _PlruTree(4)
        for w in touches:
            t.touch(w)
        v = t.victim(lambda x: x == 2)
        assert v == 2


class TestLruBehaviour:
    def test_repeated_access_protects_line(self):
        """A hot block must survive a stream of conflicting fills."""
        cfg = _cfg(size=512, assoc=2, block=64)  # 4 sets
        arr = CacheArray(cfg)
        hot = 0x0
        line = arr.find_free_or_victim(hot, lambda l: True)
        arr.install(line, hot)
        stride = 64 * cfg.num_sets
        for i in range(1, 10):
            arr.lookup(hot)  # keep hot
            blk = stride * i
            v = arr.find_free_or_victim(blk, lambda l: True)
            if v.valid:
                assert v.tag != hot
                v.clear()
            arr.install(v, blk)
        assert arr.lookup(hot) is not None


def _index_exact(arr: CacheArray) -> bool:
    return arr.lines == {ln.tag: ln for ln in arr.iter_valid()}


class TestTagIndex:
    """``CacheArray.lines`` maps exactly the valid tags to their lines."""

    @given(st.lists(st.tuples(st.integers(0, 11), st.booleans()),
                    max_size=80))
    def test_exact_through_installs_and_evictions(self, ops):
        cfg = _cfg(size=512, assoc=4, block=64)  # 2 sets
        arr = CacheArray(cfg)
        for blk, drop in ops:
            block = blk * 64
            line = arr.lookup(block)
            if line is not None:
                if drop:
                    line.clear()
            else:
                line = arr.find_free_or_victim(block, lambda l: True)
                if line.valid:
                    line.clear()
                arr.install(line, block)
            assert _index_exact(arr)
            assert all(arr.lookup(t, touch=False).tag == t
                       for t in arr.lines)

    def test_reinstall_without_clear_drops_old_tag(self):
        arr = CacheArray(_cfg())
        line = arr.find_free_or_victim(0x40, lambda l: True)
        arr.install(line, 0x40)
        arr.install(line, 0x40 + 64 * arr.cfg.num_sets)
        assert arr.lookup(0x40) is None
        assert _index_exact(arr)

    def test_restore_refills_the_same_dict(self):
        arr = CacheArray(_cfg(assoc=4))
        for b in range(6):
            line = arr.find_free_or_victim(b * 64, lambda l: True)
            arr.install(line, b * 64)
            line.words = [b] * 16
        blob = arr.snapshot()
        index = arr.lines
        arr.lookup(0).clear()
        extra = arr.find_free_or_victim(0x4000, lambda l: True)
        arr.install(extra, 0x4000)
        arr.restore(blob)
        assert arr.lines is index
        assert _index_exact(arr)
        assert sorted(arr.lines) == [b * 64 for b in range(6)]
        assert arr.lookup(0x4000) is None
        assert arr.lookup(0).words == [0] * 16

    def test_ways_materialize_in_way_order(self):
        cfg = _cfg(size=512, assoc=4, block=64)
        arr = CacheArray(cfg)
        stride = 64 * cfg.num_sets
        got = []
        for i in range(4):
            line = arr.find_free_or_victim(i * stride, lambda l: True)
            arr.install(line, i * stride)
            got.append(line)
        assert list(arr.iter_lines()) == got
        # a cleared way is reused before any victim is chosen
        got[1].clear()
        assert arr.find_free_or_victim(9 * stride, lambda l: True) is got[1]


def test_l1_alias_survives_restore():
    """The L1 probes the array's dict through an alias; a restore must
    refill that dict, not replace it."""
    from tests.conftest import build_machine, run_scripts
    from repro.isa.instructions import Load, Store

    def writer():
        yield Store(0x4000, 5)
        yield Load(0x4040)

    def reader():
        yield Load(0x4000)

    m = build_machine(2)
    run_scripts(m, writer(), reader())
    l1 = m.l1s[0]
    blob = l1.snapshot()
    fresh = build_machine(2).l1s[0]
    fresh.restore(blob)
    assert fresh._lines is fresh.array.lines
    assert _index_exact(fresh.array)
    assert sorted(fresh._lines) == sorted(l1._lines)
    assert fresh.state_of(0x4000) == l1.state_of(0x4000)
    assert fresh.peek_word(0x4000) == l1.peek_word(0x4000)
