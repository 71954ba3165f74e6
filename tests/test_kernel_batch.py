"""Unit tests for the batched kernel's data plumbing: checkout/checkin
over a cache's ``CacheBlock`` objects, the flat block-number maps, and the
exact-type policy dispatch."""

from __future__ import annotations

from repro.cache.cache import Cache


def test_checkout_checkin_round_trip():
    from repro.kernel.batch import _checkin, _checkout

    cache = Cache("L2", 256, 2, tech="stt", sram_ways=1)  # 2 sets x 2 ways
    cset = cache.sets[1]
    blk = cset.blocks[1]
    cset.install(blk, 3, dirty=True, loop_bit=True, now=5)
    blk.insert_seq = 4

    state = _checkout(cache)
    assert state["tag"][3] == 3  # slot = set*assoc + way = 3
    assert state["valid"] == [False, False, False, True]
    assert state["maps"] == [{}, {3: 3}]
    assert state["loop_counts"] == [0, 1]
    assert (state["last"][3], state["iseq"][3]) == (5, 4)

    # mutate through the flat lists, as the batch kernel does: clean the
    # line, refresh its stamp, and fill way 0 of set 0
    state["dirty"][3] = False
    state["last"][3] = 9
    state["tag"][0], state["valid"][0], state["last"][0] = 7, True, 8
    state["maps"][0] = {7: 0}
    _checkin(cache, state)

    assert blk.dirty is False
    assert blk.last_access == 9
    assert cset.tag_map == {3: blk}
    assert cset.loop_count == 1
    # written in place: the set still owns the very same block objects
    assert cset.blocks[1] is blk and blk.cset is cset
    new = cache.sets[0].blocks[0]
    assert (new.tag, new.valid, new.last_access) == (7, True, 8)
    assert cache.peek(cache.addr_of(0, 7)) is new
    assert cache.occupancy() == 2
    assert cache.loop_block_occupancy() == (2, 1)
    # way technologies are geometry, never checked out
    assert [b.tech for b in cset.blocks] == cache.way_techs == ["sram", "stt"]


def test_flat_map_round_trip():
    from repro.kernel.batch import _blk_shadow, _flatten_maps, _unflatten_maps

    idx_bits, num_sets = 2, 4
    per_set = [{}, {5: 1}, {7: 2, 1: 3}, {}]
    flat = _flatten_maps(per_set, idx_bits)
    assert flat == {(5 << 2) | 1: 1, (7 << 2) | 2: 2, (1 << 2) | 2: 3}
    assert _unflatten_maps(flat, num_sets, num_sets - 1, idx_bits) == per_set
    shadow = _blk_shadow(flat, 8)
    for blk_no, slot in flat.items():
        assert shadow[slot] == blk_no


def test_kernel_mode_exact_policy_types():
    from repro.core.policies import make_policy
    from repro.kernel.batch import MODE_EX, MODE_LAP, MODE_NONI, kernel_mode

    assert kernel_mode(make_policy("non-inclusive")) == MODE_NONI
    assert kernel_mode(make_policy("exclusive")) == MODE_EX
    assert kernel_mode(make_policy("lap")) == MODE_LAP
    assert kernel_mode(make_policy("lap-lru")) == MODE_LAP
    # srrip baseline has no kernel flow; subclasses/others fall back
    assert kernel_mode(make_policy("lap-rrip")) is None
    assert kernel_mode(make_policy("inclusive")) is None
    assert kernel_mode(make_policy("flexclusion")) is None
    assert kernel_mode(make_policy("lhybrid")) is None
