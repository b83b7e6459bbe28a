import re

import pytest
from hypothesis import given, settings, strategies as st

from encorsim.addressing import (
    Addr128, Decision, PRIVATE_LOCATOR, RecentlyMovedTable,
    assign_private_addr, nat_downlink, nat_uplink,
)

INB_PREFIX = 0x2001_0DB8_0000_0001

ids64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
locators = st.integers(min_value=0, max_value=(1 << 64) - 1)


def test_assign_identity_of_lower_half():
    addr = assign_private_addr(1)
    assert addr.locator == PRIVATE_LOCATOR
    assert addr.identifier == 1


def test_assign_injective_and_deterministic():
    assert assign_private_addr(1) != assign_private_addr(2)
    assert assign_private_addr(7) == assign_private_addr(7)


def test_assign_rejects_zero():
    with pytest.raises(ValueError):
        assign_private_addr(0)


@pytest.mark.parametrize("subscriber_id", [True, 1.5, "1", None])
def test_assign_rejects_a_subscriber_id_that_is_not_an_int(subscriber_id):
    # True == 1 and 1.5 is in range, but neither is an identifier
    with pytest.raises(ValueError, match="^subscriber id must be an int"):
        assign_private_addr(subscriber_id)


def test_uplink_definitional():
    out = nat_uplink(Addr128(PRIVATE_LOCATOR, 0x42), INB_PREFIX)
    assert out == Addr128(INB_PREFIX, 0x42)


@given(ident=st.integers(min_value=1, max_value=(1 << 64) - 1))
def test_uplink_preserves_identifier(ident):
    out = nat_uplink(assign_private_addr(ident), INB_PREFIX)
    assert out.identifier == ident


@given(ident=st.integers(min_value=1, max_value=(1 << 64) - 1),
       prefix=locators)
def test_round_trip_restores_private_address(ident, prefix):
    a = assign_private_addr(ident)
    public = nat_uplink(a, prefix)
    decision, restored = nat_downlink(public, {ident}, RecentlyMovedTable(), 0)
    assert decision is Decision.DELIVER
    assert restored == a


def test_nonprivate_uplink_passes_through():
    src = Addr128(0x2600_0000_0000_0000, 5)
    assert nat_uplink(src, INB_PREFIX) == src


def test_downlink_moved_entry_forwards_with_rewritten_locator():
    moved = RecentlyMovedTable()
    target = 0x2001_0DB8_0000_0099
    moved.record_move(0x42, target, now=0)
    decision, out = nat_downlink(Addr128(INB_PREFIX, 0x42), set(), moved,
                                 RecentlyMovedTable.DEFAULT_TTL_US // 2)
    assert decision is Decision.FORWARD
    assert out == Addr128(target, 0x42)


def test_downlink_unknown_id_drops():
    decision, out = nat_downlink(Addr128(INB_PREFIX, 0x99), set(),
                                 RecentlyMovedTable(), 0)
    assert decision is Decision.DROP
    assert out is None


def test_moved_table_hit_before_expiry_miss_at_expiry():
    moved = RecentlyMovedTable()
    ttl = RecentlyMovedTable.DEFAULT_TTL_US
    moved.record_move(7, 0xAA, now=100)
    assert moved.lookup(7, 100 + ttl - 1) == 0xAA
    assert moved.lookup(7, 100 + ttl) is None


def test_moved_table_reinsert_overwrites():
    moved = RecentlyMovedTable()
    moved.record_move(7, 0xAA, now=0)
    moved.record_move(7, 0xBB, now=10)
    assert moved.lookup(7, RecentlyMovedTable.DEFAULT_TTL_US // 2) == 0xBB
    assert list(moved.entries) == [7]


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=(1 << 64) - 1),
                          locators), max_size=50))
def test_uplink_is_stateless(flows):
    # output depends only on (packet, prefix), however flows interleave
    expected = {}
    for ident, prefix in flows:
        out = nat_uplink(assign_private_addr(ident), prefix)
        key = (ident, prefix)
        if key in expected:
            assert out == expected[key]
        expected[key] = out


@given(ident=ids64, prefix=locators, target=locators)
def test_forwarding_rewrites_only_destination_locator(ident, prefix, target):
    moved = RecentlyMovedTable()
    moved.record_move(ident, target, now=0)
    decision, out = nat_downlink(Addr128(prefix, ident), set(), moved, 1)
    assert decision is Decision.FORWARD
    assert out.identifier == ident  # lower 64 bits untouched


@pytest.mark.parametrize("half", ["locator", "identifier"])
def test_addr128_range_checks_immutability_and_hash(half):
    other = "identifier" if half == "locator" else "locator"
    for value in (0, (1 << 64) - 1):
        addr = Addr128(**{half: value, other: 1})
        assert getattr(addr, half) == value
        replaced = Addr128(**{half: 5, other: 1})._replace(**{half: value})
        assert type(replaced) is Addr128 and replaced == addr
    # `_replace` goes through `_make`, and both check the ranges and
    # that a half is an int
    for value, message in [(-1, f"{half} out of 64-bit range"),
                           (1 << 64, f"{half} out of 64-bit range"),
                           (1.5, f"{half} must be an int, got 1.5"),
                           (True, f"{half} must be an int, got True"),
                           ("1", f"{half} must be an int, got '1'")]:
        halves = {half: value, other: 1}
        for make in (lambda: Addr128(**halves),
                     lambda: Addr128(1, 2)._replace(**{half: value}),
                     lambda: Addr128._make(map(halves.get, Addr128._fields))):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make()
    addr = Addr128(PRIVATE_LOCATOR, 7)
    with pytest.raises(AttributeError):
        setattr(addr, half, 8)
    assert (addr.locator, addr.identifier) == (PRIVATE_LOCATOR, 7)
    twin = Addr128(PRIVATE_LOCATOR, 7)
    assert twin == addr and hash(twin) == hash(addr)
    assert {addr: "x"}[twin] == "x"
    assert Addr128(PRIVATE_LOCATOR, 8) != addr


@settings(max_examples=100, derandomize=True, deadline=None)
@given(half=st.sampled_from(["identifier", "target_locator"]),
       bad=st.one_of(st.integers(max_value=-1),
                     st.integers(min_value=1 << 64), st.floats(),
                     st.booleans(), st.text(max_size=2), st.none()))
def test_record_move_refuses_a_bad_half_and_stores_nothing(half, bad):
    moved = RecentlyMovedTable()
    moved.record_move(5, 9, now=0)
    halves = {"identifier": 7, "target_locator": 8, half: bad}
    with pytest.raises(ValueError, match=f"^{half} must be an int in"):
        moved.record_move(now=10, **halves)
    assert moved.entries == {5: (9, RecentlyMovedTable.DEFAULT_TTL_US)}


@pytest.mark.parametrize("now", [float("nan"), 1.5, True, 10.0])
def test_record_move_refuses_a_now_that_is_not_whole_us(now):
    # a NaN expiry never passes, so the entry would forward forever
    moved = RecentlyMovedTable()
    moved.record_move(5, 9, now=0)
    with pytest.raises(ValueError, match="^now must be an int, got "):
        moved.record_move(7, 8, now=now)
    assert moved.entries == {5: (9, RecentlyMovedTable.DEFAULT_TTL_US)}
    assert moved.lookup(7, 10**15) is None


def test_record_move_takes_a_negative_now():
    moved = RecentlyMovedTable()
    moved.record_move(7, 8, now=-5)
    assert moved.lookup(7, RecentlyMovedTable.DEFAULT_TTL_US - 6) == 8
    assert moved.lookup(7, RecentlyMovedTable.DEFAULT_TTL_US - 5) is None
