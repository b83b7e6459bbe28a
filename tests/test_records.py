"""The records and addresses a procedure builds with `tuple.__new__` equal
the ones its class call builds from the same values: in type, fields,
equality, hash and repr."""
from hypothesis import given, settings, strategies as st

from encorsim.addressing import (
    Addr128, Decision, PRIVATE_LOCATOR, RecentlyMovedTable,
    assign_private_addr, nat_downlink,
)
from encorsim.charging import ChargingEvent, ChargingLog
from encorsim.security import (
    AuthVector, Autn, SessionKeys, SubscriberRecord, chain_k_enb,
    derive_k_enb, generate_auth_vector, prf,
)

FAST = settings(max_examples=40, derandomize=True, deadline=None)
keys128 = st.binary(min_size=16, max_size=16)
halves = st.integers(min_value=0, max_value=(1 << 64) - 1)


def assert_same_record(fast, checked):
    assert type(fast) is type(checked)
    assert fast._asdict() == checked._asdict()
    assert fast == checked and hash(fast) == hash(checked)
    assert repr(fast) == repr(checked)


@FAST
@given(k=keys128, rand=keys128, sqn=st.integers(0, (1 << 63) - 1),
       ncc=st.integers(0, 1 << 32))
def test_security_records_equal_the_class_built_ones(k, rand, sqn, ncc):
    vector = generate_auth_vector(SubscriberRecord(imsi=1, k=k, sqn=sqn),
                                  rand)
    checked = AuthVector(rand=rand, xres=prf(k, "res", rand),
                         autn=Autn(sqn=sqn, mac=prf(k, "autn", rand, sqn)),
                         k_asme=prf(k, "asme", rand, sqn))
    assert_same_record(vector, checked)
    assert_same_record(vector.autn, checked.autn)
    assert_same_record(derive_k_enb(vector.k_asme),
                       SessionKeys(k_enb=prf(vector.k_asme, "enb", 0), ncc=0))
    assert_same_record(chain_k_enb(SessionKeys(k, ncc)),
                       SessionKeys(k_enb=prf(k, "chain", ncc + 1),
                                   ncc=ncc + 1))


@FAST
@given(time_us=st.integers(0, 1 << 40),
       actor=st.sampled_from(["ocs", "cp", "inb"]),
       event=st.sampled_from(["grant", "subquota", "deliver", "cutoff"]),
       subscriber=halves, nbytes=st.integers(0, 1 << 40))
def test_a_ledger_line_equals_the_class_built_one(time_us, actor, event,
                                                  subscriber, nbytes):
    log = ChargingLog()
    log.record(time_us, actor, event, subscriber, nbytes)
    (line,) = log.events
    assert_same_record(line, ChargingEvent(time_us=time_us, actor=actor,
                                           event=event,
                                           subscriber=subscriber,
                                           nbytes=nbytes))


@FAST
@given(ident=halves, prefix=halves, target=halves)
def test_nat_addresses_equal_the_checked_ones(ident, prefix, target):
    dst = Addr128(prefix, ident)
    decision, delivered = nat_downlink(dst, {ident}, None, 0)
    assert decision is Decision.DELIVER
    assert_same_record(delivered, Addr128(PRIVATE_LOCATOR, ident))
    moved = RecentlyMovedTable()
    moved.record_move(ident, target, now=0)
    decision, forwarded = nat_downlink(dst, set(), moved, 1)
    assert decision is Decision.FORWARD
    assert_same_record(forwarded, Addr128(target, ident))
    if ident:
        assert_same_record(assign_private_addr(ident),
                           Addr128(PRIVATE_LOCATOR, ident))
