import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from encorsim.charging import Account, ChargingLog, ChargingProxy, InbQuota, Ocs

MB = 1024 * 1024


def make_tier(balance, batch_bytes=ChargingProxy.DEFAULT_BATCH,
              subquota_bytes=MB):
    log = ChargingLog()
    ocs = Ocs([Account(1, balance)], log=log)
    cp = ChargingProxy("cp", ocs, batch_bytes=batch_bytes, log=log)
    inb = InbQuota(1, subquota_bytes=subquota_bytes, log=log)
    return ocs, cp, inb, log


def test_grant_is_min_of_request_and_balance():
    ocs = Ocs([Account(1, 100)])
    assert ocs.grant(1, 60) == 60
    assert ocs.grant(1, 60) == 40
    assert ocs.grant(1, 60) == 0
    assert ocs.accounts[1].balance == 0


def test_grant_unknown_subscriber_is_zero():
    ocs = Ocs([])
    assert ocs.grant(7, 100) == 0


def test_negative_balance_rejected():
    with pytest.raises(ValueError):
        Account(1, -1)


def test_nan_balance_rejected():
    # a NaN balance would make the whole request granted and the balance
    # stay NaN
    with pytest.raises(ValueError, match="balance must be nonnegative"):
        Account(1, math.nan)


def test_batching_amortizes_ocs_requests():
    # five 2 MB sub-quotas fit one 10 MB batch: exactly one OCS round trip
    ocs, cp, _, _ = make_tier(balance=100 * MB)
    for _ in range(5):
        assert cp.subquota(1, 2 * MB) == 2 * MB
    assert ocs.request_count == 1
    # the sixth exceeds the cached batch and triggers a refill
    assert cp.subquota(1, 2 * MB) == 2 * MB
    assert ocs.request_count == 2


def test_proxy_serves_partial_when_balance_short():
    ocs, cp, _, _ = make_tier(balance=3 * MB)
    assert cp.subquota(1, 2 * MB) == 2 * MB
    assert cp.subquota(1, 2 * MB) == 1 * MB
    assert cp.subquota(1, 2 * MB) == 0


def test_proxy_restart_forfeits_cache_without_overcharge():
    ocs, cp, _, _ = make_tier(balance=20 * MB)
    cp.subquota(1, 2 * MB)  # pulls a 10 MB batch, 8 MB cached
    cp.restart()
    # forfeited quota stays decremented at the OCS -- never over-charges
    assert ocs.accounts[1].balance == 10 * MB
    assert cp.subquota(1, 2 * MB) == 2 * MB
    assert ocs.request_count == 2


def test_inb_threshold_refill():
    # 1 MB sub-quotas, refill at 80% usage: a consume that crosses the
    # threshold tops the grant up before the next call
    ocs, cp, inb, _ = make_tier(balance=100 * MB)
    assert inb.consume(800_000, cp) == 800_000  # below 0.8 * 1 MiB
    assert inb.granted == MB
    assert inb.consume(100_000, cp) == 100_000  # crosses the threshold
    assert inb.granted == 2 * MB


def test_inb_consume_exact_accounting():
    ocs, cp, inb, _ = make_tier(balance=100 * MB)
    total = 0
    for _ in range(50):
        total += inb.consume(300_000, cp)
    assert total == 50 * 300_000
    assert inb.used == total


def test_cutoff_when_everything_exhausted():
    ocs, cp, inb, log = make_tier(balance=int(1.5 * MB))
    delivered = inb.consume(3 * MB, cp)
    assert delivered == int(1.5 * MB)
    assert inb.cut_off
    assert inb.consume(1, cp) == 0
    assert any(e.event == "cutoff" for e in log.events)


def test_cutoff_subscriber_stays_cut_off():
    ocs, cp, inb, _ = make_tier(balance=MB)
    inb.consume(2 * MB, cp)
    assert inb.cut_off
    # even a fresh balance does not resurrect this enforcement point
    ocs.accounts[1].balance = 10 * MB
    assert inb.consume(100, cp) == 0


def _conservation(ocs_balance, chunks, seed):
    rng = random.Random(seed)
    ocs, cp, inb, log = make_tier(balance=ocs_balance)
    delivered = 0
    for _ in range(chunks):
        delivered += inb.consume(rng.randrange(1, 500_000), cp)
    granted = sum(e.nbytes for e in log.events
                  if e.actor == "ocs" and e.event == "grant")
    sub = sum(e.nbytes for e in log.events
              if e.actor == "cp" and e.event == "subquota")
    assert delivered <= sub <= granted <= ocs_balance
    assert granted == ocs_balance - ocs.accounts[1].balance
    assert delivered == inb.used == sum(
        e.nbytes for e in log.events
        if e.actor == "inb" and e.event == "deliver")


@pytest.mark.parametrize("seed", range(5))
def test_conservation_randomized_workload(seed):
    _conservation(ocs_balance=7 * MB, chunks=60, seed=seed)


@given(balance=st.integers(min_value=0, max_value=4 * MB),
       sizes=st.lists(st.integers(min_value=1, max_value=MB), max_size=20))
def test_conservation_property(balance, sizes):
    ocs, cp, inb, log = make_tier(balance=balance)
    delivered = sum(inb.consume(n, cp) for n in sizes)
    assert delivered <= balance
    assert delivered == inb.used
    assert ocs.accounts[1].balance >= 0


@pytest.mark.parametrize("batch_bytes", [0, -500, math.nan])
def test_proxy_rejects_batch_below_one_byte(batch_bytes):
    # a batch of -500 would make subquota return -500 and raise the OCS
    # balance to 1500
    ocs = Ocs([Account(1, 1000)])
    with pytest.raises(ValueError, match="batch_bytes"):
        ChargingProxy("cp", ocs, batch_bytes=batch_bytes)
    assert ocs.accounts[1].balance == 1000


def test_ocs_rejects_negative_grant():
    # a grant of -500 would return -500 and raise the balance to 1500
    ocs = Ocs([Account(1, 1000)])
    with pytest.raises(ValueError, match="requested"):
        ocs.grant(1, -500)
    assert ocs.accounts[1].balance == 1000


def test_ocs_rejects_nan_grant():
    # a NaN request would be granted as NaN and make the balance NaN
    ocs = Ocs([Account(1, 1000)])
    with pytest.raises(ValueError, match="requested"):
        ocs.grant(1, math.nan)
    assert (ocs.accounts[1].balance, ocs.request_count) == (1000, 0)


def test_proxy_rejects_nan_subquota():
    # a NaN amount would cache a NaN remainder
    ocs, cp, _, _ = make_tier(balance=1000, batch_bytes=100)
    assert cp.subquota(1, 50) == 50
    with pytest.raises(ValueError, match="amount"):
        cp.subquota(1, math.nan)
    assert cp.cache[1] == (100, 50)
    assert ocs.request_count == 1


def test_each_tier_hands_out_the_whole_request_at_a_tie():
    # at requested == balance, amount == remaining and remaining ==
    # headroom each tier hands out the whole request, as min(), which
    # returns its first argument at a tie, did
    ocs = Ocs([Account(1, 100)])
    granted = ocs.grant(1, 100.0)
    assert (granted, type(granted), ocs.accounts[1].balance) \
        == (100.0, float, 0)
    ocs, cp, _, _ = make_tier(balance=1000, batch_bytes=100)
    assert cp.subquota(1, 40) == 40
    assert cp.subquota(1, 60) == 60  # the cache's 60, no refill
    assert (cp.cache[1], ocs.request_count) == ((100, 0), 1)
    inb = InbQuota(1, granted=100)
    assert inb.consume(100, None) == 100
    assert (inb.used, inb.cut_off) == (100, False)


def test_proxy_rejects_negative_subquota():
    # a subquota of -100 would leave more remaining than was granted
    ocs, cp, _, _ = make_tier(balance=1000, batch_bytes=100)
    assert cp.subquota(1, 50) == 50
    with pytest.raises(ValueError, match="amount"):
        cp.subquota(1, -100)
    assert cp.cache[1] == (100, 50)


@pytest.mark.parametrize("field, value", [
    ("granted", -100), ("granted", math.nan), ("used", -1),
    ("used", math.nan), ("subquota_bytes", 0), ("subquota_bytes", -5),
    ("subquota_bytes", math.nan),
])
def test_inb_quota_refuses_a_bad_size(field, value):
    # a zero sub-quota cut a subscriber off at its first consume, whatever
    # its balance, and a negative one failed only inside the proxy
    with pytest.raises(ValueError, match=f"^{field} must be at least"):
        InbQuota(1, **{field: value})


def parent_consume(self, nbytes, cp, now_us=0):
    """`InbQuota.consume` as it was before it worked in local variables,
    kept as the reference the current one must match."""
    if self.cut_off:
        return 0
    allowed = 0
    remaining = nbytes
    while remaining > 0:
        headroom = self.granted - self.used
        if headroom > 0:
            take = headroom if headroom < remaining else remaining
            self.used += take
            allowed += take
            remaining -= take
        if self.granted == 0 or self.used >= self.refill_threshold * self.granted:
            got = cp.subquota(self.subscriber, self.subquota_bytes, now_us) \
                if cp is not None else 0
            if got == 0:
                if self.used >= self.granted and remaining > 0:
                    self.cut_off = True
                    self.log.record(now_us, "inb", "cutoff",
                                    self.subscriber, 0)
                break
            self.granted += got
    if allowed:
        self.log.record(now_us, "inb", "deliver", self.subscriber, allowed)
    return allowed


class FailingProxy(ChargingProxy):
    """A proxy whose second `subquota` raises."""

    calls = 0

    def subquota(self, subscriber, amount, now_us=0):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("proxy down")
        return super().subquota(subscriber, amount, now_us)


def run_consumes(consume, proxy, balance, batch_bytes, quota_fields, sizes):
    """Each consume's result (or the error it raised), the quota's final
    counters and the ledger, for one tier."""
    log = ChargingLog()
    ocs = Ocs([Account(1, balance)], log=log)
    cp = None if proxy is None else proxy("cp", ocs, batch_bytes, log=log)
    quota = InbQuota(1, log=log, **quota_fields)
    results = []
    for now_us, nbytes in enumerate(sizes):
        try:
            results.append(consume(quota, nbytes, cp, now_us))
        except RuntimeError as exc:
            results.append(str(exc))
    return results, quota.granted, quota.used, quota.cut_off, log.events


@settings(max_examples=100, derandomize=True, deadline=None)
@given(proxy=st.sampled_from([ChargingProxy, FailingProxy, None]),
       balance=st.integers(0, 8 * MB), batch_bytes=st.integers(1, 4 * MB),
       granted=st.integers(0, 2 * MB), used=st.integers(0, 2 * MB),
       refill_threshold=st.floats(0.0, 1.0),
       subquota_bytes=st.integers(1, 2 * MB),
       sizes=st.lists(st.integers(0, 3 * MB), max_size=8))
def test_consume_matches_the_reference_loop(proxy, balance, batch_bytes,
                                            granted, used, refill_threshold,
                                            subquota_bytes, sizes):
    fields = {"granted": granted, "used": used,
              "refill_threshold": refill_threshold,
              "subquota_bytes": subquota_bytes}
    tier = (proxy, balance, batch_bytes, fields, sizes)
    assert run_consumes(InbQuota.consume, *tier) \
        == run_consumes(parent_consume, *tier)
