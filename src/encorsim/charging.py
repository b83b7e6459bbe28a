"""
Online charging: a central quota authority (OCS), edge quota caches
(Charging Proxies), and per-device enforcement counters at base stations.

Proxies fetch quota from the OCS in batch units and hand out sub-quotas;
base stations count usage and ask for more when the current grant nears
exhaustion. Every grant and consumption step is logged so conservation
(delivered <= grants at each tier <= initial balance) is checkable.
"""
from dataclasses import dataclass, field
from typing import NamedTuple


@dataclass
class Account:
    subscriber: int
    balance: int  # bytes remaining

    def __post_init__(self):
        # a NaN balance would make every grant from it NaN
        if not self.balance >= 0:
            raise ValueError(
                f"balance must be nonnegative, got {self.balance}")


class ChargingEvent(NamedTuple):
    """One ledger line; a tuple, made once per grant, sub-quota, delivery
    or cutoff and never changed."""
    time_us: int
    actor: str
    event: str
    subscriber: int
    nbytes: int


# builds a record from a tuple of its fields in one C call, skipping the
# class's generated Python `__new__`
_tuple_new = tuple.__new__


class ChargingLog:
    def __init__(self):
        self.events = []

    def record(self, time_us, actor, event, subscriber, nbytes):
        """Append one `ChargingEvent`, built with `tuple.__new__`: a
        ledger line holds the fields as given, so the class's generated
        `__new__` would only add a Python frame."""
        self.events.append(_tuple_new(
            ChargingEvent, (time_us, actor, event, subscriber, nbytes)))


class Ocs:
    """Central authority; the only place balances are decremented."""

    def __init__(self, accounts, log=None):
        self.accounts = {a.subscriber: a for a in accounts}
        self.log = log or ChargingLog()
        self.request_count = 0

    def grant(self, subscriber, requested, now_us=0):
        """Grant min(requested, balance); zero balance signals cutoff."""
        # a negative request would hand quota back to the account, and a
        # NaN one would make the balance NaN
        if not requested >= 0:
            raise ValueError(f"requested must be nonnegative, got {requested}")
        self.request_count += 1
        account = self.accounts.get(subscriber)
        if account is None:
            return 0
        balance = account.balance
        granted = balance if balance < requested else requested
        account.balance = balance - granted
        self.log.record(now_us, "ocs", "grant", subscriber, granted)
        return granted


class ChargingProxy:
    """Edge cache of OCS quota. Cached state is ephemeral: losing it
    forfeits the unreported remainder (never over-charges)."""

    DEFAULT_BATCH = 10 * 1024 * 1024

    def __init__(self, cp_id, ocs, batch_bytes=DEFAULT_BATCH, log=None):
        # a batch below one byte would return quota to the OCS, and a NaN
        # one would be granted as NaN
        if not batch_bytes >= 1:
            raise ValueError(
                f"batch_bytes must be at least 1, got {batch_bytes}")
        self.id = cp_id
        self.ocs = ocs
        self.batch_bytes = batch_bytes
        self.log = log or ocs.log
        self.cache = {}  # subscriber -> (granted, remaining)

    def subquota(self, subscriber, amount, now_us=0):
        """Serve a sub-quota from cache, refilling in batch units first
        if the cache cannot cover the request."""
        # a negative amount would leave more remaining than was granted,
        # and a NaN one would cache a NaN remainder
        if not amount >= 0:
            raise ValueError(f"amount must be nonnegative, got {amount}")
        granted, remaining = self.cache.get(subscriber, (0, 0))
        if remaining < amount:
            got = self.ocs.grant(subscriber, self.batch_bytes, now_us)
            granted += got
            remaining += got
        out = remaining if remaining < amount else amount
        remaining -= out
        self.cache[subscriber] = (granted, remaining)
        if out:
            self.log.record(now_us, self.id, "subquota", subscriber, out)
        return out

    def restart(self):
        """Simulated crash: all cached (unreported) quota is forfeited."""
        self.cache.clear()


@dataclass
class InbQuota:
    """Per-device enforcement counter at a base station."""
    subscriber: int
    granted: int = 0
    used: int = 0
    refill_threshold: float = 0.8
    subquota_bytes: int = 1024 * 1024
    cut_off: bool = False
    log: ChargingLog = field(default_factory=ChargingLog)

    def __post_init__(self):
        # a negative grant or usage makes no sense, and a NaN one would
        # never refill; a sub-quota below one byte would cut the device
        # off at once, whatever its balance
        for name, least in (("granted", 0), ("used", 0),
                            ("subquota_bytes", 1)):
            value = getattr(self, name)
            if not value >= least:
                raise ValueError(
                    f"{name} must be at least {least}, got {value!r}")

    def consume(self, nbytes, cp, now_us=0):
        """Count traffic against the grant; returns the bytes allowed.

        Refills from the proxy when usage crosses the threshold; traffic
        beyond an exhausted, non-refillable grant is rejected. The loop
        works in local copies of `granted` and `used`, written back in a
        `finally`: a proxy that raises mid-refill leaves the counters as
        far as the loop got.
        """
        if self.cut_off:
            return 0
        allowed = 0
        remaining = nbytes
        granted, used = self.granted, self.used
        threshold = self.refill_threshold
        try:
            while remaining > 0:
                headroom = granted - used
                if headroom > 0:
                    take = headroom if headroom < remaining else remaining
                    used += take
                    allowed += take
                    remaining -= take
                if granted == 0 or used >= threshold * granted:
                    got = cp.subquota(self.subscriber, self.subquota_bytes,
                                      now_us) if cp is not None else 0
                    if got == 0:
                        if used >= granted and remaining > 0:
                            self.cut_off = True
                            self.log.record(now_us, "inb", "cutoff",
                                            self.subscriber, 0)
                        break
                    granted += got
        finally:
            self.granted, self.used = granted, used
        if allowed:
            self.log.record(now_us, "inb", "deliver", self.subscriber, allowed)
        return allowed
