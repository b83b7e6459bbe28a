"""
Identifier-locator addressing and stateless NAT.

Addresses are 128 bits: the upper 64 bits are a routing locator and the
lower 64 bits uniquely identify the device. Base stations translate
between a device's private address and their own public prefix by
rewriting only the locator half, so no per-flow state is needed. A
short-TTL "recently moved" table lets the old base station redirect
in-flight downlink packets after a handover by rewriting the locator
once more.
"""
import enum
from typing import NamedTuple

MASK64 = (1 << 64) - 1

# Private locator: the 7-bit fc00::/7 pattern in the top bits, rest zero.
PRIVATE_PREFIX_BITS = 0b1111110
PRIVATE_LOCATOR = PRIVATE_PREFIX_BITS << 57


class _Halves(NamedTuple):
    locator: int
    identifier: int


class Addr128(_Halves):
    """A (locator, identifier) pair, each half in [0, 2**64). A tuple, so
    immutable and hashed by its halves; `__new__` checks the ranges, and
    `_make`, through which `_replace` goes, calls it."""
    __slots__ = ()

    def __new__(cls, locator, identifier):
        if not 0 <= locator <= MASK64:
            raise ValueError("locator out of 64-bit range")
        if not 0 <= identifier <= MASK64:
            raise ValueError("identifier out of 64-bit range")
        return tuple.__new__(cls, (locator, identifier))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def is_private(self):
        return (self.locator >> 57) == PRIVATE_PREFIX_BITS


def assign_private_addr(subscriber_id):
    """Deterministic private address for a subscriber: identifier = id."""
    if subscriber_id == 0:
        raise ValueError("subscriber id must be nonzero")
    if not 0 < subscriber_id <= MASK64:
        raise ValueError("subscriber id out of 64-bit range")
    return Addr128(PRIVATE_LOCATOR, subscriber_id)


def nat_uplink(src, inb_locator):
    """Rewrite a private source locator to the base station's public prefix.

    Non-private sources pass through unchanged.
    """
    if not src.is_private():
        return src
    return Addr128(inb_locator, src.identifier)


class Decision(enum.Enum):
    DELIVER = "deliver"
    FORWARD = "forward"
    DROP = "drop"


# How long an old base station forwards for a device that moved away: a
# small number of RTTs
FORWARDING_TTL_US = 2_000_000


class RecentlyMovedTable:
    """identifier -> (target locator, expiry time). Entries expire at their
    expiry instant; lookups purge anything stale."""

    DEFAULT_TTL_US = FORWARDING_TTL_US

    def __init__(self):
        self.entries = {}

    def record_move(self, identifier, target_locator, now):
        self.entries[identifier] = (target_locator, now + self.DEFAULT_TTL_US)

    def lookup(self, identifier, now):
        """Returns the target locator, or None if absent or expired."""
        entry = self.entries.get(identifier)
        if entry is None:
            return None
        target, expiry = entry
        if now >= expiry:
            del self.entries[identifier]
            return None
        return target


def nat_downlink(dst, attached_ids, moved, now):
    """Decide what to do with a downlink packet addressed to this prefix.

    Returns (Decision, rewritten address or None). Attached devices get
    their private locator restored; recently moved ones are forwarded with
    the locator rewritten to the new base station; everything else drops.
    """
    if dst.identifier in attached_ids:
        return Decision.DELIVER, Addr128(PRIVATE_LOCATOR, dst.identifier)
    target = moved.lookup(dst.identifier, now) if moved is not None else None
    if target is not None:
        return Decision.FORWARD, Addr128(target, dst.identifier)
    return Decision.DROP, None
