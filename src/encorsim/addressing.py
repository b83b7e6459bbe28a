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


# builds an address from two checked halves in one C call, skipping
# `Addr128.__new__`'s checks
_tuple_new = tuple.__new__


class Addr128(_Halves):
    """A (locator, identifier) pair, each half an int in [0, 2**64). A
    tuple, so immutable and hashed by its halves.

    The class call is the constructor for values from outside: `__new__`
    checks both halves, and `_make`, through which `_replace` goes, calls
    it. A half is checked once, where it enters the program;
    `assign_private_addr` and `nat_downlink` build their addresses from
    halves already checked, with `tuple.__new__`."""
    __slots__ = ()

    def __new__(cls, locator, identifier):
        if type(locator) is not int:
            raise ValueError(f"locator must be an int, got {locator!r}")
        if not 0 <= locator <= MASK64:
            raise ValueError("locator out of 64-bit range")
        if type(identifier) is not int:
            raise ValueError(f"identifier must be an int, got {identifier!r}")
        if not 0 <= identifier <= MASK64:
            raise ValueError("identifier out of 64-bit range")
        return _tuple_new(cls, (locator, identifier))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def is_private(self):
        return (self.locator >> 57) == PRIVATE_PREFIX_BITS


def assign_private_addr(subscriber_id):
    """Deterministic private address for a subscriber: identifier = id."""
    if type(subscriber_id) is not int:
        raise ValueError(
            f"subscriber id must be an int, got {subscriber_id!r}")
    if subscriber_id == 0:
        raise ValueError("subscriber id must be nonzero")
    if not 0 < subscriber_id <= MASK64:
        raise ValueError("subscriber id out of 64-bit range")
    # both halves are checked: the constant locator and the id above
    return _tuple_new(Addr128, (PRIVATE_LOCATOR, subscriber_id))


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


# the members, read once: an enum member read costs about 95 ns on
# Python 3.11, and `nat_downlink` returns one per packet
_DELIVER, _FORWARD, _DROP = Decision.DELIVER, Decision.FORWARD, Decision.DROP

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
        """Forward for `identifier` to `target_locator` until `now` plus
        the TTL. Both halves are checked here, where they enter the
        table, so `nat_downlink` builds its FORWARD address from them
        unchecked; a bad half raises ValueError naming it, and nothing is
        stored. So does a `now` that is not whole microseconds: a NaN
        expiry would never pass, and forward forever. A negative `now`
        is a valid instant."""
        if type(identifier) is not int or not 0 <= identifier <= MASK64:
            raise ValueError("identifier must be an int in [0, 2**64),"
                             f" got {identifier!r}")
        if type(target_locator) is not int \
                or not 0 <= target_locator <= MASK64:
            raise ValueError("target_locator must be an int in [0, 2**64),"
                             f" got {target_locator!r}")
        if type(now) is not int:
            raise ValueError(f"now must be an int, got {now!r}")
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

    Both rewritten addresses are built with `tuple.__new__` from checked
    halves: `dst.identifier` is an `Addr128`'s half, found in
    `attached_ids` or in `moved`. `attached_ids` holds only identifiers of
    checked addresses, which `control.attach` and the handovers put
    there, and `moved` only halves that `record_move` checked.
    """
    ident = dst.identifier
    if ident in attached_ids:
        return _DELIVER, _tuple_new(Addr128, (PRIVATE_LOCATOR, ident))
    target = moved.lookup(ident, now) if moved is not None else None
    if target is not None:
        return _FORWARD, _tuple_new(Addr128, (target, ident))
    return _DROP, None
