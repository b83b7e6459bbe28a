"""
Abstracted SIM-based mutual authentication and session-key lifecycle.

Follows the shape of LTE-AKA: a permanent per-subscriber secret K plus a
strictly increasing sequence number SQN for replay protection, a derived
anchor key, and a per-base-station session key that is cycled forward via
a chaining counter (NCC) on core-assisted handover. The PRF is a keyed
hash over domain-separated labels, not the 3GPP cipher internals: RFC 2104
HMAC-SHA256, truncated to 128 bits and computed in one pass (see `prf`).
The records each procedure makes (`Autn`, `AuthVector`, `SessionKeys`)
are named tuples. Calling a `NamedTuple` class runs the Python `__new__`
that `collections.namedtuple` generates; `tuple.__new__(Cls, values)` is
the C call that `__new__` ends in. The procedures here build their
records with the C call, from values they made themselves; the class
call stays the public constructor.
"""
import hmac
from hashlib import sha256
from dataclasses import dataclass
from typing import NamedTuple

KEY_BYTES = 16


class AuthError(Exception):
    """Authentication failed; the message names the cause."""


class ReplayError(AuthError):
    """SQN outside the acceptance window: replayed or stale challenge."""


class NetworkAuthError(AuthError):
    """AUTN MAC check failed: the network could not prove knowledge of K."""


_BLOCK = 64  # SHA-256 block size in bytes
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def prf(key, label, *parts):
    """Keyed PRF: RFC 2104 HMAC-SHA256 over the domain-separated message
    ``label | part | ...`` (int parts as 8 big-endian bytes), truncated to
    128 bits.

    Computed in one pass: the key is padded to the 64-byte block (hashed
    first if longer), XORed with ipad and opad by `bytes.translate`, and
    the message is joined before hashing. The output equals
    `hmac.new(key, message, sha256).digest()[:16]`, but skips the Python
    layers `hmac.new` walks on every call (`__init__`, two `update`s per
    part, `digest`), about 30% of a call's time (2.6 against 3.7 µs,
    Python 3.11 on a shared Xeon). One `handover_signalling` bench round
    makes 24,729 calls.
    """
    msg = label.encode()
    for part in parts:
        if isinstance(part, int):
            part = part.to_bytes(8, "big")
        msg += b"|" + part
    if len(key) > _BLOCK:
        key = sha256(key).digest()
    key = key.ljust(_BLOCK, b"\0")
    inner = sha256(key.translate(_IPAD) + msg).digest()
    return sha256(key.translate(_OPAD) + inner).digest()[:KEY_BYTES]


@dataclass
class SubscriberRecord:
    imsi: int
    k: bytes
    sqn: int = 0
    qci_profile: int = 9

    def __post_init__(self):
        if len(self.k) != KEY_BYTES:
            raise ValueError("K must be 128 bits")
        if not 1 <= self.qci_profile <= 9:
            raise ValueError("QCI must be in 1..9")


class Autn(NamedTuple):
    sqn: int
    mac: bytes


class AuthVector(NamedTuple):
    rand: bytes
    xres: bytes
    autn: Autn
    k_asme: bytes


class SessionKeys(NamedTuple):
    k_enb: bytes
    ncc: int


# builds a record from a tuple of its fields in one C call, skipping the
# class's generated Python `__new__`
_tuple_new = tuple.__new__


def generate_auth_vector(rec, rand):
    """Build an auth vector from the subscriber's K and current SQN.

    Advances rec.sqn, so each vector binds a fresh sequence number.
    """
    sqn = rec.sqn
    xres = prf(rec.k, "res", rand)
    mac = prf(rec.k, "autn", rand, sqn)
    k_asme = prf(rec.k, "asme", rand, sqn)
    rec.sqn = sqn + 1
    return _tuple_new(AuthVector,
                      (rand, xres, _tuple_new(Autn, (sqn, mac)), k_asme))


def ue_process_challenge(k, ue_sqn, rand, autn):
    """UE side of the challenge. Acceptance window is exact-next-value.

    Returns (RES, new ue_sqn); raises NetworkAuthError on a bad MAC and
    ReplayError on a reused or out-of-window SQN.
    """
    expected_mac = prf(k, "autn", rand, autn.sqn)
    if not hmac.compare_digest(expected_mac, autn.mac):
        raise NetworkAuthError("AUTN MAC mismatch")
    if autn.sqn != ue_sqn:
        raise ReplayError(f"SQN {autn.sqn} not the expected {ue_sqn}")
    res = prf(k, "res", rand)
    return res, ue_sqn + 1


def authenticate(rec, ue, rng):
    """One AKA leg: challenge the device with a fresh RAND from rng, check
    its response and derive its session key. Advances both SQNs.

    Returns (vector, RES, SessionKeys); raises AuthError on failure.
    """
    rand = rng.getrandbits(128).to_bytes(KEY_BYTES, "big")
    vector = generate_auth_vector(rec, rand)
    res, ue.sqn = ue_process_challenge(ue.k, ue.sqn, rand, vector.autn)
    if res != vector.xres:
        raise AuthError("response mismatch")
    return vector, res, derive_k_enb(vector.k_asme)


def derive_k_enb(k_asme):
    """Initial per-base-station session key; chaining counter starts at 0."""
    return _tuple_new(SessionKeys, (prf(k_asme, "enb", 0), 0))


def chain_k_enb(keys):
    """Cycle the session key forward for forward secrecy (NCC += 1)."""
    ncc = keys.ncc + 1
    return _tuple_new(SessionKeys, (prf(keys.k_enb, "chain", ncc), ncc))
