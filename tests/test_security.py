import hashlib
import hmac as hmac_mod

import pytest
from hypothesis import given, strategies as st

from encorsim.security import (
    NetworkAuthError, ReplayError, SubscriberRecord, chain_k_enb,
    derive_k_enb, generate_auth_vector, prf, ue_process_challenge,
)

K = bytes(range(16))
RAND = bytes(range(16, 32))


def _rec(sqn=0):
    return SubscriberRecord(imsi=1, k=K, sqn=sqn)


def test_vector_reproducible_for_fixed_inputs():
    v1 = generate_auth_vector(_rec(), RAND)
    v2 = generate_auth_vector(_rec(), RAND)
    assert v1 == v2


def test_sqn_increments_and_vectors_differ():
    rec = _rec()
    v1 = generate_auth_vector(rec, RAND)
    assert rec.sqn == 1
    v2 = generate_auth_vector(rec, RAND)
    assert rec.sqn == 2
    assert v1 != v2
    assert v2.autn.sqn == v1.autn.sqn + 1


def test_fresh_vector_res_matches_xres():
    rec = _rec()
    v = generate_auth_vector(rec, RAND)
    res, new_sqn = ue_process_challenge(K, 0, RAND, v.autn)
    assert res == v.xres
    assert new_sqn == 1


def test_replayed_autn_rejected():
    rec = _rec()
    v = generate_auth_vector(rec, RAND)
    _, ue_sqn = ue_process_challenge(K, 0, RAND, v.autn)
    with pytest.raises(ReplayError):
        ue_process_challenge(K, ue_sqn, RAND, v.autn)


def test_flipped_bit_in_autn_fails_mac():
    rec = _rec()
    v = generate_auth_vector(rec, RAND)
    bad = v.autn.__class__(v.autn.sqn, bytes([v.autn.mac[0] ^ 1]) + v.autn.mac[1:])
    with pytest.raises(NetworkAuthError):
        ue_process_challenge(K, 0, RAND, bad)


def test_flipped_bit_in_rand_fails_mac():
    rec = _rec()
    v = generate_auth_vector(rec, RAND)
    bad_rand = bytes([RAND[0] ^ 0x80]) + RAND[1:]
    with pytest.raises(NetworkAuthError):
        ue_process_challenge(K, 0, bad_rand, v.autn)


@pytest.mark.slow
def test_no_vector_collisions_across_distinct_keys():
    # brute-force scan: vectors for distinct K should never collide
    seen = set()
    for i in range(10_000):
        k = i.to_bytes(16, "big")
        v = generate_auth_vector(SubscriberRecord(imsi=i + 1, k=k), RAND)
        assert v.xres not in seen
        seen.add(v.xres)


def _prf_oracle(key, label, *parts):
    # independent reimplementation of the PRF chain, built directly on
    # hashlib rather than the module under test
    data = label.encode()
    for part in parts:
        if isinstance(part, int):
            part = part.to_bytes(8, "big")
        data += b"|" + part
    return hmac_mod.new(key, data, hashlib.sha256).digest()[:16]


# keys past the 64-byte block are hashed first, as RFC 2104 says
@given(key=st.binary(max_size=64) | st.binary(min_size=65, max_size=200),
       label=st.text(st.characters(max_codepoint=127)),
       parts=st.lists(st.binary() | st.integers(0, (1 << 64) - 1),
                      max_size=3))
def test_prf_is_hmac_sha256_of_the_joined_message(key, label, parts):
    assert prf(key, label, *parts) == _prf_oracle(key, label, *parts)


def test_derive_k_enb_matches_independent_prf_oracle():
    k_asme = prf(K, "asme", RAND, 0)
    keys = derive_k_enb(k_asme)
    assert keys.k_enb == _prf_oracle(k_asme, "enb", 0)
    assert keys.ncc == 0
    chained = chain_k_enb(keys)
    assert chained.k_enb == _prf_oracle(keys.k_enb, "chain", 1)


def test_derive_deterministic_and_key_separated():
    a = derive_k_enb(prf(K, "asme", RAND, 0))
    b = derive_k_enb(prf(K, "asme", RAND, 0))
    c = derive_k_enb(prf(K, "asme", RAND, 1))
    assert a == b
    assert a.k_enb != c.k_enb


def test_chain_increments_ncc_and_changes_key():
    keys = derive_k_enb(prf(K, "asme", RAND, 0))
    once = chain_k_enb(keys)
    twice = chain_k_enb(once)
    assert once.ncc == 1 and twice.ncc == 2
    assert len({keys.k_enb, once.k_enb, twice.k_enb}) == 3


def test_no_inverse_operation_exposed():
    # forward-secrecy shape: the module offers no way back down the chain
    import encorsim.security as security
    public = [n for n in dir(security) if not n.startswith("_")]
    assert not any("unchain" in n.lower() or "invert" in n.lower()
                   for n in public)
