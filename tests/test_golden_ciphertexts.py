"""Byte-exact lock on the cipher's observable output.

`fixtures/golden_ciphertexts.json` holds SHA-256 digests of `write_cipher`
output for 20 (key chain, payload) cases, the digests after one seeded
`harden_message` of the depth-0 and depth-2 cases, and the decrypt verdict
(plaintext hex or exception type name) for 200 corrupted keys drawn by the
wrong-key generator of acceptance criterion 8. A refactor must keep every
entry without editing the file.

Regenerate (only for a change that means to alter the ciphertext format):

    PYTHONPATH=src python tests/test_golden_ciphertexts.py
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

import cryptompress as cm
from cryptompress import container
from cryptompress.errors import CryptompressError

FIXTURE = Path(__file__).parent / "fixtures" / "golden_ciphertexts.json"
DEPTHS = (0, 1, 2, 5, 8)
HARDENED_DEPTHS = (0, 2)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _encrypt(chain, payload: bytes):
    msg = cm.segment_message(payload)
    return tuple(cm.encrypt_block(b, chain) for b in msg.blocks), msg.tail_bits


def _cipher_bytes(grids, tail_bits) -> bytes:
    return container.write_cipher(container.CipherMessage(grids=grids, tail_bits=tail_bits))


def _case_digests(key_file: bytes, payload: bytes, harden_seed):
    chain = container.read_key(key_file)
    grids, tail_bits = _encrypt(chain, payload)
    out = {"cipher_sha256": _sha(_cipher_bytes(grids, tail_bits))}
    if harden_seed is not None:
        hardened, grown = cm.harden_message(grids, chain, random.Random(harden_seed))
        out["hardened_cipher_sha256"] = _sha(_cipher_bytes(hardened, tail_bits))
        out["hardened_key_sha256"] = _sha(container.write_key(grown))
    return out


def _verdict(key: bytes, payload: bytes, wrong_key: bytes) -> str:
    grids, tail_bits = _encrypt(cm.KeyChain(base=cm.BaseKey.from_bytes(key)), payload)
    bad = cm.KeyChain(base=cm.BaseKey.from_bytes(wrong_key))
    try:
        blocks = tuple(cm.decrypt_block(g, bad) for g in grids)
        return cm.reassemble_message(cm.PaddedMessage(blocks=blocks, tail_bits=tail_bits)).hex()
    except CryptompressError as exc:
        return type(exc).__name__


@pytest.fixture(scope="module")
def locked():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_covers_every_depth_and_tail_class(locked):
    cases = locked["cases"]
    assert len(cases) == 20
    assert {c["depth"] for c in cases} == set(DEPTHS)
    tails = {cm.segment_message(bytes.fromhex(c["payload"])).tail_bits for c in cases}
    assert tails == set(range(2, 31, 2))
    assert sum("harden_seed" in c for c in cases) == 8
    assert len(locked["wrong_key_verdicts"]) == 200


def test_ciphertexts_and_hardening_match_lock(locked):
    for i, case in enumerate(locked["cases"]):
        got = _case_digests(
            bytes.fromhex(case["key_file"]), bytes.fromhex(case["payload"]), case.get("harden_seed")
        )
        want = {k: v for k, v in case.items() if k.endswith("_sha256")}
        assert got == want, i


def test_wrong_key_verdicts_match_lock(locked):
    for i, entry in enumerate(locked["wrong_key_verdicts"]):
        got = _verdict(
            bytes.fromhex(entry["key"]), bytes.fromhex(entry["payload"]), bytes.fromhex(entry["wrong_key"])
        )
        assert got == entry["verdict"], i


def _generate() -> dict:
    from test_acceptance import _corrupt_one_nibble  # the criterion-8 generator

    rng = random.Random(20261018)
    cases = []
    for i in range(20):
        chain = cm.KeyChain(base=cm.generate_key(rng))
        for _ in range(DEPTHS[i % len(DEPTHS)]):
            chain = cm.extend_key(chain, rng)
        case = {
            "depth": len(chain.sticky),
            "key_file": container.write_key(chain).hex(),
            "payload": rng.randbytes(i % 15 + 1).hex(),
        }
        if case["depth"] in HARDENED_DEPTHS:
            case["harden_seed"] = 1000 + i
        case.update(
            _case_digests(
                bytes.fromhex(case["key_file"]), bytes.fromhex(case["payload"]), case.get("harden_seed")
            )
        )
        cases.append(case)
    rng = random.Random(20260809)
    verdicts = []
    for _ in range(200):
        base = cm.generate_key(rng)
        payload = rng.randbytes(15)
        wrong = _corrupt_one_nibble(base, rng)
        verdicts.append(
            {
                "key": base.to_bytes().hex(),
                "payload": payload.hex(),
                "wrong_key": wrong.to_bytes().hex(),
                "verdict": _verdict(base.to_bytes(), payload, wrong.to_bytes()),
            }
        )
    return {"cases": cases, "wrong_key_verdicts": verdicts}


if __name__ == "__main__":
    lock = _generate()
    with open(FIXTURE, "w") as fh:
        json.dump(lock, fh, indent=1)
        fh.write("\n")
