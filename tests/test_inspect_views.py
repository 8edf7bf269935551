"""Byte-exact lock on what `cryptompress inspect` prints.

`fixtures/inspect_views.json` holds SHA-256 digests of the stdout of
`inspect` and `inspect --json` for cipher files built from the worked-example
key: a depth-0 file, the same file hardened twice with a seeded rng, and a
short payload whose blocks lack some primes, so that empty cells appear. A
change to how cells are held in memory must keep every digest without
editing the file.

Regenerate (only for a change that means to alter the inspect output):

    PYTHONPATH=src python tests/test_inspect_views.py
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

import cryptompress as cm
from cryptompress import container
from cryptompress.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE = FIXTURES / "inspect_views.json"

# name -> (payload, seeds of the hardenings applied after encrypting)
CASES = {
    "depth0": (random.Random(7).randbytes(37), ()),
    "hardened_twice": (random.Random(7).randbytes(37), (11, 12)),
    "sparse_primes": (bytes.fromhex("00ff000f"), ()),
}


def _golden_chain() -> cm.KeyChain:
    with open(FIXTURES / "worked_example.json") as fh:
        return container.read_key(bytes.fromhex(json.load(fh)["key_file_hex"]))


def _cipher_file(payload: bytes, harden_seeds) -> bytes:
    chain = _golden_chain()
    msg = cm.segment_message(payload)
    grids = tuple(cm.encrypt_block(b, chain) for b in msg.blocks)
    for seed in harden_seeds:
        grids, chain = cm.harden_message(grids, chain, random.Random(seed))
    return container.write_cipher(container.CipherMessage(grids=grids, tail_bits=msg.tail_bits))


def _inspect_stdout(path: Path, *flags: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["inspect", "--cipher", str(path), *flags]) == 0
    return out.getvalue().encode()


def _digests(tmp: Path, name: str) -> dict:
    path = tmp / f"{name}.cmc"
    path.write_bytes(_cipher_file(*CASES[name]))
    return {
        "text_sha256": hashlib.sha256(_inspect_stdout(path)).hexdigest(),
        "json_sha256": hashlib.sha256(_inspect_stdout(path, "--json")).hexdigest(),
    }


@pytest.fixture(scope="module")
def locked():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_cases_cover_hardening_and_empty_cells(tmp_path):
    assert container.read_cipher(_cipher_file(*CASES["hardened_twice"])).sticky_rounds == 2
    path = tmp_path / "sparse.cmc"
    path.write_bytes(_cipher_file(*CASES["sparse_primes"]))
    view = json.loads(_inspect_stdout(path, "--json"))
    kinds = [c["kind"] for b in view["blocks"] for row in b["rows"] for c in row]
    assert "empty" in kinds


@pytest.mark.parametrize("name", sorted(CASES))
def test_inspect_views_match_lock(locked, tmp_path, name):
    assert _digests(tmp_path, name) == locked[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        lock = {name: _digests(Path(tmp), name) for name in sorted(CASES)}
    with open(FIXTURE, "w") as fh:
        json.dump(lock, fh, indent=1)
        fh.write("\n")
