"""Verdict lock on the file parsers.

`fixtures/parse_verdicts.json` holds a 4-block CMC1 file under a depth-2
CMK1 key (case 12 of `golden_ciphertexts.json`) and about 2,000 seeded
mutations of the two files: bit flips, byte sets, truncations and inserted
bytes. For each mutation it records what `read_cipher` or `read_key` does
(the exception class and message, or "ok") and the exit codes of
`decrypt` and, for cipher mutations, `inspect --json`. A change to how the
files are parsed must keep every entry without editing the file.

Regenerate (only for a change that means to alter a parser verdict):

    PYTHONPATH=src python tests/test_parse_verdicts.py
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

import cryptompress as cm
from cryptompress import cli, container
from cryptompress.errors import CryptompressError

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE = FIXTURES / "parse_verdicts.json"
GOLDEN_CASE = 12  # depth 2, 13 bytes of payload: 4 blocks, 14 tail bits
SEED = 20261018
CIPHER_MUTATIONS = 1800
KEY_MUTATIONS = 200
KINDS = ("flip", "set", "cut", "insert")


def mutate(data: bytes, kind: str, pos: int, value: int) -> bytes:
    if kind == "flip":
        return data[:pos] + bytes([data[pos] ^ (1 << value)]) + data[pos + 1 :]
    if kind == "set":
        return data[:pos] + bytes([value]) + data[pos + 1 :]
    if kind == "cut":
        return data[:pos]
    return data[:pos] + bytes([value]) + data[pos:]


def draw_mutation(rng: random.Random, size: int) -> list:
    kind = rng.choice(KINDS)
    if kind == "flip":
        return [kind, rng.randrange(size), rng.randrange(8)]
    if kind == "set":
        return [kind, rng.randrange(size), rng.randrange(256)]
    if kind == "cut":
        return [kind, rng.randrange(size), 0]
    return [kind, rng.randrange(size + 1), rng.randrange(256)]


def _verdict(reader, data: bytes) -> list:
    try:
        reader(data)
    except CryptompressError as exc:
        return [type(exc).__name__, str(exc)]
    return ["ok", ""]


def _run(argv: list) -> int:
    """cli.main's exit code for argv, its output discarded."""
    with (
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        return cli.main(argv)


class _Files:
    """A key file, a cipher file and a decrypt output path in one directory."""

    def __init__(self, directory: Path):
        self.key = directory / "k.cmk"
        self.cipher = directory / "c.cmc"
        self.out = str(directory / "p.bin")

    def decrypt(self, key: bytes, cipher: bytes) -> int:
        self.key.write_bytes(key)
        self.cipher.write_bytes(cipher)
        return _run(["decrypt", "--key", str(self.key), "--in", str(self.cipher), "--out", self.out])

    def inspect(self) -> int:
        return _run(["inspect", "--cipher", str(self.cipher), "--json"])


def _golden_files() -> tuple[bytes, bytes]:
    with open(FIXTURES / "golden_ciphertexts.json") as fh:
        case = json.load(fh)["cases"][GOLDEN_CASE]
    key = bytes.fromhex(case["key_file"])
    msg = cm.segment_message(bytes.fromhex(case["payload"]))
    chain = container.read_key(key)
    grids = tuple(cm.encrypt_block(b, chain) for b in msg.blocks)
    return key, container.write_cipher(container.CipherMessage(grids=grids, tail_bits=msg.tail_bits))


def _cipher_entry(files: _Files, key: bytes, cipher: bytes, mutation: list) -> list:
    bad = mutate(cipher, *mutation)
    decrypt = files.decrypt(key, bad)
    return [*mutation, *_verdict(container.read_cipher, bad), decrypt, files.inspect()]


def _key_entry(files: _Files, key: bytes, cipher: bytes, mutation: list) -> list:
    bad = mutate(key, *mutation)
    return [*mutation, *_verdict(container.read_key, bad), files.decrypt(bad, cipher)]


@pytest.fixture(scope="module")
def locked():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_covers_every_mutation_kind_and_verdict(locked):
    key, cipher = bytes.fromhex(locked["key_hex"]), bytes.fromhex(locked["cipher_hex"])
    assert container.read_cipher(cipher).sticky_rounds == len(container.read_key(key).sticky) == 2
    assert len(container.read_cipher(cipher).grids) == 4
    for entries in (locked["cipher_mutations"], locked["key_mutations"]):
        assert {e[0] for e in entries} == set(KINDS)
    verdicts = {e[3] for e in locked["cipher_mutations"]}
    assert {"ok", "BadMagic", "BadVersion", "Truncated", "MalformedCell", "InventoryMismatch"} <= verdicts
    assert {(e[5], e[6]) for e in locked["cipher_mutations"]} >= {(0, 0), (2, 0), (3, 3)}


def test_cipher_mutations_keep_their_verdicts(locked, tmp_path):
    key, cipher = bytes.fromhex(locked["key_hex"]), bytes.fromhex(locked["cipher_hex"])
    files = _Files(tmp_path)
    for entry in locked["cipher_mutations"]:
        assert _cipher_entry(files, key, cipher, entry[:3]) == entry


def test_key_mutations_keep_their_verdicts(locked, tmp_path):
    key, cipher = bytes.fromhex(locked["key_hex"]), bytes.fromhex(locked["cipher_hex"])
    files = _Files(tmp_path)
    for entry in locked["key_mutations"]:
        assert _key_entry(files, key, cipher, entry[:3]) == entry


def test_accepted_mutations_read_back_to_their_bytes(locked):
    """The wire form is canonical: a mutated file the parser accepts is
    exactly what writing its parse gives back."""
    cipher = bytes.fromhex(locked["cipher_hex"])
    accepted = [e for e in locked["cipher_mutations"] if e[3] == "ok"]
    assert accepted
    for entry in accepted:
        bad = mutate(cipher, *entry[:3])
        assert container.write_cipher(container.read_cipher(bad)) == bad


def _lines(entries: list) -> str:
    return "[\n    " + ",\n    ".join(json.dumps(e) for e in entries) + "\n  ]"


if __name__ == "__main__":
    import tempfile

    key, cipher = _golden_files()
    rng = random.Random(SEED)
    with tempfile.TemporaryDirectory() as tmp:
        files = _Files(Path(tmp))
        cipher_entries = [
            _cipher_entry(files, key, cipher, draw_mutation(rng, len(cipher))) for _ in range(CIPHER_MUTATIONS)
        ]
        key_entries = [_key_entry(files, key, cipher, draw_mutation(rng, len(key))) for _ in range(KEY_MUTATIONS)]
    with open(FIXTURE, "w") as fh:
        fh.write(
            f'{{\n  "golden_case": {GOLDEN_CASE},\n  "seed": {SEED},\n'
            f'  "key_hex": "{key.hex()}",\n  "cipher_hex": "{cipher.hex()}",\n'
            f'  "cipher_mutations": {_lines(cipher_entries)},\n'
            f'  "key_mutations": {_lines(key_entries)}\n}}\n'
        )
