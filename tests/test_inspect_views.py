"""Byte-exact lock on what `cryptompress inspect` prints.

`fixtures/inspect_views.json` holds SHA-256 digests of the stdout of
`inspect` and `inspect --json` for cipher files built from the worked-example
key: a depth-0 file, the same file hardened twice with a seeded rng, and a
short payload whose blocks lack some primes, so that empty cells appear. A
change to how cells are held in memory must keep every digest without
editing the file.

Beside the lock, a differential test compares the streamed `inspect --json`,
whose cells come from per-kind templates, with json.dumps of the whole
document, byte for byte, on files that include one whose cells reach every
wire limit; and the streaming edges are checked: a malformed file prints
nothing, and a reader that closes the pipe early is not an error.

Regenerate (only for a change that means to alter the inspect output):

    PYTHONPATH=src python tests/test_inspect_views.py
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cryptompress as cm
from cryptompress import cli, container
from cryptompress.cipher import ASM, EMPTY, KIND_NAMES, RM, SM, TM
from cryptompress.cli import main
from cryptompress.codec import PRIMES

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


def _asm_text(x_pos, mask):
    """A matrix string as the table shows it: X at x_pos, else each sign bit's +1 or -1."""
    return "".join("X" if i == x_pos else ("-1", "+1")[mask >> (3 - i) & 1] for i in range(4))


# The oracle's cell fields after "kind", by tag: `inspect --json` must print
# what json.dumps writes for these.
_VIEWS = (
    lambda c: {},
    lambda c: {"x_pos": c[1], "sign_mask": c[2], "text": _asm_text(c[1], c[2])},
    lambda c: {"value": c[1]},
    lambda c: {"pairs": [list(p) for p in c[1]]},
    lambda c: {"prime": PRIMES[c[1]], "last_seq": c[2]},
)


def _cell_view(cell) -> dict:
    return {"kind": KIND_NAMES[cell[0]], **_VIEWS[cell[0]](cell)}


def _whole_document_json(data: bytes) -> bytes:
    """The oracle: `inspect --json` as one document built in memory, then
    dumped in one call."""
    msg = container.read_cipher(data)
    payload = {
        "sticky_rounds": msg.sticky_rounds,
        "tail_bits": msg.tail_bits,
        "blocks": [
            {
                "orders": list(g.orders),
                "rows": [[_cell_view(c) for c in row] for row in g.rows()],
            }
            for g in msg.grids
        ],
    }
    return (json.dumps(payload, indent=2) + "\n").encode()


def _random_chain_file(depth: int, size: int) -> bytes:
    rng = random.Random(depth)
    chain = cm.KeyChain(cm.generate_key(rng), tuple(rng.getrandbits(32) for _ in range(depth)))
    msg = cm.segment_message(rng.randbytes(size))
    grids = tuple(cm.encrypt_block(b, chain) for b in msg.blocks)
    return container.write_cipher(container.CipherMessage(grids=grids, tail_bits=msg.tail_bits))


def _wire_limits_file() -> bytes:
    """Eight blocks whose cells reach every wire limit: each ASM x_pos with
    each sign mask, the RM extremes, SM lists of 0, 1 and 255 pairs, each
    TM code with last_seq 0 and 255, and empty cells. Every block holds 8
    ASM cells, m RM and m TM cells (m = 1..4), 4 SM cells and 8 - 2m empty
    ones, a valid inventory."""
    asm = [(ASM, x, mask) for x in range(4) for mask in range(16)]
    rm = itertools.cycle([(RM, v) for v in (-(2**31), -1, 0, 2**31 - 1)])
    sm = [(SM, ()), (SM, ((15, 0),)), (SM, tuple(divmod(i, 16) for i in range(255))), (SM, ((0, 15), (9, 9)))]
    tm = itertools.cycle([(TM, code, seq) for code in range(4) for seq in (0, 255)])
    grids = []
    for b in range(8):
        m = b % 4 + 1
        cells = asm[8 * b : 8 * b + 8] + sm + [(EMPTY,)] * (8 - 2 * m)
        cells += [next(rm) for _ in range(m)] + [next(tm) for _ in range(m)]
        random.Random(b).shuffle(cells)
        grids.append(cm.CipherGrid((b, 15 - b, 0, 15), tuple(cells), 255))
    return container.write_cipher(container.CipherMessage(grids=tuple(grids), tail_bits=6))


# name -> cipher file bytes
DIFFERENTIAL = {
    "wire_limits": _wire_limits_file,
    "depth0": lambda: _random_chain_file(0, 301),
    "depth1": lambda: _random_chain_file(1, 302),
    "depth8": lambda: _random_chain_file(8, 303),
    "hardened_twice": lambda: _cipher_file(*CASES["hardened_twice"]),
    "sparse_primes": lambda: _cipher_file(*CASES["sparse_primes"]),
    # enough random blocks that the distinct cells outnumber the memo
    "memo_eviction": lambda: _random_chain_file(0, 16384),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_streamed_json_matches_whole_document(tmp_path, name):
    data = DIFFERENTIAL[name]()
    path = tmp_path / "c.cmc"
    path.write_bytes(data)
    cli._cell_json.cache_clear()
    assert _inspect_stdout(path, "--json") == _whole_document_json(data)
    if name == "memo_eviction":
        memo = cli._cell_json.cache_info()
        distinct = {c for g in container.read_cipher(data).grids for c in g.cells}
        assert len(distinct) > memo.maxsize == memo.currsize


def _last_block_offset(data: bytes) -> int:
    last = container.read_cipher(data).grids[-1]
    return len(data) - 2 - sum(len(container._encode_cell(c)) for c in last.cells)


@pytest.mark.parametrize("fault, message", [("truncated", "need 1 bytes"), ("bad_tag", "unknown cell tag 9")])
def test_malformed_file_prints_nothing_and_exits_3(tmp_path, capsys, fault, message):
    data = bytearray(_random_chain_file(0, 301))
    if fault == "truncated":
        del data[-3:]
    else:
        data[_last_block_offset(bytes(data)) + 2] = 9  # the last block's first cell tag
    path = tmp_path / "c.cmc"
    path.write_bytes(bytes(data))
    assert main(["inspect", "--cipher", str(path), "--json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def test_reader_closing_the_pipe_early_is_not_an_error(tmp_path):
    path = tmp_path / "c.cmc"
    path.write_bytes(_random_chain_file(0, 2048))
    env = dict(os.environ, PYTHONPATH=str(Path(cm.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cryptompress.cli", "inspect", "--cipher", str(path), "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert head.startswith(b'{\n  "sticky_rounds": 0,')
    assert b"Traceback" not in stderr and b"Error" not in stderr, stderr


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        lock = {name: _digests(Path(tmp), name) for name in sorted(CASES)}
    with open(FIXTURE, "w") as fh:
        json.dump(lock, fh, indent=1)
        fh.write("\n")
