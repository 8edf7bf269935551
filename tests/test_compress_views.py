"""Byte-exact lock on what the compressor shows through the CLI.

`fixtures/compress_views.json` holds SHA-256 digests of the stdout of
`trace` and `trace --json` for twelve blocks (the worked-example block,
all zeros, all ones, a block whose last prime occurs once, and eight
seeded random blocks) under three keys (the worked-example key and two
seeded ones), and of `analyze compression` in JSON and CSV at seeds 0-2,
plain and `--biased`. A change to how the compressor holds its matrices
must keep every digest without editing the file.

Regenerate (only for a change that means to alter these outputs):

    PYTHONPATH=src python tests/test_compress_views.py
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
FIXTURE = FIXTURES / "compress_views.json"

_rng = random.Random(20261018)
BLOCKS = ["2af738f9", "0", "3FFFFFFF", "1"] + [f"{_rng.getrandbits(30):08x}" for _ in range(8)]
SEEDED_KEYS = (1, 2)
ANALYZE_SEEDS = (0, 1, 2)


def _key_files(tmp: Path) -> dict[str, Path]:
    with open(FIXTURES / "worked_example.json") as fh:
        files = {"golden": bytes.fromhex(json.load(fh)["key_file_hex"])}
    for seed in SEEDED_KEYS:
        files[f"seed{seed}"] = container.write_key(cm.KeyChain(cm.generate_key(random.Random(seed))))
    paths = {}
    for name, data in files.items():
        paths[name] = tmp / f"{name}.cmk"
        paths[name].write_bytes(data)
    return paths


def _stdout(*argv: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue().encode()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _trace_digests(key: Path) -> dict:
    return {
        block: {
            "text_sha256": _sha(_stdout("trace", "--key", str(key), "--block", block)),
            "json_sha256": _sha(_stdout("trace", "--key", str(key), "--block", block, "--json")),
        }
        for block in BLOCKS
    }


def _analyze_digests(seed: int) -> dict:
    out = {}
    for variant, flags in (("plain", ()), ("biased", ("--biased",))):
        argv = ("analyze", "compression", "--seed", str(seed), *flags)
        out[variant] = {
            "json_sha256": _sha(_stdout(*argv)),
            "csv_sha256": _sha(_stdout(*argv, "--format", "csv")),
        }
    return out


def _lock(tmp: Path) -> dict:
    return {
        "trace": {name: _trace_digests(path) for name, path in _key_files(tmp).items()},
        "analyze_compression": {f"seed{s}": _analyze_digests(s) for s in ANALYZE_SEEDS},
    }


@pytest.fixture(scope="module")
def locked():
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_blocks_cover_the_edge_cases(tmp_path):
    key = _key_files(tmp_path)["golden"]
    views = {b: json.loads(_stdout("trace", "--key", str(key), "--block", b, "--json")) for b in BLOCKS}
    assert len(views["2af738f9"]["steps"]) == 25
    assert views["0"]["tm"] == [[2, 1], None, None, None]
    assert views["3FFFFFFF"]["tm"] == [[7, 1], None, None, None]
    # the last processed prime occurs once and traverses in zero steps
    assert views["1"]["tm"][0] == [3, 0]
    assert len(set(BLOCKS)) == 12


@pytest.mark.parametrize("key", ["golden", *(f"seed{s}" for s in SEEDED_KEYS)])
def test_trace_views_match_lock(locked, tmp_path, key):
    assert _trace_digests(_key_files(tmp_path)[key]) == locked["trace"][key]


@pytest.mark.parametrize("seed", ANALYZE_SEEDS)
def test_analyze_compression_views_match_lock(locked, seed):
    assert _analyze_digests(seed) == locked["analyze_compression"][f"seed{seed}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        lock = _lock(Path(tmp))
    with open(FIXTURE, "w") as fh:
        json.dump(lock, fh, indent=1)
        fh.write("\n")
