import ast
import importlib
import json
import os
import pkgutil
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cryptompress as cm
from cryptompress import cipher, cli, container
from cryptompress.cipher import ASM, RM, SM
from cryptompress.cli import main
from cryptompress.errors import IntegrityFailure, ValueOutOfRange

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture
def golden_key_file(tmp_path, golden):
    path = tmp_path / "key.cmk"
    path.write_bytes(bytes.fromhex(golden["key_file_hex"]))
    return str(path)


def test_keygen_writes_parseable_key(tmp_path):
    out = tmp_path / "k.cmk"
    assert main(["keygen", "--out", str(out)]) == 0
    chain = container.read_key(out.read_bytes())
    assert chain.sticky == ()
    assert len(out.read_bytes()) == 21


def _mode(path) -> int:
    return path.stat().st_mode & 0o777


def test_keygen_key_file_is_owner_only_and_harden_keeps_it(tmp_path):
    new, existing = tmp_path / "new.cmk", tmp_path / "existing.cmk"
    existing.write_bytes(b"old key")
    existing.chmod(0o644)
    plain, cipher = tmp_path / "p.bin", tmp_path / "c.cmc"
    plain.write_bytes(b"sixteen byte msg")
    umask = os.umask(0o022)
    try:
        assert main(["keygen", "--out", str(new)]) == 0
        assert _mode(new) == 0o600
        assert main(["keygen", "--out", str(existing)]) == 0
        assert _mode(existing) == 0o600
        assert len(existing.read_bytes()) == 21
        assert main(["encrypt", "--key", str(new), "--in", str(plain), "--out", str(cipher)]) == 0
        assert main(["harden", "--key", str(new), "--cipher", str(cipher)]) == 0
        assert _mode(new) == 0o600
    finally:
        os.umask(umask)


def test_encrypt_decrypt_round_trip(tmp_path, golden_key_file):
    plain = tmp_path / "p.bin"
    plain.write_bytes(bytes(range(8)))
    cipher = tmp_path / "c.cmc"
    out = tmp_path / "o.bin"
    assert main(["encrypt", "--key", golden_key_file, "--in", str(plain), "--out", str(cipher)]) == 0
    assert main(["decrypt", "--key", golden_key_file, "--in", str(cipher), "--out", str(out)]) == 0
    assert out.read_bytes() == plain.read_bytes()


def test_decrypt_with_flipped_key_bit_exits_2(tmp_path, golden_key_file):
    plain = tmp_path / "p.bin"
    plain.write_bytes(random.Random(0).randbytes(16))
    cipher = tmp_path / "c.cmc"
    assert main(["encrypt", "--key", golden_key_file, "--in", str(plain), "--out", str(cipher)]) == 0
    bad = tmp_path / "bad.cmk"
    data = bytearray(Path(golden_key_file).read_bytes())
    data[-1] ^= 1
    bad.write_bytes(bytes(data))
    rc = main(["decrypt", "--key", str(bad), "--in", str(cipher), "--out", str(tmp_path / "o.bin")])
    assert rc == 2


def test_flipped_last_bit_rate_200_trials(tmp_path):
    """Measured 200/200 with this seed before freezing the 95% floor (the
    last key bit serves prime 7's redundancy counts; a 16-byte payload
    spans 5 blocks, so some block nearly always has a prime-7 event)."""
    rng = random.Random(31337)
    exits2 = 0
    kp, cp, pp, op = (str(tmp_path / n) for n in ("k", "c", "p", "o"))
    for _ in range(200):
        chain = cm.KeyChain(base=cm.generate_key(rng))
        Path(kp).write_bytes(container.write_key(chain))
        Path(pp).write_bytes(rng.randbytes(16))
        assert main(["encrypt", "--key", kp, "--in", pp, "--out", cp]) == 0
        raw = bytearray(container.write_key(chain))
        raw[-1] ^= 1
        Path(kp).write_bytes(bytes(raw))
        if main(["decrypt", "--key", kp, "--in", cp, "--out", op]) == 2:
            exits2 += 1
    assert exits2 / 200 >= 0.95


def test_harden_updates_both_files(tmp_path, golden_key_file):
    plain = tmp_path / "p.bin"
    plain.write_bytes(b"sixteen byte msg")
    cipher = tmp_path / "c.cmc"
    main(["encrypt", "--key", golden_key_file, "--in", str(plain), "--out", str(cipher)])
    stale_key = Path(golden_key_file).read_bytes()
    assert main(["harden", "--key", golden_key_file, "--cipher", str(cipher)]) == 0
    new_key = Path(golden_key_file).read_bytes()
    assert len(new_key) == 25
    assert container.read_cipher(cipher.read_bytes()).sticky_rounds == 1
    # decryptable with the updated key
    out = tmp_path / "o.bin"
    assert main(["decrypt", "--key", golden_key_file, "--in", str(cipher), "--out", str(out)]) == 0
    assert out.read_bytes() == plain.read_bytes()
    # stale key is refused
    stale = tmp_path / "stale.cmk"
    stale.write_bytes(stale_key)
    assert main(["decrypt", "--key", str(stale), "--in", str(cipher), "--out", str(out)]) == 2
    # no temp litter
    assert not list(tmp_path.glob("*.tmp"))


def test_harden_only_rewrites_sequence_cells(tmp_path, golden_key_file):
    plain = tmp_path / "p.bin"
    plain.write_bytes(bytes(range(15)))
    cipher = tmp_path / "c.cmc"
    main(["encrypt", "--key", golden_key_file, "--in", str(plain), "--out", str(cipher)])
    before = container.read_cipher(cipher.read_bytes())
    main(["harden", "--key", golden_key_file, "--cipher", str(cipher)])
    after = container.read_cipher(cipher.read_bytes())
    for g0, g1 in zip(before.grids, after.grids):
        assert g0.orders == g1.orders
        for c0, c1 in zip(g0.cells, g1.cells):
            if c0 != c1:
                assert c0[0] == SM and c1[0] == SM


def test_trace_json_matches_published_steps(tmp_path, golden_key_file, golden, capsys):
    rc = main(["trace", "--key", golden_key_file, "--block", golden["block_hex"], "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert [s["value"] for s in payload["steps"]] == golden["trace_values"]
    assert payload["rm"] == {p: v for p, v in golden["rm"].items()}
    assert payload["tm"] == golden["tm"]


def test_trace_human_output_contains_tables(golden_key_file, golden, capsys):
    assert main(["trace", "--key", golden_key_file, "--block", "0x" + golden["block_hex"]]) == 0
    out = capsys.readouterr().out
    assert "5.13" in out and "-> 31" in out
    assert "2.1" in out and "-> 4" in out


def test_inspect_json_and_text(tmp_path, golden_key_file, capsys):
    plain = tmp_path / "p.bin"
    plain.write_bytes(b"abcd")
    cipher = tmp_path / "c.cmc"
    main(["encrypt", "--key", golden_key_file, "--in", str(plain), "--out", str(cipher)])
    assert main(["inspect", "--cipher", str(cipher), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tail_bits"] == 2
    assert len(payload["blocks"]) == 2
    for block in payload["blocks"]:
        kinds = [c["kind"] for row in block["rows"] for c in row]
        assert kinds.count("asm") == 8
        assert kinds.count("sm") == 4
    assert main(["inspect", "--cipher", str(cipher)]) == 0
    text = capsys.readouterr().out
    assert "Order" in text and "block 1" in text


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError

    def flush(self):
        pass

    def fileno(self):
        return 1


def test_broken_pipe_exits_0_and_closes_its_devnull_descriptor(tmp_path, golden_key_file, monkeypatch):
    """main points stdout at os.devnull after a broken pipe and closes the
    descriptor it opened for that; os.dup2 is recorded, not run, so the real
    stdout is never touched."""
    plain, cipher = tmp_path / "p.bin", tmp_path / "c.cmc"
    plain.write_bytes(b"abcd")
    assert main(["encrypt", "--key", golden_key_file, "--in", str(plain), "--out", str(cipher)]) == 0
    dup2_calls = []
    monkeypatch.setattr(os, "dup2", lambda fd, fd2: dup2_calls.append((fd, fd2)))
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["inspect", "--cipher", str(cipher), "--json"]) == 0
    [(devnull, target)] = dup2_calls
    assert target == 1
    with pytest.raises(OSError):
        os.fstat(devnull)


def test_usage_errors_exit_1(tmp_path, golden_key_file):
    assert main(["trace", "--key", golden_key_file, "--block", "zz"]) == 1
    assert main(["trace", "--key", golden_key_file, "--block", "1FFFFFFFF"]) == 1
    assert main(["trace", "--key", golden_key_file, "--block", "-1"]) == 1
    assert main(["encrypt", "--key", golden_key_file]) == 1
    assert main(["nosuchcommand"]) == 1


def test_analyze_compression_count_below_one_is_usage_error(capsys):
    for count in ("0", "-3"):
        assert main(["analyze", "compression", "--count", count]) == 1
        assert "--count must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bruteforce", "--restricted-bits", "0"], "--restricted-bits must be in [1, 24]"),
        (["bruteforce", "--restricted-bits", "25"], "--restricted-bits must be in [1, 24]"),
        (["bruteforce", "--restricted-bits", "4", "--harden-every", "-1"], "--harden-every must be at least 0"),
        (["compression", "--stay", "1.5"], "--stay must be in [0, 1]"),
        (["compression", "--biased", "--stay", "-0.1"], "--stay must be in [0, 1]"),
        (["avalanche", "--samples", "99"], "--samples must be at least 100"),
        (["avalanche", "--samples", "0"], "--samples must be at least 100"),
    ],
)
def test_analyze_out_of_range_values_are_usage_errors(capsys, argv, message):
    assert main(["analyze", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def _spy_on_analyze_work(monkeypatch) -> list[str]:
    """Record every call to the steps an analyze command runs before its
    first output: key setup, the sweep order, block draws, encrypt and
    compress. Each spy still does the work."""
    from cryptompress import analysis

    calls = []
    for module, name in [
        (analysis, "_sweep_order"),
        (analysis, "compress_block"),
        (analysis, "encrypt_block"),
        (analysis, "biased_blocks"),
        (analysis, "random_blocks"),
        (cli, "encrypt_block"),
        (cli, "generate_key"),
        (cli, "_load_chain"),
    ]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k))
    return calls


# Each analyze bound's whole stderr line, as the CLI printed it before the
# bounds moved to analysis.BOUNDS: at the value below and above each end.
@pytest.mark.parametrize(
    "argv, line",
    [
        (["bruteforce", "--restricted-bits", "0"], "error: --restricted-bits must be in [1, 24], got 0\n"),
        (["bruteforce", "--restricted-bits", "25"], "error: --restricted-bits must be in [1, 24], got 25\n"),
        (["bruteforce", "--harden-every", "-1"], "error: --harden-every must be at least 0, got -1\n"),
        (["compression", "--count", "0"], "error: --count must be at least 1, got 0\n"),
        (["compression", "--stay", "-1"], "error: --stay must be in [0, 1], got -1.0\n"),
        (["compression", "--stay", "2"], "error: --stay must be in [0, 1], got 2.0\n"),
        (["compression", "--stay", "-0.1"], "error: --stay must be in [0, 1], got -0.1\n"),
        (["compression", "--stay", "1.0000001"], "error: --stay must be in [0, 1], got 1.0000001\n"),
        (["compression", "--stay", "nan"], "error: --stay must be in [0, 1], got nan\n"),
        (["avalanche", "--samples", "99"], "error: --samples must be at least 100, got 99\n"),
        # two bad options: the first in BOUNDS order is reported, whatever the argv order
        (["bruteforce", "--harden-every", "-1", "--restricted-bits", "0"], "error: --restricted-bits must be in [1, 24], got 0\n"),
        (["bruteforce", "--restricted-bits", "25", "--harden-every", "-1"], "error: --restricted-bits must be in [1, 24], got 25\n"),
        (["compression", "--stay", "2", "--count", "0"], "error: --count must be at least 1, got 0\n"),
        (["compression", "--biased", "--count", "0", "--stay", "2"], "error: --count must be at least 1, got 0\n"),
        # the bound is checked before the key file is read
        (["avalanche", "--samples", "99", "--key", "/nonexistent/key.cmk"], "error: --samples must be at least 100, got 99\n"),
    ],
)
def test_analyze_bound_errors_print_the_whole_line_before_any_work(monkeypatch, capsys, argv, line):
    calls = _spy_on_analyze_work(monkeypatch)
    assert main(["analyze", *argv]) == 1
    assert capsys.readouterr() == ("", line)
    assert calls == []


@pytest.mark.parametrize(
    "argv, field, value",
    [
        (["bruteforce", "--restricted-bits", "1"], "keyspace_bits", 1),
        (["bruteforce", "--restricted-bits", "24"], "keyspace_bits", 24),
        (["bruteforce", "--restricted-bits", "4", "--harden-every", "0"], "hardenings_triggered", 0),
        (["compression", "--count", "1"], "blocks", 1),
        (["compression", "--biased", "--count", "2", "--stay", "0"], "blocks", 2),
        (["compression", "--biased", "--count", "2", "--stay", "1"], "blocks", 2),
        (["avalanche", "--samples", "100"], "samples", 100),
    ],
)
def test_analyze_bounds_admit_their_end_values(monkeypatch, capsys, argv, field, value):
    from cryptompress import analysis

    calls = _spy_on_analyze_work(monkeypatch)
    if "24" in argv:  # the whole 24-bit order would take minutes: cut it to three candidates
        monkeypatch.setattr(analysis, "_sweep_order", lambda restricted_bits, seed: calls.append("_sweep_order") or (0, 1, 2))
    assert main(["analyze", *argv]) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == ""
    assert report.get("hardened", report)[field] == value
    assert calls


def test_missing_and_malformed_files_exit_3(tmp_path, golden_key_file):
    assert main(["encrypt", "--key", str(tmp_path / "nope"), "--in", str(tmp_path / "x"), "--out", str(tmp_path / "y")]) == 3
    junk = tmp_path / "junk.cmc"
    junk.write_bytes(b"not a cipher file")
    assert main(["inspect", "--cipher", str(junk)]) == 3
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    assert main(["encrypt", "--key", golden_key_file, "--in", str(empty), "--out", str(tmp_path / "c")]) == 3


@pytest.mark.parametrize("bits", [1, 8])
def test_analyze_bruteforce_small(bits, capsys):
    rc = main([
        "analyze", "bruteforce",
        "--restricted-bits", str(bits), "--harden-every", "0", "--seed", "1",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["baseline"]["success"] is True
    assert payload["baseline"]["keyspace_bits"] == bits
    assert payload["baseline"]["attempts_made"] <= 1 << bits


def test_each_command_derives_its_key_material_afresh(golden_key_file, tmp_path, monkeypatch):
    """compile_key's cache does not outlive a command: run in one process,
    each command derives its chain's material once, as a fresh process does."""
    calls = []

    def counted(base, _fn=cipher.derive_material):
        calls.append(base)
        return _fn(base)

    monkeypatch.setattr(cipher, "derive_material", counted)
    plain, ct, out = tmp_path / "p.bin", tmp_path / "c.cmc", tmp_path / "p.out"
    plain.write_bytes(bytes(range(256)) * 4)
    commands = [
        ["encrypt", "--key", golden_key_file, "--in", str(plain), "--out", str(ct)],
        ["encrypt", "--key", golden_key_file, "--in", str(plain), "--out", str(ct)],
        ["decrypt", "--key", golden_key_file, "--in", str(ct), "--out", str(out)],
        ["harden", "--key", golden_key_file, "--cipher", str(ct)],
        ["decrypt", "--key", golden_key_file, "--in", str(ct), "--out", str(out)],
    ]
    for n, argv in enumerate(commands, 1):
        assert main(argv) == 0
        assert len(calls) == n, argv
    assert out.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("flags", [[], ["--biased"]])
def test_analyze_compression_draws_no_key(flags, monkeypatch, capsys):
    def no_key(*args):
        raise AssertionError("analyze compression drew key material")

    monkeypatch.setattr(cli, "generate_key", no_key)
    monkeypatch.setattr(cli, "derive_material", no_key)
    assert main(["analyze", "compression", "--count", "50", "--seed", "0", *flags]) == 0
    assert json.loads(capsys.readouterr().out)["blocks"] == 50


def test_analyze_compression_csv(tmp_path):
    out = tmp_path / "r.csv"
    rc = main([
        "analyze", "compression", "--count", "50", "--seed", "3",
        "--format", "csv", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("symbols,")
    assert len(lines) == 51


def test_analyze_avalanche_json(capsys, tmp_path, golden_key_file):
    rc = main(["analyze", "avalanche", "--samples", "100", "--seed", "5", "--key", golden_key_file])
    assert rc == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["samples"] == 100
    assert payload["min"] <= payload["mean"] <= payload["max"]
    # exact: the tail-bits byte that both grid files of a pair share cancels
    assert out == '{\n  "samples": 100,\n  "mean": 76.14,\n  "min": 10,\n  "max": 148\n}\n'


def test_analyze_avalanche_without_a_key_draws_one_from_the_seed(capsys):
    outs = []
    for _ in range(2):
        assert main(["analyze", "avalanche", "--samples", "100", "--seed", "3"]) == 0
        outs.append(capsys.readouterr().out)
    assert json.loads(outs[0])["samples"] == 100
    assert outs[0] == outs[1]


def test_stale_key_refused_from_header_before_any_block_is_parsed(tmp_path, golden_key_file, monkeypatch):
    plain = tmp_path / "p.bin"
    plain.write_bytes(b"sixteen byte msg")
    cipher = tmp_path / "c.cmc"
    assert main(["encrypt", "--key", golden_key_file, "--in", str(plain), "--out", str(cipher)]) == 0
    stale = tmp_path / "stale.cmk"
    stale.write_bytes(Path(golden_key_file).read_bytes())
    assert main(["harden", "--key", golden_key_file, "--cipher", str(cipher)]) == 0

    def no_block_parsing(*args):
        raise AssertionError("a block was parsed")

    monkeypatch.setattr(container, "read_cipher", no_block_parsing)
    monkeypatch.setattr(container, "walk_blocks", no_block_parsing)
    assert main(["decrypt", "--key", str(stale), "--in", str(cipher), "--out", str(tmp_path / "o")]) == 2
    assert main(["harden", "--key", str(stale), "--cipher", str(cipher)]) == 2


def test_tail_bits_that_end_no_byte_exit_3_before_any_block_is_decrypted(tmp_path, golden_key_file, monkeypatch):
    """64 bytes are 18 blocks with 2 tail bits; with 3 the file could never
    decrypt, so every command refuses it from the header and changes nothing."""
    plain = tmp_path / "p.bin"
    plain.write_bytes(bytes(range(64)))
    cipher = tmp_path / "c.cmc"
    assert main(["encrypt", "--key", golden_key_file, "--in", str(plain), "--out", str(cipher)]) == 0
    data = bytearray(cipher.read_bytes())
    assert data[10] == 2
    data[10] = 3
    cipher.write_bytes(bytes(data))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}

    def no_block_decrypt(*args):
        raise AssertionError("a block was decrypted")

    monkeypatch.setattr(cli, "decrypt_block", no_block_decrypt)
    assert main(["decrypt", "--key", golden_key_file, "--in", str(cipher), "--out", str(tmp_path / "o.bin")]) == 3
    assert main(["harden", "--key", golden_key_file, "--cipher", str(cipher)]) == 3
    assert main(["inspect", "--cipher", str(cipher), "--json"]) == 3
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def test_failed_replace_leaves_files_and_no_temp(tmp_path, golden_key_file, monkeypatch):
    import os
    import shutil

    key = tmp_path / "k.cmk"
    shutil.copy(golden_key_file, key)
    plain = tmp_path / "p.bin"
    plain.write_bytes(b"abc")
    cipher = tmp_path / "c.cmc"
    assert main(["encrypt", "--key", str(key), "--in", str(plain), "--out", str(cipher)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["harden", "--key", str(key), "--cipher", str(cipher)]) == 3
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def test_harden_replaces_the_targets_of_symlinked_files(tmp_path, golden_key_file):
    """Both files given as relative links into another directory: the links
    stay links, and their targets hold the hardened key and cipher."""
    secrets = tmp_path / "secrets"
    secrets.mkdir()
    key, cipher_file = secrets / "real.cmk", secrets / "real.cmc"
    shutil.copy(golden_key_file, key)
    plain, out = tmp_path / "p.bin", tmp_path / "o.bin"
    plain.write_bytes(b"sixteen byte msg")
    assert main(["encrypt", "--key", str(key), "--in", str(plain), "--out", str(cipher_file)]) == 0
    key_link, cipher_link = tmp_path / "link.cmk", tmp_path / "link.cmc"
    key_link.symlink_to(Path("secrets", "real.cmk"))
    cipher_link.symlink_to(Path("secrets", "real.cmc"))
    assert main(["harden", "--key", str(key_link), "--cipher", str(cipher_link)]) == 0
    assert key_link.is_symlink() and cipher_link.is_symlink()
    assert len(key.read_bytes()) == 25
    assert container.read_cipher(cipher_file.read_bytes()).sticky_rounds == 1
    for k, c in ((key_link, cipher_link), (key, cipher_file)):
        assert main(["decrypt", "--key", str(k), "--in", str(c), "--out", str(out)]) == 0
        assert out.read_bytes() == plain.read_bytes()
    assert not list(tmp_path.rglob("*.tmp"))


def test_failed_cipher_encoding_leaves_key_and_cipher(tmp_path, golden_key_file, monkeypatch):
    """harden encodes both files before it replaces either, so a cipher
    whose resealed cells fail to encode leaves both files as they were."""
    key = tmp_path / "k.cmk"
    shutil.copy(golden_key_file, key)
    plain = tmp_path / "p.bin"
    plain.write_bytes(b"abc")
    cipher = tmp_path / "c.cmc"
    assert main(["encrypt", "--key", str(key), "--in", str(plain), "--out", str(cipher)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}

    def refuse(cell):
        raise ValueOutOfRange("cipher refused")

    monkeypatch.setattr(container, "_encode_cell", refuse)
    assert main(["harden", "--key", str(key), "--cipher", str(cipher)]) == 3
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def test_harden_failing_between_its_replacements_leaves_a_recoverable_key(tmp_path, golden_key_file, monkeypatch):
    """The key is replaced first, so a failed cipher replacement exits 3
    with the cipher untouched and the key one word deeper, which decrypt
    refuses (exit 2). README's recipe gives back the key: drop the last 4
    bytes and lower the sticky count, byte 4, by one."""
    key = tmp_path / "k.cmk"
    shutil.copy(golden_key_file, key)
    plain, cipher, out = tmp_path / "p.bin", tmp_path / "c.cmc", tmp_path / "o.bin"
    plain.write_bytes(b"sixteen byte msg")
    assert main(["encrypt", "--key", str(key), "--in", str(plain), "--out", str(cipher)]) == 0
    key_before, cipher_before = key.read_bytes(), cipher.read_bytes()
    replace_file, calls = cli._replace_file, []

    def refuse(src, dst):
        raise OSError("replace refused")

    def fail_second(path, data):
        calls.append(path)
        if len(calls) == 2:  # the rename of the cipher's temp file fails
            monkeypatch.setattr(os, "replace", refuse)
        replace_file(path, data)

    monkeypatch.setattr(cli, "_replace_file", fail_second)
    assert main(["harden", "--key", str(key), "--cipher", str(cipher)]) == 3
    monkeypatch.undo()
    assert calls == [str(key), str(cipher)]
    assert cipher.read_bytes() == cipher_before
    grown = key.read_bytes()
    assert len(grown) == len(key_before) + 4 and grown[4] == key_before[4] + 1
    assert main(["decrypt", "--key", str(key), "--in", str(cipher), "--out", str(out)]) == 2
    recovered = bytearray(grown[:-4])
    recovered[4] -= 1
    assert bytes(recovered) == key_before
    key.write_bytes(recovered)
    assert main(["decrypt", "--key", str(key), "--in", str(cipher), "--out", str(out)]) == 0
    assert out.read_bytes() == plain.read_bytes()
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("sub", ["bruteforce", "compression", "avalanche"])
def test_analyze_help_lists_the_shared_flags(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", sub, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--seed", "--format", "--out"):
        assert flag in text


@pytest.mark.parametrize("sub", ["encrypt", "decrypt"])
def test_file_command_help_lists_the_shared_file_flags(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--key", "--in", "--out"):
        assert flag in text


def test_decrypt_without_out_is_a_usage_error(tmp_path, capsys):
    assert main(["decrypt", "--key", str(tmp_path / "k"), "--in", str(tmp_path / "c")]) == 1
    assert "--out" in capsys.readouterr().err


def test_readme_analyze_synopsis_shows_the_parser_defaults():
    """Every `[--flag NUMBER]` in the README's `cryptompress analyze`
    synopsis lines is the default the parser gives that flag."""
    seen = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        m = re.match(r"cryptompress analyze (\w+)\s+\[", line)
        if not m:
            continue
        defaults = vars(cli.build_parser().parse_args(["analyze", m[1]]))
        for flag, value in re.findall(r"\[--([\w-]+) ([\d.]+)\]", line):
            seen[m[1], flag] = (float(value), defaults[flag.replace("-", "_")])
    assert {sub for sub, _ in seen} == {"bruteforce", "compression", "avalanche"}
    assert all(shown == default for shown, default in seen.values()), seen


@pytest.mark.parametrize("harden_every", [3, 2000])
def test_analyze_bruteforce_draws_its_key_and_block_from_its_seed(capsys, harden_every):
    """Both sweeps of `analyze bruteforce --seed 5` attack the key and demo
    block that random.Random(5) draws, in that seed's order; with no
    hardening inside the 10-bit keyspace the hardened sweep finds the key too."""
    from cryptompress import analysis

    rng = random.Random(5)
    chain = cm.KeyChain(base=cm.keyschedule.generate_key(rng))
    block = analysis.demo_block(rng)
    grid = cipher.encrypt_block(block, chain)
    argv = ["analyze", "bruteforce", "--restricted-bits", "10", "--harden-every", str(harden_every), "--seed", "5"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    for run, every in (("baseline", 0), ("hardened", harden_every)):
        want = analysis.bruteforce_demo(grid, chain, block, 10, every, 5)._asdict()
        assert report[run] == {**want, "elapsed_seconds": report[run]["elapsed_seconds"]}
    assert report["baseline"]["success"] and report["baseline"]["attempts_made"] > 3
    assert report["hardened"]["success"] == (harden_every == 2000)


def test_readme_analyze_ranges_are_the_bounds_table():
    """The README's `# analyze ranges` comment under the synopsis states
    every range of analysis.BOUNDS, each under its option's --flag."""
    from math import inf

    from cryptompress import analysis

    text = README.read_text(encoding="utf-8")
    comment = text[text.index("# analyze ranges") :].split("```")[0]
    stated = {}
    for flag, low, high, least in re.findall(r"--([\w-]+) (?:(\d+)\.\.(\d+)|>= (\d+))", comment):
        stated[flag.replace("-", "_")] = (int(low), int(high)) if high else (int(least), inf)
    assert stated == analysis.BOUNDS


def _resolve(dotted: str):
    """The object a dotted name in the README names: a standard-library
    module's attribute, or one of the package, its modules or their names."""
    head, *rest = dotted.split(".")
    if head in sys.stdlib_module_names:
        obj = importlib.import_module(head)
    else:
        modules = [importlib.import_module(f"cryptompress.{m.name}") for m in pkgutil.iter_modules(cm.__path__)]
        obj = next(getattr(owner, head) for owner in [cm, *modules] if hasattr(owner, head))
    for name in rest:
        obj = getattr(obj, name)
    return obj


def test_readme_names_only_code_that_exists():
    """Every backticked `module.name` or `Class.attr` in the README
    resolves, so the docs cannot name deleted code."""
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text(encoding="utf-8")))
    assert {"cipher.compile_key", "CipherGrid.cells", "json.dumps"} <= names
    unresolved = []
    for name in sorted(names):
        try:
            _resolve(name)
        except (AttributeError, ImportError, StopIteration):
            unresolved.append(name)
    assert unresolved == []


def _loaded_by_cli_import(names) -> list[str]:
    """Which of `names` a fresh interpreter newly loads on `import cryptompress.cli`."""
    code = f"import sys; before = set(sys.modules); import cryptompress.cli; print(sorted({set(names)!r} & (set(sys.modules) - before)))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout)


def test_cli_import_loads_no_dataclasses():
    """The CLI's records are NamedTuples, so importing it does not pull in
    `dataclasses` (and through it inspect, ast, dis and tokenize)."""
    assert _loaded_by_cli_import(["dataclasses"]) == []


def test_cli_import_loads_no_analysis_csv_or_json():
    """The file commands need neither the analysis harness nor json or csv:
    those load in the commands that use them."""
    assert _loaded_by_cli_import(["cryptompress.analysis", "csv", "json"]) == []
    assert cm.analysis is importlib.import_module("cryptompress.analysis")


def _repeating_payload(rng) -> bytes:
    """Zero runs between random bytes: most blocks repeat an earlier one."""
    return bytes(60) + rng.randbytes(30) + bytes(60) + rng.randbytes(15) + bytes(45)


def test_encrypt_and_decrypt_compute_each_distinct_block_once(tmp_path, golden_key_file, monkeypatch):
    chain = container.read_key(Path(golden_key_file).read_bytes())
    payload = _repeating_payload(random.Random(18))
    msg = cm.segment_message(payload)
    grids = tuple(cm.encrypt_block(b, chain) for b in msg.blocks)  # no memo
    assert len(set(msg.blocks)) < len(msg.blocks) // 2
    calls = {"encrypt": [], "decrypt": []}

    def counting(name, fn):
        def wrapper(arg, chain):
            calls[name].append(arg)
            return fn(arg, chain)
        return wrapper

    monkeypatch.setattr(cli, "encrypt_block", counting("encrypt", cli.encrypt_block))
    monkeypatch.setattr(cli, "decrypt_block", counting("decrypt", cli.decrypt_block))
    plain, cipher, out = tmp_path / "p.bin", tmp_path / "c.cmc", tmp_path / "o.bin"
    plain.write_bytes(payload)
    assert main(["encrypt", "--key", golden_key_file, "--in", str(plain), "--out", str(cipher)]) == 0
    assert cipher.read_bytes() == container.write_cipher(container.CipherMessage(grids, msg.tail_bits))
    assert sorted(calls["encrypt"]) == sorted(set(msg.blocks))
    assert main(["decrypt", "--key", golden_key_file, "--in", str(cipher), "--out", str(out)]) == 0
    assert out.read_bytes() == payload
    assert sorted(calls["decrypt"]) == sorted(set(grids))


def test_encrypt_peak_memory_is_a_small_multiple_of_its_cipher_file(tmp_path, golden_key_file):
    """encrypt streams its grids through the writer: on a seeded 32 KiB
    uniform payload (8,738 distinct blocks) the traced peak stays under 8
    times the cipher file. Holding every grid before the write measured
    24 times, streaming them about 5 times."""
    import tracemalloc

    plain, cipher_file = tmp_path / "p.bin", tmp_path / "c.cmc"
    plain.write_bytes(random.Random(32).randbytes(32 * 1024))
    tracemalloc.start()
    try:
        assert main(["encrypt", "--key", golden_key_file, "--in", str(plain), "--out", str(cipher_file)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = cipher_file.stat().st_size
    assert peak < 8 * size, (peak, size)


def _bump_first_outcome(grid, by):
    cells = list(grid.cells)
    i = next(i for i, c in enumerate(cells) if c[0] == RM)
    cells[i] = (RM, cells[i][1] + by)
    return grid._replace(cells=tuple(cells))


def test_decrypt_reports_the_first_bad_block_when_it_repeats(tmp_path, golden_key_file, capsys):
    chain = container.read_key(Path(golden_key_file).read_bytes())
    rng = random.Random(19)
    grids = [cm.encrypt_block(rng.getrandbits(30), chain) for _ in range(4)]
    first, second = _bump_first_outcome(grids[1], 1), _bump_first_outcome(grids[2], 5)
    errors = []
    for bad in (first, second):
        with pytest.raises(IntegrityFailure) as exc:
            cm.decrypt_block(bad, chain)
        errors.append(str(exc.value))
    assert errors[0] != errors[1]
    cipher, out = tmp_path / "c.cmc", tmp_path / "o.bin"
    cipher.write_bytes(container.write_cipher(container.CipherMessage((grids[0], first, second, first), 30)))
    assert main(["decrypt", "--key", golden_key_file, "--in", str(cipher), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"integrity failure: {errors[0]}\n"
    assert not out.exists()


def test_harden_hardens_each_distinct_grid_once(tmp_path, golden_key_file, monkeypatch):
    """harden opens each distinct grid once, in first-seen order, and
    writes what hardening every grid under the same sticky word writes."""
    chain = container.read_key(Path(golden_key_file).read_bytes())
    plain, cipher_file = tmp_path / "p.bin", tmp_path / "c.cmc"
    plain.write_bytes(_repeating_payload(random.Random(20)))
    assert main(["encrypt", "--key", golden_key_file, "--in", str(plain), "--out", str(cipher_file)]) == 0
    msg = container.read_cipher(cipher_file.read_bytes())
    assert len(set(msg.grids)) < len(msg.grids) // 2
    opened = []
    open_grid, extend_key = cipher._open_grid, cipher.extend_key

    def recording(grid, chain):
        opened.append(grid)
        return open_grid(grid, chain)

    monkeypatch.setattr(cipher, "_open_grid", recording)
    monkeypatch.setattr(cipher, "extend_key", lambda chain, rng=None: extend_key(chain, random.Random(21)))
    assert main(["harden", "--key", golden_key_file, "--cipher", str(cipher_file)]) == 0
    assert opened == list(dict.fromkeys(msg.grids))
    monkeypatch.undo()
    grids, grown = cm.harden_message(msg.grids, chain, random.Random(21))
    assert cipher_file.read_bytes() == container.write_cipher(container.CipherMessage(grids, msg.tail_bits))
    assert container.read_key(Path(golden_key_file).read_bytes()) == grown


def _swap_first(grid, a, b):
    """`grid` with its first cells of kinds a and b swapped: a slot fault."""
    cells = list(grid.cells)
    i, j = (next(i for i, c in enumerate(cells) if c[0] == tag) for tag in (a, b))
    cells[i], cells[j] = cells[j], cells[i]
    return grid._replace(cells=tuple(cells))


def test_harden_reports_the_first_bad_grid_when_it_repeats(tmp_path, golden_key_file, capsys, monkeypatch):
    chain = container.read_key(Path(golden_key_file).read_bytes())
    rng = random.Random(22)
    grids = [cm.encrypt_block(rng.getrandbits(30), chain) for _ in range(3)]
    first, second = _swap_first(grids[1], ASM, SM), _swap_first(grids[2], ASM, RM)
    with pytest.raises(IntegrityFailure) as exc:
        cm.harden_message((first,), chain)
    with pytest.raises(IntegrityFailure):
        cm.harden_message((second,), chain)
    cipher_file = tmp_path / "c.cmc"
    cipher_file.write_bytes(container.write_cipher(container.CipherMessage((grids[0], first, second, first), 30)))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    opened = []
    open_grid = cipher._open_grid

    def recording(grid, chain):
        opened.append(grid)
        return open_grid(grid, chain)

    monkeypatch.setattr(cipher, "_open_grid", recording)
    assert main(["harden", "--key", golden_key_file, "--cipher", str(cipher_file)]) == 2
    assert opened == [grids[0], first]
    assert capsys.readouterr().err == f"integrity failure: {exc.value}\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_harden_at_depth_255_is_refused_and_changes_nothing(tmp_path, capsys):
    """A key file holds at most 255 sticky words, so harden refuses a key
    and cipher at depth 255 with exit 3 and leaves both files as they were."""
    rng = random.Random(23)
    chain = cm.KeyChain(base=cm.generate_key(rng), sticky=tuple(rng.getrandbits(32) for _ in range(255)))
    key, plain, cipher_file = tmp_path / "k.cmk", tmp_path / "p.bin", tmp_path / "c.cmc"
    key.write_bytes(container.write_key(chain))
    plain.write_bytes(rng.randbytes(40))
    assert main(["encrypt", "--key", str(key), "--in", str(plain), "--out", str(cipher_file)]) == 0
    assert container.read_header(cipher_file.read_bytes())[0] == 255
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(["harden", "--key", str(key), "--cipher", str(cipher_file)]) == 3
    assert capsys.readouterr().err == "error: at most 255 sticky keys fit the key file\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_a_truncated_last_block_outranks_a_slot_fault_in_block_3(tmp_path, golden_key_file, capsys, monkeypatch):
    """The whole file is checked before a slot fault is reported: with the
    last block truncated, decrypt, harden and inspect each exit 3 with the
    truncation, and harden changes no file. Without the truncation harden
    exits 2 with block 3's error and opens no grid after block 3."""
    chain = container.read_key(Path(golden_key_file).read_bytes())
    rng = random.Random(24)
    grids = [cm.encrypt_block(rng.getrandbits(30), chain) for _ in range(8)]
    grids[3] = _swap_first(grids[3], ASM, SM)
    with pytest.raises(IntegrityFailure) as slot_fault:
        cm.decrypt_block(grids[3], chain)
    whole = container.write_cipher(container.CipherMessage(tuple(grids), 30))
    cut = whole[:-3]
    with pytest.raises(cm.errors.Truncated) as truncated:
        container.read_cipher(cut)
    cipher_file, out = tmp_path / "c.cmc", tmp_path / "o.bin"
    cipher_file.write_bytes(cut)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    for argv in (
        ["decrypt", "--key", golden_key_file, "--in", str(cipher_file), "--out", str(out)],
        ["harden", "--key", golden_key_file, "--cipher", str(cipher_file)],
        ["inspect", "--cipher", str(cipher_file)],
    ):
        assert main(argv) == 3, argv
        assert capsys.readouterr().err == f"error: {truncated.value}\n", argv
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    cipher_file.write_bytes(whole)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    opened = []
    open_grid = cipher._open_grid

    def recording(grid, chain):
        opened.append(grid)
        return open_grid(grid, chain)

    monkeypatch.setattr(cipher, "_open_grid", recording)
    assert main(["harden", "--key", golden_key_file, "--cipher", str(cipher_file)]) == 2
    assert capsys.readouterr().err == f"integrity failure: {slot_fault.value}\n"
    assert opened == grids[:4]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_a_failed_word_draw_in_harden_is_outranked_only_by_a_container_error(tmp_path, golden_key_file, capsys, monkeypatch):
    """With no entropy for the new sticky word, harden exits 3 with the
    entropy error on an intact file and on one with a slot fault in block 3,
    and with the truncation once that file's last block is cut. Neither file
    changes in any case."""
    chain = container.read_key(Path(golden_key_file).read_bytes())
    rng = random.Random(25)
    grids = [cm.encrypt_block(rng.getrandbits(30), chain) for _ in range(8)]
    intact = container.write_cipher(container.CipherMessage(tuple(grids), 30))
    grids[3] = _swap_first(grids[3], ASM, SM)
    slot_fault = container.write_cipher(container.CipherMessage(tuple(grids), 30))
    cut = slot_fault[:-3]
    with pytest.raises(cm.errors.Truncated) as truncated:
        container.read_cipher(cut)
    drawn = cm.errors.EntropyUnavailable("randomness source failed: no entropy")

    def no_entropy(chain, rng=None):
        raise drawn

    monkeypatch.setattr(cipher, "extend_key", no_entropy)
    cipher_file = tmp_path / "c.cmc"
    capsys.readouterr()
    for data, error in ((intact, drawn), (slot_fault, drawn), (cut, truncated.value)):
        cipher_file.write_bytes(data)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert main(["harden", "--key", golden_key_file, "--cipher", str(cipher_file)]) == 3
        assert capsys.readouterr().err == f"error: {error}\n"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_harden_peak_memory_is_a_small_multiple_of_its_cipher_file(tmp_path, golden_key_file):
    """harden rewrites the file's bytes in one walk with no parsed message
    held: on a seeded 32 KiB uniform payload the traced peak stays under 13
    times the cipher file. The one walk measured about 10 times; parsing
    every block first and then hardening them measured 16 times."""
    import tracemalloc

    plain, cipher_file = tmp_path / "p.bin", tmp_path / "c.cmc"
    plain.write_bytes(random.Random(33).randbytes(32 * 1024))
    assert main(["encrypt", "--key", golden_key_file, "--in", str(plain), "--out", str(cipher_file)]) == 0
    size = cipher_file.stat().st_size
    tracemalloc.start()
    try:
        assert main(["harden", "--key", golden_key_file, "--cipher", str(cipher_file)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cipher_file.stat().st_size == size
    assert peak < 13 * size, (peak, size)
