"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with its measured numbers (run with -s or read the -v output).

Monte-Carlo criteria use frozen seeds; the measured rates and paired
attempt counts were recorded before freezing, as noted inline.
"""

import json
import random
import time

import pytest

import cryptompress as cm
from cryptompress import analysis, container
from cryptompress.cipher import SM, compile_key, seal_pairs
from cryptompress.cli import main
from cryptompress.container import _encode_cell
from cryptompress.engine import AddSubMatrix, compress_block
from cryptompress.errors import ContainerError, IntegrityFailure
from cryptompress.keyschedule import (
    KeyChain,
    derive_material,
    extend_key,
    generate_key,
)
from test_compress_oracle import scramble, unscramble
from test_keyschedule import sticky_nibbles

PRIMES = (2, 3, 5, 7)


def ok(n, text):
    print(f"[criterion {n:02d}] PASS  {text}")


def test_c01_golden_asm():
    start = time.perf_counter()
    asm = AddSubMatrix((0x2, 0x3, 0x5, 0x7))
    want = {
        2: {3: -1, 5: 1, 7: -1},
        3: {2: -1, 5: 1, 7: 1},
        5: {2: -1, 3: 1, 7: 1},
        7: {2: -1, 3: 1, 5: 1},
    }
    checked = 0
    for t, row in want.items():
        for c, delta in row.items():
            assert asm.delta(t, c) == delta
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 12
    assert elapsed < 0.001
    ok(1, f"12/12 deltas exact in {elapsed * 1e6:.0f} us")


def test_c02_golden_traversal_and_trace(golden, golden_chain, golden_block, tmp_path, capsys):
    deltas = AddSubMatrix(golden_chain.base.orders).deltas
    start = time.perf_counter()
    cb = compress_block(golden_block, deltas)
    elapsed = time.perf_counter() - start
    # every matrix by prime index: 0, 1, 2, 3 for primes 2, 3, 5, 7
    assert cb.rm == (4, 4, 31, 42)
    assert cb.sm[0] == [(1, 1)]
    assert cb.sm[1] == [(3, 1)]
    assert cb.sm[2] == [(1, 2), (8, 1), (12, 1)]
    assert cb.sm[3] == [(1, 1), (3, 1), (5, 1), (7, 2)]
    assert cb.tm == ((0, 1), (1, 3), (3, 8), (2, 13))
    assert elapsed < 0.010
    # the CLI trace must emit the same 25 step values
    key_file = tmp_path / "k.cmk"
    key_file.write_bytes(container.write_key(golden_chain))
    assert main(["trace", "--key", str(key_file), "--block", golden["block_hex"], "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    values = [s["value"] for s in payload["steps"]]
    assert values == [15, 16, 17, 18, 19, 18, 19, 24, 23, 24, 25, 30, 31,
                      14, 15, 22, 21, 28, 27, 41, 42,
                      2, 1, 4,
                      4]
    with capsys.disabled():
        ok(2, f"tables and 25 trace steps exact, compress in {elapsed * 1e3:.2f} ms")


def test_c03_golden_xor_layer(golden, golden_chain):
    assert sticky_nibbles(golden_chain.base.xor_word) == (1, 2, 3, 4, 5, 6, 7, 8)
    sm = {p: [tuple(e) for e in golden["sm"][str(p)]] for p in PRIMES}
    key = compile_key(golden_chain)
    out = {p: seal_pairs(sm[p], key.mask, key.swap, i) for i, p in enumerate(PRIMES)}
    assert [tuple(e) for e in out[2]] == [(0, 3)]
    assert [tuple(e) for e in out[3]] == [(0, 5)]
    assert [tuple(e) for e in out[5]] == [(4, 4), (13, 7), (9, 7)]
    assert [tuple(e) for e in out[7]] == [(6, 9), (4, 9), (2, 9), (0, 10)]
    # the published table prints (10,9) for prime 7's third pair; 5^7=2,
    # recorded as an erratum in the fixture file
    erratum = next(
        e for e in golden["errata"] if "prime 7" in e["where"]
    )
    assert tuple(erratum["derived"]) == (2, 9)
    assert tuple(erratum["printed"]) != tuple(erratum["derived"])
    assert [tuple(e) for e in out[7]][2] == tuple(erratum["derived"])
    ok(3, "xor payloads exact for all four primes, prime-7 erratum pinned")


def test_c04_round_trip_10000():
    rng = random.Random(20260401)
    start = time.perf_counter()
    count = 0
    for depth in (0, 1, 2, 5):
        for _ in range(2500):
            chain = KeyChain(base=generate_key(rng))
            for _ in range(depth):
                chain = extend_key(chain, rng)
            block = rng.getrandbits(30)
            assert cm.decrypt_block(cm.encrypt_block(block, chain), chain) == block
            count += 1
    elapsed = time.perf_counter() - start
    assert count == 10000
    assert elapsed < 10.0
    ok(4, f"10000 round trips at depths 0/1/2/5, zero failures, {elapsed:.2f} s")


def closed_form_outcomes(symbols, asm):
    """Independent oracle: processing order is first-occurrence order, so
    outcome_t = t*count(t) + sum of delta(t, c) over cells of every prime
    that is processed after t. No traversal involved."""
    order = []
    for s in symbols:
        if s not in order:
            order.append(s)
    result = {}
    for i, t in enumerate(order):
        later = set(order[i + 1 :])
        result[t] = t * symbols.count(t) + sum(
            asm.delta(t, c) for c in symbols if c in later
        )
    return result


def test_c05_conservation_and_closed_form():
    rng = random.Random(20260402)
    for _ in range(10000):
        block = rng.getrandbits(30)
        symbols = list(cm.block_to_symbols(block))
        asm = AddSubMatrix(tuple(rng.randrange(16) for _ in range(4)))
        cb = compress_block(block, asm.deltas)
        consumed = sum(
            1 + sum(run for _, run in cb.sm[i]) for i in range(4) if cb.rm[i] is not None
        )
        assert consumed == 15
        want = closed_form_outcomes(symbols, asm)
        for i, p in enumerate(PRIMES):
            assert cb.rm[i] == want.get(p)
    ok(5, "conservation and closed-form outcomes hold on 10000 random blocks/matrices")


def test_c06_key_growth(golden_chain):
    rng = random.Random(20260403)
    chain = golden_chain
    grid = cm.encrypt_block(0x2AF738F9, chain)
    for k in range(1, 9):
        (grid,), chain = cm.harden_message((grid,), chain, rng)
        data = container.write_key(chain)
        assert len(data) == 21 + 4 * k
        assert chain.key_bits == 128 + 32 * k
    ok(6, "key file 21+4k bytes and chain 128+32k bits for k=1..8")


def test_c07_hardening_locality(golden_chain, golden_block):
    rng = random.Random(20260404)
    grid = cm.encrypt_block(golden_block, golden_chain)
    (hardened,), _ = cm.harden_message((grid,), golden_chain, rng)
    changed = 0
    for before, after in zip(grid.cells, hardened.cells):
        if _encode_cell(before) != _encode_cell(after):
            assert before[0] == SM and after[0] == SM
            changed += 1
    assert grid.orders == hardened.orders
    assert changed > 0
    ok(7, f"byte-level diff touches only sequence-list cells ({changed} of 20)")


def _derived_signature(base):
    asm, nibbles = derive_material(base)
    masked_orders = tuple(o & ~(1 << (3 - i)) for i, o in enumerate(asm.orders))
    table_mod4 = tuple(n % 4 for n in nibbles)
    return masked_orders, table_mod4, sticky_nibbles(base.xor_word)


def _corrupt_one_nibble(base, rng):
    """Replace one random key nibble with a random different value,
    resampling while the replacement changes nothing the cipher derives
    (diagonal order bits and mod-4-equal placement nibbles produce an
    equivalent key, which no decryptor could ever tell apart)."""
    raw = bytearray(base.to_bytes())
    while True:
        i = rng.randrange(32)
        new = rng.randrange(16)
        mutated = bytearray(raw)
        if i % 2 == 0:
            mutated[i // 2] = (new << 4) | (mutated[i // 2] & 0x0F)
        else:
            mutated[i // 2] = (mutated[i // 2] & 0xF0) | new
        if mutated == raw:
            continue
        candidate = cm.BaseKey.from_bytes(bytes(mutated))
        if _derived_signature(candidate) != _derived_signature(base):
            return candidate


def test_c08_wrong_key_detection_rate():
    # measured 992/1000 with this frozen seed before pinning the assertion
    rng = random.Random(20260809)
    trials = 1000
    detected = 0
    for _ in range(trials):
        chain = KeyChain(base=generate_key(rng))
        msg = cm.segment_message(rng.randbytes(15))
        grids = [cm.encrypt_block(b, chain) for b in msg.blocks]
        bad = KeyChain(base=_corrupt_one_nibble(chain.base, rng))
        try:
            for g in grids:
                cm.decrypt_block(g, bad)
        except IntegrityFailure:
            detected += 1
    rate = detected / trials
    assert rate >= 0.95
    ok(8, f"wrong-key IntegrityFailure rate {rate:.1%} ({detected}/{trials})")


def test_c09_scramble_sanity(golden):
    rng = random.Random(20260405)
    for _ in range(1000):
        chain = KeyChain(base=generate_key(rng))
        slots = compile_key(chain).slots
        grid = cm.encrypt_block(rng.getrandbits(30), chain)
        cells = unscramble(grid.cells, slots)
        assert scramble(cells, slots) == grid.cells
        assert sorted(map(repr, cells)) == sorted(map(repr, grid.cells))
    # the published encrypted-data table is internally inconsistent; its
    # deviations are pinned as fixture annotations, not silently corrected
    assert len(golden["errata"]) == 4
    for erratum in golden["errata"]:
        assert erratum["printed"] != erratum["derived"]
    ok(9, "scramble/unscramble identity and multiset preservation on 1000 grids")


# Each seed's baseline attempts in README's paired loop; every baseline
# succeeds without a hardening, and every hardened sweep makes all 65536
# attempts, hardens 131 times and fails. reference_bruteforce shares the
# sweep's shuffle, so only these pins catch a change in candidate order.
C10_BASELINE_ATTEMPTS = (21958, 551, 21988, 64875, 57439, 22739, 40777, 32848, 62955, 26498)


def test_c10_bruteforce_paired_seeds():
    # harden_every=500: every frozen seed's baseline needs more than 500
    # attempts, so hardening always fires in the paired run (measured
    # baselines 551..64875 for seeds 0..9 before freezing)
    start = time.perf_counter()
    results = []
    for seed in range(10):
        rng = random.Random(seed)
        chain = KeyChain(base=generate_key(rng))
        block = analysis.demo_block(rng)
        grid = cm.encrypt_block(block, chain)
        base = analysis.bruteforce_demo(grid, chain, block, 16, 0, seed)
        hard = analysis.bruteforce_demo(grid, chain, block, 16, 500, seed)
        assert base.success
        assert hard.attempts_made > base.attempts_made, seed
        results.append(
            [(r.attempts_made, r.hardenings_triggered, r.success) for r in (base, hard)]
        )
    assert results == [[(n, 0, True), (65536, 131, False)] for n in C10_BASELINE_ATTEMPTS]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    ok(10, f"hardened run exceeds baseline on 10/10 paired seeds in {elapsed:.1f} s")


def test_c11_container_truncation_fuzz(golden_chain, golden_block):
    start = time.perf_counter()
    rng = random.Random(20260406)
    chain = extend_key(extend_key(golden_chain, rng), rng)
    key_data = container.write_key(chain)
    grids = tuple(cm.encrypt_block(b, chain) for b in cm.segment_message(rng.randbytes(11)).blocks)
    cipher_data = container.write_cipher(container.CipherMessage(grids=grids, tail_bits=28))
    checked = 0
    for cut in range(len(key_data)):
        with pytest.raises(ContainerError):
            container.read_key(key_data[:cut])
        checked += 1
    for cut in range(len(cipher_data)):
        with pytest.raises(ContainerError):
            container.read_cipher(cipher_data[:cut])
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    ok(11, f"{checked} truncations, typed errors only, {elapsed:.2f} s")
