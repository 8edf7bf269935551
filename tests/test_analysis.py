import random

import pytest

import cryptompress as cm
from cryptompress import analysis, container
from cryptompress.cipher import N_SLOTS, SM, SM_BASE, TM, compile_key
from cryptompress.errors import CryptompressError, EmptyInput, IntegrityFailure, ValueOutOfRange
from cryptompress.keyschedule import KeyChain, derive_material, extend_key, generate_key


def demo_setup(seed, min_count=2):
    rng = random.Random(seed)
    chain = KeyChain(base=generate_key(rng))
    while True:
        block = rng.getrandbits(30)
        symbols = cm.block_to_symbols(block)
        if all(symbols.count(p) >= min_count for p in (2, 3, 5, 7)):
            break
    return chain, block, cm.encrypt_block(block, chain)


def candidate_chain(chain, low_bits, value):
    """`chain` with the lowest `low_bits` bits of its base key replaced by
    `value`; with at most 24 of them, only the XOR word changes."""
    sm_key = chain.base.sm_key >> low_bits << low_bits | value
    return KeyChain(chain.base._replace(sm_key=sm_key), chain.sticky)


def reference_bruteforce(grid, chain, known_block, restricted_bits, harden_every, seed):
    """The sweep as one full decrypt_block per candidate, each on its own
    chain, in bruteforce_demo's order and with its hardening, the
    defender's words drawn from random.Random(seed); elapsed_seconds is 0."""
    order = analysis._sweep_order(restricted_bits, seed)
    rng = random.Random(seed)
    live_grid, live_chain = grid, chain
    attempts = failures = 0
    success = False
    for value in order:
        attempts += 1
        try:
            hit = cm.decrypt_block(live_grid, candidate_chain(chain, restricted_bits, value)) == known_block
        except CryptompressError:
            hit = False
        if hit:
            success = True
            break
        failures += 1
        if harden_every and failures % harden_every == 0:
            (live_grid,), live_chain = cm.harden_message((live_grid,), live_chain, rng)
    hardenings = failures // harden_every if harden_every else 0
    return analysis.AttackReport(restricted_bits, attempts, hardenings, 0.0, success)


def deep_setup(seed, depth):
    chain, block, _ = demo_setup(seed)
    rng = random.Random(seed)
    for _ in range(depth):
        chain = extend_key(chain, rng)
    return chain, block, cm.encrypt_block(block, chain)


def _rotated(grid):
    return grid._replace(cells=grid.cells[1:] + grid.cells[:1])


def _same_sweep(grid, chain, block, bits, harden_every, seed):
    report = analysis.bruteforce_demo(grid, chain, block, bits, harden_every, seed)
    assert report._replace(elapsed_seconds=0.0) == reference_bruteforce(grid, chain, block, bits, harden_every, seed)
    return report


@pytest.mark.parametrize("harden_every", [0, 1, 3, 7])
@pytest.mark.parametrize("seed", range(10))
def test_sweep_matches_one_decrypt_per_candidate(seed, harden_every):
    chain, block, grid = demo_setup(seed)
    _same_sweep(grid, chain, block, 10, harden_every, seed)


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4, 7, 8])
def test_sweep_matches_one_decrypt_per_candidate_on_deep_chains(depth):
    chain, block, grid = deep_setup(depth, depth)
    for bits in (1, 8, 10):
        for harden_every in (0, 3, 7):
            _same_sweep(grid, chain, block, bits, harden_every, depth)


def test_sweep_hardening_after_every_failure_matches_one_decrypt_per_candidate():
    """harden_every=1 hardens after every failed candidate, the reference
    through a harden_message call and a new chain each time; the sweep
    still matches it, field for field."""
    chain, block, grid = demo_setup(11)
    report = _same_sweep(grid, chain, block, 8, 1, 11)
    assert report.hardenings_triggered == report.attempts_made - report.success >= 255


def test_sweep_of_a_grid_the_gate_refuses_matches_one_decrypt_per_candidate():
    chain, block, grid = demo_setup(5)
    report = _same_sweep(_rotated(grid), chain, block, 8, 0, 5)
    assert report.attempts_made == 256 and not report.success
    # the defender's own hardening opens the grid through the same gate
    for sweep in (analysis.bruteforce_demo, reference_bruteforce):
        with pytest.raises(IntegrityFailure):
            sweep(_rotated(grid), chain, block, 8, 5, 5)


def _body_fault(grid, chain, fault):
    """`grid` with one cell the gate passes and the body read refuses: a
    term cell whose code names no prime, or a sequence pair that does not
    fit a nibble."""
    slots = compile_key(chain).slots
    cells = list(grid.cells)
    if fault == "term code":
        j = next(j for j in slots[4 * N_SLOTS :] if cells[j][0] == TM)
        cells[j] = (TM, 9, cells[j][2])
    else:
        cells[slots[SM_BASE]] = (SM, ((16, 1),))
    return grid._replace(cells=tuple(cells))


@pytest.mark.parametrize("harden_every", [0, 5])
@pytest.mark.parametrize("fault", ["term code", "nibble"])
def test_sweep_of_a_grid_the_body_read_refuses_matches_one_decrypt_per_candidate(fault, harden_every):
    """The sweep runs the body read once, on the starting grid; a grid it
    refuses fails every candidate, and harden_message, which never reads
    the body, still hardens it."""
    chain, block, grid = demo_setup(6)
    bad = _body_fault(grid, chain, fault)
    with pytest.raises(IntegrityFailure if fault == "term code" else ValueOutOfRange):
        cm.decrypt_block(bad, chain)
    report = _same_sweep(bad, chain, block, 8, harden_every, 6)
    assert report.attempts_made == 256 and not report.success
    assert report.hardenings_triggered == (51 if harden_every else 0)


def _sweep_calls(harden_every, monkeypatch):
    """The report of a 10-bit sweep, its starting grid, and the first
    argument of each call it makes to the key compiler, the fold, the gate
    and the hardening step."""
    calls = {"_open_grid": [], "compile_key": [], "fold_mask": [], "harden_cells": []}
    for name in calls:
        def counted(*args, _fn=getattr(analysis, name), _name=name):
            calls[_name].append(args[0])
            return _fn(*args)

        monkeypatch.setattr(analysis, name, counted)
    chain, block, grid = demo_setup(0)
    report = analysis.bruteforce_demo(grid, chain, block, 10, harden_every, seed=0)
    # one key compiled and one high mask folded per sweep
    assert calls.pop("compile_key") == [chain]
    assert calls.pop("fold_mask") == [chain.base.xor_word >> 10 << 10]
    return report, grid, calls


def test_baseline_sweep_opens_the_grid_once(monkeypatch):
    """The live grid runs the gate, round check included, once, not once
    per candidate: a candidate costs only its rebuild. reference_bruteforce
    locks each candidate's verdict."""
    report, grid, calls = _sweep_calls(0, monkeypatch)
    assert report.success and report.attempts_made > 1
    assert calls == {"_open_grid": [grid], "harden_cells": []}


def test_hardened_sweep_opens_only_the_starting_grid(monkeypatch):
    """The starting grid runs the gate once, and no hardened grid runs it:
    a hardened grid carries more rounds than the attacker's chain has
    sticky words, so its round check would refuse every candidate. Each
    hardening reseals the starting grid's logical cells in place, and they
    end as the cells of as many harden_message calls under the same
    words. reference_bruteforce locks each candidate's verdict."""
    report, grid, calls = _sweep_calls(7, monkeypatch)
    hardened = calls.pop("harden_cells")
    assert report.hardenings_triggered >= 2
    assert calls == {"_open_grid": [grid]}
    assert len(hardened) == report.hardenings_triggered
    assert all(cells is hardened[0] for cells in hardened)
    chain, rng = demo_setup(0)[0], random.Random(0)
    for _ in hardened:
        (grid,), chain = cm.harden_message((grid,), chain, rng)
    assert hardened[0] == cm.cipher._open_grid(grid, chain)[1]


def test_exhaustive_search_succeeds_without_hardening():
    chain, block, grid = demo_setup(0)
    report = analysis.bruteforce_demo(grid, chain, block, 8, 0, seed=0)
    assert report.success
    assert report.attempts_made <= 256
    assert report.hardenings_triggered == 0


def test_one_restricted_bit_is_the_smallest_keyspace():
    chain, block, grid = demo_setup(0)
    report = analysis.bruteforce_demo(grid, chain, block, 1, 0, seed=0)
    assert report.keyspace_bits == 1
    assert report.success
    assert report.attempts_made <= 2


@pytest.mark.parametrize("seed", range(4))
def test_paired_sweeps_share_one_shuffle(seed, monkeypatch):
    """The hardened sweep reuses the baseline's shuffled order: reports and
    the defender's words match sweeps that each shuffle afresh."""
    chain, block, grid = demo_setup(seed)
    words = []
    step = analysis.harden_cells

    def spy(cells, word):
        words.append(word)
        return step(cells, word)

    monkeypatch.setattr(analysis, "harden_cells", spy)

    def sweep(harden_every, fresh):
        if fresh:
            analysis._sweep_order.cache_clear()
        words.clear()
        r = analysis.bruteforce_demo(grid, chain, block, 10, harden_every, seed)
        return r.attempts_made, r.hardenings_triggered, r.success, tuple(words)

    paired = [sweep(0, True), sweep(20, False), sweep(20, False)]
    independent = [sweep(0, True), sweep(20, True), sweep(20, True)]
    assert paired == independent
    assert paired[1][1] > 0 and len(paired[1][3]) == paired[1][1]


def test_hardening_trigger_arithmetic():
    chain, block, grid = demo_setup(1)
    report = analysis.bruteforce_demo(grid, chain, block, 8, 10, seed=1)
    if report.success:
        failures = report.attempts_made - 1
    else:
        failures = report.attempts_made
    assert report.hardenings_triggered == failures // 10


def test_hardened_run_exceeds_baseline_single_seed():
    chain, block, grid = demo_setup(2)
    base = analysis.bruteforce_demo(grid, chain, block, 12, 0, seed=2)
    hard = analysis.bruteforce_demo(grid, chain, block, 12, 50, seed=2)
    assert base.success
    assert hard.attempts_made > base.attempts_made
    assert not hard.success


def test_sixteen_bit_keyspace_hardened_every_1000():
    # seed 0 baseline measured at 21958 attempts, past the first hardening
    chain, block, grid = demo_setup(0)
    base = analysis.bruteforce_demo(grid, chain, block, 16, 0, seed=0)
    hard = analysis.bruteforce_demo(grid, chain, block, 16, 1000, seed=0)
    assert base.success
    assert hard.attempts_made > base.attempts_made
    assert hard.hardenings_triggered == hard.attempts_made // 1000


def test_attempts_bounded_by_keyspace():
    chain, block, grid = demo_setup(3)
    report = analysis.bruteforce_demo(grid, chain, block, 8, 3, seed=3)
    assert report.attempts_made <= 256


def test_keyspace_cap():
    chain, block, grid = demo_setup(4)
    for bits in (0, 25):
        with pytest.raises(ValueOutOfRange, match="restricted_bits"):
            analysis.bruteforce_demo(grid, chain, block, bits, 0, seed=4)


def test_keyspace_cap_takes_24_bits(monkeypatch):
    """24 restricted bits is the largest keyspace: with the shuffled order
    cut to three candidates, a 24-bit sweep runs and a 25-bit one raises."""
    monkeypatch.setattr(analysis, "_sweep_order", lambda restricted_bits, seed: (0, 1, 2))
    chain, block, grid = demo_setup(4)
    report = analysis.bruteforce_demo(grid, chain, block, 24, 2, seed=4)
    assert report == analysis.AttackReport(24, 3, 1, report.elapsed_seconds, False)
    with pytest.raises(ValueOutOfRange, match=r"restricted_bits must be in \[1, 24\], got 25"):
        analysis.bruteforce_demo(grid, chain, block, 25, 2, seed=4)


def test_negative_harden_every_is_rejected():
    """Without the guard a sweep of 16 candidates, every one failing,
    reported hardenings_triggered=-16."""
    chain, block, grid = demo_setup(4)
    with pytest.raises(ValueOutOfRange, match="harden_every"):
        analysis.bruteforce_demo(grid, chain, block, 4, -1, seed=4)


@pytest.mark.parametrize("stay", [1.5, -0.1])
def test_biased_blocks_refuse_a_stay_outside_zero_to_one(stay):
    with pytest.raises(ValueOutOfRange, match="stay"):
        analysis.biased_blocks(1, 0, stay)


def test_compression_stats_of_no_blocks_is_empty_input():
    with pytest.raises(EmptyInput):
        analysis.compression_stats([])


def test_all_zero_block_has_one_event():
    report = analysis.compression_stats([0])
    assert report.entries[0].sm_events == 1


def test_alternating_block_event_total():
    # 2,3,2,3,...,2: seven isolated absorptions for the 2s, one run of 3s
    block = cm.symbols_to_block([2, 3] * 7 + [2])
    assert block == 0x04444444
    report = analysis.compression_stats([block])
    assert report.entries[0].sm_events == 8
    assert report.entries[0].sm_events < report.entries[0].symbols


def test_stats_respect_conservation(golden_chain):
    asm, _ = derive_material(golden_chain.base)
    rng = random.Random(6)
    blocks = [rng.getrandbits(30) for _ in range(200)]
    report = analysis.compression_stats(blocks)
    for block, entry in zip(blocks, report.entries):
        cb = cm.compress_block(block, asm.deltas)
        consumed = sum(
            1 + sum(run for _, run in cb.sm[i])
            for i in range(4)
            if cb.rm[i] is not None
        )
        assert consumed == 15
        assert 1 <= entry.sm_events <= 14
        # the stats take no key, and match the golden key's compression
        assert entry.sm_events == sum(map(len, cb.sm.values()))
        assert entry.compressed_bits == container.compressed_size_bits(cb)


def test_random_blocks_have_more_events_than_biased():
    plain = analysis.compression_stats(analysis.random_blocks(1000, 1))
    biased = analysis.compression_stats(analysis.biased_blocks(1000, 2))
    assert plain.to_dict()["mean_events"] > biased.to_dict()["mean_events"]


def test_avalanche_zero_distance_for_identical_input(golden_chain, golden_block):
    a = cm.encrypt_block(golden_block, golden_chain)
    b = cm.encrypt_block(golden_block, golden_chain)
    assert analysis._hamming(analysis._grid_bytes(a), analysis._grid_bytes(b)) == 0


def test_avalanche_grid_bytes_are_a_readable_file(golden_chain, golden_block):
    grid = cm.encrypt_block(golden_block, golden_chain)
    assert cm.read_cipher(analysis._grid_bytes(grid)).grids == (grid,)


def test_avalanche_summary_shape(golden_chain):
    report = analysis.avalanche_test(100, golden_chain, seed=9)
    assert report.samples == 100
    assert report.min <= report.mean <= report.max
    assert report.min >= 0


def test_avalanche_regression_fixture(golden, golden_chain):
    """Frozen on first measurement; seeded, so exact equality holds."""
    want = golden["avalanche_regression"]
    report = analysis.avalanche_test(want["samples"], golden_chain, seed=want["seed"])
    assert report.mean == pytest.approx(want["mean"], abs=1e-9)
    assert report.min == want["min"]
    assert report.max == want["max"]


def test_avalanche_rejects_tiny_sample_counts(golden_chain):
    for samples in (50, analysis.MIN_SAMPLES - 1):
        with pytest.raises(cm.errors.ValueOutOfRange):
            analysis.avalanche_test(samples, golden_chain, seed=0)
    assert analysis.avalanche_test(analysis.MIN_SAMPLES, golden_chain, seed=0).samples == 100
