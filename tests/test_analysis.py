import random
import time

import pytest

import cryptompress as cm
from cryptompress import analysis, container
from cryptompress.cipher import N_SLOTS, PRIME_BYTES, SM, SM_BASE, TM, _open_grid, compile_key, read_body, seal_pairs, unseal_mask
from cryptompress.engine import rebuild
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


def _unmemoised(grid, chain, block, bits, harden_every, seed, monkeypatch):
    """bruteforce_demo with every lead verdict passing, so that each
    candidate runs the whole rebuild, as the sweep did before the memo."""
    with monkeypatch.context() as m:
        m.setattr(analysis, "replay", lambda *args: [])
        return analysis.bruteforce_demo(grid, chain, block, bits, harden_every, seed)


def _lead(grid, chain, bits):
    """The prime of the first occupied term slot whose mask byte the low
    `bits` bits reach, or None."""
    tm = read_body(_open_grid(grid, chain)[1])[1]
    return next((cm.PRIMES[t] for t, _ in filter(None, tm) if PRIME_BYTES[t] & ((1 << bits) - 1)), None)


# reference_bruteforce hardens through harden_message, whose cost grows with
# the chain, so it takes seconds to minutes on these; they meet the
# unmemoised sweep instead, which the reference locks at the other sizes.
_QUADRATIC = {(12, 1), (16, 1), (16, 3)}


@pytest.mark.parametrize("harden_every", [0, 1, 3, 500])
@pytest.mark.parametrize("bits", [4, 8, 12, 16])
@pytest.mark.parametrize("seed", [0, 1])
def test_lead_memo_keeps_every_report_field(seed, bits, harden_every, monkeypatch):
    """Seed 0's lead is its first term slot, prime 7. Seed 1's follows
    fixed-byte targets: prime 7 in its last slot below 9 bits, prime 5
    after prime 3 from 9 bits. At 4 and 12 bits the lead byte is partly
    covered. Every report field but elapsed_seconds equals
    reference_bruteforce's and the unmemoised sweep's."""
    chain, block, grid = demo_setup(seed)
    assert _lead(grid, chain, bits) == (7 if seed == 0 or bits < 9 else 5)
    report = analysis.bruteforce_demo(grid, chain, block, bits, harden_every, seed)
    unmemoised = _unmemoised(grid, chain, block, bits, harden_every, seed, monkeypatch)
    assert report._replace(elapsed_seconds=0.0) == unmemoised._replace(elapsed_seconds=0.0)
    if (bits, harden_every) not in _QUADRATIC:
        _same_sweep(grid, chain, block, bits, harden_every, seed)


_TARGET_REASONS = ("duplicate_target", "crossings", "event_order", "rm_checksum")


@pytest.mark.parametrize("seed, lead, reached", [(0, 7, 81), (1, 5, 12)])
def test_only_candidates_passing_the_lead_verdict_reach_the_rebuild(seed, lead, reached, monkeypatch):
    """At 16 bits the candidates' masks differ in the bytes of primes 5 and
    7. Seed 0's first term slot is prime 7, and 21,877 of its 21,958
    candidates fail there; seed 1's lead is prime 5, after the fixed prime
    3, and 539 of its 551 fail there. None of them reaches the rebuild.
    Each candidate's unsealed pairs come here from its own compiled chain,
    and its whole rebuild decides whether it fails at the lead or before."""
    chain, block, grid = demo_setup(seed)
    calls = []

    def spy(rm, sm, tm, deltas):
        calls.append(sm)
        return rebuild(rm, sm, tm, deltas)

    monkeypatch.setattr(analysis, "rebuild", spy)
    report = analysis.bruteforce_demo(grid, chain, block, 16, 0, seed)
    assert report.success and _lead(grid, chain, 16) == lead
    rm, tm, stored = read_body(_open_grid(grid, chain)[1])
    slots = [cm.PRIMES[t] for t, _ in filter(None, tm)]
    head = slots[: slots.index(lead) + 1]
    deltas = compile_key(chain).deltas
    expected = []
    for value in analysis._sweep_order(16, seed)[: report.attempts_made]:
        key = compile_key(candidate_chain(chain, 16, value))
        sm = {i: seal_pairs(pairs, unseal_mask(key), key.swap, i) for i, pairs in enumerate(stored)}
        out = rebuild(rm, sm, tm, deltas)
        if not (type(out) is tuple and out[0] in _TARGET_REASONS and out[1] in head):
            expected.append(sm)
    assert len(calls) == reached
    assert calls == expected


@pytest.mark.parametrize(
    "seed, bits, replays, attempts",
    [(0, 1, 2, 2), (0, 4, 9, 9), (0, 16, 256, 21958), (1, 8, 26, 26), (1, 12, 16, 137), (1, 16, 225, 551)],
)
def test_lead_verdict_is_replayed_once_per_lead_byte(seed, bits, replays, attempts, monkeypatch):
    """The memo replays the slots up to and including the lead, and no
    further, once for each distinct byte of the lead prime among the
    candidates tried on the starting grid. Seed 1's low 12 bits cover half
    of prime 5's byte, so its 137 candidates need 16 verdicts."""
    calls = []
    real = analysis.replay
    monkeypatch.setattr(analysis, "replay", lambda *args: calls.append(args[0]) or real(*args))
    chain, block, grid = demo_setup(seed)
    report = analysis.bruteforce_demo(grid, chain, block, bits, 0, seed)
    assert report.attempts_made == attempts
    lead = cm.PRIMES.index(_lead(grid, chain, bits))
    tm = read_body(_open_grid(grid, chain)[1])[1]
    slots = [slot for slot in tm if slot]
    head = slots[: [t for t, _ in slots].index(lead) + 1]
    tried = analysis._sweep_order(bits, seed)[:attempts]
    assert len(calls) == len({value & PRIME_BYTES[lead] for value in tried}) == replays
    assert calls == [head] * replays


@pytest.mark.parametrize("harden_every", [0, 7])
@pytest.mark.parametrize("bits", [20, 24])
@pytest.mark.parametrize("seed", [0, 1])
def test_lead_memo_above_16_bits_on_a_short_order(seed, bits, harden_every, monkeypatch):
    """Above 16 bits prime 3's byte varies too, so seed 1's lead is its
    first term slot, prime 3. The shuffled order is cut to 300 random
    candidates, the true low bits at index 200."""
    chain, block, grid = demo_setup(seed)
    rng = random.Random(seed)
    order = [rng.getrandbits(bits) for _ in range(300)]
    order[200] = chain.base.xor_word & ((1 << bits) - 1)
    monkeypatch.setattr(analysis, "_sweep_order", lambda restricted_bits, seed: tuple(order))
    assert _lead(grid, chain, bits) == (7, 3)[seed]
    report = _same_sweep(grid, chain, block, bits, harden_every, seed)
    assert report.success == (harden_every == 0)


def _symbol_setup(seed, symbols):
    chain = KeyChain(base=generate_key(random.Random(seed)))
    block = cm.symbols_to_block(symbols)
    return chain, block, cm.encrypt_block(block, chain)


@pytest.mark.parametrize("harden_every", [0, 3])
def test_a_sweep_with_no_keyed_target_decides_every_candidate_by_one_verdict(harden_every, monkeypatch):
    """A block of 2s and 3s occupies only the term slots of primes 2 and 3,
    whose mask bytes no candidate reaches below 17 bits. There is no lead:
    one replay verdict serves every candidate, and each one tried on the
    starting grid runs the whole rebuild. Against another known block
    every candidate fails."""
    calls = {"replay": 0, "rebuild": 0}
    for name in calls:
        def counted(*args, _fn=getattr(analysis, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(analysis, name, counted)
    chain, block, grid = _symbol_setup(8, [2, 3, 3, 2, 2, 2, 3, 2, 3, 3, 3, 2, 2, 3, 2])
    assert _lead(grid, chain, 16) is None
    for known, attempts in ((block, 1), (block ^ 1, 256)):
        calls.update(replay=0, rebuild=0)
        report = _same_sweep(grid, chain, known, 8, harden_every, 8)
        assert (report.attempts_made, report.success) == (attempts, known == block)
        assert calls == {"replay": 1, "rebuild": min(attempts, harden_every or attempts)}


def test_with_no_lead_the_one_verdict_replays_every_occupied_slot(monkeypatch):
    """With no lead the head is all the occupied term slots, not none of them,
    so a grid that fails a fixed target is refused by the memo alone."""
    heads = []
    real = analysis.replay
    monkeypatch.setattr(analysis, "replay", lambda slots, *rest: heads.append(list(slots)) or real(slots, *rest))
    chain, block, grid = _symbol_setup(8, [2, 3, 3, 2, 2, 2, 3, 2, 3, 3, 3, 2, 2, 3, 2])
    analysis.bruteforce_demo(grid, chain, block, 8, 0, seed=8)
    tm = read_body(_open_grid(grid, chain)[1])[1]
    assert heads == [[slot for slot in tm if slot is not None]] and len(heads[0]) == 2


@pytest.mark.parametrize("harden_every", [0, 5])
def test_a_term_column_that_is_not_a_left_prefix_fails_every_candidate(harden_every):
    """A block of three primes leaves its last term slot empty. Swapping
    that cell with the first term cell passes the gate, which allows any
    three of the four term slots, and leaves a TM the rebuild refuses
    (term_prefix) under every key, whatever the lead's verdict."""
    chain, block, grid = _symbol_setup(9, [7, 2, 5, 5, 7, 2, 2, 5, 7, 7, 2, 5, 2, 7, 5])
    key = compile_key(chain)
    a, b = key.slots[4 * N_SLOTS], key.slots[4 * N_SLOTS + 3]
    cells = list(grid.cells)
    cells[a], cells[b] = cells[b], cells[a]
    bad = grid._replace(cells=tuple(cells))
    with pytest.raises(IntegrityFailure, match="not a left prefix"):
        cm.decrypt_block(bad, chain)
    assert _lead(bad, chain, 8) == 7
    report = _same_sweep(bad, chain, block, 8, harden_every, 9)
    assert report.attempts_made == 256 and not report.success


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


def test_defender_words_are_the_seeds_draws_and_elapsed_is_the_sweeps_own_time(monkeypatch):
    """At a seed other than 0, the defender reseals with random.Random(seed)'s
    32-bit words in order, and elapsed_seconds lies within the call's wall time."""
    chain, block, grid = demo_setup(3)
    words = []
    step = analysis.harden_cells
    monkeypatch.setattr(analysis, "harden_cells", lambda cells, word: words.append(word) or step(cells, word))
    before = time.perf_counter()
    report = analysis.bruteforce_demo(grid, chain, block, 8, 5, seed=3)
    wall = time.perf_counter() - before
    rng = random.Random(3)
    assert report.hardenings_triggered >= 2
    assert words == [rng.getrandbits(32) for _ in range(report.hardenings_triggered)]
    assert 0 <= report.elapsed_seconds <= wall


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


# Each analyze bound's library message, at the value past each end.
_PAST_AN_END = [
    ("restricted_bits", 0, "restricted_bits must be in [1, 24], got 0"),
    ("restricted_bits", 25, "restricted_bits must be in [1, 24], got 25"),
    ("harden_every", -1, "harden_every must be at least 0, got -1"),
    ("count", 0, "count must be at least 1, got 0"),
    ("stay", -0.1, "stay must be in [0, 1], got -0.1"),
    ("stay", 1.5, "stay must be in [0, 1], got 1.5"),
    ("stay", float("nan"), "stay must be in [0, 1], got nan"),
    ("samples", 99, "samples must be at least 100, got 99"),
]


@pytest.mark.parametrize("name, value, message", _PAST_AN_END)
def test_check_bounds_refuses_a_value_past_an_end_in_full(name, value, message):
    with pytest.raises(ValueOutOfRange) as info:
        analysis.check_bounds(**{name: value})
    assert str(info.value) == message


@pytest.mark.parametrize(
    "name, value",
    [("restricted_bits", 1), ("restricted_bits", 24), ("harden_every", 0), ("harden_every", 2**64), ("count", 1),
     ("stay", 0), ("stay", 1), ("stay", 0.5), ("samples", 100)],
)
def test_check_bounds_admits_each_end(name, value):
    assert analysis.check_bounds(**{name: value}) is None


def test_check_bounds_reports_the_first_bad_value_in_the_order_given():
    assert analysis.check_bounds() is None
    assert analysis.check_bounds(restricted_bits=24, harden_every=0) is None
    for values, first in [
        ({"count": 1, "stay": 2, "samples": 0}, "stay"),
        ({"samples": 0, "stay": 2}, "samples"),
        ({"restricted_bits": 0, "harden_every": -1}, "restricted_bits"),
        ({"harden_every": -1, "restricted_bits": 0}, "harden_every"),
    ]:
        with pytest.raises(ValueOutOfRange, match=f"^{first} must be"):
            analysis.check_bounds(**values)


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda grid, chain, block: analysis.bruteforce_demo(grid, chain, block, 0, 1, seed=0), _PAST_AN_END[0][2]),
        (lambda grid, chain, block: analysis.bruteforce_demo(grid, chain, block, 25, 1, seed=0), _PAST_AN_END[1][2]),
        (lambda grid, chain, block: analysis.bruteforce_demo(grid, chain, block, 24, -1, seed=0), _PAST_AN_END[2][2]),
        (lambda grid, chain, block: analysis.bruteforce_demo(grid, chain, block, 25, -1, seed=0), _PAST_AN_END[1][2]),
        (lambda grid, chain, block: analysis.biased_blocks(3, 0, -0.1), _PAST_AN_END[4][2]),
        (lambda grid, chain, block: analysis.biased_blocks(3, 0, 1.5), _PAST_AN_END[5][2]),
        (lambda grid, chain, block: analysis.avalanche_test(99, chain, 0), _PAST_AN_END[7][2]),
    ],
)
def test_analysis_refuses_a_bad_parameter_in_full_before_any_work(monkeypatch, run, message):
    chain, block, grid = demo_setup(4)
    calls = []
    for name in ("_sweep_order", "compress_block", "encrypt_block"):
        monkeypatch.setattr(analysis, name, lambda *a, name=name, **k: calls.append(name))
    with pytest.raises(ValueOutOfRange) as info:
        run(grid, chain, block)
    assert str(info.value) == message
    assert calls == []


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
