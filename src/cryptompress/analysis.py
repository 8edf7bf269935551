"""Measurement harness for the scheme's two empirical claims: hardening
grows brute-force work, and run-heavy inputs compress into fewer sequence
events. Plus a standard bit-diffusion diagnostic.

Every run takes an explicit seed; reports are NamedTuples, emitted as
JSON/CSV through _asdict(), and RatioReport.to_dict adds its means.
"""

import random
import time
from functools import cache, lru_cache
from math import inf
from typing import NamedTuple

from . import codec
from .cipher import (
    PRIME_BYTES,
    CipherGrid,
    _open_grid,
    compile_key,
    encrypt_block,
    fold_mask,
    harden_cells,
    read_body,
    unseal,
    unseal_mask,
)
from .container import compressed_size_bits, write_cipher, CipherMessage
from .engine import compress_block, rebuild, replay
from .errors import CryptompressError, EmptyInput, ValueOutOfRange
from .keyschedule import KeyChain

MAX_RESTRICTED_BITS = 24
MIN_SAMPLES = 100
# Each analyze parameter's closed range, by name, in the order the CLI checks them.
BOUNDS = {
    "restricted_bits": (1, MAX_RESTRICTED_BITS),
    "harden_every": (0, inf),
    "count": (1, inf),
    "stay": (0, 1),
    "samples": (MIN_SAMPLES, inf),
}


def check_bounds(**values) -> None:
    """Raise ValueOutOfRange for the first of `values`, in the order given, outside
    its BOUNDS range (a NaN included); the message starts with the parameter's name."""
    for name, value in values.items():
        low, high = BOUNDS[name]
        if not low <= value <= high:
            within = f"at least {low}" if high == inf else f"in [{low}, {high}]"
            raise ValueOutOfRange(f"{name} must be {within}, got {value}")


class AttackReport(NamedTuple):
    keyspace_bits: int
    attempts_made: int
    hardenings_triggered: int
    elapsed_seconds: float
    success: bool


class BlockStats(NamedTuple):
    symbols: int
    sm_events: int
    compressed_bits: int
    ratio: float


class RatioReport(NamedTuple):
    entries: list[BlockStats]

    def to_dict(self) -> dict:
        n = len(self.entries)
        return {
            "blocks": n,
            "mean_events": sum(e.sm_events for e in self.entries) / n,
            "mean_bits": sum(e.compressed_bits for e in self.entries) / n,
            "mean_ratio": sum(e.ratio for e in self.entries) / n,
        }


class AvalancheReport(NamedTuple):
    samples: int
    mean: float
    min: int
    max: int


def demo_block(rng: random.Random) -> int:
    """A random block in which every prime occurs at least twice, so all
    eight XOR subkeys matter and candidate elimination is meaningful."""
    while True:
        block = rng.getrandbits(codec.BLOCK_BITS)
        symbols = codec.block_to_symbols(block)
        if all(symbols.count(p) >= 2 for p in codec.PRIMES):
            return block


@lru_cache(maxsize=1)
def _sweep_order(restricted_bits: int, seed: int) -> tuple[int, ...]:
    """The seed-shuffled candidate order, kept for the paired baseline and
    hardened sweeps."""
    order = list(range(1 << restricted_bits))
    random.Random(seed).shuffle(order)
    return tuple(order)


def bruteforce_demo(
    grid: CipherGrid,
    chain: KeyChain,
    known_block: int,
    restricted_bits: int,
    harden_every: int,
    seed: int,
) -> AttackReport:
    """Known-plaintext sweep of a toy keyspace against a live defender.

    The true key differs from candidates only in its low `restricted_bits`
    bits. The attacker tries each candidate once, in a seed-shuffled
    order, always against the *current* ciphertext and with only the
    sticky keys that existed when the attack started. Every failed
    attempt increments the defender's counter; every `harden_every`-th
    failure (0 = never) triggers hardening, which rewrites the sequence
    cells and grows the chain, so every later attempt, the true base key
    included, dies on the round-count check. The report then shows a full
    unsuccessful sweep: the restart cost hardening imposes.

    The key structure, the slot gate and the body read read no bit of the
    XOR word, the demo's whole keyspace, so the sweep compiles one key and
    opens the starting grid once under `chain`. The mask fold is linear, so
    a candidate's unseal mask is the high bits' unseal mask, folded once,
    XOR its low bits, and cipher.unseal under it gives the SM the rebuild
    takes, as in decrypt_block. Candidates differ only in the mask bytes
    the low bits reach; the lead is the first occupied term slot whose
    prime reads one. The rebuild's checks up to and including the lead read
    no other varying byte, so their verdict (engine.replay) is memoised by
    the lead's byte, at most 256 per sweep (one with no lead), and only a
    candidate that passes runs the whole rebuild, whose refusal is a tuple
    that never equals the known block. Every candidate is still counted, in
    order. No candidate is tried on a hardened grid; the defender reseals
    the starting grid's cells in place (harden_cells) with
    random.Random(seed)'s words, drawn as extend_key draws them."""
    check_bounds(restricted_bits=restricted_bits, harden_every=harden_every)
    order = _sweep_order(restricted_bits, seed)
    rng = random.Random(seed)
    start = time.perf_counter()  # after the shuffle, which the paired sweeps share
    key = compile_key(chain)
    high = chain.base.xor_word >> restricted_bits << restricted_bits
    high_mask = unseal_mask(key._replace(mask=fold_mask(high, chain.sticky)))
    c = None
    try:
        c = _open_grid(grid, chain)[1]
        rm, tm, stored = read_body(c)
    except CryptompressError:  # the grid fails every candidate
        stored = None
    else:
        # head: the occupied slots up to and including the lead; head_bytes key its verdict
        slots = [slot for slot in tm if slot is not None]
        low = (1 << restricted_bits) - 1
        head = slots[: next((n + 1 for n, (t, _) in enumerate(slots) if PRIME_BYTES[t] & low), len(slots))]
        head_bytes = sum({PRIME_BYTES[t] for t, _ in head})
        passes = cache(lambda m: not isinstance(replay(head, rm, unseal(stored, m, key.swap), key.deltas), tuple))
    failures, success = 0, False
    for value in order:
        if stored is not None:
            mask = high_mask ^ value
            if passes(mask & head_bytes) and rebuild(rm, unseal(stored, mask, key.swap), tm, key.deltas) == known_block:
                success = True
                break
        failures += 1
        if harden_every and failures % harden_every == 0:
            harden_cells(c or _open_grid(grid, chain)[1], rng.getrandbits(32))  # a grid the gate refused raises here
            stored = None
    return AttackReport(
        keyspace_bits=restricted_bits,
        attempts_made=failures + success,
        hardenings_triggered=failures // harden_every if harden_every else 0,
        elapsed_seconds=time.perf_counter() - start,
        success=success,
    )


def compression_stats(blocks: list[int]) -> RatioReport:
    """Sequence-event counts and serialized sizes for a batch of blocks.
    No key enters: runs decide the events and a data cell's size depends
    only on its kind and event count, so one constant delta table serves."""
    if not blocks:
        raise EmptyInput("need at least one block")
    deltas = ((1,) * 4,) * 4
    report = RatioReport([])
    for block in blocks:
        cb = compress_block(block, deltas)
        events = sum(map(len, cb.sm.values()))
        bits = compressed_size_bits(cb)
        report.entries.append(
            BlockStats(
                symbols=codec.SYMBOLS_PER_BLOCK,
                sm_events=events,
                compressed_bits=bits,
                ratio=bits / codec.BLOCK_BITS,
            )
        )
    return report


def biased_blocks(count: int, seed: int, stay: float = 0.8) -> list[int]:
    """Blocks whose symbol stream repeats with probability `stay`:
    run-heavy inputs, the scheme's favourable case."""
    check_bounds(stay=stay)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        symbols = [rng.choice(codec.PRIMES)]
        for _ in range(codec.SYMBOLS_PER_BLOCK - 1):
            if rng.random() < stay:
                symbols.append(symbols[-1])
            else:
                symbols.append(rng.choice(codec.PRIMES))
        out.append(codec.symbols_to_block(symbols))
    return out


def random_blocks(count: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(codec.BLOCK_BITS) for _ in range(count)]


def _grid_bytes(grid: CipherGrid) -> bytes:
    # 24 tail bits end one block on a whole byte; both grids of a pair
    # share the header, so no distance depends on it
    return write_cipher(CipherMessage(grids=(grid,), tail_bits=24))


def _hamming(a: bytes, b: bytes) -> int:
    n = max(len(a), len(b))
    return (int.from_bytes(a.ljust(n, b"\0"), "big") ^ int.from_bytes(b.ljust(n, b"\0"), "big")).bit_count()


def avalanche_test(samples: int, chain: KeyChain, seed: int) -> AvalancheReport:
    """Flip one random plaintext bit per sample and report the Hamming
    distance between the serialized grids (shorter one zero-padded)."""
    check_bounds(samples=samples)
    rng = random.Random(seed)
    distances = []
    for _ in range(samples):
        block = rng.getrandbits(codec.BLOCK_BITS)
        flipped = block ^ (1 << rng.randrange(codec.BLOCK_BITS))
        d = _hamming(
            _grid_bytes(encrypt_block(block, chain)),
            _grid_bytes(encrypt_block(flipped, chain)),
        )
        distances.append(d)
    return AvalancheReport(
        samples=samples,
        mean=sum(distances) / len(distances),
        min=min(distances),
        max=max(distances),
    )
