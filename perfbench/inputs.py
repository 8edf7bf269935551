"""Input generator: payloads and key chains from the workload seed.

The program only ever receives the files written from these bytes. Key
files are built here in the CMK1 layout (magic, sticky count, 16 base-key
bytes, one 4-byte word per sticky key), so a workload can start from any
sticky depth without calling the program.
"""

import random
from dataclasses import dataclass

SPARSE_NONZERO = 1 / 8  # share of nonzero bytes in a sparse payload


def uniform_payload(rng: random.Random, size: int) -> bytes:
    """High-entropy bytes, like an already compressed file."""
    return rng.randbytes(size)


def sparse_payload(rng: random.Random, size: int) -> bytes:
    """Mostly zero bytes with scattered random nonzero ones, like a sparse
    binary: about 1.9 targets and 1.8 SM events per block, and two thirds
    of the blocks repeat an earlier one."""
    return bytes(rng.randrange(1, 256) if rng.random() < SPARSE_NONZERO else 0 for _ in range(size))


PAYLOADS = {"uniform": uniform_payload, "sparse": sparse_payload}


def key_file(base: bytes, sticky: list[int]) -> bytes:
    return b"CMK1" + bytes([len(sticky)]) + base + b"".join(w.to_bytes(4, "big") for w in sticky)


@dataclass(frozen=True)
class Inputs:
    payload: bytes
    key: bytes  # the workload's key file
    key0: bytes  # its base key alone
    key8: bytes  # its base key under 8 sticky words: its own, then spare ones


def make_inputs(workload: str, seed: int, payload: str, size: int, depth: int) -> Inputs:
    """The same (workload, seed) always gives the same bytes."""
    rng = random.Random(f"{workload}:{seed}")
    data = PAYLOADS[payload](rng, size)
    base = rng.randbytes(16)
    sticky = [rng.getrandbits(32) for _ in range(depth)]
    spare = [rng.getrandbits(32) for _ in range(8)]
    return Inputs(data, key_file(base, sticky), key_file(base, []), key_file(base, (sticky + spare)[:8]))
