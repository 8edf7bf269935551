"""Key parsing and growth.

The 128-bit base key splits into five working parts (sizes in bits):

    asm key 48 = orders 16 | horizontal arrangement 16 | vertical arrangement 16
    rm key 16
    tm key 16
    sm key 48 = arrangement 16 | xor subkeys 32

The five 16-bit arrangement words give the 20 placement nibbles that key
the ciphertext scramble; the order word alone builds the Add-Sub Matrix;
the 32 xor-subkey bits split into eight nibbles, one (S, R) pair per prime.
Failed-attempt hardening appends 32-bit sticky keys, one per round.
"""

import random
from typing import NamedTuple

from .engine import AddSubMatrix
from .errors import EntropyUnavailable, WrongLength

KEY_BYTES = 16
STICKY_BITS = 32


def _nibbles16(word: int) -> tuple[int, int, int, int]:
    return ((word >> 12) & 15, (word >> 8) & 15, (word >> 4) & 15, word & 15)


class BaseKey(NamedTuple):
    asm_key: int  # 48 bits
    rm_key: int  # 16 bits
    tm_key: int  # 16 bits
    sm_key: int  # 48 bits

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BaseKey":
        if len(raw) != KEY_BYTES:
            raise WrongLength(f"base key must be 16 bytes, got {len(raw)}")
        return cls(
            asm_key=int.from_bytes(raw[0:6], "big"),
            rm_key=int.from_bytes(raw[6:8], "big"),
            tm_key=int.from_bytes(raw[8:10], "big"),
            sm_key=int.from_bytes(raw[10:16], "big"),
        )

    def to_bytes(self) -> bytes:
        return (
            self.asm_key.to_bytes(6, "big")
            + self.rm_key.to_bytes(2, "big")
            + self.tm_key.to_bytes(2, "big")
            + self.sm_key.to_bytes(6, "big")
        )

    @property
    def orders(self) -> tuple[int, int, int, int]:
        return _nibbles16(self.asm_key >> 32)

    @property
    def xor_word(self) -> int:
        return self.sm_key & 0xFFFFFFFF


class KeyChain(NamedTuple):
    """Base key plus the sticky keys appended by hardening, oldest first."""

    base: BaseKey
    sticky: tuple[int, ...] = ()

    @property
    def key_bits(self) -> int:
        return 8 * KEY_BYTES + STICKY_BITS * len(self.sticky)


def derive_material(base: BaseKey) -> tuple[AddSubMatrix, tuple[int, ...]]:
    """Split a base key into its Add-Sub Matrix and its 20 placement
    nibbles in scramble cycle order: asm rows, asm columns, rm, sm, tm,
    four each."""
    words = ((base.asm_key >> 16) & 0xFFFF, base.asm_key & 0xFFFF, base.rm_key, base.sm_key >> 32, base.tm_key)
    return AddSubMatrix(base.orders), tuple(n for w in words for n in _nibbles16(w))


def _draw_bits(rng: random.Random | None, nbits: int) -> int:
    """`nbits` random bits from `rng`, by default the OS entropy pool."""
    if rng is None:
        rng = random.SystemRandom()
    try:
        return rng.getrandbits(nbits)
    except Exception as exc:  # the source itself failed, not our state
        raise EntropyUnavailable(f"randomness source failed: {exc}") from exc


def generate_key(rng: random.Random | None = None) -> BaseKey:
    """Draw a fresh uniformly random 128-bit base key.

    Pass a seeded random.Random for reproducible tests; the default is the
    OS entropy pool. No weak-key screening: the scheme defines none.
    """
    return BaseKey.from_bytes(_draw_bits(rng, 128).to_bytes(KEY_BYTES, "big"))


def extend_key(chain: KeyChain, rng: random.Random | None = None) -> KeyChain:
    """Append one fresh 32-bit sticky key; prior keys are untouched."""
    return KeyChain(base=chain.base, sticky=chain.sticky + (_draw_bits(rng, STICKY_BITS),))
