"""Output oracles, written from the scheme's description and the CMK1/CMC1
file formats in README.md. Nothing here imports cryptompress: every
expected value is derived again from the plaintext and the key bytes, so a
fault in the package cannot hide behind the same fault in its checker.

Each check raises Mismatch naming what disagreed.
"""

from collections import Counter
from dataclasses import dataclass

BLOCK_BITS = 30
SYMBOLS = 15
PRIMES = (2, 3, 5, 7)
CIPHER_HEADER = 11  # magic 4, version 1, sticky rounds 1, block count 4, tail bits 1
KEY_HEADER = 21  # magic 4, sticky count 1, base key 16
# Serialized cell sizes: tag byte plus payload.
EMPTY_BYTES, ASM_BYTES, RM_BYTES, TM_BYTES = 1, 3, 5, 3


class Mismatch(Exception):
    """An output disagrees with what the scheme's description predicts."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def block_count(nbytes: int) -> int:
    return -(-8 * nbytes // BLOCK_BITS)


def tail_bits(nbytes: int) -> int:
    return 8 * nbytes - BLOCK_BITS * (block_count(nbytes) - 1)


def payload_blocks(payload: bytes) -> list[int]:
    """The payload's bits, MSB-first, cut into 30-bit blocks; the last
    block is zero-padded on the right."""
    n = block_count(len(payload))
    value = int.from_bytes(payload, "big") << (BLOCK_BITS * n - 8 * len(payload))
    bits = format(value, f"0{BLOCK_BITS * n}b")
    return [int(bits[i : i + BLOCK_BITS], 2) for i in range(0, BLOCK_BITS * n, BLOCK_BITS)]


def block_symbols(block: int) -> tuple[int, ...]:
    """Bit pairs 00, 01, 10, 11 become the primes 2, 3, 5, 7, MSB-first."""
    return tuple(PRIMES[(block >> (BLOCK_BITS - 2 - 2 * j)) & 3] for j in range(SYMBOLS))


@dataclass(frozen=True)
class Target:
    """One target of a block, as the traversal processes it."""

    prime: int
    count: int  # cells of this prime in the block
    events: int  # SM events: runs in the residual, less one if the first run is a single cell
    later: tuple[int, ...]  # the cells it crosses: every cell of a prime processed later


def targets(symbols: tuple[int, ...]) -> list[Target]:
    out = []
    residual = list(symbols)
    while residual:
        t = residual[0]
        runs = sum(1 for i, c in enumerate(residual) if c == t and (i == 0 or residual[i - 1] != t))
        first_run = next((i for i, c in enumerate(residual) if c != t), len(residual))
        later = tuple(c for c in residual if c != t)
        out.append(Target(t, len(residual) - len(later), runs - (first_run == 1), later))
        residual = list(later)
    return out


def delta(orders: tuple[int, ...], target: int, crossed: int) -> int:
    """The Add-Sub Matrix entry: bit (target's nibble, crossed's column) 1 is +1."""
    return 1 if (orders[PRIMES.index(target)] >> (3 - PRIMES.index(crossed))) & 1 else -1


def block_bytes(ts: list[Target]) -> int:
    """Serialized size of one block: 2 order bytes, 8 ASM strings, m RM and
    m TM cells, 4 SM lists of 2 + 2*events bytes, 8 - 2m empty cells."""
    m = len(ts)
    events = sum(t.events for t in ts)
    return 2 + 8 * ASM_BYTES + m * (RM_BYTES + TM_BYTES) + 4 * 2 + 2 * events + (8 - 2 * m) * EMPTY_BYTES


class Payload:
    """A plaintext and everything the oracles predict from it alone."""

    def __init__(self, data: bytes):
        self.data = data
        self.blocks = [targets(block_symbols(b)) for b in payload_blocks(data)]
        self.cipher_bytes = CIPHER_HEADER + sum(block_bytes(ts) for ts in self.blocks)

    @property
    def targets_per_block(self) -> float:
        return sum(len(ts) for ts in self.blocks) / len(self.blocks)

    @property
    def events_per_block(self) -> float:
        return sum(t.events for ts in self.blocks for t in ts) / len(self.blocks)


def key_orders(key: bytes) -> tuple[int, int, int, int]:
    """The four ASM order nibbles: the first 16 bits of the base key."""
    w = int.from_bytes(key[5:7], "big")
    return (w >> 12, (w >> 8) & 15, (w >> 4) & 15, w & 15)


def check_key(key: bytes, sticky: int) -> None:
    expect(key[:4] == b"CMK1", f"key magic is {key[:4]!r}")
    expect(key[4] == sticky, f"key declares {key[4]} sticky words, expected {sticky}")
    expect(len(key) == KEY_HEADER + 4 * sticky, f"key file is {len(key)} bytes for {sticky} sticky words")


def check_plaintext(out: bytes, p: Payload) -> None:
    expect(out == p.data, f"decrypt returned {len(out)} bytes that are not the {len(p.data)}-byte payload")


def check_cipher(cipher: bytes, p: Payload, sticky: int) -> None:
    """Header fields and total length, the latter summed from the cell
    sizes the plaintext's symbols imply."""
    expect(len(cipher) >= CIPHER_HEADER, f"cipher file is only {len(cipher)} bytes")
    expect(cipher[:4] == b"CMC1" and cipher[4] == 1, f"cipher magic/version {cipher[:5]!r}")
    expect(cipher[5] == sticky, f"cipher header has {cipher[5]} sticky rounds, expected {sticky}")
    count = int.from_bytes(cipher[6:10], "big")
    expect(count == len(p.blocks), f"cipher header counts {count} blocks, expected {len(p.blocks)}")
    expect(cipher[10] == tail_bits(len(p.data)), f"cipher tail bits {cipher[10]}, expected {tail_bits(len(p.data))}")
    expect(len(cipher) == p.cipher_bytes, f"cipher file is {len(cipher)} bytes, cells sum to {p.cipher_bytes}")


def _asm_strings(orders) -> Counter:
    rows = [(i, orders[i]) for i in range(4)]
    cols = [(c, sum(((orders[t] >> (3 - c)) & 1) << (3 - t) for t in range(4))) for c in range(4)]
    return Counter(rows + cols)


def check_inspect(doc: dict, p: Payload, orders: tuple[int, ...], sticky: int) -> None:
    """Per block of `inspect --json`: the clear Order column, the cell
    inventory 8/4/m/m/8-2m, the ASM strings, the RM values against the
    closed form t*count(t) + sum of deltas over later primes, the TM pairs
    (t, events + crossings) and the SM list lengths, each as a multiset
    because the scramble hides which slot holds which."""
    expect(doc.get("sticky_rounds") == sticky, f"inspect sticky_rounds {doc.get('sticky_rounds')}")
    expect(doc.get("tail_bits") == tail_bits(len(p.data)), f"inspect tail_bits {doc.get('tail_bits')}")
    blocks = doc.get("blocks", [])
    expect(len(blocks) == len(p.blocks), f"inspect lists {len(blocks)} blocks, expected {len(p.blocks)}")
    asm_expected = _asm_strings(orders)
    for i, (b, ts) in enumerate(zip(blocks, p.blocks)):
        expect(tuple(b["orders"]) == tuple(orders), f"block {i}: Order column {b['orders']}")
        cells = [c for row in b["rows"] for c in row]
        by_kind = Counter(c["kind"] for c in cells)
        m = len(ts)
        want = Counter({"asm": 8, "sm": 4, "rm": m, "tm": m, "empty": 8 - 2 * m})
        expect(by_kind == +want, f"block {i}: cell inventory {dict(by_kind)}, expected {dict(+want)}")
        asm = Counter((c["x_pos"], c["sign_mask"]) for c in cells if c["kind"] == "asm")
        expect(asm == asm_expected, f"block {i}: ASM strings do not match the key's orders")
        rm = sorted(c["value"] for c in cells if c["kind"] == "rm")
        rm_want = sorted(t.prime * t.count + sum(delta(orders, t.prime, c) for c in t.later) for t in ts)
        expect(rm == rm_want, f"block {i}: RM values {rm}, closed form gives {rm_want}")
        tm = sorted((c["prime"], c["last_seq"]) for c in cells if c["kind"] == "tm")
        tm_want = sorted((t.prime, t.events + len(t.later)) for t in ts)
        expect(tm == tm_want, f"block {i}: TM pairs {tm}, expected {tm_want}")
        sm = sorted(len(c["pairs"]) for c in cells if c["kind"] == "sm")
        sm_want = sorted([t.events for t in ts] + [0] * (4 - m))
        expect(sm == sm_want, f"block {i}: SM list lengths {sm}, expected {sm_want}")


def check_harden(old_key: bytes, new_key: bytes, old_cipher: bytes, new_cipher: bytes) -> None:
    """One harden grows the key by one 4-byte sticky word, keeps the old
    words, and rewrites the cipher without changing its length."""
    sticky = old_key[4]
    check_key(new_key, sticky + 1)
    expect(new_key[5:-4] == old_key[5:], "harden changed the existing key bytes")
    expect(len(new_cipher) == len(old_cipher), f"harden changed the cipher length {len(old_cipher)} -> {len(new_cipher)}")
    expect(new_cipher[5] == sticky + 1, f"hardened cipher has {new_cipher[5]} sticky rounds")
    expect(new_cipher[6:11] == old_cipher[6:11], "harden changed the block count or tail bits")


def check_bruteforce(report: dict, bits: int, harden_every: int) -> None:
    """Both runs sweep the same seed-shuffled candidate order. The baseline
    finds the key within 2**bits attempts. The hardened run does too, with
    the same count, only when the key comes before the first hardening;
    otherwise every later candidate fails on the round count, so it makes
    all 2**bits attempts and one hardening per `harden_every` failures."""
    base, hard = report["baseline"], report["hardened"]
    for run in (base, hard):
        expect(run["keyspace_bits"] == bits, f"keyspace_bits {run['keyspace_bits']}")
    expect(base["success"] is True, "baseline sweep missed the key")
    expect(1 <= base["attempts_made"] <= 1 << bits, f"baseline made {base['attempts_made']} attempts")
    expect(base["hardenings_triggered"] == 0, "baseline hardened")
    if base["attempts_made"] <= harden_every:
        expect(hard["success"] and hard["attempts_made"] == base["attempts_made"], "hardened run differs before any hardening")
    else:
        expect(not hard["success"], "hardened sweep found the key after hardening")
        expect(hard["attempts_made"] == 1 << bits, f"hardened run made {hard['attempts_made']} attempts")
        expect(hard["attempts_made"] > base["attempts_made"], "hardening did not add attempts")
    failures = hard["attempts_made"] - (1 if hard["success"] else 0)
    expect(hard["hardenings_triggered"] == failures // harden_every, f"{hard['hardenings_triggered']} hardenings for {failures} failures")
