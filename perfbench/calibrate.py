"""A fixed piece of pure-Python work, timed next to each timed command.

    python3 -S perfbench/calibrate.py

It starts an interpreter, imports the standard modules the CLI imports,
and runs integer, bytes and dict work of the same kind as the cipher's,
always the same amount. It never imports the package, so no change to
the program changes its time: how long it takes tells only how fast the
machine is running at that moment (see run.py, `summarize`).
"""

import argparse  # noqa: F401  the modules `cryptompress.cli` imports
import csv  # noqa: F401
import io  # noqa: F401
import json  # noqa: F401
import random  # noqa: F401
import sys

ROUNDS = 40_000


def work(rounds: int) -> int:
    acc = 0x2545F491
    counts: dict[int, int] = {}
    buf = bytearray(4096)
    for i in range(rounds):
        acc = ((acc << 5) ^ (acc >> 3) ^ i) & 0x3FFFFFFF  # 30-bit words, as the cipher's blocks
        key = acc & 0x3FF
        counts[key] = counts.get(key, 0) + 1
        buf[i & 0xFFF] ^= acc & 0xFF
    return acc ^ len(counts) ^ sum(buf)


if __name__ == "__main__":
    sys.stdout.write(f"{work(ROUNDS)}\n")
