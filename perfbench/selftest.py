#!/usr/bin/env python3
"""Self-test of the output oracles.

    python3 perfbench/selftest.py

Runs the CLI of the checkout in this process on a small generated payload,
checks that every oracle accepts the genuine outputs, then plants one
fault at a time and checks that the oracle meant to catch it rejects it.
Exits 0 only when all of that holds.
"""

import contextlib
import copy
import io
import json
import os
import shutil
import sys

import inputs
import layers
import oracles
from run import OUT, SRC


def _cli(mods, *args) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = mods["cryptompress.cli"].main(list(args))
    if rc != 0:
        raise RuntimeError(f"{' '.join(args)} exited {rc}")
    return out.getvalue().encode()


def _first(doc: dict, kind: str) -> dict:
    return next(c for row in doc["blocks"][0]["rows"] for c in row if c["kind"] == kind)


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "cryptompress", "cli.py")):
        print(f"error: no cryptompress package under {SRC}", file=sys.stderr)
        return 2
    mods = layers.load(SRC)
    work = os.path.join(OUT, f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        made = inputs.make_inputs("selftest", 0, "uniform", 301, 2)
        payload, key = made.payload, made.key
        paths = {n: os.path.join(work, n) for n in ("plain", "key", "cipher", "out")}
        with open(paths["plain"], "wb") as fh:
            fh.write(payload)
        with open(paths["key"], "wb") as fh:
            fh.write(key)
        _cli(mods, "encrypt", "--key", paths["key"], "--in", paths["plain"], "--out", paths["cipher"])
        _cli(mods, "decrypt", "--key", paths["key"], "--in", paths["cipher"], "--out", paths["out"])
        doc = json.loads(_cli(mods, "inspect", "--cipher", paths["cipher"], "--json"))
        bf = json.loads(_cli(mods, "analyze", "bruteforce", "--restricted-bits", "10", "--harden-every", "50", "--seed", "3"))
        with open(paths["cipher"], "rb") as fh:
            cipher = fh.read()
        with open(paths["out"], "rb") as fh:
            plain = fh.read()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    p = oracles.Payload(payload)
    orders = oracles.key_orders(key)
    rm_off = copy.deepcopy(doc)
    _first(rm_off, "rm")["value"] += 1
    tm_off = copy.deepcopy(doc)
    _first(tm_off, "tm")["last_seq"] += 1
    bf_off = copy.deepcopy(bf)
    bf_off["hardened"]["hardenings_triggered"] += 1
    count = int.from_bytes(cipher[6:10], "big")
    cases = [
        ("genuine plaintext", lambda: oracles.check_plaintext(plain, p), True),
        ("genuine cipher", lambda: oracles.check_cipher(cipher, p, 2), True),
        ("genuine inspect", lambda: oracles.check_inspect(doc, p, orders, 2), True),
        ("genuine brute force", lambda: oracles.check_bruteforce(bf, 10, 50), True),
        ("flipped payload byte", lambda: oracles.check_plaintext(plain[:7] + bytes([plain[7] ^ 1]) + plain[8:], p), False),
        ("RM value off by one", lambda: oracles.check_inspect(rm_off, p, orders, 2), False),
        ("TM last sequence off by one", lambda: oracles.check_inspect(tm_off, p, orders, 2), False),
        ("truncated cipher", lambda: oracles.check_cipher(cipher[:-1], p, 2), False),
        ("wrong header count", lambda: oracles.check_cipher(cipher[:6] + (count + 1).to_bytes(4, "big") + cipher[10:], p, 2), False),
        ("one hardening too many", lambda: oracles.check_bruteforce(bf_off, 10, 50), False),
    ]
    ok = True
    for name, check, genuine in cases:
        try:
            check()
            accepted, why = True, ""
        except oracles.Mismatch as exc:
            accepted, why = False, str(exc)
        good = accepted == genuine
        ok &= good
        verdict = "accepted" if accepted else f"rejected ({why})"
        print(f"{'ok  ' if good else 'FAIL'} {name}: {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
