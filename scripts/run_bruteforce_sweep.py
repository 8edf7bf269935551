#!/usr/bin/env python3
"""Paired baseline/hardened brute-force sweeps over a range of seeds.

Each seed gets a fresh key and a demo block containing every prime at
least twice; the baseline attacker sweeps the restricted keyspace with
hardening disabled, the paired run lets the defender harden every
`--harden-every` failures. Writes one CSV row per seed.
"""

import argparse
import csv
import random
import sys

import cryptompress as cm
from cryptompress import analysis


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1")
    ap.add_argument("--restricted-bits", type=int, default=16)
    ap.add_argument("--harden-every", type=int, default=500)
    ap.add_argument("--out", default="-", help="CSV path, - for stdout")
    args = ap.parse_args()

    rows = []
    for seed in range(args.seeds):
        rng = random.Random(seed)
        chain = cm.KeyChain(base=cm.generate_key(rng))
        block = analysis.demo_block(rng)
        grid = cm.encrypt_block(block, chain)
        base = analysis.bruteforce_demo(grid, chain, block, args.restricted_bits, 0, seed)
        hard = analysis.bruteforce_demo(
            grid, chain, block, args.restricted_bits, args.harden_every, seed
        )
        rows.append(
            {
                "seed": seed,
                "baseline_attempts": base.attempts_made,
                "baseline_success": base.success,
                "hardened_attempts": hard.attempts_made,
                "hardened_success": hard.success,
                "hardenings": hard.hardenings_triggered,
                "work_factor": round(hard.attempts_made / base.attempts_made, 3),
            }
        )
        print(
            f"seed {seed}: baseline {base.attempts_made}, "
            f"hardened {hard.attempts_made} ({hard.hardenings_triggered} hardenings)",
            file=sys.stderr,
        )

    fh = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    if fh is not sys.stdout:
        fh.close()


if __name__ == "__main__":
    main()
