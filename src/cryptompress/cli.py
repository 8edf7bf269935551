"""Command-line front end.

    cryptompress keygen  --out KEY
    cryptompress encrypt --key KEY --in PLAIN --out CIPHER
    cryptompress decrypt --key KEY --in CIPHER --out PLAIN
    cryptompress harden  --key KEY --cipher CIPHER
    cryptompress inspect --cipher CIPHER [--json]
    cryptompress trace   --key KEY --block HEX30 [--json]
    cryptompress analyze {bruteforce,compression,avalanche} ...

Exit codes: 0 success, 1 usage error, 2 integrity failure (wrong key,
tampering, round-count mismatch), 3 I/O or format error.
"""

import argparse
import contextlib
import functools
import io
import os
import random
import shutil
import sys
import tempfile
from typing import Optional, Sequence

# json, csv and .analysis are imported in the commands that use them, so a file command does not load them
from . import codec, container
from .cipher import (
    KIND_NAMES,
    CipherGrid,
    check_rounds,
    compile_key,
    decrypt_block,
    encrypt_block,
    harden_message,
)
from .engine import TraceStep, compress_block
from .errors import CryptompressError, IntegrityFailure, RoundCountMismatch, ValueOutOfRange
from .keyschedule import KeyChain, derive_material, generate_key

PRIMES = codec.PRIMES


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for integrity
    # failures, so route usage problems through UsageError instead.
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_file(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _replace_file(path: str, data: bytes) -> None:
    """Replace `path` atomically through a unique temp file beside it,
    removed on failure; the directory is fsynced so the rename is durable.
    A symlink is followed: its target is replaced and the link kept."""
    path = os.path.realpath(path)
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _load_chain(path: str) -> KeyChain:
    return container.read_key(_read_file(path))


def _read_cipher_for(path: str, chain: KeyChain) -> bytes:
    """A cipher file's bytes once its header's sticky-round byte matches the
    chain: a stale key is refused before any block is parsed."""
    data = _read_file(path)
    rounds, _, _ = container.read_header(data)
    check_rounds(rounds, chain)
    return data


def _parse_block_arg(text: str) -> int:
    s = text.lower().removeprefix("0x")
    try:
        value = int(s, 16)
    except ValueError:
        raise UsageError(f"--block expects hex digits, got {text!r}")
    if not 0 <= value < 1 << codec.BLOCK_BITS:
        raise UsageError(f"--block must be a non-negative value of at most 30 bits, got {text!r}")
    return value


def _emit(args, payload: dict | list, csv_rows: Optional[list[dict]] = None) -> None:
    import csv
    import json
    if args.format == "csv":
        rows = csv_rows if csv_rows is not None else [payload]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        _write_file(args.out, text.encode())
    else:
        sys.stdout.write(text)


def _cmd_keygen(args) -> int:
    chain = KeyChain(base=generate_key())
    # the key is secret: owner-only, also when it overwrites an existing file
    with open(args.out, "wb", opener=lambda path, flags: os.open(path, flags, 0o600)) as fh:
        os.fchmod(fh.fileno(), 0o600)
        fh.write(container.write_key(chain))
    print(f"wrote 128-bit key to {args.out}", file=sys.stderr)
    return 0


def _cmd_encrypt(args) -> int:
    chain = _load_chain(args.key)
    payload = _read_file(args.infile)
    msg = codec.segment_message(payload)
    # Blocks are ECB-like: a block is encrypted once while an LRU holds it,
    # and the writer takes each grid as it comes, so no list of grids is built.
    grids = map(functools.lru_cache(maxsize=256)(lambda b: encrypt_block(b, chain)), msg.blocks)
    _write_file(args.out, container.write_cipher(container.CipherMessage(grids=grids, tail_bits=msg.tail_bits)))
    return 0


def _cmd_decrypt(args) -> int:
    chain = _load_chain(args.key)
    msg = container.read_cipher(_read_cipher_for(args.infile, chain))
    # each distinct grid is decrypted once per call; a grid that fails is
    # not memoised, so the first bad block raises its own error
    blocks = tuple(map(functools.cache(lambda g: decrypt_block(g, chain)), msg.grids))
    payload = codec.reassemble_message(codec.PaddedMessage(blocks=blocks, tail_bits=msg.tail_bits))
    _write_file(args.out, payload)
    return 0


def _cmd_harden(args) -> int:
    chain = _load_chain(args.key)
    # one pass over the file's bytes: each distinct block is checked once, in
    # first-seen order, so the first bad block in the file raises its own error
    cipher_bytes, new_chain = harden_message(_read_cipher_for(args.cipher, chain), chain)
    # Both files are encoded before either is replaced, so a write that
    # fails leaves both untouched. Key first: once the new sticky word is
    # durable the rewritten cipher is always recoverable; the reverse order
    # could strand the cipher.
    _replace_file(args.key, container.write_key(new_chain))
    _replace_file(args.cipher, cipher_bytes)
    print(
        f"hardened: key now {new_chain.key_bits} bits, {len(new_chain.sticky)} sticky round(s)",
        file=sys.stderr,
    )
    return 0


def _asm_text(cell) -> str:
    _, x_pos, mask = cell
    return "".join("X" if i == x_pos else "+1" if (mask >> (3 - i)) & 1 else "-1" for i in range(4))


# Each cell's text in the `inspect` table, by tag.
_CELL_TEXT = (
    lambda c: "-",
    _asm_text,
    lambda c: str(c[1]),
    lambda c: " ; ".join(f"{s}|{r}" for s, r in c[1]) if c[1] else "(none)",
    lambda c: f"{PRIMES[c[1]]}|{c[2]}",
)

# `inspect --json` is the text of json.dumps(document, indent=2), written one
# block at a time. A cell sits five levels deep: "blocks", its block, "rows",
# its row and itself, so its braces are indented 10 spaces and its members 12.
_BLOCK_JSON = (
    '    {{\n      "orders": [\n        {},\n        {},\n        {},\n        {}\n      ],'
    '\n      "rows": [\n        [\n{}\n        ]\n      ]\n    }}'
)
_ROW_BREAK = "\n        ],\n        [\n"
_MEMBER = ",\n" + " " * 12


_PAIR_JSON = "              [\n                %d,\n                %d\n              ]"


# Each cell's members after "kind" in `inspect --json`, by tag.
_CELL_JSON = (
    lambda c: "",
    lambda c: f'{_MEMBER}"x_pos": {c[1]}{_MEMBER}"sign_mask": {c[2]}{_MEMBER}"text": "{_asm_text(c)}"',
    lambda c: f'{_MEMBER}"value": {c[1]}',
    lambda c: _MEMBER + '"pairs": ' + ("[\n" + ",\n".join([_PAIR_JSON % pair for pair in c[1]]) + "\n            ]" if c[1] else "[]"),
    lambda c: f'{_MEMBER}"prime": {PRIMES[c[1]]}{_MEMBER}"last_seq": {c[2]}',
)


@functools.lru_cache(maxsize=4096)
def _cell_json(cell) -> str:
    """A cell's JSON object at its depth in `inspect --json`; bounded, so
    memory does not grow with the file."""
    return '          {\n            "kind": "%s"%s\n          }' % (KIND_NAMES[cell[0]], _CELL_JSON[cell[0]](cell))


def _block_json(grid: CipherGrid) -> str:
    rows = _ROW_BREAK.join(",\n".join(map(_cell_json, row)) for row in grid.rows())
    return _BLOCK_JSON.format(*grid.orders, rows)


def _write_inspect_json(msg: container.CipherMessage) -> None:
    write = sys.stdout.write
    write(f'{{\n  "sticky_rounds": {msg.sticky_rounds},\n  "tail_bits": {msg.tail_bits},\n  "blocks": [\n')
    # A memo for this call: a block's text is about 2.8 KB, so it is bounded
    # and the output never collects in memory.
    block_json = functools.lru_cache(maxsize=64)(_block_json)
    separator = ""
    for g in msg.grids:
        write(separator + block_json(g))
        separator = ",\n"
    write("\n  ]\n}\n")


def _render_grid(grid: CipherGrid) -> str:
    headers = ["Order", "ASM(h)", "ASM(v)", "RM", "SM", "TM"]
    rows = []
    for r, row in enumerate(grid.rows()):
        rows.append([format(grid.orders[r], "04b")] + [_CELL_TEXT[c[0]](c) for c in row])
    widths = [max(len(headers[c]), *(len(row[c]) for row in rows)) for c in range(6)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _cmd_inspect(args) -> int:
    msg = container.read_cipher(_read_file(args.cipher))
    if args.json:
        _write_inspect_json(msg)
    else:
        print(f"blocks: {len(msg.grids)}  sticky rounds: {msg.sticky_rounds}  tail bits: {msg.tail_bits}")
        for i, g in enumerate(msg.grids):
            print(f"\nblock {i}:")
            print(_render_grid(g))
    return 0


def _render_asm_table(asm) -> str:
    lines = ["Order  Target  2   3   5   7"]
    for i, t in enumerate(PRIMES):
        cells = []
        for j, c in enumerate(PRIMES):
            cells.append(" X " if i == j else f"{asm.delta(t, c):+d} ".rjust(3))
        lines.append(f"{format(asm.orders[i], '04b')}   {t}       " + " ".join(cells))
    return "\n".join(lines)


def _cmd_trace(args) -> int:
    chain = _load_chain(args.key)
    asm, _ = derive_material(chain.base)
    block = _parse_block_arg(args.block)
    steps: list[TraceStep] = []
    rm, sm, tm = compress_block(block, asm.deltas, trace=steps)
    tm = [None if s is None else [PRIMES[s[0]], s[1]] for s in tm]
    if args.json:
        import json
        payload = {
            "block": f"{block:08x}",
            "symbols": list(codec.block_to_symbols(block)),
            "steps": [s._asdict() for s in steps],
            "rm": {str(p): rm[i] for i, p in enumerate(PRIMES)},
            "sm": {str(p): [list(e) for e in sm[i]] for i, p in enumerate(PRIMES)},
            "tm": tm,
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"block 0x{block:08x} -> symbols {' '.join(map(str, codec.block_to_symbols(block)))}")
    print()
    print(_render_asm_table(asm))
    print()
    for s in steps:
        if s.action == "absorb":
            what = f"absorb {s.detail} cell(s) of {s.target}"
        else:
            sign = "+1" if asm.delta(s.target, s.detail) > 0 else "-1"
            what = f"cross {s.detail} ({sign})"
        print(f"{s.target}.{s.seq:<3} {what:28} -> {s.value}")
    print()
    print("Target  SM                     RM    TM")
    for i, p in enumerate(PRIMES):
        sm_text = " ; ".join(f"{a}|{b}" for a, b in sm[i]) or "-"
        tm_text = f"{tm[i][0]}|{tm[i][1]}" if tm[i] else "-"
        rm_text = str(rm[i]) if rm[i] is not None else "-"
        print(f"{p}       {sm_text:22} {rm_text:5} {tm_text}")
    return 0


def _check_bounds(args) -> None:
    """analysis.check_bounds on the command's bounded options, its error a usage error under the --flag."""
    from . import analysis
    try:
        analysis.check_bounds(**{name: getattr(args, name) for name in analysis.BOUNDS if hasattr(args, name)})
    except ValueOutOfRange as exc:
        name, rest = str(exc).split(" ", 1)
        raise UsageError(f"--{name.replace('_', '-')} {rest}")


def _cmd_analyze_bruteforce(args) -> int:
    from . import analysis
    _check_bounds(args)
    rng = random.Random(args.seed)
    chain = KeyChain(base=generate_key(rng))
    block = analysis.demo_block(rng)
    grid = encrypt_block(block, chain)
    baseline = analysis.bruteforce_demo(grid, chain, block, args.restricted_bits, 0, args.seed)
    hardened = analysis.bruteforce_demo(grid, chain, block, args.restricted_bits, args.harden_every, args.seed)
    rows = [
        {"run": "baseline", **baseline._asdict()},
        {"run": "hardened", **hardened._asdict()},
    ]
    _emit(args, {"baseline": baseline._asdict(), "hardened": hardened._asdict()}, rows)
    return 0


def _cmd_analyze_compression(args) -> int:
    from . import analysis
    _check_bounds(args)
    if args.biased:
        blocks = analysis.biased_blocks(args.count, args.seed, args.stay)
    else:
        blocks = analysis.random_blocks(args.count, args.seed)
    report = analysis.compression_stats(blocks)
    _emit(args, report.to_dict(), [e._asdict() for e in report.entries])
    return 0


def _cmd_analyze_avalanche(args) -> int:
    from . import analysis
    _check_bounds(args)
    rng = random.Random(args.seed)
    if args.key:
        chain = _load_chain(args.key)
    else:
        chain = KeyChain(base=generate_key(rng))
    report = analysis.avalanche_test(args.samples, chain, args.seed)
    _emit(args, report._asdict())
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built once per process: building it costs more
    than parsing a command line with it."""
    parser = _Parser(prog="cryptompress", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("keygen", help="generate a fresh 128-bit key file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_keygen)

    files = _Parser(add_help=False)
    files.add_argument("--key", required=True)
    files.add_argument("--in", dest="infile", required=True)
    files.add_argument("--out", required=True)
    sub.add_parser("encrypt", parents=[files], help="encrypt a file").set_defaults(func=_cmd_encrypt)
    sub.add_parser("decrypt", parents=[files], help="decrypt a file").set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("harden", help="apply one sticky round to key and cipher files")
    p.add_argument("--key", required=True)
    p.add_argument("--cipher", required=True)
    p.set_defaults(func=_cmd_harden)

    p = sub.add_parser("inspect", help="render the cell grids of a cipher file")
    p.add_argument("--cipher", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("trace", help="step-by-step compression of one 30-bit block")
    p.add_argument("--key", required=True)
    p.add_argument("--block", required=True, help="hex, at most 30 bits")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_trace)

    pa = sub.add_parser("analyze", help="measurement harnesses")
    asub = pa.add_subparsers(dest="subtool", required=True, parser_class=_Parser)
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out")

    p = asub.add_parser("bruteforce", parents=[common], help="paired baseline/hardened key sweep")
    p.add_argument("--restricted-bits", type=int, default=16)
    p.add_argument("--harden-every", type=int, default=1000)
    p.set_defaults(func=_cmd_analyze_bruteforce)

    p = asub.add_parser("compression", parents=[common], help="sequence-event and size statistics")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--biased", action="store_true", help="run-heavy inputs")
    p.add_argument("--stay", type=float, default=0.8)
    p.set_defaults(func=_cmd_analyze_compression)

    p = asub.add_parser("avalanche", parents=[common], help="one-bit diffusion distances")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--key", help="key file; generated from the seed when omitted")
    p.set_defaults(func=_cmd_analyze_avalanche)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    compile_key.cache_clear()  # each command derives its key material afresh, as a fresh process does
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IntegrityFailure, RoundCountMismatch) as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 0
    except (CryptompressError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
