"""Traced run: spans around calls into the package's public functions,
kept in memory, written out at the end, and turned into per-layer metrics.

Each traced function is looked up by name in its home module and the same
function object is replaced wherever a package module has bound it. A
function that a later version removes or renames is reported as missing,
and the metrics that need it are left out instead of failing the run.
"""

import contextlib
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Optional

# (module, function) of every call the traced run times.
TRACED = (
    ("cli", "main"),
    ("codec", "segment_message"),
    ("codec", "reassemble_message"),
    ("keyschedule", "derive_material"),
    ("engine", "compress_block"),
    ("engine", "decompress_block"),
    ("cipher", "encrypt_block"),
    ("cipher", "decrypt_block"),
    ("cipher", "harden_message"),
    ("container", "write_cipher"),
    ("container", "read_cipher"),
    ("analysis", "bruteforce_demo"),
)
# The brute-force sweep is timed whole, one span per bruteforce_demo call,
# and records nothing inside: a span around each of its tens of thousands
# of candidate decrypts would mostly measure the tracer.
OPAQUE = ("analysis.bruteforce_demo",)

# Per-layer metric names and units, in BENCHMARK.json order.
UNITS = {
    "codec.segment_us_per_block": "us",
    "codec.reassemble_us_per_block": "us",
    "keyschedule.derive_material_us": "us",
    "engine.compress_us_per_block": "us",
    "engine.decompress_us_per_block": "us",
    "engine.targets_per_block": "count",
    "engine.events_per_block": "count",
    "cipher.encrypt_block_us": "us",
    "cipher.decrypt_block_us": "us",
    "cipher.sticky_round_us_per_block": "us",
    "cipher.harden_us_per_block": "us",
    "cipher.reject_us": "us",
    "container.write_cipher_us_per_block": "us",
    "container.read_cipher_us_per_block": "us",
    "container.bytes_per_block": "B",
    "cli.encrypt_self_s": "s",
    "cli.decrypt_self_s": "s",
    "cli.harden_self_s": "s",
    "cli.inspect_self_s": "s",
    "analysis.baseline_attempt_us": "us",
    "analysis.hardened_attempt_us": "us",
    "bench.trace_overhead_s": "s",
}


def _header_blocks(data: bytes) -> int:
    """Block count from a CMC1 header."""
    return int.from_bytes(data[6:10], "big")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Counts read off a traced call's arguments or result.
ANNOTATE = {
    "engine.compress_block": lambda a, kw, r: {
        "targets": sum(slot is not None for slot in r.tm),
        "events": sum(len(ev) for ev in r.sm.values()),
    },
    "container.write_cipher": lambda a, kw, r: {"blocks": _header_blocks(r), "bytes": len(r)},
    "container.read_cipher": lambda a, kw, r: {"blocks": _header_blocks(_arg(a, kw, 0, "data"))},
    "analysis.bruteforce_demo": lambda a, kw, r: {
        "harden_every": _arg(a, kw, 4, "harden_every"),
        "attempts": r.attempts_made,
    },
}


def load(src: str):
    """Import the package from `src` and return its module namespace."""
    sys.path.insert(0, src)
    pkg = importlib.import_module("cryptompress")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(src, "cryptompress"):
        raise ImportError(f"cryptompress imported from {pkg.__file__}, not {src}")
    for mod, _ in TRACED:
        importlib.import_module(f"cryptompress.{mod}")
    return sys.modules


@dataclass
class Span:
    name: str
    label: str
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    """Records spans while `label` names the CLI command being traced."""

    def __init__(self):
        self.spans: list[Span] = []
        self.label: Optional[str] = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._opaque = 0

    def _wrap(self, name, fn):
        annotate = ANNOTATE.get(name)
        opaque = name in OPAQUE

        def traced(*args, **kwargs):
            if self.label is None or self._opaque:
                return fn(*args, **kwargs)
            span = Span(name, self.label, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._opaque += opaque
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self._opaque -= opaque
            if annotate:
                try:
                    span.info = annotate(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    pass  # the metric that needs this count is reported missing
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every traced function for its wrapper; restore on exit."""
        patched = []
        try:
            for mod, attr in TRACED:
                fn = getattr(sys.modules.get(f"cryptompress.{mod}"), attr, None)
                if not callable(fn):
                    if f"{mod}.{attr}" not in self.missing:
                        self.missing.append(f"{mod}.{attr}")
                    continue
                wrapper = self._wrap(f"{mod}.{attr}", fn)
                for mname, m in list(sys.modules.items()):
                    if not mname.startswith("cryptompress"):
                        continue
                    for key in [k for k, v in vars(m).items() if v is fn]:
                        patched.append((m, key, fn))
                        setattr(m, key, wrapper)
            yield self
        finally:
            for m, key, fn in reversed(patched):
                setattr(m, key, fn)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")


def _mean(xs):
    return sum(xs) / len(xs) if xs else None


def metrics(spans: list[Span], nblocks: int) -> dict[str, float]:
    """Per-layer metrics from the spans of the labelled CLI commands.
    Inclusive times per call; `cli.*_self_s` is a command's span less the
    spans of the layer calls it made."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    self_time = defaultdict(list)
    for i, s in enumerate(spans):
        if s.name == "cli.main":
            self_time[s.label].append(s.end - s.start - child_time[i])

    def us(name, label=None, per=1):
        return _mean([(s.end - s.start) * 1e6 / per for s in by_name[name] if label in (None, s.label)])

    def info(name, key, label=None):
        return [s.info[key] for s in by_name[name] if key in s.info and label in (None, s.label)]

    def per_block(name):
        spans_ = [s for s in by_name[name] if "blocks" in s.info]
        blocks = sum(s.info["blocks"] for s in spans_)
        return sum(s.end - s.start for s in spans_) * 1e6 / blocks if blocks else None

    def per_attempt(hardened):
        spans_ = [s for s in by_name["analysis.bruteforce_demo"] if "attempts" in s.info and bool(s.info["harden_every"]) == hardened]
        attempts = sum(s.info["attempts"] for s in spans_)
        return sum(s.end - s.start for s in spans_) * 1e6 / attempts if attempts else None

    nbytes = info("container.write_cipher", "bytes", "encrypt")
    out = {
        "codec.segment_us_per_block": us("codec.segment_message", "encrypt", nblocks),
        "codec.reassemble_us_per_block": us("codec.reassemble_message", "decrypt", nblocks),
        "keyschedule.derive_material_us": us("keyschedule.derive_material"),
        "engine.compress_us_per_block": us("engine.compress_block"),
        "engine.decompress_us_per_block": us("engine.decompress_block"),
        "engine.targets_per_block": _mean(info("engine.compress_block", "targets")),
        "engine.events_per_block": _mean(info("engine.compress_block", "events")),
        "cipher.encrypt_block_us": us("cipher.encrypt_block"),
        "cipher.decrypt_block_us": us("cipher.decrypt_block"),
        "cipher.harden_us_per_block": us("cipher.harden_message", "harden", nblocks),
        "container.write_cipher_us_per_block": per_block("container.write_cipher"),
        "container.read_cipher_us_per_block": per_block("container.read_cipher"),
        "container.bytes_per_block": _mean(nbytes) / nblocks if nbytes else None,
        "analysis.baseline_attempt_us": per_attempt(False),
        "analysis.hardened_attempt_us": per_attempt(True),
    }
    for cmd in ("encrypt", "decrypt", "harden", "inspect"):
        out[f"cli.{cmd}_self_s"] = _mean(self_time[cmd])
    return {k: v for k, v in out.items() if v is not None}


def sticky_round_us(mods, blocks: list[int], key0: bytes, key8: bytes) -> float:
    """(encrypt_block under a depth-8 chain - under its depth-0 base) / 8,
    per block, with the two interleaved block by block."""
    encrypt = mods["cryptompress.cipher"].encrypt_block
    read_key = mods["cryptompress.container"].read_key
    chain0, chain8 = read_key(key0), read_key(key8)
    t0 = t8 = 0.0
    for b in blocks:
        s = time.perf_counter()
        encrypt(b, chain0)
        m = time.perf_counter()
        encrypt(b, chain8)
        t8 += time.perf_counter() - m
        t0 += m - s
    return (t8 - t0) / 8 / len(blocks) * 1e6


def reject_us(mods, cipher: bytes, wrong_key: bytes, limit: int) -> float:
    """Mean decrypt_block time under a wrong candidate key, rejection included."""
    decrypt = mods["cryptompress.cipher"].decrypt_block
    chain = mods["cryptompress.container"].read_key(wrong_key)
    grids = mods["cryptompress.container"].read_cipher(cipher).grids[:limit]
    error = mods["cryptompress.errors"].CryptompressError
    total = 0.0
    for g in grids:
        s = time.perf_counter()
        try:
            decrypt(g, chain)
        except error:
            pass
        total += time.perf_counter() - s
    return total / len(grids) * 1e6
