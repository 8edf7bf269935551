#!/usr/bin/env python3
"""Benchmark of the cryptompress file CLI and brute-force harness.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it drives the package in `src/` and
needs nothing installed. Each workload is a closed loop with one caller
that repeats whole rounds until `--seconds` have passed. A round works on
fresh copies of the generated key and payload and runs, one process at a
time: encrypt, decrypt, inspect --json, harden, three decrypts that check
the hardened files, and `analyze bruteforce` over the workload's seeds.
Every output is checked by the oracles in oracles.py.

With --trace 0 each command runs in a fresh child process, each round on
the next CPU, and the end-to-end metrics come from the wall times and the
children's own peak RSS (see summarize). Each timed command is bracketed
by two runs of calibrate.py, a fixed piece of work, and its wall time is
scaled to the reference speed: a shared machine's speed drifts by half
from minute to minute, and the scaled times do not.

With --trace 1 the same rounds run in this process through `cli.main`,
once plain and once traced, and the per-layer metrics come from the spans
(see layers.py).

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

import inputs
import layers
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
BF_BITS = 16
HARDEN_EVERY = 500
LAYER_SAMPLE = 1000  # blocks per direct sticky-round and reject measurement
REF_S = 0.07  # calibrate.py's wall time at the reference speed


@dataclass(frozen=True)
class Workload:
    payload: str  # a generator in inputs.PAYLOADS
    size: int  # payload bytes
    depth: int  # sticky words in the starting key
    bf_seeds: tuple[int, ...]  # `analyze bruteforce --seed` values, one command each per round


# Every workload runs every command, so each reports every end-to-end
# metric; they differ in where the time goes (README.md has the table).
# The brute-force seed is fixed so that every run makes the same attempts:
# seed 1 finds the key after 551 candidates and spends its time rejecting
# candidates on the round count after hardening; seed 0 first decrypts
# 21,958 candidates in full. Between them the two workloads cover both.
WORKLOADS = {
    # every block distinct: engine traversal and container cells do the
    # most work, no per-block cache helps, the sticky layer does nothing
    "file-uniform": Workload("uniform", 4096, 0, (1,)),
    # two thirds of the blocks repeat, few events per block: sticky rounds
    # and per-block key derivation dominate
    "file-sparse-deep": Workload("sparse", 4096, 8, (0,)),
}

E2E_UNITS = {
    "setup_s": "s",
    "encrypt_kib_per_s": "KiB/s",
    "decrypt_kib_per_s": "KiB/s",
    "harden_kib_per_s": "KiB/s",
    "inspect_kib_per_s": "KiB/s",
    "encrypt_peak_rss_mib": "MiB",
    "decrypt_peak_rss_mib": "MiB",
    "harden_peak_rss_mib": "MiB",
    "inspect_peak_rss_mib": "MiB",
    "cipher_expansion_x": "x",
    "bruteforce_attempts_per_s": "1/s",
}
TIMED = ("encrypt", "decrypt", "harden", "inspect")


class OpFailed(Exception):
    """A command exited with another code than the one expected."""


@dataclass
class Call:
    rc: int
    out: bytes
    wall: float
    rss_mib: float = 0.0
    err: str = ""
    ref: float = 0.0  # calibrate.py's mean wall time just before and after


class Launcher:
    """Runs each CLI command in a fresh interpreter through spawn.py, which
    times it from spawn to reap and keeps its peak RSS its own. A labelled
    (timed) command runs between two runs of calibrate.py on the same CPU."""

    def __init__(self, work: str):
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.stdout = os.path.join(work, "stdout")
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = self.cpus[0]
        self.proc = subprocess.Popen(
            [sys.executable, "-S", os.path.join(HERE, "spawn.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def _spawn(self, argv, stdout, errfile) -> dict:
        request = {"argv": argv, "env": self.env, "stdout": stdout, "stderr": errfile, "cpu": self.cpu}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        return json.loads(line)

    def reference(self) -> float:
        reply = self._spawn([sys.executable, "-S", os.path.join(HERE, "calibrate.py")], os.devnull, os.devnull)
        if reply["rc"] != 0:
            raise RuntimeError(f"calibrate.py exited with {reply['rc']}")
        return reply["wall"]

    def __call__(self, label, args: list[str], capture: bool, errfile: str) -> Call:
        before = self.reference() if label is not None else 0.0
        reply = self._spawn([sys.executable, "-m", "cryptompress.cli", *args], self.stdout if capture else os.devnull, errfile)
        ref = (before + self.reference()) / 2 if label is not None else 0.0
        out = _read(self.stdout) if capture else b""
        return Call(reply["rc"], out, reply["wall"], reply["maxrss_kib"] / 1024, _read(errfile).decode(errors="replace"), ref)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def in_process(mods, tracer=None):
    """An invoker that calls `cli.main` here, tracing labelled calls."""

    def invoke(label, args, capture, errfile):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.label = label
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = mods["cryptompress.cli"].main(args)
        except Exception:  # what the interpreter would do: print the traceback, exit 1
            err.write(traceback.format_exc())
            rc = 1
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.label = None
        return Call(rc, out.getvalue().encode(), wall, err=err.getvalue())

    return invoke


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


class Session:
    """One workload at one seed: its generated inputs, what the oracles
    predict from them, and the operation counts."""

    def __init__(self, name: str, seed: int, work: str):
        self.wl = WORKLOADS[name]
        self.work = work
        self.inputs = inputs.make_inputs(name, seed, self.wl.payload, self.wl.size, self.wl.depth)
        self.payload, self.key = self.inputs.payload, self.inputs.key
        self.model = oracles.Payload(self.payload)
        self.orders = oracles.key_orders(self.key)
        self.ops_per_round = 8 + len(self.wl.bf_seeds)
        self.attempted = 0
        self.failed = 0
        self._done = 0

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def op(self, invoke, label, args, expect_rc=0, capture=False) -> Call:
        call = invoke(label, args, capture, self.path("stderr"))
        if call.rc != expect_rc:
            raise OpFailed(f"{' '.join(args[:2])} exited {call.rc}, expected {expect_rc}: {call.err.strip()[-300:]}")
        self._done += 1
        return call

    def round(self, invoke):
        """One round on fresh input copies. Returns the calls by name, the
        cipher before harden and the attempts of each brute-force call;
        None when a command failed, the rest of the round counted as
        failed."""
        self.attempted += self.ops_per_round
        self._done = 0
        try:
            return self._round(invoke)
        except OpFailed as exc:
            self.failed += self.ops_per_round - self._done
            print(f"failed: {exc}", file=sys.stderr)
            return None

    def _round(self, invoke):
        plain, key, cipher, out, fresh = (self.path(n) for n in ("plain", "key.cmk", "plain.cmc", "plain.out", "fresh.cmk"))
        _write(plain, self.payload)
        _write(key, self.key)
        calls = {}
        calls["keygen"] = self.op(invoke, "keygen", ["keygen", "--out", fresh])
        oracles.check_key(_read(fresh), 0)
        calls["encrypt"] = self.op(invoke, "encrypt", ["encrypt", "--key", key, "--in", plain, "--out", cipher])
        ciphertext = _read(cipher)
        oracles.check_cipher(ciphertext, self.model, self.wl.depth)
        calls["decrypt"] = self.op(invoke, "decrypt", ["decrypt", "--key", key, "--in", cipher, "--out", out])
        oracles.check_plaintext(_read(out), self.model)
        calls["inspect"] = self.op(invoke, "inspect", ["inspect", "--cipher", cipher, "--json"], capture=True)
        oracles.check_inspect(json.loads(calls["inspect"].out), self.model, self.orders, self.wl.depth)
        calls["harden"] = self.op(invoke, "harden", ["harden", "--key", key, "--cipher", cipher])
        grown = _read(key)
        oracles.check_harden(self.key, grown, ciphertext, _read(cipher))
        os.remove(out)
        self.op(invoke, None, ["decrypt", "--key", key, "--in", cipher, "--out", out])
        oracles.check_plaintext(_read(out), self.model)
        old, bad = self.path("old.cmk"), self.path("bad.cmk")
        _write(old, self.key)
        self.op(invoke, None, ["decrypt", "--key", old, "--in", cipher, "--out", self.path("old.out")], expect_rc=2)
        # one changed XOR nibble: the S subkey of prime 2, present in every workload's blocks
        _write(bad, grown[:17] + bytes([grown[17] ^ 0x80]) + grown[18:])
        self.op(invoke, None, ["decrypt", "--key", bad, "--in", cipher, "--out", self.path("bad.out")], expect_rc=2)
        attempts = {}
        for seed in self.wl.bf_seeds:
            name = f"bruteforce-{seed}"
            args = ["analyze", "bruteforce", "--restricted-bits", str(BF_BITS), "--harden-every", str(HARDEN_EVERY), "--seed", str(seed)]
            calls[name] = self.op(invoke, "bruteforce", args, capture=True)
            report = json.loads(calls[name].out)
            oracles.check_bruteforce(report, BF_BITS, HARDEN_EVERY)
            attempts[name] = report["baseline"]["attempts_made"] + report["hardened"]["attempts_made"]
        return calls, ciphertext, attempts


def rounds(seconds: float):
    """Yield until `seconds` have passed, at least once, starting no round
    that the last one's duration says would end past the deadline."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        yield
        last = time.perf_counter() - began
        if time.perf_counter() - start + last > seconds:
            return


def timed_run(s: Session, seconds: float) -> dict:
    launcher = Launcher(s.work)
    try:
        return _timed_run(s, seconds, launcher)
    finally:
        launcher.close()


def _timed_run(s: Session, seconds: float, launcher: Launcher) -> dict:
    """Raw samples per call name: wall times, calibrate.py's times around
    them, peak RSS, and the per-round cipher expansion and brute-force
    attempts."""
    samples = {"wall": defaultdict(list), "rss": defaultdict(list), "cpu": defaultdict(list), "ref": defaultdict(list), "expansion": [], "attempts": {}}
    for n, _ in enumerate(rounds(seconds)):
        launcher.cpu = launcher.cpus[n % len(launcher.cpus)]
        result = s.round(launcher)
        if result is None:
            continue
        calls, ciphertext, attempts = result
        for name, call in calls.items():
            samples["wall"][name].append(call.wall)
            samples["rss"][name].append(call.rss_mib)
            samples["cpu"][name].append(launcher.cpu)
            samples["ref"][name].append(call.ref)
        samples["expansion"].append(len(ciphertext) / len(s.payload))
        samples["attempts"] = attempts
    return samples


def summarize(s: Session, samples: dict, scaled: bool = True) -> dict[str, float]:
    """End-to-end metrics: medians over the run's rounds. The brute-force
    rate divides the attempts by the sum of each seed's median time.

    With `scaled`, each call's wall time is first multiplied by
    REF_S / ref, ref being calibrate.py's mean time just before and just
    after it on the same CPU: the time the call would take on a machine
    that runs calibrate.py in REF_S seconds. The wall times themselves
    follow the shared machine's speed, which drifts by half over minutes;
    the scaled ones keep only the program's own cost."""
    wall, rss = samples["wall"], samples["rss"]
    if not wall:
        return {}
    if scaled:
        wall = {name: [w * REF_S / r for w, r in zip(xs, samples["ref"][name])] for name, xs in wall.items()}
    med = {name: statistics.median(xs) for name, xs in wall.items()}
    kib = len(s.payload) / 1024
    out = {"setup_s": med["keygen"]}
    for cmd in TIMED:
        out[f"{cmd}_kib_per_s"] = kib / med[cmd]
        out[f"{cmd}_peak_rss_mib"] = statistics.median(rss[cmd])
    out["cipher_expansion_x"] = statistics.median(samples["expansion"])
    attempts = samples["attempts"]
    out["bruteforce_attempts_per_s"] = sum(attempts.values()) / sum(med[name] for name in attempts)
    return out


def traced_run(s: Session, seconds: float, spans_path: str) -> dict[str, float]:
    mods = layers.load(SRC)
    tracer = layers.Tracer()
    plain, traced = in_process(mods), in_process(mods, tracer)
    overhead, sticky, reject = [], [], []
    blocks = oracles.payload_blocks(s.payload)[:LAYER_SAMPLE]
    wrong = bytearray(s.key)
    wrong[19] ^= 0x5A  # a candidate that differs in the low 16 base-key bits, as in the brute-force demo
    for _ in rounds(seconds):
        base = s.round(plain)
        with tracer.installed():
            result = s.round(traced)
        if base is None or result is None:
            continue
        total = [sum(c.wall for c in r[0].values()) for r in (base, result)]
        overhead.append(total[1] - total[0])
        with contextlib.suppress(AttributeError, KeyError, TypeError):
            sticky.append(layers.sticky_round_us(mods, blocks, s.inputs.key0, s.inputs.key8))
        with contextlib.suppress(AttributeError, KeyError, TypeError):
            reject.append(layers.reject_us(mods, result[1], bytes(wrong), LAYER_SAMPLE))
    tracer.write(spans_path)
    out = layers.metrics(tracer.spans, len(s.model.blocks))
    for name, xs in (("cipher.sticky_round_us_per_block", sticky), ("cipher.reject_us", reject), ("bench.trace_overhead_s", overhead)):
        if xs:
            out[name] = statistics.median(xs)
    for name in tracer.missing:
        print(f"missing: {name} is not in the package; its layer metrics are left out", file=sys.stderr)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        s = Session(name, seed, work)
        correct = True
        try:
            if trace:
                values = traced_run(s, seconds, os.path.join(OUT, f"spans-{name}.jsonl"))
            else:
                samples = timed_run(s, seconds)
                with open(os.path.join(OUT, f"samples-{name}.json"), "w") as fh:
                    json.dump(samples, fh)
                values = summarize(s, samples)
                unscaled = summarize(s, samples, scaled=False)
        except oracles.Mismatch as exc:
            print(f"incorrect output: {exc}", file=sys.stderr)
            correct, values = False, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = layers.UNITS if trace else E2E_UNITS
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    print(f"{name} seed {seed}: attempted {s.attempted}, failed {s.failed}, correct {correct}")
    for k, m in metrics.items():
        print(f"  {k:36} {m['value']:14.4f} {m['unit']}")
    if not trace and values:
        ref = statistics.median(r for xs in samples["ref"].values() for r in xs)
        print(f"  unscaled wall-clock figures (calibrate.py median {ref:.4f} s, reference {REF_S} s):")
        for k in ("setup_s", *(f"{c}_kib_per_s" for c in TIMED), "bruteforce_attempts_per_s"):
            print(f"    {k:34} {unscaled[k]:14.4f} {E2E_UNITS[k]}")
    return {"correct": correct, "attempted": s.attempted, "failed": s.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cryptompress", "cli.py")):
        print(f"error: no cryptompress package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
