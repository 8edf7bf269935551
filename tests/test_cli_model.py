"""End-to-end lock of the CLI against one reference pipeline.

A hypothesis state machine drives `cli.main` in process on temp files with
`encrypt`, `harden`, `decrypt` (under the live key, a stale key and a key
with one nibble changed), `inspect --json` and byte mutations of either
file. A model composed from the test references predicts every step:
`reference_encrypt`, `reference_harden`, `reference_decrypt`'s slot checks
and rebuild, `diagnose_cipher`, the bit-width codec and the whole-document
`inspect --json`. Cipher and key files are written by the small writers
below, not by `container`. `harden` draws its sticky word from the OS, so
the model takes the new word from the key file the CLI wrote.

After every step the key file, the cipher file, stdout and the exit code
must match the model's.
"""

import contextlib
import io
import random
import tempfile
from itertools import chain as chained
from pathlib import Path

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from cryptompress import container
from cryptompress.cipher import ASM, EMPTY, RM, SM, TM, CipherGrid, check_rounds, compile_key
from cryptompress.cli import main
from cryptompress.codec import PaddedMessage
from cryptompress.errors import ContainerError, CryptompressError, IntegrityFailure, RoundCountMismatch
from cryptompress.keyschedule import BaseKey, KeyChain, generate_key
from test_cipher import reference_harden
from test_codec import reassemble_bits, segment_bits
from test_compress_oracle import reference_encrypt, unscramble
from test_container import diagnose_cipher
from test_decrypt_oracle import _split_logical, reference_decrypt
from test_inspect_views import _whole_document_json


def key_file(chain: KeyChain) -> bytes:
    return b"CMK1" + bytes([len(chain.sticky)]) + chain.base.to_bytes() + b"".join(w.to_bytes(4, "big") for w in chain.sticky)


def read_key_file(data: bytes) -> KeyChain:
    if len(data) < 21 or data[:4] != b"CMK1" or len(data) != 21 + 4 * data[4]:
        raise ContainerError("not a key file")
    return KeyChain(BaseKey.from_bytes(data[5:21]), tuple(int.from_bytes(data[i : i + 4], "big") for i in range(21, len(data), 4)))


# each cell's wire bytes after its tag byte
_PAYLOAD = {
    EMPTY: lambda c: b"",
    ASM: lambda c: bytes(c[1:]),
    RM: lambda c: c[1].to_bytes(4, "big", signed=True),
    SM: lambda c: bytes([len(c[1]), *chained.from_iterable(c[1])]),
    TM: lambda c: bytes(c[1:]),
}


def cipher_file(grids: list[CipherGrid], tail_bits: int) -> bytes:
    out = bytearray(b"CMC1" + bytes([1, grids[0].sticky_rounds]) + len(grids).to_bytes(4, "big") + bytes([tail_bits]))
    for g in grids:
        o = g.orders
        out += bytes([o[0] << 4 | o[1], o[2] << 4 | o[3]])
        for c in g.cells:
            out += bytes([c[0]]) + _PAYLOAD[c[0]](c)
    return bytes(out)


def exit_code(exc: Exception) -> int:
    """The exit code `cli.main` gives a command that raised `exc`."""
    if isinstance(exc, (IntegrityFailure, RoundCountMismatch)):
        return 2
    if isinstance(exc, CryptompressError):
        return 3
    raise exc


def model_encrypt(key: bytes, payload: bytes) -> bytes:
    chain = read_key_file(key)
    msg = segment_bits(int.from_bytes(payload, "big"), 8 * len(payload))
    return cipher_file([reference_encrypt(b, chain) for b in msg.blocks], msg.tail_bits)


def _open_file(key: bytes, cipher: bytes) -> tuple[KeyChain, container.CipherMessage]:
    """The key chain and the parsed cipher file, once the header's round
    count matches the chain: a stale key is refused before any block."""
    chain = read_key_file(key)
    rounds, _, _ = container.read_header(cipher)
    check_rounds(rounds, chain)
    return chain, diagnose_cipher(cipher)


def model_decrypt(key: bytes, cipher: bytes) -> bytes:
    chain, msg = _open_file(key, cipher)
    blocks = tuple(reference_decrypt(g, chain) for g in msg.grids)
    value, nbits = reassemble_bits(PaddedMessage(blocks, msg.tail_bits))
    return value.to_bytes(nbits // 8, "big")


def model_harden(key: bytes, cipher: bytes):
    """Decrypt's slot checks on every grid; then a function of the new
    sticky word that gives the expected (key, cipher) bytes."""
    chain, msg = _open_file(key, cipher)
    compiled = compile_key(chain)
    for g in msg.grids:
        _split_logical(unscramble(g.cells, compiled.slots), compiled)

    def files(word: int) -> tuple[bytes, bytes]:
        grids = [reference_harden(g, chain, word) for g in msg.grids]
        return key_file(chain._replace(sticky=chain.sticky + (word,))), cipher_file(grids, msg.tail_bits)

    return files


def model_inspect(cipher: bytes) -> str:
    diagnose_cipher(cipher)
    return _whole_document_json(cipher).decode()


def _runs(runs) -> bytes:
    return b"".join(bytes([b]) * n for b, n in runs)[:600]


def _sparse(size_and_bytes) -> bytes:
    size, set_bytes = size_and_bytes
    return bytes(set_bytes.get(i, 0) for i in range(size))


PAYLOADS = st.one_of(
    st.binary(min_size=1, max_size=600),
    st.lists(st.tuples(st.integers(0, 255), st.integers(1, 80)), min_size=1, max_size=12).map(_runs),
    st.tuples(st.integers(1, 600), st.dictionaries(st.integers(0, 599), st.integers(1, 255), max_size=8)).map(_sparse),
    st.just(b""),
)


class CliModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory()
        d = Path(self._tmp.name)
        self.path = {"key": d / "key.cmk", "cipher": d / "c.cmc"}
        self.plain, self.out, self.other_key = d / "p.bin", d / "o.bin", d / "other.cmk"
        self.model: dict[str, bytes] = {}  # file name -> the bytes the model expects on disk
        self.stale: bytes | None = None  # the key file before the last harden

    def teardown(self):
        self._tmp.cleanup()

    def _put(self, name: str, data: bytes) -> None:
        self.model[name] = data
        self.path[name].write_bytes(data)

    def _cli(self, *argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([str(a) for a in argv])
        return code, out.getvalue()

    @initialize(seed=st.integers(0, 2**32 - 1), depth=st.integers(0, 2))
    def key(self, seed, depth):
        rng = random.Random(seed)
        self._put("key", key_file(KeyChain(generate_key(rng), tuple(rng.getrandbits(32) for _ in range(depth)))))

    @invariant()
    def files_match_the_model(self):
        for name, path in self.path.items():
            assert (path.read_bytes() if path.exists() else None) == self.model.get(name), name

    @rule(payload=PAYLOADS)
    def encrypt(self, payload):
        self.plain.write_bytes(payload)
        try:
            want = 0, model_encrypt(self.model["key"], payload)
        except Exception as exc:
            want = exit_code(exc), self.model.get("cipher")
        code, stdout = self._cli("encrypt", "--key", self.path["key"], "--in", self.plain, "--out", self.path["cipher"])
        assert (code, stdout) == (want[0], "")
        if want[1] is not None:
            self.model["cipher"] = want[1]

    @precondition(lambda self: "cipher" in self.model)
    @rule()
    def harden(self):
        key, cipher = self.model["key"], self.model["cipher"]
        try:
            files, want = model_harden(key, cipher), 0
        except Exception as exc:
            files, want = None, exit_code(exc)
        assert self._cli("harden", "--key", self.path["key"], "--cipher", self.path["cipher"]) == (want, "")
        if files:
            new_key, self.model["cipher"] = files(int.from_bytes(self.path["key"].read_bytes()[-4:], "big"))
            self.stale, self.model["key"] = key, new_key

    def _decrypt(self, key: bytes, key_path: Path) -> None:
        self.out.unlink(missing_ok=True)
        try:
            want, plain = 0, model_decrypt(key, self.model["cipher"])
        except Exception as exc:
            want, plain = exit_code(exc), None
        assert self._cli("decrypt", "--key", key_path, "--in", self.path["cipher"], "--out", self.out) == (want, "")
        assert (self.out.read_bytes() if self.out.exists() else None) == plain

    @precondition(lambda self: "cipher" in self.model)
    @rule()
    def decrypt_live_key(self):
        self._decrypt(self.model["key"], self.path["key"])

    @precondition(lambda self: "cipher" in self.model and self.stale is not None)
    @rule()
    def decrypt_stale_key(self):
        self.other_key.write_bytes(self.stale)
        self._decrypt(self.stale, self.other_key)

    @precondition(lambda self: "cipher" in self.model)
    @rule(at=st.integers(0, 2**16), delta=st.integers(1, 15))
    def decrypt_changed_nibble(self, at, delta):
        key = bytearray(self.model["key"])
        nibble = 10 + at % (2 * len(key) - 10)  # past the magic and the count byte
        key[nibble // 2] ^= delta << 4 * (1 - nibble % 2)
        self.other_key.write_bytes(bytes(key))
        self._decrypt(bytes(key), self.other_key)

    @precondition(lambda self: "cipher" in self.model)
    @rule()
    def inspect_json(self):
        try:
            want = 0, model_inspect(self.model["cipher"])
        except Exception as exc:
            want = exit_code(exc), ""
        assert self._cli("inspect", "--cipher", self.path["cipher"], "--json") == want

    @rule(name=st.sampled_from(["cipher", "key"]), at=st.integers(0, 2**16), xor=st.integers(1, 255))
    def mutate(self, name, at, xor):
        data = bytearray(self.model.get(name, b""))
        if data:
            data[at % len(data)] ^= xor
            self._put(name, bytes(data))


CliModel.TestCase.settings = settings(
    derandomize=True,
    database=None,
    max_examples=100,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
test_cli_matches_the_reference_pipeline = CliModel.TestCase
