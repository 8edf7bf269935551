"""Compression-based 30-bit block cipher with a growing sticky key.

Reference implementation: library (codec, engine, keyschedule, cipher,
container), CLI and analysis harness. Not a secure cipher; see README.
The analysis harness loads on first use of `cryptompress.analysis`, so
the file commands do not pay for it.
"""

import importlib

from .codec import (
    BLOCK_BITS,
    PRIMES,
    PaddedMessage,
    SYMBOLS_PER_BLOCK,
    block_to_symbols,
    reassemble_message,
    segment_message,
    symbols_to_block,
)
from .engine import (
    AddSubMatrix,
    CompressedBlock,
    compress_block,
    decompress_block,
)
from .keyschedule import (
    BaseKey,
    KeyChain,
    derive_material,
    extend_key,
    generate_key,
)
from .cipher import (
    CipherGrid,
    decrypt_block,
    encrypt_block,
    harden_message,
)
from .container import (
    CipherMessage,
    read_cipher,
    read_key,
    write_cipher,
    write_key,
)
from . import errors


def __getattr__(name):
    # PEP 562: a plain `from . import analysis` here would call back into
    # this function before the submodule is bound, and recurse
    if name == "analysis":
        return importlib.import_module(".analysis", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BLOCK_BITS",
    "PRIMES",
    "SYMBOLS_PER_BLOCK",
    "PaddedMessage",
    "block_to_symbols",
    "symbols_to_block",
    "segment_message",
    "reassemble_message",
    "AddSubMatrix",
    "CompressedBlock",
    "compress_block",
    "decompress_block",
    "BaseKey",
    "KeyChain",
    "derive_material",
    "extend_key",
    "generate_key",
    "CipherGrid",
    "encrypt_block",
    "decrypt_block",
    "harden_message",
    "CipherMessage",
    "read_key",
    "write_key",
    "read_cipher",
    "write_cipher",
    "analysis",
    "errors",
]
