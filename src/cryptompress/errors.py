"""Exception hierarchy. Every failure mode raised by this package derives
from CryptompressError, so callers can catch one type at API boundaries."""


class CryptompressError(Exception):
    """Base class for all errors raised by this package."""


class WrongLength(CryptompressError):
    """Input is not the exact size an operation requires."""


class ValueOutOfRange(CryptompressError):
    """A value does not fit its declared range: a prime, a nibble, an
    analysis parameter, or a message whose grids disagree on depth."""


class EmptyInput(CryptompressError):
    """An operation that needs at least one byte/symbol got none."""


class IntegrityFailure(CryptompressError):
    """Decryption could not restore a consistent block: wrong key or
    tampered ciphertext. `reason` names the rebuild's failure, one of
    engine.FAILURES, when engine.decompress_block raised it, else None."""

    def __init__(self, *args, reason=None):
        super().__init__(*args)
        self.reason = reason


class RoundCountMismatch(CryptompressError):
    """Key chain and ciphertext disagree about how many sticky rounds
    were applied."""


class EntropyUnavailable(CryptompressError):
    """The supplied randomness source failed to produce bits."""


class ContainerError(CryptompressError):
    """Base class for serialization format errors."""


class BadMagic(ContainerError):
    """File does not start with the expected magic bytes."""


class BadVersion(ContainerError):
    """File declares a format version this code does not understand."""


class Truncated(ContainerError):
    """File ends before the declared content is complete."""


class MalformedCell(ContainerError):
    """A serialized value is structurally invalid (bad tag, bad payload,
    trailing bytes, ...)."""


class InventoryMismatch(ContainerError):
    """A grid's cells, in memory or on the wire, are not a permutation of
    the 20 logical items."""
