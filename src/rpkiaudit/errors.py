"""Exception types shared across the pipeline."""


class AuditError(Exception):
    """Base class for all pipeline errors; ``main`` prints one and returns its ``exit_code``,
    3 (a data error) unless its class says otherwise."""

    exit_code = 3


class ChainLoopError(AuditError):
    """A CNAME chain repeats a name or exceeds the hop cap."""


class BadMagicError(AuditError):
    """The input stream is not an MRT file at all."""


class NotUtf8Error(AuditError):
    """Bytes that are not UTF-8, found ``offset`` bytes into a stream.

    Its text is that of the error decoding the whole stream at once raises.
    """

    def __init__(self, exc: UnicodeDecodeError, offset: int = 0):
        start = offset + exc.start
        if exc.end - exc.start == 1:
            where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
        else:
            where = f"bytes in position {start}-{offset + exc.end - 1}"
        super().__init__(f"'{exc.encoding}' codec can't decode {where}: {exc.reason}")


class UsageError(AuditError):
    """Bad command line or config usage."""

    exit_code = 1


class PathError(AuditError):
    """A path a stage reads or writes is missing or cannot be opened."""

    exit_code = 2


class DataError(AuditError):
    """An input or artifact is corrupt, or holds no usable data."""
