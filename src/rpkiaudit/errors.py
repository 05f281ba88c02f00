"""Exception types shared across the pipeline."""


class AuditError(Exception):
    """Base class for all pipeline errors."""


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
    """Bad command line or config usage (exit code 1)."""


class MissingInputError(AuditError):
    """A required input file does not exist (exit code 2)."""

    def __init__(self, path: str, what: str = "input"):
        super().__init__(f"missing {what}: {path}")
        self.path = path


class UnreadableInputError(AuditError):
    """An input path that cannot be opened for reading, a directory say (exit code 2)."""

    def __init__(self, path: str, what: str, exc: OSError):
        super().__init__(f"cannot read {what} {path}: {exc.strerror}")
        self.path = path


class StageDependencyMissingError(AuditError):
    """A required earlier stage has not produced its artifacts (exit code 2)."""

    def __init__(self, stage: str, artifact: str):
        super().__init__(
            f"artifact {artifact!r} not found; run the {stage!r} stage first"
        )
        self.stage = stage
        self.artifact = artifact


class DataError(AuditError):
    """An input or artifact is corrupt, or holds no usable data (exit code 3)."""
