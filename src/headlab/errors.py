"""The package's two exception types, one per CLI exit code.

:class:`UsageError` means the invocation or its inputs are invalid, and
``head`` exits 1; :class:`RunFailure` means a computation failed at run
time, and ``head`` exits 2.  Neither derives from the other, so an
``except`` clause for one never catches the other.  The message names the
check that failed; nothing dispatches on a finer type.
"""


class UsageError(Exception):
    """Bad arguments, config contents or other inputs (CLI exit code 1)."""


class RunFailure(Exception):
    """A computation failed at runtime (CLI exit code 2)."""
