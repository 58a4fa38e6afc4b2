"""Reading user input files, with errors located at ``FILE:LINE[:COL]``.

Every command reads its ``.c``, ``.cons`` and baseline inputs through
:func:`read_text`, so an undecodable byte is reported where it sits in
the file instead of as a bare codec message.  :class:`InputError` is the
located error type; it subclasses ``ValueError``, which the CLI maps to
exit status 1.
"""

from __future__ import annotations

from typing import Optional


class InputError(ValueError):
    """A malformed input file, printed as ``FILE:LINE[:COL]: message``."""

    def __init__(
        self,
        path: str,
        message: str,
        line: Optional[int] = None,
        col: Optional[int] = None,
    ) -> None:
        where = path
        if line is not None:
            where += f":{line}"
            if col is not None:
                where += f":{col}"
        super().__init__(f"{where}: {message}")


def read_text(path: str) -> str:
    """The UTF-8 text of ``path``, with newlines normalized as in text mode.

    A byte that is not valid UTF-8 raises :class:`InputError` at its
    1-based line and byte column.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        raise InputError(
            path,
            f"invalid UTF-8 byte 0x{data[exc.start]:02x} ({exc.reason})",
            line=data.count(b"\n", 0, exc.start) + 1,
            col=exc.start - line_start + 1,
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
