"""Exception hierarchy.

Everything the library raises on bad input or a failed domain precondition
derives from AbmealyError, so callers (and the CLI) can catch one type.
Genuine programming errors (wrong argument types and the like) still surface
as the usual built-ins.  The one line reader of the text formats lives here
too, beside the error it feeds line numbers to.
"""


class AbmealyError(Exception):
    """Base class for all domain errors raised by this package."""


class FormatError(AbmealyError):
    """A textual artifact (AUT, MATRIX, map file, ...) failed to parse."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


_BLOCK = 1 << 16  # characters split into lines at a time


def content_lines(text: str):
    """Yield (line number, content) for each line of an AUT, MATRIX or map
    text, numbered from 1; '#' starts a comment, and lines left blank are
    skipped.  The lines are those of `str.splitlines`, split a block at a
    time: each block ends just after a newline, which ends a line there too,
    and never inside a CRLF, so no list of every line is held at once."""
    n = start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        for n, line in enumerate(text[start:end].splitlines(), n + 1):
            if "#" in line:
                line = line[:line.index("#")]
            if line := line.strip():
                yield n, line
        start = end


class AutomatonError(AbmealyError):
    """Structural violation while building an automaton."""


class UnknownStateError(AbmealyError):
    """A state label was not found in the automaton."""


class NotInvertibleError(AbmealyError):
    """Operation requires every state to act invertibly on the first bit."""


class NoOddStateError(AbmealyError):
    """Operation requires at least one odd state."""


class NotAbelianError(AbmealyError):
    """Operation requires an abelian-free classification and did not get it."""


class BoundExceededError(AbmealyError):
    """A closure or search exceeded its element bound."""


class DimensionError(AbmealyError):
    """Vector/matrix dimensions do not agree."""


class MatrixError(AbmealyError):
    """Matrix or polynomial fails a shape invariant (or is singular)."""


class NotDivisibleError(AbmealyError):
    """Requested quotient does not exist in the coefficient ring."""


class LocateError(AbmealyError):
    """Location of an automaton inside a complete automaton failed."""


class UnsupportedError(AbmealyError):
    """Exact decision procedure not available at this size; see message."""
