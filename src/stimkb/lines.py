"""The line rule every text input shares.

Blank lines and lines whose first non-blank character is `#` are skipped.
Line numbers count every line of the file, skipped ones included.
"""

from .errors import ParseError


def data_lines(text):
    """Yield (line number, raw line) for each line that is not blank and
    does not start with `#` after leading whitespace."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.lstrip()
        if line and not line.startswith("#"):
            yield lineno, raw


def tab_rows(text, shape):
    """Yield (line number, stripped fields) for each data line of a TSV
    input.  `shape` names the fields, e.g. "child<TAB>parent"; a line with
    another field count raises ParseError."""
    width = shape.count("<TAB>") + 1
    for lineno, raw in data_lines(text):
        fields = raw.strip().split("\t")
        if len(fields) != width:
            raise ParseError(f"expected `{shape}`, got {raw!r}", line=lineno)
        yield lineno, [f.strip() for f in fields]
