"""How every text input is read, and the line rule they all share.

Blank lines and lines whose first non-blank character is `#` are skipped.
Line numbers count every line of the file, skipped ones included.
"""

from pathlib import Path

from .errors import ParseError, ValidationError


def read_input(path, what):
    """The text of input file `path`, decoded as UTF-8; `what` names the
    input in errors.  A missing file raises FileNotFoundError, one that
    cannot be read (a directory, say) OSError, and bytes that are not
    UTF-8 ParseError."""
    return decode_input(read_input_bytes(path, what), path, what)


def parse_input(parse, path, what, *args):
    """`parse(text, *args)` on the text read_input reads from `path`.  A
    ParseError or ValidationError it raises names the input first, as in
    `queries file q.tsv line 2: ...` or `vocabularies file v.tsv: ...`;
    its type, `line` and `problems` stay."""
    text = read_input(path, what)
    try:
        return parse(text, *args)
    except (ParseError, ValidationError) as e:
        line = getattr(e, "line", None)
        e.args = (f"{what} {path}{' ' if line is not None else ': '}{e}",)
        raise


def read_input_bytes(path, what):
    """The bytes of input file `path`; raises read_input's OSErrors."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise FileNotFoundError(f"{what} not found: {path}") from None
    except OSError as e:
        raise OSError(f"cannot read {what} {path}: {e.strerror}") from None


def decode_input(data, path, what):
    """The bytes `data` of input file `path` as text: decoded as UTF-8,
    with CRLF and CR line ends read as LF, as a text-mode read does.
    Bytes that are not UTF-8 raise ParseError."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(
            f"{what} {path} is not UTF-8: {e.reason} at byte {e.start}"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
