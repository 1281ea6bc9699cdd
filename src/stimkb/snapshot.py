"""Workspace manifest parsing and the self-contained snapshot file.

A manifest is a flat `key=value` file naming the input files (taxonomy,
mapping, vocabularies, axioms, records, legacy) plus defaults (seed,
limit); paths are resolved relative to the manifest.  Ingest builds
everything once, expanding keywords, and writes a single versioned JSON
snapshot, so queries and evaluation never re-parse the raw inputs.

The snapshot (format version 6) stores the records as one column per
record field over tables of their distinct values, so that a load parses
no record text and builds each field with C-level `map`/`zip` calls, on
its first use.  Every column is deflated (a zlib stream, RFC 1950) and
written as base64: an integer column (table indices and per-record
counts) as `[typecode, base64]` of its little-endian unsigned items, a
text column as `[length, base64]` of its items' UTF-8 text, each followed
by a line break.  A load inflates no stream past one item and one byte
beyond the length the rest of the snapshot gives its column (see README).
"""

import gc
import json
import sys
import zlib
from array import array
from binascii import a2b_base64, b2a_base64
from collections import namedtuple
from functools import partial
from itertools import chain, compress, count, islice, repeat
from operator import add, is_, is_not, itemgetter, ne, not_
from pathlib import Path

from .affect import (
    DIMENSION_NAMES, ActionTendencyAnnotation, AppraisalAnnotation,
    CategoryAnnotation, DimensionAnnotation, EquivalenceClosure,
    SentimentAnnotation, confidence_problems, in_scale_problem,
    load_vocabularies, non_negative_problem, parse_axioms, scale_problem,
    unit_interval_problem, validate_category,
)
from .corpus import (
    CONTEXT_NUMBER_TYPES, ContextRecord, Corpus, PhysiologyRef,
    SemanticsAnnotation, StimulusRecord, concept_problem, context_problems,
    expand_keywords, kind_problem, parse_legacy_table, parse_record_file,
)
# perfbench/calltrace.py wraps parse_corpus_records here.
from .corpus import parse_corpus_records  # noqa: F401
from .errors import ParseError, SnapshotError, StimKbError, ValidationError
from .lines import data_lines, parse_input, read_input
from .taxonomy import parse_mapping, parse_taxonomy

SNAPSHOT_VERSION = 6

MANIFEST_FILE_KEYS = ("taxonomy", "mapping", "vocabularies", "axioms",
                      "records", "legacy")
MANIFEST_OPTION_KEYS = ("seed", "limit")

_NULL = type(None)
# The top-level keys save_snapshot writes and the JSON types of their values.
_SNAPSHOT_KEYS = {
    "version": (int,), "seed": (int,), "limit": (int, _NULL),
    "taxonomy": (str,), "vocabularies": (str,), "axioms": (str, _NULL),
    "tables": (dict,), "records": (dict,),
}

# JSON item types, as sets of the Python types json.loads gives them.
_TEXT, _OPT_TEXT = {str}, {str, _NULL}
_NUM, _OPT_NUM, _OPT_INT = {int, float}, {int, float, _NULL}, {int, _NULL}
_JSON_NAMES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a number", bool: "a boolean",
               _NULL: "a null"}

# A packed column's typecodes and their item sizes in bytes.  The writer
# uses the narrowest that holds the column's largest item.
_PACKED_SIZES = {"B": 1, "H": 2, "I": 4, "Q": 8}
_BIG_ENDIAN = sys.byteorder == "big"
# The most bytes one inflate step makes: one block of zlib's output
# buffer, which it returns without a copy.
_CHUNK = 1 << 15
# In the column schemas below: a packed column and a text column (whose
# empty item is null in a table section).
_PACKED, _LINES = None, "lines"

# The tables and the types of their items.  `annotations` holds one
# section per tag of _ANNOTATIONS, in order: the tag, then its field
# columns.  A context row holds the ContextRecord fields; a scale row the
# [min, max]; a dir is a physiology path up to and including its last `/`.
_TABLES = {
    "annotations": {list}, "kinds": _TEXT, "contexts": {list},
    "scales": {list}, "values": _NUM, "levels": _TEXT, "dbs": _TEXT,
    "dirs": _TEXT, "channels": _OPT_TEXT,
}
# Per annotation tag: the class its rows build, the types of its field
# columns (the semantics kind indexes `kinds`), and its record field.  An
# "app" section holds rows instead, each a flat list of (name, value) pairs.
_ANNOTATIONS = {
    "sem": (SemanticsAnnotation, (_PACKED, _LINES, _LINES), "semantics"),
    "cat": (CategoryAnnotation, (_TEXT, _TEXT, _OPT_TEXT, _OPT_NUM),
            "categories"),
    "app": (AppraisalAnnotation, None, "appraisals"),
    "tend": (ActionTendencyAnnotation, (_TEXT, _OPT_TEXT, _OPT_NUM),
             "action_tendencies"),
    "sent": (SentimentAnnotation, (_NUM, _OPT_TEXT, _OPT_NUM), "sentiments"),
}
_CONTEXT_TYPES = tuple(
    {int: _OPT_INT, float: _OPT_NUM}.get(CONTEXT_NUMBER_TYPES.get(f), _OPT_TEXT)
    for f in ContextRecord._fields
)
# The DimensionAnnotation fields after the scale: the confidence level, an
# index into `levels`, and the others, indices into `values`.
_DIMENSION_FIELDS = len(DimensionAnnotation._fields)
_LEVEL = DimensionAnnotation._fields.index("confidence_level")
_VALUE_FIELDS = [i for i in range(2, _DIMENSION_FIELDS) if i != _LEVEL]
# _VALUE_FIELDS are the _NAMED DIMENSION_NAMES, the SDs, the confidence value.
_NAMED = len(DIMENSION_NAMES)
# The record columns: one item per record (`<tag>_n` and `phys_n` count
# its items in the flat column `<tag>`, or in `dir`, `path` and `chan`),
# but `dim`, one per record for each of _VALUE_FIELDS, field after field;
# then the flat columns.  Indices point into the tables; in `scale`,
# `dim`, `level` and `ctx`, 0 is none and k is row k - 1.  `id` comes
# first: its length is the one a packed record column is inflated to.
_RECORD_COLUMNS = {
    "id": _LINES, "db": _PACKED,
    **{f"{tag}_n": _PACKED for tag in _ANNOTATIONS},
    **dict.fromkeys(("dim", "level", "scale", "ctx", "phys_n"), _PACKED),
}
_WIDTHS = {"dim": len(_VALUE_FIELDS)}
_FLAT_COLUMNS = {**{tag: _PACKED for tag in _ANNOTATIONS}, "dir": _PACKED,
                 "path": _LINES, "chan": _PACKED}
# Each flat column's count column, whose sum is the flat column's length.
_COUNTS = {**{tag: f"{tag}_n" for tag in _ANNOTATIONS}, "path": "phys_n",
           "dir": "phys_n", "chan": "phys_n"}


class Manifest(namedtuple("Manifest", "paths seed limit", defaults=(0, None))):
    __slots__ = ()  # paths: key -> resolved Path (subset of MANIFEST_FILE_KEYS)


def parse_manifest(path):
    """The Manifest of the manifest file at `path`; an error names the file
    and, where it has one, the line."""
    path = Path(path)
    return parse_input(_parse_manifest_text, path, "manifest file", path.parent)


def _parse_manifest_text(text, base):
    """Each key may appear once; a line's own error comes before a repeat.
    Input paths are resolved relative to the directory `base`."""
    paths = {}
    options = {}
    for lineno, raw in data_lines(text):
        key, sep, value = raw.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise ParseError(f"expected `key=value`, got {raw!r}", line=lineno)
        if key in MANIFEST_FILE_KEYS:
            found = paths
            value = (base / value).resolve()
        elif key in MANIFEST_OPTION_KEYS:
            found = options
            value = _int_option(key, value, lineno)
        else:
            raise ParseError(f"unknown manifest key {key!r}", line=lineno)
        if key in found:
            raise ParseError(f"repeated manifest key {key!r}", line=lineno)
        found[key] = value
    if "taxonomy" not in paths:
        raise ParseError("manifest must name a taxonomy file")
    return Manifest(paths=paths, **options)


def _int_option(key, value, lineno):
    """The integer value of manifest option `seed` or `limit`; a limit is
    at least 1."""
    try:
        number = int(value)
    except ValueError:
        raise ParseError(
            f"{key} must be an integer, got {value!r}", line=lineno
        ) from None
    if key == "limit" and number < 1:
        raise ParseError(f"limit must be >= 1, got {value!r}", line=lineno)
    return number


def _parse(manifest, key, parse, *args):
    """parse_input of the manifest's `key` file, or None if it names none."""
    p = manifest.paths.get(key)
    if p is None:
        return None
    return parse_input(parse, p, f"{key} file", *args)


class Workspace(namedtuple(
    "Workspace",
    "graph mapping closure corpus unmapped_keywords seed limit",
    defaults=(0, None),
)):
    """All the commands need, fully built; the vocabularies are corpus.vocabs.
    Only build_workspace fills `mapping` (the keyword mapping, or None) and
    `unmapped_keywords` (the record keywords it maps to no concept), which
    serve keyword expansion at ingest; a loaded workspace has None and ()."""

    __slots__ = ()


def build_workspace(manifest):
    """The workspace of the manifest's inputs, loaded by _workspace from the
    document save_snapshot would write, as every snapshot is loaded."""
    graph = _parse(manifest, "taxonomy", parse_taxonomy)
    mapping = _parse(manifest, "mapping", parse_mapping, graph)
    vocabs = _parse(manifest, "vocabularies", load_vocabularies)
    if vocabs is None:
        vocabs = load_vocabularies("")
    closure = EquivalenceClosure(_parse(manifest, "axioms", parse_axioms) or [])

    sources = [
        (key, _parse(manifest, key, parse) or [])
        for key, parse in (("records", parse_record_file),
                           ("legacy", parse_legacy_table))
    ]
    records = [rec for _, rows in sources for _, rec in rows]
    unmapped = []
    if mapping is not None:
        records, unmapped = expand_keywords(records, mapping)

    def failure(i, e):
        key, lineno = [(k, n) for k, rows in sources for n, _ in rows][i]
        return ValidationError(
            f"{key} file {manifest.paths[key]} line {lineno}: {e}", e.problems)

    text = _document(graph, vocabs, closure, dict(zip(
        StimulusRecord._fields, zip(*records) if records else repeat(()))),
        manifest.seed, manifest.limit)
    try:
        ws = _paused(lambda: _workspace(json.loads(text), failure))
    except SnapshotError:  # a record that the snapshot cannot hold
        _first_problem(records, Corpus(graph, vocabs), failure)
        raise
    return ws._replace(mapping=mapping, unmapped_keywords=unmapped)


def save_snapshot(workspace, path):
    """Persist the workspace as one line of compact, versioned JSON (see
    _document), without its keyword mapping and unmapped keywords."""
    corpus = workspace.corpus
    text = _document(corpus.graph, corpus.vocabs, workspace.closure, {
        field: getattr(corpus, field) for field in StimulusRecord._fields},
        workspace.seed, workspace.limit)
    with open(path, "wb") as f:
        f.write(text.encode())


def _document(graph, vocabs, closure, fields, seed, limit):
    """The snapshot's text, one line of compact JSON: `graph`, `vocabs` and
    `closure`'s axioms as their input files, `fields` as _record_columns."""
    vocab_lines = [
        f"{vid}\t{term}"
        for vid, vocab in sorted(vocabs.items())
        for term in sorted(vocab.terms)
    ]
    axiom_lines = [
        "\t".join(a.split(".", 1) + b.split(".", 1))
        for cls in closure.classes()
        for a, b in zip(cls, cls[1:])
    ]
    # Interning allocates in bulk, and the records hold no reference cycle.
    tables, columns = _paused(partial(_record_columns, fields))
    doc = {
        "version": SNAPSHOT_VERSION,
        "seed": seed,
        "limit": limit,
        "taxonomy": graph.serialize(),
        "vocabularies": "\n".join(vocab_lines) + "\n",
        "axioms": "\n".join(axiom_lines) + "\n" if axiom_lines else None,
        "tables": tables,
        "records": columns,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _interned(items, key=None):
    """(the distinct items in first-seen order, each item's index among
    them).  Two items are one when their keys are equal: `key(item)`,
    computed once per distinct object, or else the item itself."""
    keys = items
    if key is not None:
        by_id = dict(zip(map(id, items), items))
        key_of = dict(zip(by_id, map(key, by_id.values())))
        keys = list(map(key_of.__getitem__, map(id, items)))
    distinct = dict(zip(keys, items))
    position = dict(zip(distinct, count()))
    return list(distinct.values()), list(map(position.__getitem__, keys))


def _record_columns(fields):
    """The tables and the record columns (see _TABLES and _RECORD_COLUMNS)
    that store the records whose fields are `fields`: each StimulusRecord
    field -> its value for every record, in order.  A table row is interned
    by the text it is written as, which for an item not only of text is
    its `repr` (telling -0.0 from 0.0 and 1 from 1.0 as JSON does), and
    every table lists its items in first-seen order, so the bytes written
    do not depend on the hash seed."""
    dbs, db_column = _interned(fields["db"])
    columns = {"db": db_column, "id": fields["id"]}
    sections = []
    kinds = []
    for tag, (_, types, field) in _ANNOTATIONS.items():
        per_record = fields[field]
        columns[f"{tag}_n"] = list(map(len, per_record))
        distinct, columns[tag] = _interned(
            list(chain.from_iterable(per_record)),
            None if tag == "sem" else repr)
        if types is None:
            sections.append([tag, *(list(chain.from_iterable(a.values))
                                    for a in distinct)])
            continue
        field_columns = list(zip(*distinct)) or [()] * len(types)
        section = [tag, *map(list, field_columns)]
        if tag == "sem":
            kinds, index = _interned(section[1])
            section[1:] = [_packed(index),
                           *(_text([v or "" for v in column])
                             for column in section[2:])]
        sections.append(section)

    scales, values, levels, *dims = _dimension_columns(fields["dimensions"])
    columns.update(zip(("scale", "dim", "level"), dims))
    contexts, ctx = _interned([None, *fields["context"]], repr)
    contexts, columns["ctx"] = contexts[1:], ctx[1:]

    refs = list(chain.from_iterable(fields["physiology"]))
    columns["phys_n"] = list(map(len, fields["physiology"]))
    # (text before the last `/`, the `/` or "", the name) per path.
    parts = list(map(str.rpartition, map(itemgetter(0), refs), repeat("/")))
    dirs, columns["dir"] = _interned(
        list(map(add, map(itemgetter(0), parts), map(itemgetter(1), parts))))
    columns["path"] = map(itemgetter(2), parts)
    channels, columns["chan"] = _interned(list(map(itemgetter(1), refs)))
    for key, allowed in {**_RECORD_COLUMNS, **_FLAT_COLUMNS}.items():
        columns[key] = (_packed if allowed is _PACKED else _text)(columns[key])
    tables = {"annotations": sections, "kinds": kinds, "contexts": contexts,
              "scales": scales, "values": values, "levels": levels,
              "dbs": dbs, "dirs": dirs, "channels": channels}
    return tables, columns


def _dimension_columns(dims):
    """(the `scales`, `values` and `levels` tables, the `scale`, `dim` and
    `level` columns) of each record's DimensionAnnotation or None in
    `dims`; only set values are interned, numbers by `repr`."""
    none = (None,) * _DIMENSION_FIELDS
    slots = list(chain.from_iterable([none if d is None else d for d in dims]))
    fields = [slots[i::_DIMENSION_FIELDS] for i in range(_DIMENSION_FIELDS)]
    scales = [v for v in chain(fields[0], fields[1]) if v is not None]
    scales, scale = _interned([(None, None), *zip(fields[0], fields[1])],
                              repr if _distinct(scales) is None else None)
    slots = list(chain.from_iterable(map(fields.__getitem__, _VALUE_FIELDS)))
    numbers = [v for v in slots if v is not None]
    values = _distinct(numbers)
    if values is not None:
        row = dict(zip(values, count(1)))
        values = list(values)
    else:  # each number object looked up by its id
        values, index = _interned(numbers, repr)
        row = dict(zip(map(id, numbers), map((1).__add__, index)))
        slots = map(id, slots)
    levels = dict.fromkeys(v for v in fields[_LEVEL] if v is not None)
    level = dict(zip(levels, count(1)))
    return (scales[1:], values, list(levels), scale[1:],
            list(map(row.get, slots, repeat(0))),
            list(map(level.get, fields[_LEVEL], repeat(0))))


def _distinct(numbers):
    """The distinct numbers of list `numbers` (dict keys, first seen first)
    if equal ones have one `repr`, so that interning them by value (faster)
    interns them by `repr`: one type, no two NaNs, no zeros of two signs."""
    distinct = dict.fromkeys(numbers)
    zeros = filter({0}.__contains__, numbers) if 0 in distinct else ()
    alike = (len(set(map(type, numbers))) < 2
             and len(set(map(repr, zeros))) < 2
             and len(set(map(repr, distinct))) == len(distinct))
    return distinct if alike else None


def _packed(values):
    """The packed column ([typecode, base64 text]) of the unsigned
    integers `values` under the narrowest typecode that holds them all:
    their little-endian bytes, deflated at zlib's default level."""
    for code in _PACKED_SIZES:
        try:
            items = array(code, values)
        except OverflowError:
            continue
        if _BIG_ENDIAN:
            items.byteswap()
        return [code, b2a_base64(zlib.compress(items.tobytes()),
                                 newline=False).decode()]


def _text(items):
    """The text column ([length, base64 text]) of the strings `items`:
    the UTF-8 bytes of each followed by a line break, `length` of them,
    deflated at zlib's default level."""
    data = "\n".join([*items, ""]).encode()
    return [len(data), b2a_base64(zlib.compress(data), newline=False).decode()]


def _inflated(name, text, limit):
    """The bytes (a bytearray) that the zlib stream whose base64 text is
    `text` inflates to, up to `limit` of them, a chunk at a time into one
    buffer, so that they are held once; SnapshotError unless `text` is
    canonical base64 of one whole stream, if `limit` is not reached."""
    # a2b_base64 skips characters outside the alphabet, so the text must
    # also be what the bytes encode to.
    try:
        stream = a2b_base64(text)
        canonical = b2a_base64(stream, newline=False) == text.encode()
    except ValueError:
        canonical = False
    if not canonical:
        raise SnapshotError(f"{name} is not base64 text")
    inflate = zlib.decompressobj()
    data = bytearray()
    try:
        while len(data) < limit:
            want = min(limit - len(data), _CHUNK)
            chunk = inflate.decompress(stream, want)
            data += chunk
            if len(chunk) < want or inflate.eof:
                break
            stream = inflate.unconsumed_tail
    except zlib.error:
        raise SnapshotError(f"{name} is not a zlib stream") from None
    if len(data) < limit:
        if not inflate.eof:
            raise SnapshotError(f"{name} ends inside its zlib stream")
        if inflate.unused_data:
            raise SnapshotError(f"{name} has bytes after its zlib stream")
    return data


def _unpacked(name, pair, length):
    """The unsigned integers (a memoryview, or on a big-endian host an
    array) of packed column `pair`, expected to hold `length` items;
    SnapshotError unless it is a [typecode, base64 text] pair of a known
    typecode whose bytes are one whole zlib stream of whole items.  The
    stream is inflated to at most one item and one byte past `length`
    items: one item more or fewer is left to the caller's length checks,
    which name both lengths, and a longer stream raises."""
    if type(pair) is not list or len(pair) != 2 or not all(
            type(v) is str for v in pair):
        raise SnapshotError(f"{name} is not a [typecode, base64] pair")
    code, text = pair
    size = _PACKED_SIZES.get(code)
    if size is None:
        raise SnapshotError(f"{name} has unknown typecode {code!r}")
    # A count column may sum past any length an inflate can take.
    limit = min((length + 1) * size + 1, sys.maxsize)
    data = _inflated(name, text, limit)
    if len(data) == limit:
        raise SnapshotError(
            f"{name} holds more than {length + 1} items, not {length}")
    if len(data) % size:
        raise SnapshotError(
            f"{name} has {len(data)} bytes, not whole {size}-byte items")
    if _BIG_ENDIAN:
        items = array(code, data)
        items.byteswap()
        return items
    return memoryview(data).cast(code)


def _lines(name, pair):
    """The list of strings of text column `pair`; SnapshotError unless it
    is a [length, base64 text] pair whose bytes are one whole zlib stream
    of `length` bytes (inflated to at most one more) of UTF-8 text, each
    item followed by a line break, and no item holds a tab or a CR."""
    if type(pair) is not list or len(pair) != 2 or type(pair[0]) is not int \
            or pair[0] < 0 or type(pair[1]) is not str:
        raise SnapshotError(f"{name} is not a [length, base64] pair")
    length = pair[0]
    data = _inflated(name, pair[1], min(length + 1, sys.maxsize))
    if len(data) > length:
        raise SnapshotError(f"{name} holds more than {length} bytes")
    if len(data) < length:
        raise SnapshotError(f"{name} holds {len(data)} bytes, not {length}")
    try:
        text = data.decode()
    except UnicodeDecodeError:
        raise SnapshotError(f"{name} is not UTF-8 text") from None
    del data
    if text and not text.endswith("\n"):
        raise SnapshotError(f"{name} does not end in a line break")
    if "\t" in text or "\r" in text:
        raise SnapshotError(f"{name} holds a tab or a line break")
    return text.split("\n")[:-1]


def _snapshot_problem(doc):
    """The first problem of a snapshot document's top level, or None."""
    if type(doc) is not dict:
        return "top level is not a JSON object"
    if doc.get("version") != SNAPSHOT_VERSION:
        return f"unsupported snapshot version {doc.get('version')!r}; re-ingest"
    for key, types in _SNAPSHOT_KEYS.items():
        if key not in doc:
            return f"missing key {key!r}"
        if type(doc[key]) not in types:
            return f"{key!r} has type {type(doc[key]).__name__}"
    if doc["limit"] is not None and doc["limit"] < 1:
        return f"'limit' is {doc['limit']}, not >= 1"
    return None


def _check_types(name, items, allowed):
    """Raise SnapshotError unless every item of list `items` has a JSON type
    in `allowed` and no string holds a tab or a line break, which no input
    line can hold and which would shift the columns of the TSV output."""
    found = set(map(type, items))
    if not found <= allowed:
        wrong = sorted(_JSON_NAMES[t] for t in found - allowed)
        raise SnapshotError(f"{name} holds {wrong[0]}")
    text = "".join(item for item in items if type(item) is str)
    if "\t" in text or "\n" in text or "\r" in text:
        raise SnapshotError(f"{name} holds a tab or a line break")


def _check_indices(name, indices, size):
    """Raise SnapshotError unless every index is in [0, size)."""
    if indices and max(indices) >= size:
        raise SnapshotError(f"{name} holds an index outside [0, {size})")


def _check_rows(name, rows, types):
    """Check that each row has one item per entry of `types`, of its types."""
    if set(map(len, rows)) - {len(types)}:
        raise SnapshotError(f"{name} has a row without {len(types)} fields")
    for i, (column, allowed) in enumerate(zip(zip(*rows), types)):
        _check_types(f"{name} field {i}", column, allowed)


def _annotations(tag, fields, kinds):
    """(the number of rows of the section of `tag`, and a function that
    builds their annotation objects, in order).  `fields`, the section
    without its tag, is checked here; a packed column is decoded in
    place."""
    cls, types, _ = _ANNOTATIONS[tag]
    name = f"'tables.annotations' tag {tag!r}"
    build = partial(tuple.__new__, cls)
    if types is None:
        rows = fields
        _check_types(name, rows, {list})
        lengths = set(map(len, rows))
        if 0 in lengths or any(k % 2 for k in lengths):
            raise SnapshotError(f"{name} is not a list of (name, value) pairs")
        names = list(map(itemgetter(slice(0, None, 2)), rows))
        values = list(map(itemgetter(slice(1, None, 2)), rows))
        _check_types(f"{name} name", list(chain.from_iterable(names)), _TEXT)
        _check_types(f"{name} value", list(chain.from_iterable(values)), _NUM)
        return len(rows), lambda: list(
            map(build, zip(map(tuple, map(zip, names, values)))))
    if len(fields) != len(types):
        raise SnapshotError(
            f"{name} has {len(fields)} field columns, not {len(types)}")
    # The list and text columns first: the longest gives the row count that
    # a packed column is inflated to.
    rows = 0
    for i in sorted(range(len(types)), key=lambda i: types[i] is _PACKED):
        field = f"{name} field {i}"
        if types[i] is _PACKED:
            fields[i] = _unpacked(field, fields[i], rows)
            _check_indices(field, fields[i], len(kinds))
        elif types[i] is _LINES:
            fields[i] = [item or None for item in _lines(field, fields[i])]
            rows = max(rows, len(fields[i]))
        elif type(fields[i]) is not list:
            raise SnapshotError(f"{field} has type {type(fields[i]).__name__}")
        else:
            _check_types(field, fields[i], types[i])
            rows = max(rows, len(fields[i]))
    if len(set(map(len, fields))) > 1:
        raise SnapshotError(f"{name} has a row without {len(types)} fields")
    if tag == "sem":
        kind, concept, keyword = fields
        if list(map(is_not, concept, repeat(None))) != list(
                map(is_, keyword, repeat(None))):
            raise SnapshotError(f"{name} needs exactly one of concept and keyword")
        return len(kind), lambda: list(
            map(build, zip(map(kinds.__getitem__, kind), concept, keyword)))
    if tag == "cat" and ("" in fields[0] or "" in fields[1]):
        raise SnapshotError(f"{name} has an empty vocabulary or term")
    return len(fields[0]), lambda: list(map(build, zip(*fields)))


def _per_record(counts, items):
    """The items of iterator `items`, in order, regrouped into a list of
    one tuple per record: counts[k] of them for record k.  A record with
    none gets the shared empty tuple."""
    return list(map(tuple, map(islice, repeat(items), counts)))


def _grouped(build, counts, indices):
    """The annotations of one tag per record: build() makes the section's
    annotation objects, and record k holds counts[k] of them, in the order
    of their `indices`."""
    annotations = build()
    return _per_record(counts, map(annotations.__getitem__, indices))


def _dimensions(scales, scale, values, fields, levels, level):
    """The DimensionAnnotation or None of each record: none where its
    `scale` is 0, or else its scale row, then per field its index into
    `values` (one column per field of `fields`) or into `levels` (the
    `level` column), where 0 is none and k is row k - 1."""
    has = list(map(bool, scale))
    value_at = [None, *values]
    columns = [([None, *map(itemgetter(0), scales)], scale),
               ([None, *map(itemgetter(1), scales)], scale),
               *zip(repeat(value_at), fields)]
    columns.insert(_LEVEL, ([None, *levels], level))
    built = map(partial(tuple.__new__, DimensionAnnotation), zip(*(
        map(table.__getitem__, compress(column, has))
        for table, column in columns)))
    return [next(built) if h else None for h in has]


def _contexts(rows, indices):
    """The ContextRecord or None of each record: index 0 is none, and k is
    row k - 1, one object per row."""
    context_at = [None, *map(partial(tuple.__new__, ContextRecord), rows)]
    return list(map(context_at.__getitem__, indices))


def _physiology(dirs, dir_indices, names, channels, chan_indices, counts):
    """The PhysiologyRef tuple of each record, counts[k] of them for record
    k; a path is its dir and then its name."""
    paths = map(add, map(dirs.__getitem__, dir_indices), names)
    refs = map(partial(tuple.__new__, PhysiologyRef),
               zip(paths, map(channels.__getitem__, chan_indices)))
    return _per_record(counts, refs)


def _paused(build, freeze=False):
    """build(), run with the cyclic collector paused, and if `freeze`, what
    it made then moved to the permanent generation (`gc.freeze`), which no
    collection scans: a loaded workspace, and each field built from it,
    holds no reference cycle, so refcounting alone frees it.  Every way out
    restores the collector's state."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        built = build()
        if freeze:
            gc.freeze()
        return built
    finally:
        if gc_was_enabled:
            gc.enable()


def _records(tables, columns, graph, vocabs):
    """(the keys of the records stored in `tables` and `columns`, in order,
    per StimulusRecord field a builder of the list of its values, and
    whether no key repeats and _valid_records holds).  Every table and
    column is checked here (an encoded column is decoded in place, a packed
    one inflated to at most one item past the number of ids, times its
    width, or the sum of its counts): its item types, its length, that its
    indices point into their table, and the rules a record must meet to be
    built at all (a non-empty db and id, a scale exactly when some
    dimension field is set, exactly one of concept or keyword per
    semantics annotation).  The first problem raises SnapshotError; a
    builder checks nothing and never raises."""
    sums = {}
    for group, holder, schema in (("tables", tables, _TABLES),
                                  ("records", columns,
                                   {**_RECORD_COLUMNS, **_FLAT_COLUMNS})):
        for key, allowed in schema.items():
            name = f"'{group}.{key}'"
            if key not in holder:
                raise SnapshotError(f"missing key {name}")
            if allowed is _LINES:
                holder[key] = _lines(name, holder[key])
            elif allowed is _PACKED:
                length = (sums[_COUNTS[key]] if key in _COUNTS
                          else len(columns["id"]) * _WIDTHS.get(key, 1))
                holder[key] = _unpacked(name, holder[key], length)
                if key in _COUNTS.values():  # each is summed once
                    sums[key] = sum(holder[key])
            elif type(holder[key]) is not list:
                raise SnapshotError(
                    f"{name} has type {type(holder[key]).__name__}")
            else:
                _check_types(name, holder[key], allowed)
    ids = columns["id"]
    n = len(ids)
    for key in _RECORD_COLUMNS:
        if len(columns[key]) != n * _WIDTHS.get(key, 1):
            raise SnapshotError(f"'records.{key}' has {len(columns[key])} "
                                f"items, not {n * _WIDTHS.get(key, 1)}")
    if "" in ids:
        raise SnapshotError(f"records[{ids.index('')}]: empty id")
    dbs = tables["dbs"]
    if "" in dbs:
        raise SnapshotError("'tables.dbs' holds an empty name")
    _check_indices("'records.db'", columns["db"], len(dbs))
    for flat, key in _COUNTS.items():
        if sums[key] != len(columns[flat]):
            raise SnapshotError(
                f"'records.{key}' sums to {sums[key]}, not to the "
                f"{len(columns[flat])} items of 'records.{flat}'")

    # The annotation table: one section per tag, in order, and each tag's
    # record column points into its section's rows.
    sections = tables["annotations"]
    if not all(sections):
        raise SnapshotError("'tables.annotations' holds an empty section")
    tags = list(map(itemgetter(0), sections))
    if tags != list(_ANNOTATIONS):
        raise SnapshotError(f"'tables.annotations' has sections tagged "
                            f"{tags!r}, not {list(_ANNOTATIONS)!r}")
    kinds = tables["kinds"]
    if "" in kinds:
        raise SnapshotError("'tables.kinds' holds an empty name")
    builders = {}
    decoded = {}  # each tag's field columns (or rows), once decoded
    for tag, section in zip(_ANNOTATIONS, sections):
        decoded[tag] = section[1:]
        size, build = _annotations(tag, decoded[tag], kinds)
        _check_indices(f"'records.{tag}'", columns[tag], size)
        builders[_ANNOTATIONS[tag][2]] = partial(
            _grouped, build, columns[f"{tag}_n"], columns[tag])

    # A record has dimensions exactly when its scale is not 0.
    scales = tables["scales"]
    _check_rows("'tables.scales'", scales, (_NUM, _NUM))
    scale, dim, level = columns["scale"], columns["dim"], columns["level"]
    _check_indices("'records.scale'", scale, len(scales) + 1)
    fields = [dim[k * n:k * n + n] for k in range(_WIDTHS["dim"])]
    # The indices the named fields, the SDs and the confidence value hold:
    # the validation rules read their rows, and they bound `dim`.
    used = [set().union(*fields[:_NAMED]), set().union(*fields[_NAMED:-1]),
            set(fields[-1])]
    _check_indices("'records.dim'", set().union(*used), len(tables["values"]) + 1)
    _check_indices("'records.level'", level, len(tables["levels"]) + 1)
    named = list(map(any, zip(*fields[:_NAMED])))
    present = list(map(any, zip(named, level, *fields[_NAMED:])))
    scaled = list(map(bool, scale))
    if present != scaled:
        i = next(compress(count(), map(ne, present, scaled)))
        raise SnapshotError(f"records[{i}]: " + (
            "dimensions without a scale" if present[i]
            else "a scale without dimensions"))
    builders["dimensions"] = partial(_dimensions, scales, scale,
                                     tables["values"], fields,
                                     tables["levels"], level)

    contexts = tables["contexts"]
    _check_rows("'tables.contexts'", contexts, _CONTEXT_TYPES)
    _check_indices("'records.ctx'", columns["ctx"], len(contexts) + 1)
    builders["context"] = partial(_contexts, contexts, columns["ctx"])

    # A records file writes a reference `path channel`, and packs several
    # with `;`.
    dirs, names = tables["dirs"], columns["path"]
    for name, text in (("'tables.dirs'", "".join(dirs)),
                       ("'records.path'", "".join(names))):
        if " " in text or ";" in text:
            raise SnapshotError(f"{name} holds a space or a ';'")
    _check_indices("'records.dir'", columns["dir"], len(dirs))
    channels = tables["channels"]
    if "" in channels or ";" in "".join(filter(None, channels)):
        raise SnapshotError("'tables.channels' holds an empty name or a ';'")
    _check_indices("'records.chan'", columns["chan"], len(channels))
    builders["physiology"] = partial(
        _physiology, dirs, columns["dir"], names, channels, columns["chan"],
        columns["phys_n"])

    db_names = list(map(dbs.__getitem__, columns["db"]))
    builders["db"], builders["id"] = db_names.copy, ids.copy
    keys = list(map("/".join, zip(db_names, ids)))
    # A record has a named dimension value wherever it has a scale.
    valid = (named == scaled and len(set(keys)) == n and _valid_records(
        tables, columns, decoded, fields, used, graph, vocabs))
    return keys, {field: partial(_paused, build, True)
                  for field, build in builders.items()}, valid


def _valid_records(tables, columns, sections, fields, used, graph, vocabs):
    """Whether the records in the checked `tables` and `columns` meet the
    rest of validate_stimulus against `graph` and `vocabs`.  Each rule runs
    once per distinct table row, as a column store evaluates a predicate
    once per dictionary entry, or as a pass over record columns.  `sections`
    holds each tag's decoded fields (app: rows), `fields` each `dim` field,
    and `used` the `values` indices of the named fields, SDs and confidence."""
    values, scales, scale = tables["values"], tables["scales"], columns["scale"]
    # The rows those indices point to: 0 is none and k is row k - 1.
    named, sds, confidences = ([values[i - 1] for i in indices if i]
                               for indices in used)
    # Each rule (which gives a problem or None) and the rows it runs on.
    rules = (
        (kind_problem, tables["kinds"]),
        (partial(concept_problem, concepts=graph.concepts),
         set(sections["sem"][1])),
        (partial(validate_category, vocabs=vocabs),
         map(CategoryAnnotation._make, zip(*sections["cat"]))),
        (partial(unit_interval_problem, "appraisal"), chain.from_iterable(
            map(itemgetter(slice(1, None, 2)), sections["app"]))),
        (partial(unit_interval_problem, "sentiment"), sections["sent"][0]),
        (context_problems, map(ContextRecord._make, tables["contexts"])),
        (partial(confidence_problems, value=None), chain(
            tables["levels"], sections["tend"][1], sections["sent"][1])),
        (lambda row: scale_problem(*row), scales),
        (partial(non_negative_problem, "SD"), sds),
        (partial(confidence_problems, None), chain(
            confidences, sections["tend"][2], sections["sent"][2])),
    )
    if any(any(map(rule, rows)) for rule, rows in rules):
        return False
    # Each value a named field uses against each scale, or where one fails
    # (or that would take longer), each (scale, value) pair records hold.
    if len(scales) * len(named) > len(scale) * _NAMED or any(
            in_scale_problem("", v, lo, hi) for lo, hi in scales for v in named):
        pairs = set(chain.from_iterable(zip(scale, f) for f in fields[:_NAMED]))
        if any(in_scale_problem("", values[v - 1], *scales[s - 1])
               for s, v in pairs if v):
            return False
    # The four-component axiom: no record has 0 in every count column and
    # in `scale` and `ctx`.
    bare = list(compress(count(), map(not_, columns["sem_n"])))
    for key in ("cat_n", "app_n", "tend_n", "sent_n", "scale", "ctx", "phys_n"):
        bare = [i for i in bare if not columns[key][i]]
    # No physiology path is empty: an empty dir and an empty name.
    dirs, names = tables["dirs"], columns["path"]
    return not bare and ("" not in names or "" not in dirs or all(
        name or dirs[d] for d, name in zip(columns["dir"], names)))


def load_snapshot(path):
    """Rebuild the workspace saved by save_snapshot.

    Every load checks the whole snapshot: its top level, the taxonomy (a
    cycle included), the vocabularies and axioms, and every table and
    column, the validation rules included (see _records).  It builds no
    record field: the corpus builds each one on its first use, as the
    graph does its tables.  A bad snapshot raises SnapshotError naming the
    file, here and never later.  Records that share a table row share one
    object.
    """
    path = Path(path)

    # The cyclic collector would only rescan the document and the records
    # (see _paused).  The bytes are dropped once decoded and the text once
    # parsed: one whole copy of the file is alive beside the document.
    def load():
        try:
            doc = json.loads(read_input(path, "snapshot"))
        except (ParseError, ValueError, RecursionError) as e:
            raise SnapshotError(f"not JSON: {e}") from e
        return _workspace(
            doc, lambda i, e: SnapshotError(f"records[{i}]: {e}"))

    try:
        return _paused(load, True)
    except SnapshotError as e:
        raise SnapshotError(f"bad snapshot {path}: {e}") from e.__cause__


def _workspace(doc, failure):
    """The workspace that snapshot document `doc` stores.  Only if a record
    breaks a validation rule or a key repeats (see _records) are the
    records added again, so that the first problem raises failure(i, e)
    with add_stimulus's error (_first_problem); others raise SnapshotError."""
    problem = _snapshot_problem(doc)
    if problem is not None:
        raise SnapshotError(problem)
    try:
        graph = parse_taxonomy(doc["taxonomy"])
        vocabs = load_vocabularies(doc["vocabularies"])
        closure = EquivalenceClosure(parse_axioms(doc["axioms"] or ""))
    except StimKbError as e:
        raise SnapshotError(str(e)) from e
    corpus = Corpus(graph, vocabs)
    keys, builders, valid = _records(doc.pop("tables"), doc.pop("records"),
                                     graph, vocabs)
    corpus.index_all(keys, builders)
    if not valid:
        _first_problem(corpus, Corpus(graph, vocabs), failure)
    return Workspace(graph, None, closure, corpus, (), doc["seed"],
                     doc["limit"])


def _first_problem(records, corpus, failure):
    """Raise failure(i, e) for the first ValidationError `e`, at record i,
    of adding `records` in order to empty `corpus` through add_stimulus."""
    try:
        for rec in records:
            corpus.add_stimulus(rec)
    except ValidationError as e:
        raise failure(len(corpus), e) from e
