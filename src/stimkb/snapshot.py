"""Workspace manifest parsing and the self-contained snapshot file.

A manifest is a flat `key=value` file naming the input files (taxonomy,
mapping, vocabularies, axioms, records, legacy) plus defaults (seed,
limit); paths are resolved relative to the manifest.  Ingest
builds everything once and writes a single versioned JSON snapshot, so
queries and evaluation never re-parse the raw inputs.

The snapshot stores the records as positional columns (format version 2):
one JSON array per record field over tables of the distinct annotations,
contexts, database names and physiology channels, so that a load builds
every record with C-level `map`/`zip` calls and parses no record text.
"""

import gc
import json
from collections import namedtuple
from functools import partial
from itertools import chain, compress, count, groupby, islice, repeat, zip_longest
from operator import add, is_, is_not, itemgetter
from pathlib import Path

try:
    # Importing hashlib loads OpenSSL, which costs every CLI process 3.5 MiB
    # of RSS and 3-4 ms (2-vCPU host); the built-in BLAKE2 module does not
    # (`random` avoids hashlib the same way).
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

from . import corpus as corpus_module
from .affect import (
    ActionTendencyAnnotation,
    AppraisalAnnotation,
    CategoryAnnotation,
    DimensionAnnotation,
    EquivalenceClosure,
    SentimentAnnotation,
    load_vocabularies,
    parse_axioms,
)
from .corpus import (
    CONTEXT_NUMBER_TYPES,
    VALIDATION_RULES,
    ContextRecord,
    Corpus,
    PhysiologyRef,
    SemanticsAnnotation,
    StimulusRecord,
    expand_keywords,
    invalid_record,
    parse_corpus_records,  # noqa: F401  wrapped here by perfbench/calltrace.py
    parse_legacy_table,
    parse_record_file,
)
from .errors import ParseError, SnapshotError, StimKbError, ValidationError
from .lines import (
    data_lines,
    decode_input,
    parse_input,
    read_input_bytes,
)
from .taxonomy import parse_mapping, parse_taxonomy

SNAPSHOT_VERSION = 2

MANIFEST_FILE_KEYS = (
    "taxonomy",
    "mapping",
    "vocabularies",
    "axioms",
    "records",
    "legacy",
)
MANIFEST_OPTION_KEYS = ("seed", "limit")

# A sealed snapshot starts `{\n "seal": "<64 hex digits>",` and then goes
# on as the document without its seal would after its `{`.  The seal is the
# BLAKE2b-256 digest of the validation rules version and of every byte
# after the hex digits.
_SEAL_HEAD = b'{\n "seal": "'
_SEAL_END = len(_SEAL_HEAD) + 64

_NULL = type(None)
# The top-level keys save_snapshot writes and the JSON types of their values.
_SNAPSHOT_KEYS = {
    "version": (int,),
    "seed": (int,),
    "limit": (int, _NULL),
    "taxonomy": (str,),
    "mapping": (str, _NULL),
    "vocabularies": (str,),
    "axioms": (str, _NULL),
    "unmapped_keywords": (list,),
    "tables": (dict,),
    "records": (dict,),
}

# JSON item types, as sets of the Python types json.loads gives them.
_TEXT, _OPT_TEXT = {str}, {str, _NULL}
_NUM, _OPT_NUM, _OPT_INT = {int, float}, {int, float, _NULL}, {int, _NULL}
_JSON_NAMES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a number", bool: "a boolean",
               _NULL: "a null"}

# The tables and the types of their items.  An annotation row is its tag
# (a key of _ANNOTATIONS) then its fields; the rows of one tag are
# contiguous.  A context row holds the ContextRecord fields, in order.
_TABLES = {
    "annotations": {list},
    "contexts": {list},
    "dbs": _TEXT,
    "channels": _OPT_TEXT,
}
# Per annotation tag: the class its rows build, the JSON types of the row's
# fields after the tag, and its record field.  An "app" row is instead a
# flat list of (name, value) pairs.
_ANNOTATIONS = {
    "sem": (SemanticsAnnotation, (_TEXT, _OPT_TEXT, _OPT_TEXT), "semantics"),
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
# A dimension vector holds the DimensionAnnotation fields, in order, up to
# the last one set; its scale is required.
_DIMENSION_FIELDS = len(DimensionAnnotation._fields)
_DIMENSION_TYPES = tuple(
    _NUM if f.startswith("scale") else _OPT_TEXT if f == "confidence_level"
    else _OPT_NUM
    for f in DimensionAnnotation._fields
)
# The record columns: one item per record (`<tag>_n` and `phys_n` count
# the record's items in the flat column `<tag>`, or in `path` and `chan`),
# then the flat columns.  Indices point into the tables.
_RECORD_COLUMNS = {
    "db": {int},
    "id": _TEXT,
    **{f"{tag}_n": {int} for tag in _ANNOTATIONS},
    "dim": {list, _NULL},
    "ctx": _OPT_INT,
    "phys_n": {int},
}
_FLAT_COLUMNS = {**{tag: {int} for tag in _ANNOTATIONS}, "path": _TEXT,
                 "chan": {int}}


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
    """All the commands need, fully built; the vocabularies are corpus.vocabs."""

    __slots__ = ()


def build_workspace(manifest):
    graph = _parse(manifest, "taxonomy", parse_taxonomy)
    mapping = _parse(manifest, "mapping", parse_mapping, graph)
    vocabs = _parse(manifest, "vocabularies", load_vocabularies)
    if vocabs is None:
        vocabs = load_vocabularies("")
    closure = EquivalenceClosure(_parse(manifest, "axioms", parse_axioms) or [])

    # Each record is validated once, by add_stimulus, after keyword
    # expansion (whose concepts parse_mapping has checked).
    sources = [
        (key, _parse(manifest, key, parse) or [])
        for key, parse in (("records", parse_record_file),
                           ("legacy", parse_legacy_table))
    ]
    records = [rec for _, rows in sources for _, rec in rows]
    unmapped = []
    if mapping is not None:
        records, unmapped = expand_keywords(records, mapping)

    corpus = Corpus(graph, vocabs)
    try:
        for rec in records:
            corpus.add_stimulus(rec)
    except ValidationError as e:
        # The failed record is the len(corpus)-th: name its file and line.
        i = len(corpus)
        for key, rows in sources:
            if i < len(rows):
                break
            i -= len(rows)
        e.args = (f"{key} file {manifest.paths[key]} line {rows[i][0]}: {e}",)
        raise

    return Workspace(
        graph=graph,
        mapping=mapping,
        closure=closure,
        corpus=corpus,
        unmapped_keywords=unmapped,
        seed=manifest.seed,
        limit=manifest.limit,
    )



def save_snapshot(workspace, path):
    """Persist the workspace as a versioned JSON document.

    The taxonomy/mapping/vocab/axiom inputs are stored in their wire
    formats and re-parsed at load, which keeps the snapshot format tied to
    the already-tested parsers.  The taxonomy and the vocabularies written
    are the corpus's: the ones Corpus.add_stimulus validated every record
    against.  The records are stored as the columns of _record_columns,
    and the document is written compact (no indentation).

    The document is therefore always sealed: its first key, "seal", is a
    digest of the validation rules version and the rest of the file, and
    a load whose seal matches skips record validation.  The seal is an
    integrity check, not a security boundary: anyone can compute it.
    """
    corpus = workspace.corpus
    mapping_lines = None
    if workspace.mapping is not None:
        mapping_lines = [
            f"{kw}\t{c}"
            for kw, cs in sorted(workspace.mapping.entries.items())
            for c in sorted(cs)
        ]
    vocab_lines = [
        f"{vid}\t{term}"
        for vid, vocab in sorted(corpus.vocabs.items())
        for term in sorted(vocab.terms)
    ]
    axiom_lines = [
        "\t".join(a.split(".", 1) + b.split(".", 1))
        for cls in workspace.closure.classes()
        for a, b in zip(cls, cls[1:])
    ]
    tables, columns = _record_columns(list(corpus))
    doc = {
        "version": SNAPSHOT_VERSION,
        "seed": workspace.seed,
        "limit": workspace.limit,
        "taxonomy": corpus.graph.serialize(),
        "mapping": "\n".join(mapping_lines) + "\n" if mapping_lines else None,
        "vocabularies": "\n".join(vocab_lines) + "\n",
        "axioms": "\n".join(axiom_lines) + "\n" if axiom_lines else None,
        "unmapped_keywords": workspace.unmapped_keywords,
        "tables": tables,
        "records": columns,
    }
    # The seal line ends in a line break, so that deleting it leaves `{`
    # and then the document after its `{`.
    body = memoryview(json.dumps(doc, separators=(",", ":")).encode())[1:]
    with open(path, "wb") as f:
        f.write(_SEAL_HEAD + _seal(b'",\n', body, b"\n") + b'",\n')
        f.write(body)
        f.write(b"\n")


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


def _record_columns(records):
    """The tables and the record columns (see _TABLES and _RECORD_COLUMNS)
    that store `records`, in order.

    Annotations and contexts are interned by the text they are written as:
    records that share one in memory, or hold equal ones written alike,
    share its row.  Semantics annotations hold only text, so equal ones are
    written alike; the others are keyed by `repr`, which tells -0.0 from
    0.0 and 1 from 1.0 as the JSON text does.
    """
    if records:
        fields = dict(zip(StimulusRecord._fields, zip(*records)))
    else:
        fields = dict.fromkeys(StimulusRecord._fields, ())
    dbs, db_column = _interned(fields["db"])
    columns = {"db": db_column, "id": list(fields["id"])}
    rows = []
    for tag, (_, _, field) in _ANNOTATIONS.items():
        per_record = fields[field]
        distinct, index = _interned(list(chain.from_iterable(per_record)),
                                    None if tag == "sem" else repr)
        columns[f"{tag}_n"] = list(map(len, per_record))
        columns[tag] = list(map(len(rows).__add__, index))
        if tag == "app":
            rows += (("app", *chain.from_iterable(a.values)) for a in distinct)
        else:
            rows += map(add, repeat((tag,)), distinct)
    columns["dim"] = [d if d is None else _set_fields(d)
                      for d in fields["dimensions"]]

    present = list(map(is_not, fields["context"], repeat(None)))
    contexts, index = _interned(list(compress(fields["context"], present)), repr)
    at = dict(zip(compress(count(), present), index))
    columns["ctx"] = list(map(at.get, range(len(records))))

    refs = list(chain.from_iterable(fields["physiology"]))
    columns["phys_n"] = list(map(len, fields["physiology"]))
    columns["path"] = list(map(itemgetter(0), refs))  # PhysiologyRef.path
    channels, columns["chan"] = _interned(list(map(itemgetter(1), refs)))
    tables = {"annotations": rows, "contexts": contexts, "dbs": dbs,
              "channels": channels}
    return tables, columns


def _set_fields(vector):
    """Dimension vector `vector` up to its last field that is not None,
    and at least its scale."""
    end = len(vector)
    while end > 2 and vector[end - 1] is None:
        end -= 1
    return vector[:end]


def _seal(*chunks):
    """The seal (64 hex digits, as bytes) over the snapshot bytes that
    follow it, given in `chunks`."""
    digest = blake2b(b"validation rules %d\n" % VALIDATION_RULES, digest_size=32)
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest().encode()


def _seal_matches(data):
    """Whether snapshot bytes `data` begin with a seal that matches them."""
    return data.startswith(_SEAL_HEAD) and data[len(_SEAL_HEAD):_SEAL_END] == (
        _seal(memoryview(data)[_SEAL_END:])
    )


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
    if not all(type(v) is str for v in doc["unmapped_keywords"]):
        return "'unmapped_keywords' holds a non-string item"
    return None


def _check_types(name, items, allowed):
    """Raise SnapshotError unless every item of list `items` has a JSON
    type in `allowed` and no string among them holds a tab or a line
    break, which no input line can hold and which would shift the columns
    of the TSV output."""
    found = set(map(type, items))
    if not found <= allowed:
        wrong = sorted(_JSON_NAMES[t] for t in found - allowed)
        raise SnapshotError(f"{name} holds {wrong[0]}")
    if str in found:
        if found != {str}:
            items = compress(items, map(is_, map(type, items), repeat(str)))
        text = "".join(items)
        if "\t" in text or "\n" in text or "\r" in text:
            raise SnapshotError(f"{name} holds a tab or a line break")


def _check_indices(name, indices, size, start=0):
    """Raise SnapshotError unless every index is in [start, start + size)."""
    if indices and (min(indices) < start or max(indices) >= start + size):
        raise SnapshotError(
            f"{name} holds an index outside [{start}, {start + size})")


def _check_rows(name, rows, types):
    """Check that each row has one item per entry of `types`, of its types;
    return the rows' columns."""
    if set(map(len, rows)) - {len(types)}:
        raise SnapshotError(f"{name} has a row without {len(types)} fields")
    columns = list(zip(*rows)) or [()] * len(types)
    for i, (column, allowed) in enumerate(zip(columns, types)):
        _check_types(f"{name} field {i}", column, allowed)
    return columns


def _annotations(tag, rows):
    """The annotation objects that the rows (tag dropped) of `tag` build."""
    cls, types, _ = _ANNOTATIONS[tag]
    name = f"'tables.annotations' tag {tag!r}"
    build = partial(tuple.__new__, cls)
    if types is None:
        lengths = set(map(len, rows))
        if 0 in lengths or any(k % 2 for k in lengths):
            raise SnapshotError(f"{name} is not a list of (name, value) pairs")
        names = list(map(itemgetter(slice(0, None, 2)), rows))
        values = list(map(itemgetter(slice(1, None, 2)), rows))
        _check_types(f"{name} name", list(chain.from_iterable(names)), _TEXT)
        _check_types(f"{name} value", list(chain.from_iterable(values)), _NUM)
        return list(map(build, zip(map(tuple, map(zip, names, values)))))
    columns = _check_rows(name, rows, types)
    if tag == "sem":
        kind, concept, keyword = columns
        if list(map(is_not, concept, repeat(None))) != list(
                map(is_, keyword, repeat(None))):
            raise SnapshotError(f"{name} needs exactly one of concept and keyword")
        if "" in concept or "" in keyword:
            raise SnapshotError(f"{name} has an empty concept or keyword")
    elif tag == "cat" and ("" in columns[0] or "" in columns[1]):
        raise SnapshotError(f"{name} has an empty vocabulary or term")
    return list(map(build, rows))


def _per_record(counts, items):
    """The items of iterator `items`, in order, regrouped into one tuple
    per record: counts[k] of them for record k."""
    return map(tuple, map(islice, repeat(items), counts))


def _records(tables, columns):
    """(the records stored in `tables` and `columns`, in order, and their
    keys).  Every column is checked first, whatever the seal: its item
    types, its length, that its indices point into their table, and the
    rules a record must meet to be built at all (a non-empty db and id, a
    scale with any dimension values, exactly one of concept or keyword per
    semantics annotation).  The first problem raises SnapshotError."""
    for group, holder, schema in (("tables", tables, _TABLES),
                                  ("records", columns,
                                   {**_RECORD_COLUMNS, **_FLAT_COLUMNS})):
        for key, allowed in schema.items():
            name = f"'{group}.{key}'"
            if key not in holder:
                raise SnapshotError(f"missing key {name}")
            if type(holder[key]) is not list:
                raise SnapshotError(
                    f"{name} has type {type(holder[key]).__name__}")
            _check_types(name, holder[key], allowed)
    ids = columns["id"]
    n = len(ids)
    for key in _RECORD_COLUMNS:
        if len(columns[key]) != n:
            raise SnapshotError(
                f"'records.{key}' has {len(columns[key])} items, not {n}")
    if "" in ids:
        raise SnapshotError(f"records[{ids.index('')}]: empty id")
    dbs = tables["dbs"]
    if "" in dbs:
        raise SnapshotError("'tables.dbs' holds an empty name")
    _check_indices("'records.db'", columns["db"], len(dbs))
    for key, flat in (*((f"{tag}_n", tag) for tag in _ANNOTATIONS),
                      ("phys_n", "path"), ("phys_n", "chan")):
        counts = columns[key]
        if counts and min(counts) < 0:
            raise SnapshotError(f"'records.{key}' holds a negative count")
        if sum(counts) != len(columns[flat]):
            raise SnapshotError(
                f"'records.{key}' sums to {sum(counts)}, not to the "
                f"{len(columns[flat])} items of 'records.{flat}'")

    # The annotation table: each tag's rows are contiguous, and its
    # record column points into them.
    rows = tables["annotations"]
    if not all(rows):
        raise SnapshotError("'tables.annotations' holds an empty row")
    tags = list(map(itemgetter(0), rows))
    _check_types("'tables.annotations' tags", tags, _TEXT)
    annotations = []
    per_tag = {}
    for tag, run in groupby(tags):
        if tag not in _ANNOTATIONS or tag in per_tag:
            raise SnapshotError(
                f"'tables.annotations' has a stray row tagged {tag!r}")
        start = len(annotations)
        size = len(list(run))
        annotations += _annotations(tag, list(map(
            itemgetter(slice(1, None)), rows[start:start + size])))
        per_tag[tag] = (start, size)
    fields = {}
    for tag, (_, _, field) in _ANNOTATIONS.items():
        start, size = per_tag.get(tag, (0, 0))
        _check_indices(f"'records.{tag}'", columns[tag], size, start)
        fields[field] = _per_record(
            columns[f"{tag}_n"], map(annotations.__getitem__, columns[tag]))

    # A dimension vector holds its scale and then the other fields up to
    # the last one set; the load pads it with nulls.
    dims = columns["dim"]
    present = list(map(is_not, dims, repeat(None)))
    vectors = list(compress(dims, present))
    lengths = set(map(len, vectors))
    if lengths and not 2 <= min(lengths) <= max(lengths) <= _DIMENSION_FIELDS:
        raise SnapshotError(
            f"'records.dim' holds a vector of {min(lengths)} or "
            f"{max(lengths)} fields, not 2 to {_DIMENSION_FIELDS}")
    for i, (column, allowed) in enumerate(
            zip(zip_longest(*vectors), _DIMENSION_TYPES)):
        _check_types(f"'records.dim' field {i}", column, allowed)
    padding = [[None] * (_DIMENSION_FIELDS - k)
               for k in range(_DIMENSION_FIELDS + 1)]
    full = map(add, vectors, map(padding.__getitem__, map(len, vectors)))
    dims_at = dict(zip(compress(count(), present),
                       map(partial(tuple.__new__, DimensionAnnotation), full)))
    fields["dimensions"] = map(dims_at.get, range(n))

    contexts = tables["contexts"]
    _check_rows("'tables.contexts'", contexts, _CONTEXT_TYPES)
    ctx = columns["ctx"]
    _check_indices("'records.ctx'",
                   list(compress(ctx, map(is_not, ctx, repeat(None)))),
                   len(contexts))
    context_at = dict(enumerate(
        map(partial(tuple.__new__, ContextRecord), contexts)))
    context_at[None] = None
    fields["context"] = map(context_at.__getitem__, ctx)

    # A records file writes a reference `path channel`, and packs several
    # with `;`.
    paths = "".join(columns["path"])
    if " " in paths or ";" in paths:
        raise SnapshotError("'records.path' holds a space or a ';'")
    channels = tables["channels"]
    if "" in channels or ";" in "".join(filter(None, channels)):
        raise SnapshotError("'tables.channels' holds an empty name or a ';'")
    _check_indices("'records.chan'", columns["chan"], len(channels))
    refs = map(partial(tuple.__new__, PhysiologyRef),
               zip(columns["path"], map(channels.__getitem__, columns["chan"])))
    fields["physiology"] = _per_record(columns["phys_n"], refs)

    db_names = list(map(dbs.__getitem__, columns["db"]))
    fields["db"], fields["id"] = db_names, ids
    records = list(map(
        partial(tuple.__new__, StimulusRecord),
        zip(*map(fields.__getitem__, StimulusRecord._fields)),
    ))
    return records, list(map("/".join, zip(db_names, ids)))


def load_snapshot(path):
    """Rebuild the workspace saved by save_snapshot.

    The records are built from the snapshot's columns (see _records),
    which are checked at every load.  Unless the snapshot's seal matches,
    each record is then validated against the taxonomy and the
    vocabularies, in order.  A matching seal means that ingest validated
    the records under the current rules, and that no byte has changed
    since.  Records that share an annotation or a context row share one
    object.  After a good load, every object then alive is frozen out of
    the cyclic garbage collector (`gc.freeze`).  A snapshot that is not
    JSON (or not UTF-8), has the wrong structure or holds a bad input
    raises SnapshotError naming the file.
    """
    path = Path(path)
    data = read_input_bytes(path, "snapshot")
    sealed = _seal_matches(data)
    # The bytes and the text are each dropped once used: only one whole
    # copy of the file is alive beside the parsed document.
    try:
        text = decode_input(data, path, "snapshot")
        del data
        doc = json.loads(text)
    except (ParseError, ValueError, RecursionError) as e:
        raise SnapshotError(f"bad snapshot {path}: not JSON: {e}") from e
    del text
    problem = _snapshot_problem(doc)
    if problem is not None:
        raise SnapshotError(f"bad snapshot {path}: {problem}")
    try:
        graph = parse_taxonomy(doc["taxonomy"])
        mapping = parse_mapping(doc["mapping"], graph) if doc["mapping"] else None
        vocabs = load_vocabularies(doc["vocabularies"])
        axioms = parse_axioms(doc["axioms"] or "")
        closure = EquivalenceClosure(axioms)
    except StimKbError as e:
        raise SnapshotError(f"bad snapshot {path}: {e}") from e
    corpus = Corpus(graph, vocabs)
    # The records hold no reference cycles, so the cyclic collector would
    # only rescan them: paused while they pile up, and once they are all
    # built, moved to the permanent generation, which no collection scans.
    # Refcounting alone still frees the workspace when it is dropped.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        records, keys = _records(doc["tables"], doc["records"])
        del doc["tables"], doc["records"]  # freed before the index is built
        repeated = corpus.index_all(records, keys)
        if not sealed:
            # Validated in order up to the first repeated key, so that the
            # first problem is reported as add_stimulus would report it.
            # Looked up on the module at each load, so that call wrappers
            # installed there (as the benchmark's traced run does) see
            # every record.
            validate = corpus_module.validate_stimulus
            for i, rec in enumerate(records[:repeated + 1]):
                problems = validate(rec, graph, vocabs)
                if problems:
                    raise SnapshotError(
                        f"records[{i}]: {invalid_record(rec, problems)}")
        if repeated < len(records):
            raise SnapshotError(
                f"records[{repeated}]: duplicate stimulus key {keys[repeated]}")
    except SnapshotError as e:
        raise SnapshotError(f"bad snapshot {path}: {e}") from None
    else:
        gc.freeze()
    finally:
        if gc_was_enabled:
            gc.enable()
    return Workspace(
        graph=graph,
        mapping=mapping,
        closure=closure,
        corpus=corpus,
        unmapped_keywords=doc["unmapped_keywords"],
        seed=doc["seed"],
        limit=doc["limit"],
    )
