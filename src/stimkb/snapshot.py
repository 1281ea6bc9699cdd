"""Workspace manifest parsing and the self-contained snapshot file.

A manifest is a flat `key=value` file naming the input files (taxonomy,
mapping, vocabularies, axioms, records, legacy) plus defaults (seed,
limit); paths are resolved relative to the manifest.  Ingest
builds everything once and writes a single versioned JSON snapshot, so
queries and evaluation never re-parse the raw inputs.
"""

import gc
import json
from collections import namedtuple
from pathlib import Path

try:
    # Importing hashlib loads OpenSSL, which costs every CLI process 3.5 MiB
    # of RSS and 3-4 ms (2-vCPU host); the built-in BLAKE2 module does not
    # (`random` avoids hashlib the same way).
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

from . import corpus as corpus_module
from .affect import EquivalenceClosure, load_vocabularies, parse_axioms
from .corpus import (
    VALIDATION_RULES,
    Corpus,
    expand_keywords,
    parse_corpus_records,  # noqa: F401  wrapped here by perfbench/calltrace.py
    parse_legacy_table,
    parse_record_file,
    serialize_record,
)
from .errors import ParseError, SnapshotError, StimKbError
from .lines import (
    data_lines,
    decode_input,
    parse_input,
    read_input,
    read_input_bytes,
)
from .taxonomy import parse_mapping, parse_taxonomy

SNAPSHOT_VERSION = 1

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

# The top-level keys save_snapshot writes and the JSON types of their values.
_SNAPSHOT_KEYS = {
    "version": (int,),
    "seed": (int,),
    "limit": (int, type(None)),
    "taxonomy": (str,),
    "mapping": (str, type(None)),
    "vocabularies": (str,),
    "axioms": (str, type(None)),
    "records": (list,),
    "unmapped_keywords": (list,),
}


class Manifest(namedtuple("Manifest", "paths seed limit", defaults=(0, None))):
    __slots__ = ()  # paths: key -> resolved Path (subset of MANIFEST_FILE_KEYS)


def parse_manifest(path):
    """Each key may appear once; a line's own error comes before a repeat."""
    path = Path(path)
    paths = {}
    options = {}
    for lineno, raw in data_lines(read_input(path, "manifest")):
        key, sep, value = raw.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not value:
            raise ParseError(f"expected `key=value`, got {raw!r}", line=lineno)
        if key in MANIFEST_FILE_KEYS:
            found = paths
            value = (path.parent / value).resolve()
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
    # expansion (whose concepts parse_mapping has checked); a records-file
    # record's error names its line.
    rows = _parse(manifest, "records", parse_record_file) or []
    legacy = _parse(manifest, "legacy", parse_legacy_table) or []
    records = [rec for _, rec in rows] + legacy
    linenos = [lineno for lineno, _ in rows] + [None] * len(legacy)

    unmapped = []
    if mapping is not None:
        records, unmapped = expand_keywords(records, mapping)

    corpus = Corpus(graph, vocabs)
    for rec, lineno in zip(records, linenos):
        corpus.add_stimulus(rec, lineno)

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
    against.

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
    doc = {
        "version": SNAPSHOT_VERSION,
        "seed": workspace.seed,
        "limit": workspace.limit,
        "taxonomy": corpus.graph.serialize(),
        "mapping": "\n".join(mapping_lines) + "\n" if mapping_lines else None,
        "vocabularies": "\n".join(vocab_lines) + "\n",
        "axioms": "\n".join(axiom_lines) + "\n" if axiom_lines else None,
        "records": [serialize_record(r) for r in corpus],
        "unmapped_keywords": workspace.unmapped_keywords,
    }
    rest = memoryview((json.dumps(doc, indent=1) + "\n").encode())[1:]
    with open(path, "wb") as f:
        f.write(_SEAL_HEAD + _seal(b'",', rest) + b'",')
        f.write(rest)


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
    """The first structural problem of a snapshot document, or None."""
    if type(doc) is not dict:
        return "top level is not a JSON object"
    if doc.get("version") != SNAPSHOT_VERSION:
        return f"unsupported snapshot version {doc.get('version')!r}"
    for key, types in _SNAPSHOT_KEYS.items():
        if key not in doc:
            return f"missing key {key!r}"
        if type(doc[key]) not in types:
            return f"{key!r} has type {type(doc[key]).__name__}"
    if doc["limit"] is not None and doc["limit"] < 1:
        return f"'limit' is {doc['limit']}, not >= 1"
    for key in ("records", "unmapped_keywords"):
        if not all(type(v) is str for v in doc[key]):
            return f"{key!r} holds a non-string item"
    return None


def load_snapshot(path):
    """Rebuild the workspace saved by save_snapshot.

    Each record line is parsed once and, unless the snapshot's seal
    matches, validated once, by Corpus.add_stimulus; records with the same
    `sem=`/`cat=` value share one annotation object.  A matching seal
    means that ingest validated the records under the current rules, and
    that no byte has changed since.  After a good load, every object then
    alive is frozen out of the cyclic garbage collector (`gc.freeze`).  A
    snapshot that is not JSON (or not UTF-8), has the wrong structure or
    holds a bad input raises SnapshotError naming the file.
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
    # Looked up on the module at each load, so that call wrappers installed
    # there (as the benchmark's traced run does) see every record.
    parse_record_line = corpus_module.parse_record_line
    interned = {}
    # The records hold no reference cycles, so the cyclic collector would
    # only rescan them: paused while they pile up, and once they are all
    # built, moved to the permanent generation, which no collection scans.
    # Refcounting alone still frees the workspace when it is dropped.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i, line in enumerate(doc["records"]):
            corpus.add_stimulus(
                parse_record_line(line, None, interned), validated=sealed
            )
    except StimKbError as e:
        raise SnapshotError(f"bad snapshot {path}: records[{i}]: {e}") from e
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
