import functools
import gc
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import weakref
import zlib
from array import array
from base64 import b64decode, b64encode
from itertools import repeat
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import golden
import stimkb.cli
import stimkb.corpus
import stimkb.snapshot
from stimkb import retrieval
from stimkb.affect import (
    ActionTendencyAnnotation,
    AppraisalAnnotation,
    CategoryAnnotation,
    DimensionAnnotation,
    EquivalenceClosure,
    SentimentAnnotation,
    load_vocabularies,
)
from stimkb.cli import main
from stimkb.corpus import (
    ContextRecord,
    Corpus,
    PhysiologyRef,
    SemanticsAnnotation,
    StimulusRecord,
    parse_record_file,
    parse_record_line,
)
from stimkb.errors import ParseError, SnapshotError, StimKbError, ValidationError
from stimkb.sequence import build_sequence
from stimkb.similarity import CONCEPT_MEASURES, Measure
from stimkb.snapshot import (
    SNAPSHOT_VERSION,
    Workspace,
    build_workspace,
    load_snapshot,
    parse_manifest,
    save_snapshot,
)
from stimkb.taxonomy import parse_taxonomy

from conftest import (
    PAPER_MANIFEST,
    TEXT_COLUMNS,
    many_layout_lines,
    oracle_concept_index,
    oracle_filter,
    oracle_first_problem,
    oracle_ranking,
    packed_pair,
    packed_values,
    sealed_layout,
    serialize_record,
    text_items,
    text_pair,
    text_stream,
)
from synthetic import generate


def test_snapshot_round_trip(tmp_path, paper_workspace):
    snap = tmp_path / "snap.json"
    save_snapshot(paper_workspace, snap)
    loaded = load_snapshot(snap)
    assert loaded.graph.parent_edges == paper_workspace.graph.parent_edges
    assert loaded.corpus.vocabs == paper_workspace.corpus.vocabs
    assert list(loaded.corpus) == list(paper_workspace.corpus)
    assert loaded.seed == paper_workspace.seed
    assert loaded.closure.are_equivalent("FSRECategory.anger", "OCCCategory.anger")


def test_snapshot_with_a_measure_key_still_loads(tmp_path, paper_workspace,
                                                 capsys):
    # Older snapshots carry `"measure": null`; unknown top-level keys are
    # ignored.
    snap = tmp_path / "snap.json"
    save_snapshot(paper_workspace, snap)
    doc = json.loads(snap.read_text())
    assert "measure" not in doc
    snap.write_text(json.dumps({**doc, "measure": None}, indent=1) + "\n")
    loaded = load_snapshot(snap)
    assert list(loaded.corpus) == list(paper_workspace.corpus)
    assert (loaded.seed, loaded.limit) == (paper_workspace.seed,
                                           paper_workspace.limit)
    assert main(["stats", "--snapshot", str(snap)]) == 0
    assert capsys.readouterr().out.startswith("4 records\n")


def test_snapshot_version_check(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 99}')
    with pytest.raises(StimKbError, match="version"):
        load_snapshot(bad)


def test_manifest_errors(tmp_path):
    m = tmp_path / "m.txt"
    m.write_text("mapping=x.tsv\n")
    with pytest.raises(ParseError, match="taxonomy"):
        parse_manifest(m)
    m.write_text("nonsense value\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_manifest(m)


def test_manifest_integer_options(tmp_path):
    m = tmp_path / "m.txt"
    m.write_text("taxonomy=t.tsv\nseed=-3\nlimit=1\n")
    manifest = parse_manifest(m)
    assert (manifest.seed, manifest.limit) == (-3, 1)
    for bad, line in (("seed=x", 2), ("limit=ten", 2), ("limit=-1", 3)):
        m.write_text("taxonomy=t.tsv\n" + "seed=4\n" * (line - 2) + bad + "\n")
        with pytest.raises(ParseError, match=f"line {line}: "):
            parse_manifest(m)


def test_manifest_relative_paths():
    manifest = parse_manifest(PAPER_MANIFEST)
    assert manifest.paths["taxonomy"].is_file()
    assert manifest.seed == 42
    ws = build_workspace(manifest)
    assert len(ws.corpus) == 4


def _synthetic_workspace(seed=5, n_concepts=40, n_stimuli=300):
    """A workspace over a `synthetic.generate` corpus, whose records are
    validated against its graph and the built-in vocabularies."""
    graph, corpus, _, _ = generate(
        seed, n_concepts=n_concepts, n_stimuli=n_stimuli, n_queries=1
    )
    return Workspace(
        graph=graph,
        mapping=None,
        closure=EquivalenceClosure([]),
        corpus=corpus,
        unmapped_keywords=[],
        seed=seed,
    )


def _count_validations(monkeypatch):
    """Record the key of every validate_stimulus call; each call must
    still check against the graph and the vocabularies."""
    validated = []
    validate = stimkb.corpus.validate_stimulus

    def counting_validate(rec, graph, vocabs):
        assert graph is not None and vocabs is not None
        validated.append(rec.key)
        return validate(rec, graph, vocabs)

    monkeypatch.setattr(stimkb.corpus, "validate_stimulus", counting_validate)
    return validated


def _count_adds(monkeypatch):
    """Record the key of every Corpus.add_stimulus call."""
    added = []
    add = Corpus.add_stimulus

    def counting_add(self, rec):
        added.append(rec.key)
        return add(self, rec)

    monkeypatch.setattr(Corpus, "add_stimulus", counting_add)
    return added


def _count_parses(monkeypatch):
    """Record the line of every corpus.parse_record_line call."""
    parsed = []
    parse = stimkb.corpus.parse_record_line

    def counting_parse(line, *args, **kwargs):
        parsed.append(line)
        return parse(line, *args, **kwargs)

    monkeypatch.setattr(stimkb.corpus, "parse_record_line", counting_parse)
    return parsed


@pytest.mark.parametrize("which", ["paper", "synthetic"])
def test_failed_check_adds_each_record_once_and_parses_none(
    which, tmp_path, monkeypatch, paper_workspace
):
    # The last record repeats the first one's key: the load adds every
    # record again, each validated once, and reports the repeat.
    ws = paper_workspace if which == "paper" else _synthetic_workspace()
    records = list(ws.corpus)
    text = _record(len(records) - 1, db=records[0].db, id=records[0].id)(
        _snapshot_doc(ws, tmp_path), records)
    snap = tmp_path / "snap.json"
    snap.write_text(text)

    def no_bulk_parser(*args, **kwargs):
        raise AssertionError("load_snapshot must not use parse_corpus_records")

    validated = _count_validations(monkeypatch)
    added = _count_adds(monkeypatch)
    parsed = _count_parses(monkeypatch)
    monkeypatch.setattr(stimkb.snapshot, "parse_corpus_records", no_bulk_parser)
    with pytest.raises(SnapshotError, match=(
            f"records\\[{len(records) - 1}\\]: duplicate stimulus key "
            f"{records[0].key}$")):
        load_snapshot(snap)
    assert validated == added == [r.key for r in records[:-1]] + [records[0].key]
    assert parsed == []


@pytest.mark.parametrize("which", ["paper", "synthetic"])
def test_sealed_load_validates_and_parses_none(
    which, tmp_path, monkeypatch, paper_workspace
):
    # A good snapshot loads with no record added again, as written and in
    # the layout it had while snapshots were sealed.
    if which == "paper":
        ws = paper_workspace
    else:
        ws = build_workspace(parse_manifest(_synthetic_manifest(tmp_path)))
    snap = tmp_path / "snap.json"
    save_snapshot(ws, snap)
    validated = _count_validations(monkeypatch)
    added = _count_adds(monkeypatch)
    parsed = _count_parses(monkeypatch)
    for data in (snap.read_bytes(), sealed_layout(snap.read_bytes())):
        snap.write_bytes(data)
        loaded = load_snapshot(snap)
        assert list(loaded.corpus) == list(ws.corpus)
        assert loaded.corpus.concept_index == ws.corpus.concept_index
    assert validated == []
    assert added == []
    assert parsed == []


def test_save_writes_the_graph_and_vocabularies_records_were_validated_against(
    tmp_path, monkeypatch, paper_workspace
):
    snap = tmp_path / "snap.json"
    save_snapshot(paper_workspace, snap)
    written = snap.read_bytes()
    # One line: the compact document and a line break.
    assert written == json.dumps(json.loads(written),
                                 separators=(",", ":")).encode() + b"\n"
    assert len(sealed_layout(written)) == len(written) + 78
    # The taxonomy written is the corpus's, not the workspace's own graph.
    other = parse_taxonomy("A\tB\n")
    save_snapshot(paper_workspace._replace(graph=other), snap)
    assert snap.read_bytes() == written
    # A workspace built in code loads unvalidated.
    ws = _synthetic_workspace()
    save_snapshot(ws, snap)
    validated = _count_validations(monkeypatch)
    assert list(load_snapshot(snap).corpus) == list(ws.corpus)
    assert validated == []
    # A load saves the same bytes again, whatever its layout.
    for data in (written, sealed_layout(written)):
        snap.write_bytes(data)
        save_snapshot(load_snapshot(snap), snap)
        assert snap.read_bytes() == written


@pytest.mark.parametrize("which", ["paper", "synthetic"])
def test_ingest_writes_identical_snapshots(which, tmp_path, capsys):
    manifest = PAPER_MANIFEST if which == "paper" else _synthetic_manifest(tmp_path)
    snaps = [tmp_path / "a.json", tmp_path / "b.json"]
    for snap in snaps:
        assert main(["ingest", "--manifest", str(manifest),
                     "--snapshot", str(snap)]) == 0
    assert snaps[0].read_bytes() == snaps[1].read_bytes()


def test_snapshot_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # Every table interns in first-seen order, never in set order: ingest
    # of a generated workspace under two hash seeds, one process each,
    # writes the same bytes.
    ws = golden._load_gen().generate(tmp_path / "ws", 7, 200, 1100,
                                     golden.FIXTURES)
    src = str(Path(stimkb.snapshot.__file__).resolve().parent.parent)
    written = []
    for seed in ("1", "2"):
        snap = tmp_path / f"snap-{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "stimkb.cli", "ingest",
             "--manifest", str(ws.manifest), "--snapshot", str(snap)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        written.append(snap.read_bytes())
    assert written[0] == written[1]


@settings(max_examples=25, deadline=None)
@given(st.none() | st.tuples(st.integers(0, 10**6), st.integers(2, 40),
                             st.integers(1, 120)))
def test_sealed_load_equals_full_validation(paper_workspace, spec):
    # A snapshot in the layout written while snapshots were sealed, and a
    # copy re-indented by `json.dumps(indent=1)`, load to the workspace
    # that the file as written loads to; so does adding every record again
    # through add_stimulus.
    ws = paper_workspace if spec is None else _synthetic_workspace(*spec)
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "snap.json"
        save_snapshot(ws, snap)
        written = snap.read_bytes()
        loads = []
        for data in (written, sealed_layout(written),
                     json.dumps(json.loads(written), indent=1).encode()):
            snap.write_bytes(data)
            loads.append(load_snapshot(snap))
    full = Corpus(ws.corpus.graph, ws.corpus.vocabs)
    for rec in loads[0].corpus:
        full.add_stimulus(rec)
    for loaded in loads:
        assert list(loaded.corpus) == list(full)
        assert loaded.corpus.keys == full.keys
        assert loaded.corpus.concept_index == full.concept_index
        assert loaded.graph.parent_edges == ws.corpus.graph.parent_edges
        assert loaded.graph.concepts == ws.corpus.graph.concepts
        assert loaded.corpus.vocabs == ws.corpus.vocabs
        assert loaded.closure.classes() == ws.closure.classes()
        assert (loaded.unmapped_keywords, loaded.seed, loaded.limit) == (
            (), ws.seed, ws.limit)


def _snapshot_doc(paper_workspace, tmp_path):
    snap = tmp_path / "good.json"
    save_snapshot(paper_workspace, snap)
    return json.loads(snap.read_text())


def _varied_workspace(ws, seed):
    """`ws` with each record given annotations of every kind, a context,
    dimensions and physiology drawn from small pools, each a new object
    (equal values, separate objects), -0.0 among the numbers."""
    rng = random.Random(seed)
    numbers = (-0.0, 0.0, 0.5, 1.0, None)
    corpus = Corpus(ws.corpus.graph, ws.corpus.vocabs)
    for rec in ws.corpus:
        def maybe(make):
            return (make(),) if rng.random() < 0.5 else ()

        corpus.add_stimulus(rec._replace(
            categories=maybe(lambda: CategoryAnnotation(
                "BigSix", rng.choice(("anger", "fear")),
                rng.choice(("High", None)), rng.choice(numbers))),
            appraisals=maybe(lambda: AppraisalAnnotation(
                (("pleasantness", rng.choice((-0.0, 0.25))),))),
            action_tendencies=maybe(lambda: ActionTendencyAnnotation(
                rng.choice(("approach", "avoid")), None, rng.choice(numbers))),
            sentiments=maybe(lambda: SentimentAnnotation(rng.choice((-0.0, 0.5)))),
            dimensions=rng.choice((None, rec.dimensions, DimensionAnnotation(
                -0.0, 9.0, valence=rng.choice((-0.0, 0.0, 7)),
                dominanceSD=rng.choice((None, 0.5))))),
            context=rng.choice((None, rec.context, ContextRecord(
                media_format=rng.choice(("wav", "jpg")), width_px=rng.choice((0, 7)),
                length_seconds=rng.choice(numbers)))),
            physiology=rec.physiology + maybe(lambda: PhysiologyRef(
                f"http://p/{rec.key}", rng.choice(("HR", None)))),
        ))
    return ws._replace(corpus=corpus)


@settings(max_examples=25, deadline=None)
@given(st.none() | st.tuples(st.integers(0, 10**6), st.integers(2, 40),
                             st.integers(1, 120)),
       st.integers(0, 10**6), st.booleans())
def test_load_round_trip_keeps_records_and_shares_by_text(
    paper_workspace, spec, seed, sealed
):
    ws = paper_workspace if spec is None else _synthetic_workspace(*spec)
    ws = _varied_workspace(ws, seed)
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "snap.json"
        save_snapshot(ws, snap)
        if sealed:
            snap.write_bytes(sealed_layout(snap.read_bytes()))
        loaded = load_snapshot(snap)
    # Equal records in the same order; the reprs also tell -0.0 from 0.0
    # and 1 from 1.0.
    assert loaded.corpus.keys == ws.corpus.keys
    assert repr(list(loaded.corpus)) == repr(list(ws.corpus))
    assert loaded.corpus.concept_index == ws.corpus.concept_index
    # One object per distinct written text, and one text per object.
    objects = {}
    for rec in loaded.corpus:
        for obj in (*rec.semantics, *rec.categories, *rec.appraisals,
                    *rec.action_tendencies, *rec.sentiments, rec.context):
            if obj is not None:
                objects.setdefault(repr(obj), set()).add(id(obj))
    assert all(len(ids) == 1 for ids in objects.values())


# Edits of a snapshot document: edit(doc, records) -> the file text, where
# `doc` is the paper snapshot's document and `records` the paper
# workspace's records.

def _doc(edit):
    """An edit of the whole document: edit(doc) -> the file text."""
    return lambda doc, records: edit(doc)


def _columns(edit):
    """An edit of the tables and the record columns, in place."""
    def edit_doc(doc, records):
        edit(doc["tables"], doc["records"])
        return json.dumps(doc)

    return edit_doc


def _record_columns(records):
    """The tables and the record columns that store `records`, in order."""
    return stimkb.snapshot._record_columns(
        dict(zip(StimulusRecord._fields, zip(*records))))


def _record(i, **changes):
    """The document of the records with record `i` changed, unvalidated."""
    def edit_doc(doc, records):
        records = list(records)
        records[i] = records[i]._replace(**changes)
        doc["tables"], doc["records"] = _record_columns(records)
        return json.dumps(doc)

    return edit_doc


NAN = float("nan")
# Record 1 of the paper workspace is IAPS/8163, with dimensions on [1, 9].
DIMENSIONS_8163 = DimensionAnnotation(1.0, 9.0, valence=7.14, arousal=6.53)

# (case, record-1 change, error text): records that parse but fail
# validation.
TAMPERED_RECORDS = [
    ("valence off its scale",
     {"dimensions": DIMENSIONS_8163._replace(valence=99.0)},
     "valence=99.0 outside scale [1.0, 9.0]"),
    ("unknown concept",
     {"semantics": (SemanticsAnnotation("Object", "NoSuch"),)},
     "unknown concept 'NoSuch'"),
    ("NaN SD", {"dimensions": DIMENSIONS_8163._replace(valenceSD=NAN)},
     "valenceSD=nan is not a number"),
]


@pytest.mark.parametrize(
    "changes, message", [c[1:] for c in TAMPERED_RECORDS],
    ids=[c[0] for c in TAMPERED_RECORDS],
)
def test_tampered_sealed_snapshot_exits_3_as_unsealed(
    changes, message, tmp_path, paper_workspace, capsys
):
    # The tampered document behind the seal line of the good file, as a
    # hand-edited snapshot written while snapshots were sealed: the seal
    # is read as any other key, and ignored.
    doc = _snapshot_doc(paper_workspace, tmp_path)
    seal_line = sealed_layout((tmp_path / "good.json").read_bytes())[:79]
    text = _record(1, **changes)(doc, list(paper_workspace.corpus))
    snap = tmp_path / "snap.json"
    snap.write_bytes(seal_line + text.encode()[1:])
    assert main(["stats", "--snapshot", str(snap)]) == 3
    assert capsys.readouterr().err == (
        f"error: bad snapshot {snap}: records[1]: record IAPS/8163: "
        f"{message}\n")


def test_ingest_of_many_layouts_loads_without_parsing(tmp_path, monkeypatch):
    """A records file whose every line has its own key layout: ingest
    parses each line once, and the load parses none."""
    lines = many_layout_lines(48)
    interned = {}
    expected = [parse_record_line(line, None, interned) for line in lines]
    shutil.copy(PAPER_MANIFEST.parent / "taxonomy.tsv", tmp_path)
    (tmp_path / "records.tsv").write_text("\n".join(lines) + "\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("taxonomy=taxonomy.tsv\nrecords=records.tsv\n")
    parsed = _count_parses(monkeypatch)
    built = build_workspace(parse_manifest(manifest))
    assert list(built.corpus) == expected
    assert parsed == lines
    snap = tmp_path / "snap.json"
    save_snapshot(built, snap)
    parsed.clear()
    assert list(load_snapshot(snap).corpus) == list(built.corpus)
    assert parsed == []


def _packed_edit(key, edit, holder=lambda tables, columns: columns):
    """An edit of the values of packed column `key` of holder(tables,
    columns), the record columns unless given: decoded, changed in place
    by edit(values), and packed again.  A negative value is packed as its
    two's complement in the column's item width, as a writer of signed
    items would leave it."""
    def edit_columns(tables, columns):
        where = holder(tables, columns)
        values = packed_values(where[key])
        edit(values)
        wrap = 1 << 8 * array(where[key][0]).itemsize
        where[key] = stimkb.snapshot._packed([v % wrap for v in values])

    return _columns(edit_columns)


def _text_edit(key, edit, holder=lambda tables, columns: columns):
    """An edit of the items of text column `key` of holder(tables,
    columns), the record columns unless given: decoded, changed in place by
    edit(items), and written again."""
    def edit_columns(tables, columns):
        where = holder(tables, columns)
        items = text_items(where[key])
        edit(items)
        where[key] = text_pair(items)

    return _columns(edit_columns)


def _set(key, i, value):
    """An edit of one item of a packed or text record column."""
    if key in TEXT_COLUMNS:
        return _text_edit(key, lambda items: items.__setitem__(i, value))
    return _packed_edit(key, lambda values: values.__setitem__(i, value))


def _semantics(field, edit):
    """An edit of the items of text field column `field` (1 concept, 2
    keyword) of the `sem` section, where the empty item is null."""
    return _text_edit(field + 1, edit,
                      lambda tables, columns: tables["annotations"][0])


def _level(i):
    """An edit that gives record `i` the confidence level High, and no other
    dimension field."""
    def edit(tables, columns):
        tables["levels"].append("High")
        level = packed_values(columns["level"])
        level[i] = len(tables["levels"])
        columns["level"] = stimkb.snapshot._packed(level)

    return _columns(edit)


def _kind(i, value):
    """An edit of item `i` of the semantics kind column, the packed field
    column that follows the tag of the `sem` section."""
    return _packed_edit(1, lambda values: values.__setitem__(i, value),
                        lambda tables, columns: tables["annotations"][0])


def _section(tag, edit):
    """An edit of the section of annotation tag `tag`, in place."""
    return _columns(lambda tables, columns: edit(next(
        s for s in tables["annotations"] if s[0] == tag)))


def _stream(key, stream, code="B"):
    """An edit that sets packed record column `key` to the bytes that
    stream() returns, under typecode `code`."""
    return _columns(lambda t, c: c.update(
        {key: [code, b64encode(stream()).decode()]}))


def _text_stream(key, stream, length, holder=lambda tables, columns: columns):
    """An edit that sets text column `key` of holder(tables, columns), the
    record columns unless given, to the bytes that stream() returns, with
    `length` declared."""
    return _columns(lambda t, c: holder(t, c).__setitem__(
        key, text_stream(stream(), length)))


@functools.cache
def _inflating_to_64_mib():
    """A zlib stream of 64 MiB of zero bytes, made 1 MiB at a time."""
    deflate = zlib.compressobj()
    chunk = bytes(1 << 20)
    return b"".join([*map(deflate.compress, repeat(chunk, 64)), deflate.flush()])


# The items of the paper snapshot's 4-record `db` column, and the text of
# its `id` column.
DB_ITEMS = bytes([0, 1, 1, 0])
IDS = b"311\n8163\n5635\n7039\n"


# (case, edit, error text).
BAD_SNAPSHOTS = [
    ("version only", _doc(lambda doc: json.dumps({"version": SNAPSHOT_VERSION})),
     "missing key 'seed'"),
    ("no vocabularies", _doc(lambda doc: json.dumps(
        {k: v for k, v in doc.items() if k != "vocabularies"})),
     "missing key 'vocabularies'"),
    ("not JSON", _doc(lambda doc: "not json {"), "not JSON"),
    ("truncated", _doc(lambda doc: json.dumps(doc)[:200]), "not JSON"),
    ("top level list", _doc(lambda doc: "[1, 2]"), "not a JSON object"),
    ("version 1", _doc(lambda doc: json.dumps({**doc, "version": 1})),
     "unsupported snapshot version 1; re-ingest"),
    ("version 2", _doc(lambda doc: json.dumps({**doc, "version": 2})),
     "unsupported snapshot version 2; re-ingest"),
    ("version 3", _doc(lambda doc: json.dumps({**doc, "version": 3})),
     "unsupported snapshot version 3; re-ingest"),
    ("version 4", _doc(lambda doc: json.dumps({**doc, "version": 4})),
     "unsupported snapshot version 4; re-ingest"),
    ("version 5", _doc(lambda doc: json.dumps({**doc, "version": 5})),
     "unsupported snapshot version 5; re-ingest"),
    ("unknown version", _doc(lambda doc: json.dumps(
        {**doc, "version": SNAPSHOT_VERSION + 1})),
     f"unsupported snapshot version {SNAPSHOT_VERSION + 1}; re-ingest"),
    ("records not an object", _doc(lambda doc: json.dumps(
        {**doc, "records": ["db=X\tid=1"]})), "'records' has type list"),
    ("limit not an integer", _doc(lambda doc: json.dumps({**doc, "limit": "9"})),
     "'limit' has type str"),
    ("limit below 1", _doc(lambda doc: json.dumps({**doc, "limit": 0})),
     "'limit' is 0, not >= 1"),
    ("missing column", _columns(lambda t, c: c.pop("sem")),
     "missing key 'records.sem'"),
    ("missing table", _columns(lambda t, c: t.pop("contexts")),
     "missing key 'tables.contexts'"),
    ("column not a list", _columns(lambda t, c: c.update(id="x")),
     "'records.id' is not a [length, base64] pair"),
    ("id not a string", _columns(lambda t, c: c["id"].__setitem__(1, 8163)),
     "'records.id' is not a [length, base64] pair"),
    # A JSON array of strings, as format 5 stored `id`.
    ("id column of strings", _columns(lambda t, c: c.update(
        id=["311", "8163", "5635", "7039"])),
     "'records.id' is not a [length, base64] pair"),
    ("text length as a string", _columns(lambda t, c: c["id"].__setitem__(
        0, "19")), "'records.id' is not a [length, base64] pair"),
    ("negative text length", _columns(lambda t, c: c["id"].__setitem__(0, -1)),
     "'records.id' is not a [length, base64] pair"),
    ("text length as a boolean", _columns(lambda t, c: c["id"].__setitem__(
        0, True)), "'records.id' is not a [length, base64] pair"),
    ("text not base64", _columns(lambda t, c: c["path"].__setitem__(
        1, "not base64")), "'records.path' is not base64 text"),
    # A text column's bytes are one whole zlib stream of exactly its
    # declared length of UTF-8 text, each item followed by a line break.
    ("text not deflated", _text_stream("id", lambda: IDS, 19),
     "'records.id' is not a zlib stream"),
    ("text stream cut short", _text_stream(
        "id", lambda: zlib.compress(IDS)[:-1], 19),
     "'records.id' ends inside its zlib stream"),
    ("bytes after the text stream", _text_stream(
        "id", lambda: zlib.compress(IDS) + b"\0", 19),
     "'records.id' has bytes after its zlib stream"),
    ("text length one short", _text_stream(
        "id", lambda: zlib.compress(IDS), 18),
     "'records.id' holds more than 18 bytes"),
    ("text length one long", _text_stream(
        "id", lambda: zlib.compress(IDS), 20),
     "'records.id' holds 19 bytes, not 20"),
    ("no final line break", _text_stream(
        "id", lambda: zlib.compress(IDS[:-1]), 18),
     "'records.id' does not end in a line break"),
    ("text not UTF-8", _text_stream(
        "id", lambda: zlib.compress(IDS.replace(b"816", b"8\xff6")), 19),
     "'records.id' is not UTF-8 text"),
    # 64 MiB of zeros in a column that declares 11 bytes: the load
    # inflates at most one byte past them (see
    # test_a_text_column_that_inflates_past_its_length_is_never_held).
    ("text column inflating to 64 MiB", _text_stream(
        "id", _inflating_to_64_mib, 11),
     "'records.id' holds more than 11 bytes"),
    ("keyword column not deflated", _text_stream(
        3, lambda: b"crowd\n", 6, lambda t, c: t["annotations"][0]),
     "'tables.annotations' tag 'sem' field 2 is not a zlib stream"),
    ("path one item short", _text_edit("path", list.pop),
     "'records.phys_n' sums to 2, not to the 1 items of 'records.path'"),
    ("boolean typecode", _columns(lambda t, c: c["db"].__setitem__(0, True)),
     "'records.db' is not a [typecode, base64] pair"),
    ("column of numbers", _columns(lambda t, c: c.update(db=[0, 1, 1, 0])),
     "'records.db' is not a [typecode, base64] pair"),
    ("column of three", _columns(lambda t, c: c["chan"].append("B")),
     "'records.chan' is not a [typecode, base64] pair"),
    ("unknown typecode", _columns(lambda t, c: c.update(
        db=packed_pair("d", [0, 1, 1, 0]))),
     "'records.db' has unknown typecode 'd'"),
    ("not base64", _columns(lambda t, c: c["db"].__setitem__(1, "not base64")),
     "'records.db' is not base64 text"),
    # a2b_base64 alone would skip the '!' and read [0, 1, 1, 0].
    ("stray character in base64", _columns(
        lambda t, c: c["db"].__setitem__(1, "AAE!BAA==")),
     "'records.db' is not base64 text"),
    ("partial item", _stream("sem", lambda: zlib.compress(b"\0\0\1"), "H"),
     "'records.sem' has 3 bytes, not whole 2-byte items"),
    # A packed column's bytes are one whole zlib stream: not the items
    # themselves, as format 4 stored them, nor a stream cut short or
    # followed by more bytes.
    ("items not deflated", _stream("db", lambda: DB_ITEMS),
     "'records.db' is not a zlib stream"),
    ("zlib stream cut short", _stream(
        "db", lambda: zlib.compress(DB_ITEMS)[:-1]),
     "'records.db' ends inside its zlib stream"),
    ("bytes after the zlib stream", _stream(
        "db", lambda: zlib.compress(DB_ITEMS) + b"\0"),
     "'records.db' has bytes after its zlib stream"),
    # 64 MiB of zeros in a 4-record column: the load inflates at most one
    # item and one byte past 4 items (see
    # test_a_column_that_inflates_far_past_its_length_is_never_held).
    ("column inflating to 64 MiB", _stream("ctx", _inflating_to_64_mib),
     "'records.ctx' holds more than 5 items, not 4"),
    # A JSON array of indices and nulls, as format 3 stored `ctx`.
    ("number as an index", _columns(lambda t, c: c.update(ctx=[0.0, 1, 2, 2])),
     "'records.ctx' is not a [typecode, base64] pair"),
    ("column too short", _packed_edit("db", list.pop),
     "'records.db' has 3 items, not 4"),
    ("flat column too long", _packed_edit("sem", lambda v: v.append(0)),
     "'records.sem_n' sums to 19, not to the 20 items of 'records.sem'"),
    ("count that does not sum", _set("phys_n", 1, 1),
     "'records.phys_n' sums to 1, not to the 2 items of 'records.path'"),
    # Counts are unsigned: a negative one needs a signed typecode.
    ("negative count under a signed typecode", _columns(lambda t, c: c.update(
        sem_n=packed_pair("b", [-1, 8, 4, 8]))),
     "'records.sem_n' has unknown typecode 'b'"),
    # The `sem` column is inflated to at most one item past the counts'
    # sum, here past any length an inflate takes: the sum is then reported.
    ("counts summing past 64 bits", _columns(lambda t, c: c.update(
        sem_n=packed_pair("Q", [1 << 63, 1 << 63, 4, 8]))),
     "'records.sem_n' sums to 18446744073709551628, not to the 19 items of "
     "'records.sem'"),
    ("negative db index", _set("db", 0, -1),
     "'records.db' holds an index outside [0, 2)"),
    ("8-byte db index", _columns(lambda t, c: c.update(
        db=stimkb.snapshot._packed([1 << 40, 1, 1, 0]))),
     "'records.db' holds an index outside [0, 2)"),
    # `ctx` and `scale` hold 0 for none and k for row k - 1: the fixture's
    # 3 contexts take 0 to 3, its 1 scale 0 to 1.
    ("context index past the table", _set("ctx", 0, 4),
     "'records.ctx' holds an index outside [0, 4)"),
    ("scale index past the table", _set("scale", 1, 2),
     "'records.scale' holds an index outside [0, 2)"),
    ("negative annotation index", _set("sem", 0, -1),
     "'records.sem' holds an index outside [0, 18)"),
    # Each tag's record column indexes its own section: 18 semantics rows
    # and 1 category row.
    ("semantics index past its section", _set("sem", 0, 18),
     "'records.sem' holds an index outside [0, 18)"),
    ("category index past its section", _set("cat", 0, 1),
     "'records.cat' holds an index outside [0, 1)"),
    ("kind index past the table", _kind(3, 1),
     "'tables.annotations' tag 'sem' field 0 holds an index outside [0, 1)"),
    ("negative channel index", _set("chan", 0, -2),
     "'records.chan' holds an index outside [0, 2)"),
    ("dir index past the table", _set("dir", 1, 1),
     "'records.dir' holds an index outside [0, 1)"),
    ("empty id", _set("id", 1, ""), "records[1]: empty id"),
    ("empty db name", _columns(lambda t, c: t["dbs"].__setitem__(0, "")),
     "'tables.dbs' holds an empty name"),
    # The sections are tagged `sem`, `cat`, `app`, `tend`, `sent`, in order.
    ("stray tag", _section("sem", lambda s: s.__setitem__(0, "bogus")),
     "'tables.annotations' has sections tagged ['bogus', 'cat',"),
    ("tag rows not together", _columns(lambda t, c: t["annotations"].append(
        t["annotations"][0])),
     "has sections tagged ['sem', 'cat', 'app', 'tend', 'sent', 'sem'], "
     "not ['sem', 'cat', 'app', 'tend', 'sent']"),
    ("missing annotation section", _columns(lambda t, c: t["annotations"].pop()),
     "has sections tagged ['sem', 'cat', 'app', 'tend'], not"),
    ("empty annotation section", _columns(
        lambda t, c: t["annotations"].append([])),
     "'tables.annotations' holds an empty section"),
    # Appraisal sections keep one row per annotation.
    ("empty annotation row", _section("app", lambda s: s.append([])),
     "tag 'app' is not a list of (name, value) pairs"),
    ("appraisal row not a list", _section("app", lambda s: s.append(
        "pleasantness")), "tag 'app' holds a string"),
    ("annotation row too short", _semantics(2, list.pop),
     "tag 'sem' has a row without 3 fields"),
    ("annotation section without a column", _section("cat", list.pop),
     "tag 'cat' has 3 field columns, not 4"),
    ("annotation column not a list", _section("cat", lambda s: s.__setitem__(
        1, "BigSix")), "tag 'cat' field 0 has type str"),
    ("kind column not packed", _section("sem", lambda s: s.__setitem__(
        1, ["Object"] * 18)),
     "tag 'sem' field 0 is not a [typecode, base64] pair"),
    ("concept and keyword", _semantics(2, lambda items: items.__setitem__(
        0, "crowd")), "tag 'sem' needs exactly one of concept and keyword"),
    ("no concept nor keyword", _semantics(1, lambda items: items.__setitem__(
        0, "")), "tag 'sem' needs exactly one of concept and keyword"),
    # An empty concept or keyword item is null: an empty concept leaves
    # neither.
    ("empty concept", _semantics(1, lambda items: items.__setitem__(0, "")),
     "tag 'sem' needs exactly one of concept and keyword"),
    ("empty category term", _section("cat", lambda s: s[2].__setitem__(0, "")),
     "tag 'cat' has an empty vocabulary or term"),
    ("empty kind", _columns(lambda t, c: t["kinds"].__setitem__(0, "")),
     "'tables.kinds' holds an empty name"),
    ("kind not a string", _columns(lambda t, c: t["kinds"].__setitem__(0, 1)),
     "'tables.kinds' holds an integer"),
    ("tab in a kind", _columns(lambda t, c: t["kinds"].__setitem__(0, "Obj\tect")),
     "'tables.kinds' holds a tab or a line break"),
    ("context row too long", _columns(lambda t, c: t["contexts"][0].append(None)),
     "'tables.contexts' has a row without 15 fields"),
    ("fractional context width", _columns(
        lambda t, c: t["contexts"][0].__setitem__(1, 1.5)),
     "'tables.contexts' field 1 holds a number"),
    # A record's dimensions are its scale, a row of `scales`, and per field
    # after it an index into `values` (`dim`, one column of the 4 records
    # per field) or `levels` (`level`), 0 for none.  Records 1-3 have a
    # scale and values, record 0 has none.
    ("dimensions without a scale", _set("scale", 1, 0),
     "records[1]: dimensions without a scale"),
    # A level alone is dimensions too.
    ("empty dimension vector", _level(0),
     "records[0]: dimensions without a scale"),
    ("scale without dimensions", _set("scale", 0, 1),
     "records[0]: a scale without dimensions"),
    ("scale without its vector", _packed_edit(
        "dim", lambda v: v.__setitem__(slice(2, None, 4), [0] * 10)),
     "records[2]: a scale without dimensions"),
    ("dimension vector too long", _packed_edit("dim", lambda v: v.append(0)),
     "'records.dim' has 41 items, not 40"),
    ("dimension column of one record", _packed_edit(
        "dim", lambda v: v.__delitem__(slice(10, None))),
     "'records.dim' has 10 items, not 40"),
    ("dimension value index past the table", _set("dim", 5, 7),
     "'records.dim' holds an index outside [0, 7)"),
    ("level index past the table", _set("level", 1, 1),
     "'records.level' holds an index outside [0, 1)"),
    ("level not a string", _columns(lambda t, c: t["levels"].append(1)),
     "'tables.levels' holds an integer"),
    ("null dimension value", _columns(
        lambda t, c: t["values"].__setitem__(2, None)),
     "'tables.values' holds a null"),
    ("null scale", _columns(lambda t, c: t["scales"][0].__setitem__(0, None)),
     "'tables.scales' field 0 holds a null"),
    ("scale row of three", _columns(lambda t, c: t["scales"][0].append(5.0)),
     "'tables.scales' has a row without 2 fields"),
    ("scale row of one", _columns(lambda t, c: t["scales"][0].pop()),
     "'tables.scales' has a row without 2 fields"),
    ("scale as text", _columns(lambda t, c: t["scales"][0].__setitem__(
        1, "9")), "'tables.scales' field 1 holds a string"),
    ("scale row not a list", _columns(lambda t, c: t["scales"].__setitem__(
        0, 1.0)), "'tables.scales' holds a number"),
    ("dimension as text", _columns(
        lambda t, c: t["values"].__setitem__(0, "7.14")),
     "'tables.values' holds a string"),
    ("tab in an id", _set("id", 1, "81\t63"),
     "'records.id' holds a tab or a line break"),
    ("tab in a db name", _columns(lambda t, c: t["dbs"].__setitem__(0, "IA\tDS")),
     "'tables.dbs' holds a tab or a line break"),
    ("line break in a keyword", _semantics(2, lambda items: items.__setitem__(
        6, "Winter\rStreet")), "tag 'sem' field 2 holds a tab or a line break"),
    ("tab in a category term", _section("cat", lambda s: s[2].__setitem__(
        0, "happi\tness")), "tag 'cat' field 1 holds a tab or a line break"),
    ("line break in a context field", _columns(
        lambda t, c: t["contexts"][0].__setitem__(0, "w\rav")),
     "'tables.contexts' field 0 holds a tab or a line break"),
    ("tab in a dimension level", _columns(
        lambda t, c: t["levels"].append("a\tb")),
     "'tables.levels' holds a tab or a line break"),
    # A physiology path is stored as its dir, up to its last `/`, and the
    # name after it.
    ("space in a physiology path", _set("path", 0, "subject1 hr"),
     "'records.path' holds a space or a ';'"),
    ("';' in a physiology path", _set("path", 1, "subject1;hr"),
     "'records.path' holds a space or a ';'"),
    ("tab in a physiology path", _set("path", 1, "subject1\thr"),
     "'records.path' holds a tab or a line break"),
    ("line break in a physiology path", _set("path", 0, "subject1\rhr"),
     "'records.path' holds a tab or a line break"),
    ("space in a physiology dir", _columns(lambda t, c: t["dirs"].__setitem__(
        0, "http://www.foo.com/a b/")), "'tables.dirs' holds a space or a ';'"),
    ("';' in a physiology dir", _columns(lambda t, c: t["dirs"].__setitem__(
        0, "http://www.foo.com/a;b/")), "'tables.dirs' holds a space or a ';'"),
    ("tab in a physiology dir", _columns(lambda t, c: t["dirs"].__setitem__(
        0, "http://www.foo.com/a\tb/")),
     "'tables.dirs' holds a tab or a line break"),
    ("line break in a physiology dir", _columns(
        lambda t, c: t["dirs"].__setitem__(0, "http://www.foo.com/\r")),
     "'tables.dirs' holds a tab or a line break"),
    ("dir not a string", _columns(lambda t, c: t["dirs"].__setitem__(0, None)),
     "'tables.dirs' holds a null"),
    ("empty channel", _columns(lambda t, c: t["channels"].__setitem__(0, "")),
     "'tables.channels' holds an empty name or a ';'"),
    ("';' in a channel", _columns(lambda t, c: t["channels"].__setitem__(1, "S;R")),
     "'tables.channels' holds an empty name or a ';'"),
    ("duplicate record", _set("id", 3, "5635"),
     "records[3]: duplicate stimulus key IAPS/5635"),
    ("bad taxonomy", _doc(lambda doc: json.dumps(
        {**doc, "taxonomy": "A\tB\nB\tA\n"})), "taxonomy is cyclic"),
    ("invalid record", _record(1, semantics=(
        SemanticsAnnotation("Object", "NoSuch"),)),
     "records[1]: record IAPS/8163: unknown concept 'NoSuch'"),
    ("no component", _record(1, semantics=(), categories=(), dimensions=None,
                             context=None, physiology=()),
     "records[1]: record IAPS/8163: four-component axiom violated"),
    ("NaN dimension SD", _record(
        1, dimensions=DIMENSIONS_8163._replace(arousalSD=NAN)),
     "records[1]: record IAPS/8163: arousalSD=nan is not a number"),
    ("NaN context length", _record(1, context=ContextRecord(length_seconds=NAN)),
     "records[1]: record IAPS/8163: context length_seconds=nan is not a number"),
    ("negative context length", _record(
        1, context=ContextRecord(length_seconds=-1.0)),
     "records[1]: record IAPS/8163: context length_seconds=-1.0 is negative"),
]


@pytest.mark.parametrize(
    "edit, message", [c[1:] for c in BAD_SNAPSHOTS],
    ids=[c[0] for c in BAD_SNAPSHOTS],
)
def test_bad_snapshot_exits_3_naming_file(
    edit, message, tmp_path, paper_workspace, capsys
):
    text = edit(_snapshot_doc(paper_workspace, tmp_path),
                list(paper_workspace.corpus))
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    rc = main(["stats", "--snapshot", str(bad)])
    err = capsys.readouterr().err
    with pytest.raises(SnapshotError) as exc:
        load_snapshot(bad)
    assert str(exc.value).startswith(f"bad snapshot {bad}: ")
    assert message in str(exc.value)
    assert rc == 3
    assert err.startswith(f"error: bad snapshot {bad}: ")
    assert message in err


def test_invalid_record_is_reported_before_a_later_repeat(
    tmp_path, paper_workspace
):
    # Records are added again in order: the first bad record is reported,
    # as ingest would report it.
    doc = _snapshot_doc(paper_workspace, tmp_path)
    text = _record(3, id="5635", semantics=(
        SemanticsAnnotation("Object", "NoSuch"),))(doc, list(paper_workspace.corpus))
    snap = tmp_path / "snap.json"
    snap.write_text(text)
    with pytest.raises(SnapshotError) as exc:
        load_snapshot(snap)
    assert str(exc.value) == (f"bad snapshot {snap}: records[3]: record "
                              "IAPS/5635: unknown concept 'NoSuch'")


def _dims(scale=(1.0, 9.0), **fields):
    """The change that gives a record dimensions of `fields` on `scale`."""
    return {"dimensions": DimensionAnnotation(*scale, **fields)}


# One record's changes that break one rule each.
RECORD_CHANGES = {
    "value off its scale": _dims(valence=99.0),
    "NaN SD": _dims(valence=5.0, arousalSD=NAN),
    "negative SD": _dims(valence=5.0, dominanceSD=-0.5),
    "no named dimension value": _dims(valenceSD=1.0),
    "bad dimension level": _dims(valence=5.0, confidence_level="Meh"),
    "bad dimension confidence": _dims(valence=5.0, confidence_value=2.0),
    "scale of min = max": _dims((5.0, 5.0), valence=5.0),
    "scale of min > max": _dims((9.0, 1.0), valence=5.0),
    "NaN scale": _dims((NAN, 9.0), valence=5.0),
    "unknown concept": {"semantics": (SemanticsAnnotation("Object", "NoSuch"),)},
    "bad kind": {"semantics": (SemanticsAnnotation("Thing", keyword="x"),)},
    "bad category term": {"categories": (CategoryAnnotation("BigSix", "joy"),)},
    "bad category level": {"categories": (
        CategoryAnnotation("BigSix", "fear", "Meh"),)},
    "bad category confidence": {"categories": (
        CategoryAnnotation("BigSix", "fear", None, 1.5),)},
    "appraisal off [0, 1]": {"appraisals": (
        AppraisalAnnotation((("pleasantness", 1.5),)),)},
    "sentiment off [0, 1]": {"sentiments": (SentimentAnnotation(-0.5),)},
    "bad tendency level": {"action_tendencies": (
        ActionTendencyAnnotation("approach", "Bogus", 0.7),)},
    "bad tendency confidence": {"action_tendencies": (
        ActionTendencyAnnotation("approach", None, 7.0),)},
    "bad sentiment level": {"sentiments": (SentimentAnnotation(0.5, "Nope"),)},
    "bad sentiment confidence": {"sentiments": (
        SentimentAnnotation(0.5, None, -3.0),)},
    "negative context number": {"context": ContextRecord(width_px=-1)},
    "NaN context number": {"context": ContextRecord(length_seconds=NAN)},
    "empty physiology path": {"physiology": (PhysiologyRef("", "HR"),)},
    "no component": StimulusRecord._field_defaults,
}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6),
       st.sampled_from([None, "repeated key", "one value, two fields",
                        *RECORD_CHANGES]),
       st.sampled_from([-1.0, 0.5, 5.0]),
       st.sampled_from(["arousal", "valenceSD", "confidence_value"]),
       st.data())
def test_table_checks_accept_exactly_what_the_oracle_accepts(
    seed, mutation, v, field, data
):
    # A varied synthetic workspace with one mutation: the load's table
    # checks accept it exactly when the oracle (validate_stimulus record by
    # record, then a repeated key) does, never calling validate_stimulus
    # then; a rejected one reports the oracle's first problem.  "One value,
    # two fields" writes one `values` row that record a uses as its valence
    # and record b under `field`.
    ws = _varied_workspace(_synthetic_workspace(seed, 6, 8), seed)
    records = list(ws.corpus)
    a, b = data.draw(st.lists(st.integers(0, len(records) - 1),
                              min_size=2, max_size=2, unique=True))
    if mutation == "repeated key":
        records[a] = records[a]._replace(db=records[b].db, id=records[b].id)
    elif mutation == "one value, two fields":
        records[a] = records[a]._replace(**_dims((-5.0, 5.0), valence=v))
        records[b] = records[b]._replace(**_dims(valence=5.0, **{field: v}))
    elif mutation is not None:
        records[a] = records[a]._replace(**RECORD_CHANGES[mutation])
    expected = oracle_first_problem(records, ws.graph, ws.corpus.vocabs)
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "snap.json"
        save_snapshot(ws, snap)
        doc = json.loads(snap.read_text())
        doc["tables"], doc["records"] = _record_columns(records)
        snap.write_text(json.dumps(doc))
        with mock.patch.object(stimkb.corpus, "validate_stimulus",
                               wraps=stimkb.corpus.validate_stimulus) as check:
            if expected is None:
                loaded = load_snapshot(snap)
                assert check.call_count == 0
                assert repr(list(loaded.corpus)) == repr(records)
            else:
                with pytest.raises(SnapshotError) as exc:
                    load_snapshot(snap)
                assert check.call_count > 0
                assert str(exc.value) == f"bad snapshot {snap}: {expected}"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6),
       st.sampled_from([None, "repeated key", "scale alone", "empty kind",
                        *RECORD_CHANGES]),
       st.data())
def test_ingest_accepts_exactly_what_the_oracle_accepts(seed, mutation, data):
    # A synthetic manifest with one record changed: ingest accepts it
    # exactly when the oracle does, and its snapshot then loads to the same
    # records; a rejected one reports the oracle's first problem at the
    # record's file and line.
    ws = _varied_workspace(_synthetic_workspace(seed, 6, 8), seed)
    records = list(ws.corpus)
    a, b = data.draw(st.lists(st.integers(0, len(records) - 1),
                              min_size=2, max_size=2, unique=True))
    if mutation == "repeated key":
        records[a] = records[a]._replace(db=records[b].db, id=records[b].id)
    elif mutation == "scale alone":
        records[a] = records[a]._replace(
            dimensions=DimensionAnnotation(1.0, 9.0))
    elif mutation == "empty kind":
        records[a] = records[a]._replace(
            semantics=(SemanticsAnnotation("", keyword="x"),))
    elif mutation is not None:
        records[a] = records[a]._replace(**RECORD_CHANGES[mutation])
    text = "".join(serialize_record(r) + "\n" for r in records)
    # The records as ingest parses them (an int dimension value is a float).
    records = [rec for _, rec in parse_record_file(text)]
    expected = oracle_first_problem(records, ws.graph, ws.corpus.vocabs)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "taxonomy.tsv").write_text(ws.graph.serialize())
        path = tmp / "records.tsv"
        path.write_text(text)
        manifest = tmp / "manifest.txt"
        manifest.write_text("taxonomy=taxonomy.tsv\nrecords=records.tsv\n")
        if expected is None:
            built = build_workspace(parse_manifest(manifest))
            snap = tmp / "snap.json"
            save_snapshot(built, snap)
            assert repr(list(load_snapshot(snap).corpus)) == repr(records)
            assert repr(list(built.corpus)) == repr(records)
        else:
            with pytest.raises(ValidationError) as exc:
                build_workspace(parse_manifest(manifest))
            assert type(exc.value) is ValidationError
            i, problem = expected[len("records["):].split("]", 1)
            assert str(exc.value) == (
                f"records file {path} line {int(i) + 1}{problem}")


def _synthetic_manifest(tmp_path):
    """A manifest workspace whose records file holds a `synthetic.generate`
    corpus, each record given one of a few BigSix categories."""
    graph, corpus, _, _ = generate(6, n_concepts=40, n_stimuli=300)
    terms = ("anger", "fear", "happiness")
    records = [
        rec._replace(categories=(
            CategoryAnnotation("BigSix", terms[i % 3], "High" if i % 2 else None),
        ))
        for i, rec in enumerate(corpus)
    ]
    (tmp_path / "taxonomy.tsv").write_text(graph.serialize())
    (tmp_path / "records.tsv").write_text(
        "# synthetic records\n"
        + "".join(serialize_record(r) + "\n" for r in records)
    )
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("taxonomy=taxonomy.tsv\nrecords=records.tsv\nseed=6\n")
    return manifest


@pytest.mark.parametrize("which", ["paper", "synthetic"])
def test_good_ingest_validates_and_adds_no_record(
    which, tmp_path, monkeypatch
):
    # Ingest checks the snapshot it would write, as a load does: a good one
    # sends no record through validate_stimulus or add_stimulus.
    manifest = PAPER_MANIFEST if which == "paper" else _synthetic_manifest(tmp_path)
    validated = _count_validations(monkeypatch)
    added = _count_adds(monkeypatch)
    ws = build_workspace(parse_manifest(manifest))
    assert len(ws.corpus) == (4 if which == "paper" else 300)
    assert validated == added == []


# Record-file lines that break a rule: (the line, its error after the
# record's file and line).  A scale alone cannot even be stored, so ingest
# adds the records it parsed, not those of its snapshot.
BAD_LINES = {
    "unknown concept": ("db=X\tid=1\tsem=Object:concept:NoSuch",
                        "record X/1: unknown concept 'NoSuch'"),
    "scale alone": ("db=X\tid=1\tdim.scale=1:9",
                    "record X/1: no dimension value present"),
    "bad tendency level": (
        "db=X\tid=1\ttendency=approach@level=Bogus,value=0.7",
        "record X/1: confidenceLevel 'Bogus' not one of "
        "('VeryHigh', 'High', 'Average', 'Low', 'VeryLow')"),
    "bad sentiment confidence": (
        "db=X\tid=1\tsentiment=0.5@value=-3",
        "record X/1: confidenceValue -3.0 outside [0, 1]"),
}


@pytest.mark.parametrize("bad, k", [
    *((bad, k) for bad in BAD_LINES for k in (0, 150, 299)),
    ("repeated key", 1), ("repeated key", 299),
])
def test_ingest_validates_up_to_the_first_bad_record(
    bad, k, tmp_path, monkeypatch
):
    # The first bad record is at position k: ingest validates records 0..k,
    # once each, and reports record k at its line (the file's first line is
    # a comment).
    records = tmp_path / "records.tsv"
    manifest = _synthetic_manifest(tmp_path)
    lines = records.read_text().splitlines()
    if bad == "repeated key":
        db, rid, _ = lines[k].split("\t", 2)  # record k - 1's key
        lines[k + 1] = f"{db}\t{rid}\tctx=1"
        message = f"duplicate stimulus key {db[3:]}/{rid[3:]}"
    else:
        lines[k + 1], message = BAD_LINES[bad]
    records.write_text("\n".join(lines) + "\n")
    validated = _count_validations(monkeypatch)
    with pytest.raises(ValidationError) as exc:
        build_workspace(parse_manifest(manifest))
    assert type(exc.value) is ValidationError
    assert str(exc.value) == f"records file {records} line {k + 2}: {message}"
    assert len(validated) == k + 1


def test_ingest_invalid_record_names_its_line(tmp_path, paper_graph):
    for f in PAPER_MANIFEST.parent.iterdir():
        shutil.copy(f, tmp_path / f.name)
    records = tmp_path / "records.tsv"
    lines = records.read_text().splitlines()
    lines.append("db=IAPS\tid=666\tsem=Object:concept:NoSuch")
    records.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as exc:
        build_workspace(parse_manifest(tmp_path / "manifest.txt"))
    assert str(exc.value) == (
        f"records file {records} line {len(lines)}: record IAPS/666: "
        "unknown concept 'NoSuch'"
    )
    assert exc.value.problems == ["unknown concept 'NoSuch'"]
    with pytest.raises(ValidationError) as direct:
        stimkb.corpus.parse_corpus_records(
            records.read_text(), paper_graph, load_vocabularies("")
        )
    assert str(exc.value).endswith(f" {direct.value}")


def _built_and_loaded(tmp_path):
    built = build_workspace(parse_manifest(_synthetic_manifest(tmp_path)))
    snap = tmp_path / "snap.json"
    save_snapshot(built, snap)
    return built, load_snapshot(snap)


def test_load_equals_build_workspace(tmp_path):
    built, loaded = _built_and_loaded(tmp_path)
    assert list(loaded.corpus) == list(built.corpus)
    assert loaded.corpus.concept_index == built.corpus.concept_index
    assert loaded.graph.parent_edges == built.graph.parent_edges
    assert loaded.corpus.vocabs == built.corpus.vocabs
    assert loaded.closure.classes() == built.closure.classes()
    assert (loaded.seed, loaded.limit) == (built.seed, built.limit)
    # Only a build fills the keyword mapping and the unmapped keywords.
    assert (loaded.mapping, loaded.unmapped_keywords) == (None, ())
    # An annotation kind that no record carries gives every record the
    # one shared empty tuple.
    for field in ("appraisals", "action_tendencies", "sentiments"):
        assert set(map(id, getattr(loaded.corpus, field))) == {id(())}


def test_snapshot_stores_no_keyword_mapping(tmp_path, paper_workspace):
    # Keywords are expanded at ingest: the records hold their concepts, and
    # no command reads the mapping after a load.
    assert paper_workspace.mapping is not None
    snap = tmp_path / "snap.json"
    save_snapshot(paper_workspace, snap)
    doc = json.loads(snap.read_text())
    assert sorted(doc) == sorted(stimkb.snapshot._SNAPSHOT_KEYS)
    assert "mapping" not in doc and "unmapped_keywords" not in doc
    loaded = load_snapshot(snap)
    assert (loaded.mapping, loaded.unmapped_keywords) == (None, ())
    assert list(loaded.corpus) == list(paper_workspace.corpus)


def test_concept_index_is_built_on_first_use(tmp_path, monkeypatch, capsys):
    built, loaded = _built_and_loaded(tmp_path)
    calls = []
    build = stimkb.corpus._concept_index

    def counting_build(records, keys):
        calls.append(1)
        return build(records, keys)

    monkeypatch.setattr(stimkb.corpus, "_concept_index", counting_build)
    for ws in (built, loaded):
        assert ws.corpus.concept_index == oracle_concept_index(ws.corpus)
        assert ws.corpus.concept_index is ws.corpus.concept_index
    assert len(calls) == 2
    # Loads for commands that read no concept clause build no index, a
    # ranked concept query included; a concept filter builds one.  Stats
    # counts the distinct concepts without one.
    snap = tmp_path / "snap.json"
    for argv, builds in (
        (["stats"], 0),
        (["query", "keyword:fichipado"], 0),
        (["query", "concept:kagor"], 0),
        (["query", "category:BigSix.anger mode:filter"], 0),
        (["query", "valence:[1,9] mode:filter"], 0),
        (["query", "concept:kagor mode:filter"], 1),
    ):
        calls.clear()
        assert main(argv[:1] + ["--snapshot", str(snap)] + argv[1:]) == 0
        assert len(calls) == builds, argv
    capsys.readouterr()
    calls.clear()
    load_snapshot(snap)
    assert calls == []


# What a load builds on first use: the corpus fields, its key positions
# and its concept index, and the graph's tables.
LAZY_CORPUS = {*StimulusRecord._fields, "positions", "concept_index"}
LAZY_GRAPH = {"ancestor_closure", "depth_cache", "max_depth", "neighbors"}


def _built(ws):
    """(the lazy corpus attributes, the lazy graph tables) that `ws` has
    built so far: the ones its objects keep."""
    return (LAZY_CORPUS & set(vars(ws.corpus)),
            LAZY_GRAPH & set(vars(ws.graph)))


def test_each_command_builds_only_what_it_reads(
    tmp_path, monkeypatch, capsys, paper_workspace
):
    snap = tmp_path / "snap.json"
    save_snapshot(paper_workspace, snap)
    # A keyword rank, a category filter and a keyword sequence, one after
    # another on one loaded workspace, read semantics and categories only.
    ws = load_snapshot(snap)
    assert _built(ws) == (set(), set())
    ranked = retrieval.ranked_query(
        ws.corpus, ws.graph, retrieval.parse_query("keyword:Crowd"), ws.closure)
    assert ranked.entries
    q = retrieval.parse_query("category:FSRECategory.happiness mode:filter")
    assert retrieval.filter_query(ws.corpus, ws.graph, q, ws.closure)
    q = retrieval.parse_query("keyword:street measure:inclusion")
    entries = retrieval.ranked_query(ws.corpus, ws.graph, q, ws.closure).entries
    assert build_sequence(entries, count=2, duration_ms=100).items
    assert _built(ws) == ({"semantics", "categories"}, set())

    # Each command on its own load: the fields its clauses read, and the
    # graph tables it reads, only.
    loaded = []
    load = stimkb.cli.load_snapshot
    monkeypatch.setattr(stimkb.cli, "load_snapshot",
                        lambda path: loaded.append(load(path)) or loaded[-1])
    for argv, fields, tables in (
        (["query", "keyword:Crowd"], {"semantics"}, set()),
        (["query", "category:FSRECategory.happiness mode:filter"],
         {"categories"}, set()),
        (["sequence", "--count", "2", "--duration", "100", "keyword:Crowd"],
         {"semantics"}, set()),
        (["query", "valence:[1,9] mode:filter"], {"dimensions"}, set()),
        (["query", "keyword:Crowd db:IAPS arousal:[1,9]"],
         {"db", "dimensions", "semantics"}, set()),
        (["query", "concept:Human mode:filter"],
         {"semantics", "concept_index", "positions"}, {"ancestor_closure"}),
        (["stats"], {"semantics"}, {"depth_cache", "max_depth"}),
    ):
        assert main(argv[:1] + ["--snapshot", str(snap)] + argv[1:]) == 0
        assert _built(loaded.pop()) == (fields, tables), argv
    capsys.readouterr()


@pytest.mark.parametrize("read_first", [(), ("semantics",)],
                         ids=["nothing-read", "semantics-read"])
def test_adding_to_a_loaded_corpus_equals_adding_in_order(
    read_first, tmp_path, paper_workspace
):
    # Two records added to a loaded corpus whose fields are still to be
    # built: the first after `read_first` only, the second after only
    # semantics has been read too.
    snap = tmp_path / "snap.json"
    save_snapshot(paper_workspace, snap)
    ws = load_snapshot(snap)
    corpus = ws.corpus
    assert _built(ws) == (set(), set())
    stored = list(paper_workspace.corpus)
    added = [rec._replace(db="NEW") for rec in stored[:2]]
    for name in read_first:
        getattr(corpus, name)
    corpus.add_stimulus(added[0])
    corpus.semantics
    corpus.add_stimulus(added[1])

    expected = Corpus(ws.graph, ws.corpus.vocabs)
    for rec in stored + added:
        expected.add_stimulus(rec)
    for field in StimulusRecord._fields:
        assert getattr(corpus, field) == getattr(expected, field), field
    assert list(corpus) == list(expected)
    assert corpus.keys == expected.keys
    assert corpus.positions == expected.positions
    assert corpus.concept_index == expected.concept_index


def test_threads_reading_a_loaded_workspace_share_each_build(
    tmp_path, paper_workspace
):
    # More threads than cores read every field, the records and every
    # graph table at once, each in its own order, switching often: each
    # field is one list for all of them, and everything read equals the
    # built workspace's.
    snap = tmp_path / "snap.json"
    save_snapshot(paper_workspace, snap)
    ws = load_snapshot(snap)
    names = [*StimulusRecord._fields, "records", "concept_index"]
    seen = []

    def read(seed):
        order = random.Random(seed).sample(names, len(names))
        got = {name: list(ws.corpus) if name == "records"
               else getattr(ws.corpus, name) for name in order}
        got.update((t, getattr(ws.graph, t)) for t in sorted(LAZY_GRAPH))
        seen.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(seen) == 6
    for field in StimulusRecord._fields:
        assert all(got[field] is getattr(ws.corpus, field) for got in seen)
    built = paper_workspace
    for got in seen:
        assert got["records"] == list(built.corpus)
        assert got["concept_index"] == built.corpus.concept_index
        assert all(got[t] == getattr(built.graph, t)
                   for t in LAZY_GRAPH - {"neighbors"})
        assert {c: set(n) for c, n in got["neighbors"].items()} == {
            c: set(n) for c, n in built.graph.neighbors.items()}


@pytest.mark.parametrize("sealed", [False, True], ids=["unsealed", "sealed"])
@pytest.mark.parametrize(
    "edit, message", [c[1:] for c in BAD_SNAPSHOTS],
    ids=[c[0] for c in BAD_SNAPSHOTS],
)
def test_a_bad_snapshot_fails_inside_load_snapshot(
    edit, message, sealed, tmp_path, paper_workspace
):
    # Fields are built on first use, but no check waits for one: every
    # fault, in a field that no query reads too, must fail load_snapshot
    # itself, as written and in the layout written while snapshots were
    # sealed.
    text = edit(_snapshot_doc(paper_workspace, tmp_path),
                list(paper_workspace.corpus))
    bad = tmp_path / "bad.json"
    sealable = sealed and text.startswith("{")
    bad.write_bytes(sealed_layout(text.encode()) if sealable else text.encode())
    with pytest.raises(SnapshotError) as exc:
        load_snapshot(bad)
    assert str(exc.value).startswith(f"bad snapshot {bad}: ")
    assert message in str(exc.value)


# The category terms of generated records, and the terms the generated
# axioms make equivalent to some of them.
GENERATED_CATEGORIES = ("BigSix.anger", "BigSix.fear", "BigSix.happiness",
                        "OCCCategory.anger", "FSRECategory.anger",
                        "FSRECategory.happiness")


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """(a workspace of 60 generated concepts and about 330 records over
    three dbs, with dimensions and categories, built from its manifest;
    the snapshot ingest writes of it; its concepts; some keywords and
    keyword prefixes of its records)."""
    root = tmp_path_factory.mktemp("generated")
    made = golden._load_gen().generate(root / "ws", 11, 60, 300,
                                       golden.FIXTURES)
    built = build_workspace(parse_manifest(made.manifest))
    snap = root / "kb.json"
    save_snapshot(built, snap)
    words = sorted({s.keyword for sems in built.corpus.semantics
                    for s in sems if s.keyword})[::10]
    return (built, snap, sorted(built.graph.concepts),
            words + [w[:3] for w in words])


@st.composite
def _generated_queries(draw, concepts, keywords, n_records):
    """A filter query, or a rank query of any measure with a limit below
    or past the record count, with some db, box and category clauses."""
    measure = draw(st.sampled_from([None, *Measure]))
    parts = []
    if measure is not None:
        kind, terms = (("concept", concepts) if measure in CONCEPT_MEASURES
                       else ("keyword", keywords))
        limit = draw(st.integers(1, 30) | st.integers(n_records - 5, n_records + 5))
        parts += [f"{kind}:{draw(st.sampled_from(terms))}",
                  f"measure:{measure.value}", f"limit:{limit}"]
    if draw(st.booleans()):
        parts.append(f"db:{draw(st.sampled_from(('IAPS', 'IADS', 'GAPED')))}")
    for dim in draw(st.lists(st.sampled_from(("valence", "arousal", "dominance")),
                             unique=True, max_size=2)):
        lo = draw(st.integers(1, 6))
        parts.append(f"{dim}:[{lo},{draw(st.integers(lo + 2, 9))}]")
    if draw(st.booleans()):
        parts.append(f"category:{draw(st.sampled_from(GENERATED_CATEGORIES))}")
    if measure is None:
        if draw(st.booleans()) or not any("[" in p or "category:" in p
                                          for p in parts):
            parts.append(f"concept:{draw(st.sampled_from(concepts))}")
        parts.append("mode:filter")
    return " ".join(parts)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_loaded_queries_equal_the_built_ones_and_the_oracles(generated, data):
    built, snap, concepts, keywords = generated
    loaded = load_snapshot(snap)
    for field in data.draw(st.lists(st.sampled_from(StimulusRecord._fields),
                                    unique=True)):
        getattr(loaded.corpus, field)
    queries = _generated_queries(concepts, keywords, len(built.corpus))
    for text in data.draw(st.lists(queries, min_size=1, max_size=3)):
        q = retrieval.parse_query(text)
        args = (q, built.closure)
        if q.mode == retrieval.MODE_FILTER:
            got = retrieval.filter_query(loaded.corpus, loaded.graph, *args)
            assert got == retrieval.filter_query(built.corpus, built.graph, *args)
            assert got == oracle_filter(built.corpus, built.graph, built.closure, q)
        else:
            got = retrieval.ranked_query(
                loaded.corpus, loaded.graph, q, loaded.closure).entries
            assert got == retrieval.ranked_query(
                built.corpus, built.graph, *args).entries
            assert list(got) == oracle_ranking(
                built.corpus, built.graph, built.closure, q)
    for name in data.draw(st.permutations(sorted(LAZY_CORPUS))):
        getattr(loaded.corpus, name)
    assert list(loaded.corpus) == list(built.corpus)
    assert loaded.corpus.keys == built.corpus.keys
    assert loaded.corpus.concept_index == built.corpus.concept_index


def test_loaded_records_share_one_annotation_per_token(tmp_path):
    _, loaded = _built_and_loaded(tmp_path)
    objects = {}
    for rec in loaded.corpus:
        for ann in rec.semantics + rec.categories:
            objects.setdefault((type(ann), ann), set()).add(id(ann))
    assert all(len(ids) == 1 for ids in objects.values())
    # Records do share them: fewer annotation objects than annotations.
    n_annotations = sum(
        len(r.semantics) + len(r.categories) for r in loaded.corpus
    )
    assert len(objects) < n_annotations / 2


def test_loaded_records_share_contexts_by_their_text(tmp_path, paper_workspace):
    # Equal contexts held as separate objects share one object per load;
    # -0.0 and 0.0 are written as different text, so they stay apart, and
    # each keeps its sign.
    corpus = Corpus(paper_workspace.corpus.graph, paper_workspace.corpus.vocabs)
    lengths = [None, None, None, None, -0.0, 0.0, -0.0]
    for i, length in enumerate(lengths):
        corpus.add_stimulus(StimulusRecord("X", str(i), context=ContextRecord(
            media_format="wav" if i in (1, 3) else "jpg",
            length_seconds=length)))
    snap = tmp_path / "contexts.json"
    save_snapshot(paper_workspace._replace(corpus=corpus), snap)
    loads = [[r.context for r in load_snapshot(snap).corpus] for _ in range(2)]
    for contexts in loads:
        assert contexts == [r.context for r in corpus]
        assert len({id(c) for c in contexts}) == 4
        assert all(c is contexts[i % 2] for i, c in enumerate(contexts[:4]))
        assert contexts[4] is contexts[6]
        assert contexts[4] is not contexts[5]
        assert math.copysign(1, contexts[4].length_seconds) == -1
        assert math.copysign(1, contexts[5].length_seconds) == 1
    assert all(a == b and a is not b for a, b in zip(*loads))


def _unloadable(doc):
    """The text of a snapshot document with a negative index."""
    return _set("db", 0, -1)(doc, [])


@pytest.mark.parametrize("enabled", [True, False])
def test_load_restores_the_collector_state(enabled, tmp_path, paper_workspace):
    # The collector is paused from before the document is parsed, so every
    # way out of a load, early or late, must restore it.
    doc = _snapshot_doc(paper_workspace, tmp_path)
    good = tmp_path / "good.json"
    bad_texts = {
        "not JSON": "not json {",
        "bad taxonomy": json.dumps({**doc, "taxonomy": "A\tB\nB\tA\n"}),
        "bad column": _unloadable(dict(doc)),
        "invalid record": _record(1, semantics=(
            SemanticsAnnotation("Object", "NoSuch"),))(
                dict(doc), list(paper_workspace.corpus)),
    }
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        load_snapshot(good)
        assert gc.isenabled() is enabled
        for case, text in bad_texts.items():
            bad = tmp_path / "bad.json"
            bad.write_text(text)
            with pytest.raises(SnapshotError, match=f"bad snapshot {bad}: "):
                load_snapshot(bad)
            assert gc.isenabled() is enabled, case
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_packed_columns_are_little_endian():
    # Fixed bytes: a packed item's byte order is the format's, not the
    # host's, and each column takes the narrowest typecode that holds it.
    # The deflated text may differ between zlib builds; what it inflates
    # to may not.
    def inflated(pair):
        return pair[0], zlib.decompress(b64decode(pair[1]))

    packed = stimkb.snapshot._packed
    assert inflated(packed([1, 258])) == ("H", b"\1\0\2\1")
    assert inflated(packed([1 << 16, 7])) == ("I", b"\0\0\1\0\7\0\0\0")
    assert inflated(packed([0, 255])) == ("B", b"\0\xff")
    assert inflated(packed([])) == ("B", b"")
    # Fixed texts, which any zlib build inflates alike.
    unpacked = stimkb.snapshot._unpacked
    assert list(unpacked("'x'", ["H", "eJxjZGBiBAAADQAF"], 2)) == [1, 258]
    assert list(unpacked("'x'", ["Q", "eJxjZIAAAAAQAAI="], 1)) == [1]


@pytest.mark.parametrize("code", ["B", "H", "I", "Q"])
@pytest.mark.parametrize("length", [0, 1, 4, 300])
def test_packed_column_inflates_to_at_most_one_item_more(code, length):
    # One item fewer or more is returned, for the caller's length checks
    # to name; any longer stream raises, whatever the typecode.
    unpacked = stimkb.snapshot._unpacked
    for n in range(max(0, length - 1), length + 2):
        assert len(unpacked("'x'", packed_pair(code, [7] * n), length)) == n
    for extra in (1, 2, 1000):
        data = zlib.compress(bytes((length + 1) * array(code).itemsize + extra))
        with pytest.raises(SnapshotError, match=(
                f"^'x' holds more than {length + 1} items, not {length}$")):
            unpacked("'x'", [code, b64encode(data).decode()], length)


def test_a_column_that_inflates_far_past_its_length_is_never_held(
    tmp_path, paper_workspace
):
    # A 4-record column whose stream inflates to 64 MiB fails the load
    # without the 64 MiB ever being held: the load's peak allocation stays
    # under 1 MiB.
    doc = _snapshot_doc(paper_workspace, tmp_path)
    bad = tmp_path / "bomb.json"
    bad.write_text(_stream("ctx", _inflating_to_64_mib)(doc, ()))
    tracemalloc.start()
    try:
        with pytest.raises(SnapshotError, match="holds more than 5 items"):
            load_snapshot(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_text_column_that_inflates_past_its_length_is_never_held(
    tmp_path, paper_workspace
):
    # A text column declaring 11 bytes whose stream inflates to 64 MiB is
    # inflated to 12 bytes, and fails the load under a 1 MiB peak.
    doc = _snapshot_doc(paper_workspace, tmp_path)
    bad = tmp_path / "bomb.json"
    bad.write_text(_text_stream("id", _inflating_to_64_mib, 11)(doc, ()))
    tracemalloc.start()
    try:
        with pytest.raises(SnapshotError, match="'records.id' holds more "
                                                "than 11 bytes"):
            load_snapshot(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("code", ["B", "I"])
def test_a_packed_column_is_held_once(code):
    # The column is inflated a chunk at a time into one buffer, which its
    # items then view: loading N inflated bytes peaks below 1.5 N.
    n = (4 << 20) // array(code).itemsize
    pair = packed_pair(code, [7] * n)
    tracemalloc.start()
    try:
        items = stimkb.snapshot._unpacked("'x'", pair, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(items) == n and items[0] == items[-1] == 7
    assert peak < 1.5 * (4 << 20)


def test_text_columns_hold_lines():
    # Fixed bytes: each item's UTF-8 text and a line break, deflated; the
    # declared length is the inflated byte count.  Any zlib build inflates
    # the fixed texts alike.
    text = stimkb.snapshot._text
    lines = stimkb.snapshot._lines
    for items in (["a", "b"], [], [""], ["", "é"], ["x y;z"]):
        pair = text(items)
        data = "".join(f"{item}\n" for item in items).encode()
        assert pair[0] == len(data)
        assert zlib.decompress(b64decode(pair[1])) == data
        assert lines("'x'", pair) == items
    assert lines("'x'", [4, "eJxL5EriAgACdADY"]) == ["a", "b"]
    assert lines("'x'", [0, "eJwDAAAAAAE="]) == []


# Numbers on a [0, 9] scale, and the scale's bounds, written either way.
DIMENSION_NUMBERS = st.sampled_from([-0.0, 0.0, 1, 1.0, 2.5, 9.0]) | st.floats(
    0, 9)
DIMENSION_SDS = st.sampled_from([-0.0, 0.0, 1]) | st.floats(0, 4)
DIMENSION_LEVELS = st.sampled_from(stimkb.affect.CONFIDENCE_LEVELS)
CONFIDENCE_VALUES = st.sampled_from([-0.0, 0, 0.5, 1.0])


@st.composite
def _dimensions(draw):
    """None, or a valid DimensionAnnotation: any of its fields set (all 11
    after the scale among them), a level with no value, a value with no
    level, -0.0 and ints among the numbers."""
    if draw(st.integers(0, 5)) == 0:
        return None
    lo = draw(st.sampled_from([-0.0, 0.0, 0]))
    hi = draw(st.sampled_from([9, 9.0]))
    everything = draw(st.booleans())
    values = [draw(DIMENSION_NUMBERS) if everything or draw(st.booleans())
              else None for _ in stimkb.affect.DIMENSION_NAMES]
    if all(v is None for v in values):
        values[draw(st.integers(0, len(values) - 1))] = draw(DIMENSION_NUMBERS)

    def field(strategy):
        return draw(strategy if everything else st.none() | strategy)

    sds = [field(DIMENSION_SDS) for _ in stimkb.affect.DIMENSION_SD_NAMES]
    return DimensionAnnotation(lo, hi, *values, *sds, field(DIMENSION_LEVELS),
                               field(CONFIDENCE_VALUES))


# Numbers that are equal but written apart (-0.0 and 0.0, 1, 1.0 and True,
# two NaN objects), or alike.
NUMBER_POOL = [-0.0, 0.0, 0, 1, 1.0, True, 2.5, NAN, float("nan"), 7.25,
               float("inf")]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.none() | st.tuples(
    st.lists(st.sampled_from(NUMBER_POOL), min_size=2, max_size=2),
    st.lists(st.none() | st.sampled_from(NUMBER_POOL), min_size=11,
             max_size=11)), max_size=8))
def test_dimension_tables_intern_by_repr(rows):
    # Whether it interns by value or by repr, the writer's tables and
    # columns equal a naive interning of the set numbers by repr (the
    # records need not be valid; the level field holds numbers too).
    dims = [None if row is None else DimensionAnnotation(*row[0], *row[1])
            for row in rows]
    scales, values, levels, scale, dim, level = (
        stimkb.snapshot._dimension_columns(dims))
    distinct = {}
    for i in stimkb.snapshot._VALUE_FIELDS:
        for d in dims:
            if d is not None and d[i] is not None:
                distinct.setdefault(repr(d[i]), len(distinct) + 1)
    assert list(map(repr, values)) == list(distinct)
    assert dim == [0 if d is None or d[i] is None else distinct[repr(d[i])]
                   for i in stimkb.snapshot._VALUE_FIELDS for d in dims]
    pairs = {}
    for d in dims:
        if d is not None:
            pairs.setdefault(repr(d[:2]), len(pairs) + 1)
    assert list(map(repr, map(tuple, scales))) == list(pairs)
    assert scale == [0 if d is None else pairs[repr(d[:2])] for d in dims]
    set_levels = [d.confidence_level for d in dims
                  if d is not None and d.confidence_level is not None]
    assert levels == list(dict.fromkeys(set_levels))
    assert level == [0 if d is None or d.confidence_level is None
                     else levels.index(d.confidence_level) + 1 for d in dims]


@settings(max_examples=40, deadline=None)
@given(st.lists(_dimensions(), min_size=1, max_size=12))
def test_dimensions_round_trip(paper_workspace, dimensions):
    # Records of every dimension layout: loaded as written, in the layout
    # written while snapshots were sealed, and added again through
    # add_stimulus, each equals the ingested one (compared by repr, which
    # tells -0.0 from 0.0 and 1 from 1.0).
    graph, vocabs = paper_workspace.graph, paper_workspace.corpus.vocabs
    ingested = Corpus(graph, vocabs)
    for i, dims in enumerate(dimensions):
        ingested.add_stimulus(StimulusRecord(
            "X", str(i), dimensions=dims,
            semantics=(SemanticsAnnotation("Object", "Human"),)))
    expected = repr(list(ingested))
    ws = paper_workspace._replace(corpus=ingested)
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "snap.json"
        save_snapshot(ws, snap)
        loaded = load_snapshot(snap).corpus
        assert repr(loaded.dimensions) == repr(ingested.dimensions)
        rebuilt = Corpus(graph, vocabs)
        for rec in loaded:
            rebuilt.add_stimulus(rec)
        snap.write_bytes(sealed_layout(snap.read_bytes()))
        sealed = load_snapshot(snap).corpus
    assert repr(list(loaded)) == repr(list(sealed)) == expected
    assert repr(list(rebuilt)) == expected


@pytest.mark.parametrize("enabled", [True, False])
def test_good_load_freezes_the_workspace(enabled, tmp_path):
    ws = _synthetic_workspace()
    good = tmp_path / "good.json"
    save_snapshot(ws, good)
    doc = json.loads(good.read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(_unloadable(doc))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        before = gc.get_freeze_count()
        with pytest.raises(SnapshotError):
            load_snapshot(bad)
        assert gc.get_freeze_count() == before
        assert gc.isenabled() is enabled
        loaded = load_snapshot(good)
        assert gc.get_freeze_count() - before >= len(loaded.corpus) == len(ws.corpus)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_a_field_builds_with_the_collector_paused_then_frozen(
    enabled, tmp_path, monkeypatch
):
    # A field built after the load is built as the load builds: with the
    # cyclic collector paused, and then frozen out of it.
    ws = _synthetic_workspace()
    snap = tmp_path / "snap.json"
    save_snapshot(ws, snap)
    states = []
    grouped = stimkb.snapshot._grouped
    monkeypatch.setattr(stimkb.snapshot, "_grouped", lambda *args: (
        states.append(gc.isenabled()) or grouped(*args)))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        loaded = load_snapshot(snap)
        before = gc.get_freeze_count()
        assert loaded.corpus.semantics == ws.corpus.semantics
        assert states == [False]
        assert gc.get_freeze_count() - before >= len(ws.corpus)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_loaded_workspace_is_freed_by_refcounting(tmp_path, paper_workspace):
    # Frozen objects are never collected, so a reference cycle in a loaded
    # workspace would leak it.  The Workspace tuple takes no weak reference;
    # a cycle through it would keep its parts alive.
    snap = tmp_path / "snap.json"
    save_snapshot(paper_workspace, snap)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        loaded = load_snapshot(snap)
        refs = [weakref.ref(obj) for obj in (
            loaded.corpus, loaded.graph, loaded.closure,
        )]
        del loaded
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if was_enabled:
            gc.enable()
