import gc
import json
import math
import random
import shutil
import tempfile
import weakref
from array import array
from base64 import b64encode
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stimkb.corpus
import stimkb.snapshot
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
    VALIDATION_RULES,
    ContextRecord,
    Corpus,
    PhysiologyRef,
    SemanticsAnnotation,
    StimulusRecord,
    parse_record_line,
)
from stimkb.errors import ParseError, SnapshotError, StimKbError, ValidationError
from stimkb.snapshot import (
    SNAPSHOT_VERSION,
    Workspace,
    build_workspace,
    load_snapshot,
    parse_manifest,
    save_snapshot,
)
from stimkb.synthetic import generate
from stimkb.taxonomy import parse_taxonomy

from conftest import (
    PACKED_COLUMNS,
    PAPER_MANIFEST,
    SEAL_END,
    SEAL_HEAD,
    many_layout_lines,
    oracle_concept_index,
    seal_text,
    serialize_record,
)


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


def _count_parses(monkeypatch):
    """Record the line of every corpus.parse_record_line call."""
    parsed = []
    parse = stimkb.corpus.parse_record_line

    def counting_parse(line, *args, **kwargs):
        parsed.append(line)
        return parse(line, *args, **kwargs)

    monkeypatch.setattr(stimkb.corpus, "parse_record_line", counting_parse)
    return parsed


def _strip_seal(path):
    """Rewrite the sealed snapshot at `path` without its seal line."""
    data = path.read_bytes()
    assert data.startswith(SEAL_HEAD)
    path.write_bytes(b"{" + data[SEAL_END + 2:])


@pytest.mark.parametrize("which", ["paper", "synthetic"])
def test_unsealed_load_validates_each_record_once_and_parses_none(
    which, tmp_path, monkeypatch, paper_workspace
):
    ws = paper_workspace if which == "paper" else _synthetic_workspace()
    snap = tmp_path / "snap.json"
    save_snapshot(ws, snap)
    _strip_seal(snap)
    assert not snap.read_bytes().startswith(SEAL_HEAD)

    def no_bulk_parser(*args, **kwargs):
        raise AssertionError("load_snapshot must not use parse_corpus_records")

    validated = _count_validations(monkeypatch)
    parsed = _count_parses(monkeypatch)
    monkeypatch.setattr(stimkb.snapshot, "parse_corpus_records", no_bulk_parser)
    loaded = load_snapshot(snap)

    assert list(loaded.corpus) == list(ws.corpus)
    assert loaded.corpus.concept_index == ws.corpus.concept_index
    assert validated == [r.key for r in ws.corpus]
    assert parsed == []


@pytest.mark.parametrize("which", ["paper", "synthetic"])
def test_sealed_load_validates_and_parses_none(
    which, tmp_path, monkeypatch, paper_workspace
):
    if which == "paper":
        ws = paper_workspace
    else:
        ws = build_workspace(parse_manifest(_synthetic_manifest(tmp_path)))
    snap = tmp_path / "snap.json"
    save_snapshot(ws, snap)
    assert snap.read_bytes().startswith(SEAL_HEAD)

    validated = _count_validations(monkeypatch)
    parsed = _count_parses(monkeypatch)
    loaded = load_snapshot(snap)

    assert list(loaded.corpus) == list(ws.corpus)
    assert loaded.corpus.concept_index == ws.corpus.concept_index
    assert validated == []
    assert parsed == []


def test_save_seals_the_graph_and_vocabularies_records_were_validated_against(
    tmp_path, monkeypatch, paper_workspace
):
    snap = tmp_path / "snap.json"
    save_snapshot(paper_workspace, snap)
    sealed = snap.read_bytes()
    _strip_seal(snap)
    unsealed = snap.read_bytes()
    assert len(sealed) == len(unsealed) + 77
    assert sealed == seal_text(unsealed.decode())
    # The taxonomy written is the corpus's, not the workspace's own graph.
    other = parse_taxonomy("A\tB\n")
    save_snapshot(paper_workspace._replace(graph=other), snap)
    assert snap.read_bytes() == sealed
    # A workspace built in code saves sealed, and loads unvalidated.
    ws = _synthetic_workspace()
    save_snapshot(ws, snap)
    assert snap.read_bytes().startswith(SEAL_HEAD)
    validated = _count_validations(monkeypatch)
    assert list(load_snapshot(snap).corpus) == list(ws.corpus)
    assert validated == []
    # A sealed load saves the same sealed bytes again.
    snap.write_bytes(sealed)
    save_snapshot(load_snapshot(snap), snap)
    assert snap.read_bytes() == sealed


@pytest.mark.parametrize("which", ["paper", "synthetic"])
def test_ingest_writes_identical_sealed_snapshots(which, tmp_path, capsys):
    manifest = PAPER_MANIFEST if which == "paper" else _synthetic_manifest(tmp_path)
    snaps = [tmp_path / "a.json", tmp_path / "b.json"]
    for snap in snaps:
        assert main(["ingest", "--manifest", str(manifest),
                     "--snapshot", str(snap)]) == 0
    assert snaps[0].read_bytes() == snaps[1].read_bytes()
    assert snaps[0].read_bytes().startswith(SEAL_HEAD)


@settings(max_examples=25, deadline=None)
@given(st.none() | st.tuples(st.integers(0, 10**6), st.integers(2, 40),
                             st.integers(1, 120)))
def test_sealed_load_equals_full_validation(paper_workspace, spec):
    ws = paper_workspace if spec is None else _synthetic_workspace(*spec)
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "snap.json"
        save_snapshot(ws, snap)
        sealed = load_snapshot(snap)
        _strip_seal(snap)
        full = load_snapshot(snap)
    assert sealed.corpus.records == full.corpus.records
    assert list(sealed.corpus.records) == list(full.corpus.records)
    assert sealed.corpus.concept_index == full.corpus.concept_index
    assert sealed.graph.parent_edges == full.graph.parent_edges
    assert sealed.graph.concepts == full.graph.concepts
    assert sealed.corpus.vocabs == full.corpus.vocabs
    assert sealed.closure.classes() == full.closure.classes()
    assert (sealed.unmapped_keywords, sealed.seed, sealed.limit) == (
        full.unmapped_keywords, full.seed, full.limit)


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
        if not sealed:
            _strip_seal(snap)
        loaded = load_snapshot(snap)
    # Equal records in the same order; the reprs also tell -0.0 from 0.0
    # and 1 from 1.0.
    assert list(loaded.corpus.records) == list(ws.corpus.records)
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
# `doc` is the paper snapshot's document without its seal and `records`
# the paper workspace's records.

def _doc(edit):
    """An edit of the whole document: edit(doc) -> the file text."""
    return lambda doc, records: edit(doc)


def _columns(edit):
    """An edit of the tables and the record columns, in place."""
    def edit_doc(doc, records):
        edit(doc["tables"], doc["records"])
        return json.dumps(doc)

    return edit_doc


def _record(i, **changes):
    """The document of the records with record `i` changed, unvalidated."""
    def edit_doc(doc, records):
        records = list(records)
        records[i] = records[i]._replace(**changes)
        doc["tables"], doc["records"] = stimkb.snapshot._record_columns(records)
        return json.dumps(doc)

    return edit_doc


NAN = float("nan")
# Record 1 of the paper workspace is IAPS/8163, with dimensions on [1, 9].
DIMENSIONS_8163 = DimensionAnnotation(1.0, 9.0, valence=7.14, arousal=6.53)

# (case, record-1 change, error text): records that parse but fail
# validation, behind a stale seal or none.
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
    doc = _snapshot_doc(paper_workspace, tmp_path)
    seal = doc.pop("seal")
    text = _record(1, **changes)(doc, list(paper_workspace.corpus))
    snap = tmp_path / "snap.json"
    # The tampered document behind the good file's seal, then without it.
    snap.write_bytes(SEAL_HEAD + seal.encode() + b'",' + text.encode()[1:])
    outcomes = []
    for strip in (False, True):
        if strip:
            _strip_seal(snap)
        rc = main(["stats", "--snapshot", str(snap)])
        outcomes.append((rc, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == (
        3, f"error: bad snapshot {snap}: records[1]: record IAPS/8163: "
        f"{message}\n")


def test_snapshot_sealed_under_older_rules_is_validated(
    tmp_path, paper_workspace, capsys
):
    doc = _snapshot_doc(paper_workspace, tmp_path)
    del doc["seal"]
    bad = StimulusRecord("X", "1", dimensions=DimensionAnnotation(
        1.0, 9.0, valence=5.0, arousalSD=NAN))
    records = list(paper_workspace.corpus)
    records[1] = bad
    doc["tables"], doc["records"] = stimkb.snapshot._record_columns(records)
    text = json.dumps(doc, indent=1) + "\n"
    snap = tmp_path / "stale.json"
    snap.write_bytes(seal_text(text, VALIDATION_RULES - 1))
    assert main(["stats", "--snapshot", str(snap)]) == 3
    assert capsys.readouterr().err == (
        f"error: bad snapshot {snap}: records[1]: record X/1: "
        "arousalSD=nan is not a number\n"
    )
    # Only the seal skips the check: anyone can seal bad records under the
    # current rules, so the seal is no security boundary.
    snap.write_bytes(seal_text(text))
    assert "X/1" in load_snapshot(snap).corpus.records


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


def _packed_edit(key, edit):
    """An edit of the values of packed column `key`: decoded, changed in
    place by edit(values), and packed again.  A negative value is packed
    as its two's complement in the column's item width, as a writer of
    signed items would leave it."""
    def edit_columns(tables, columns):
        values = list(stimkb.snapshot._unpacked(key, columns[key]))
        edit(values)
        wrap = 1 << 8 * array(columns[key][0]).itemsize
        columns[key] = stimkb.snapshot._packed([v % wrap for v in values])

    return _columns(edit_columns)


def _set(key, i, value):
    """An edit of one item of a record column."""
    if key in PACKED_COLUMNS:
        return _packed_edit(key, lambda values: values.__setitem__(i, value))
    return _columns(lambda tables, columns: columns[key].__setitem__(i, value))


def _packed_text(code, values):
    """The packed column of `values` under `code`, whatever the code."""
    return [code, b64encode(array(code, values).tobytes()).decode()]


# (case, edit, error text, whether a matching seal still fails the load).
# A failed check of the structure fails every load, sealed or not; a
# record that only fails validation loads when its seal matches.
BAD_SNAPSHOTS = [
    ("version only", _doc(lambda doc: json.dumps({"version": SNAPSHOT_VERSION})),
     "missing key 'seed'", True),
    ("no vocabularies", _doc(lambda doc: json.dumps(
        {k: v for k, v in doc.items() if k != "vocabularies"})),
     "missing key 'vocabularies'", True),
    ("not JSON", _doc(lambda doc: "not json {"), "not JSON", True),
    ("truncated", _doc(lambda doc: json.dumps(doc)[:200]), "not JSON", True),
    ("top level list", _doc(lambda doc: "[1, 2]"), "not a JSON object", True),
    ("version 1", _doc(lambda doc: json.dumps({**doc, "version": 1})),
     "unsupported snapshot version 1; re-ingest", True),
    ("version 2", _doc(lambda doc: json.dumps({**doc, "version": 2})),
     "unsupported snapshot version 2; re-ingest", True),
    ("unknown version", _doc(lambda doc: json.dumps(
        {**doc, "version": SNAPSHOT_VERSION + 1})),
     f"unsupported snapshot version {SNAPSHOT_VERSION + 1}; re-ingest", True),
    ("records not an object", _doc(lambda doc: json.dumps(
        {**doc, "records": ["db=X\tid=1"]})), "'records' has type list", True),
    ("limit not an integer", _doc(lambda doc: json.dumps({**doc, "limit": "9"})),
     "'limit' has type str", True),
    ("limit below 1", _doc(lambda doc: json.dumps({**doc, "limit": 0})),
     "'limit' is 0, not >= 1", True),
    ("missing column", _columns(lambda t, c: c.pop("sem")),
     "missing key 'records.sem'", True),
    ("missing table", _columns(lambda t, c: t.pop("contexts")),
     "missing key 'tables.contexts'", True),
    ("column not a list", _columns(lambda t, c: c.update(id="x")),
     "'records.id' has type str", True),
    ("id not a string", _set("id", 1, 8163), "'records.id' holds an integer",
     True),
    ("boolean typecode", _columns(lambda t, c: c["db"].__setitem__(0, True)),
     "'records.db' is not a [typecode, base64] pair", True),
    ("column of numbers", _columns(lambda t, c: c.update(db=[0, 1, 1, 0])),
     "'records.db' is not a [typecode, base64] pair", True),
    ("column of three", _columns(lambda t, c: c["chan"].append("B")),
     "'records.chan' is not a [typecode, base64] pair", True),
    ("unknown typecode", _columns(lambda t, c: c.update(
        db=_packed_text("d", [0, 1, 1, 0]))),
     "'records.db' has unknown typecode 'd'", True),
    ("not base64", _columns(lambda t, c: c["db"].__setitem__(1, "not base64")),
     "'records.db' is not base64 text", True),
    # a2b_base64 alone would skip the '!' and read [0, 1, 1, 0].
    ("stray character in base64", _columns(
        lambda t, c: c["db"].__setitem__(1, "AAE!BAA==")),
     "'records.db' is not base64 text", True),
    ("partial item", _columns(lambda t, c: c.update(
        sem=["H", b64encode(b"\0\0\1").decode()])),
     "'records.sem' has 3 bytes, not whole 2-byte items", True),
    ("number as an index", _set("ctx", 0, 0.0), "'records.ctx' holds a number",
     True),
    ("column too short", _packed_edit("db", list.pop),
     "'records.db' has 3 items, not 4", True),
    ("flat column too long", _packed_edit("sem", lambda v: v.append(0)),
     "'records.sem_n' sums to 19, not to the 20 items of 'records.sem'", True),
    ("count that does not sum", _set("phys_n", 1, 1),
     "'records.phys_n' sums to 1, not to the 2 items of 'records.path'", True),
    # Counts are unsigned: a negative one needs a signed typecode.
    ("negative count under a signed typecode", _columns(lambda t, c: c.update(
        sem_n=_packed_text("b", [-1, 8, 4, 8]))),
     "'records.sem_n' has unknown typecode 'b'", True),
    ("negative db index", _set("db", 0, -1),
     "'records.db' holds an index outside [0, 2)", True),
    ("8-byte db index", _columns(lambda t, c: c.update(
        db=stimkb.snapshot._packed([1 << 40, 1, 1, 0]))),
     "'records.db' holds an index outside [0, 2)", True),
    ("context index past the table", _set("ctx", 0, 3),
     "'records.ctx' holds an index outside [0, 3)", True),
    ("negative annotation index", _set("sem", 0, -1),
     "'records.sem' holds an index outside [0, 18)", True),
    ("semantics index at a category row", _set("sem", 0, 18),
     "'records.sem' holds an index outside [0, 18)", True),
    ("category index at a semantics row", _set("cat", 0, 0),
     "'records.cat' holds an index outside [18, 19)", True),
    ("negative channel index", _set("chan", 0, -2),
     "'records.chan' holds an index outside [0, 2)", True),
    ("empty id", _set("id", 1, ""), "records[1]: empty id", True),
    ("empty db name", _columns(lambda t, c: t["dbs"].__setitem__(0, "")),
     "'tables.dbs' holds an empty name", True),
    ("stray tag", _columns(lambda t, c: t["annotations"][0].__setitem__(
        0, "bogus")), "a stray row tagged 'bogus'", True),
    ("tag rows not together", _columns(lambda t, c: t["annotations"].append(
        t["annotations"][0])), "a stray row tagged 'sem'", True),
    ("empty annotation row", _columns(lambda t, c: t["annotations"].append([])),
     "'tables.annotations' holds an empty row", True),
    ("annotation row too short", _columns(lambda t, c: t["annotations"][0].pop()),
     "tag 'sem' has a row without 3 fields", True),
    ("concept and keyword", _columns(lambda t, c: t["annotations"][0].__setitem__(
        3, "crowd")), "tag 'sem' needs exactly one of concept and keyword",
     True),
    ("no concept nor keyword", _columns(
        lambda t, c: t["annotations"][0].__setitem__(2, None)),
     "tag 'sem' needs exactly one of concept and keyword", True),
    ("empty concept", _columns(lambda t, c: t["annotations"][0].__setitem__(
        2, "")), "tag 'sem' has an empty concept or keyword", True),
    ("empty category term", _columns(
        lambda t, c: t["annotations"][18].__setitem__(2, "")),
     "tag 'cat' has an empty vocabulary or term", True),
    ("context row too long", _columns(lambda t, c: t["contexts"][0].append(None)),
     "'tables.contexts' has a row without 15 fields", True),
    ("fractional context width", _columns(
        lambda t, c: t["contexts"][0].__setitem__(1, 1.5)),
     "'tables.contexts' field 1 holds a number", True),
    ("dimensions without a scale", _set("dim", 1, [1.0]),
     "'records.dim' holds a vector of 1 or 4 fields, not 2 to 13", True),
    ("empty dimension vector", _set("dim", 1, []),
     "'records.dim' holds a vector of 0 or 4 fields, not 2 to 13", True),
    ("null scale", _set("dim", 1, [None, 9.0, 7.14]),
     "'records.dim' field 0 holds a null", True),
    ("dimension as text", _set("dim", 1, [1.0, 9.0, "7.14"]),
     "'records.dim' field 2 holds a string", True),
    ("tab in an id", _set("id", 1, "81\t63"),
     "'records.id' holds a tab or a line break", True),
    ("tab in a db name", _columns(lambda t, c: t["dbs"].__setitem__(0, "IA\tDS")),
     "'tables.dbs' holds a tab or a line break", True),
    ("line break in a keyword", _columns(
        lambda t, c: t["annotations"][6].__setitem__(3, "Winter\nStreet")),
     "tag 'sem' field 2 holds a tab or a line break", True),
    ("tab in a category term", _columns(
        lambda t, c: t["annotations"][18].__setitem__(2, "happi\tness")),
     "tag 'cat' field 1 holds a tab or a line break", True),
    ("line break in a context field", _columns(
        lambda t, c: t["contexts"][0].__setitem__(0, "w\rav")),
     "'tables.contexts' field 0 holds a tab or a line break", True),
    ("tab in a dimension level", _set("dim", 1, [1.0, 9.0] + [None] * (
        DimensionAnnotation._fields.index("confidence_level") - 2) + ["a\tb"]),
     f"'records.dim' field {DimensionAnnotation._fields.index('confidence_level')}"
     " holds a tab or a line break", True),
    ("space in a physiology path", _set("path", 0, "http://x/s1 hr"),
     "'records.path' holds a space or a ';'", True),
    ("';' in a physiology path", _set("path", 1, "http://x/s1;hr"),
     "'records.path' holds a space or a ';'", True),
    ("tab in a physiology path", _set("path", 1, "http://x/s1\thr"),
     "'records.path' holds a tab or a line break", True),
    ("empty channel", _columns(lambda t, c: t["channels"].__setitem__(0, "")),
     "'tables.channels' holds an empty name or a ';'", True),
    ("';' in a channel", _columns(lambda t, c: t["channels"].__setitem__(1, "S;R")),
     "'tables.channels' holds an empty name or a ';'", True),
    ("duplicate record", _set("id", 3, "5635"),
     "records[3]: duplicate stimulus key IAPS/5635", True),
    ("bad taxonomy", _doc(lambda doc: json.dumps(
        {**doc, "taxonomy": "A\tB\nB\tA\n"})), "taxonomy is cyclic", True),
    ("invalid record", _record(1, semantics=(
        SemanticsAnnotation("Object", "NoSuch"),)),
     "records[1]: record IAPS/8163: unknown concept 'NoSuch'", False),
    ("no component", _record(1, semantics=(), categories=(), dimensions=None,
                             context=None, physiology=()),
     "records[1]: record IAPS/8163: four-component axiom violated", False),
    ("NaN dimension SD", _record(
        1, dimensions=DIMENSIONS_8163._replace(arousalSD=NAN)),
     "records[1]: record IAPS/8163: arousalSD=nan is not a number", False),
    ("NaN context length", _record(1, context=ContextRecord(length_seconds=NAN)),
     "records[1]: record IAPS/8163: context length_seconds=nan is not a number",
     False),
    ("negative context length", _record(
        1, context=ContextRecord(length_seconds=-1.0)),
     "records[1]: record IAPS/8163: context length_seconds=-1.0 is negative",
     False),
]


@pytest.mark.parametrize(
    "edit, message, structural", [c[1:] for c in BAD_SNAPSHOTS],
    ids=[c[0] for c in BAD_SNAPSHOTS],
)
def test_bad_snapshot_exits_3_naming_file(
    edit, message, structural, tmp_path, paper_workspace, capsys
):
    doc = _snapshot_doc(paper_workspace, tmp_path)
    seal_line = (tmp_path / "good.json").read_bytes()[:SEAL_END + 2]
    text = edit({k: v for k, v in doc.items() if k != "seal"},
                list(paper_workspace.corpus))
    bad = tmp_path / "bad.json"
    # The edited document, then the same one behind the good file's seal,
    # then sealed as save_snapshot seals.
    variants = [(text.encode(), True)]
    if text.startswith("{"):
        variants += [(seal_line + text.encode()[1:], True),
                     (seal_text(text), structural)]
    for data, fails in variants:
        bad.write_bytes(data)
        rc = main(["stats", "--snapshot", str(bad)])
        err = capsys.readouterr().err
        if not fails:
            assert (rc, err) == (0, "")
            continue
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
    # Records are validated in order up to the first repeated key, so the
    # first bad record is reported, as a record-by-record load would.
    doc = _snapshot_doc(paper_workspace, tmp_path)
    del doc["seal"]
    text = _record(3, id="5635", semantics=(
        SemanticsAnnotation("Object", "NoSuch"),))(doc, list(paper_workspace.corpus))
    snap = tmp_path / "snap.json"
    for data, message in (
        (text.encode(), "records[3]: record IAPS/5635: unknown concept 'NoSuch'"),
        (seal_text(text), "records[3]: duplicate stimulus key IAPS/5635"),
    ):
        snap.write_bytes(data)
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(snap)
        assert str(exc.value) == f"bad snapshot {snap}: {message}"


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
def test_ingest_validates_each_record_once(which, tmp_path, monkeypatch):
    manifest = PAPER_MANIFEST if which == "paper" else _synthetic_manifest(tmp_path)
    validated = _count_validations(monkeypatch)
    ws = build_workspace(parse_manifest(manifest))
    assert sorted(validated) == sorted(r.key for r in ws.corpus)
    assert len(validated) == len(set(validated))


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
    assert (loaded.unmapped_keywords, loaded.seed, loaded.limit) == (
        built.unmapped_keywords, built.seed, built.limit)


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
    # ranked concept query included; a concept filter and stats build one.
    snap = tmp_path / "snap.json"
    for argv, builds in (
        (["stats"], 1),
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
    return _set("db", 0, -1)({k: v for k, v in doc.items() if k != "seal"}, [])


@pytest.mark.parametrize("enabled", [True, False])
def test_load_restores_the_collector_state(enabled, tmp_path, paper_workspace):
    # The collector is paused from before the document is parsed, so every
    # way out of a load, early or late, must restore it.
    doc = _snapshot_doc(paper_workspace, tmp_path)
    good = tmp_path / "good.json"
    unsealed = {k: v for k, v in doc.items() if k != "seal"}
    bad_texts = {
        "not JSON": "not json {",
        "bad taxonomy": json.dumps({**unsealed, "taxonomy": "A\tB\nB\tA\n"}),
        "bad column": _unloadable(doc),
        "invalid record": _record(1, semantics=(
            SemanticsAnnotation("Object", "NoSuch"),))(
                unsealed, list(paper_workspace.corpus)),
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
    # Fixed texts: a packed item's byte order is the format's, not the
    # host's, and each column takes the narrowest typecode that holds it.
    packed = stimkb.snapshot._packed
    assert packed([1, 258]) == ["H", "AQACAQ=="]
    assert packed([1 << 16, 7]) == ["I", "AAABAAcAAAA="]
    assert packed([0, 255]) == ["B", "AP8="]
    assert packed([]) == ["B", ""]
    unpacked = stimkb.snapshot._unpacked
    assert list(unpacked("'x'", ["H", "AQACAQ=="])) == [1, 258]
    assert list(unpacked("'x'", ["Q", "AQAAAAAAAAA="])) == [1]


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
            loaded.corpus, loaded.graph, loaded.mapping, loaded.closure,
        )]
        del loaded
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if was_enabled:
            gc.enable()
