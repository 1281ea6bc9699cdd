import gc
import hashlib
import json
import shutil
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stimkb.corpus
import stimkb.snapshot
from stimkb.affect import (
    CategoryAnnotation,
    EquivalenceClosure,
    load_vocabularies,
)
from stimkb.cli import main
from stimkb.corpus import VALIDATION_RULES, serialize_record
from stimkb.errors import ParseError, SnapshotError, StimKbError, ValidationError
from stimkb.snapshot import (
    Workspace,
    build_workspace,
    load_snapshot,
    parse_manifest,
    save_snapshot,
)
from stimkb.synthetic import generate
from stimkb.taxonomy import parse_taxonomy

from conftest import PAPER_MANIFEST, empty_plan_table, many_layout_lines


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


# The seal line's layout, written out here as a check on the format: a
# sealed snapshot starts with SEAL_HEAD and 64 hex digits.
SEAL_HEAD = b'{\n "seal": "'
SEAL_END = len(SEAL_HEAD) + 64


def _sealed(text, rules=VALIDATION_RULES):
    """The bytes of unsealed snapshot text `text` sealed under validation
    rules version `rules`."""
    rest = b'",' + text.encode()[1:]
    digest = hashlib.blake2b(b"validation rules %d\n" % rules + rest,
                             digest_size=32)
    return SEAL_HEAD + digest.hexdigest().encode() + rest


def _strip_seal(path):
    """Rewrite the sealed snapshot at `path` without its seal line."""
    data = path.read_bytes()
    assert data.startswith(SEAL_HEAD)
    path.write_bytes(b"{" + data[SEAL_END + 2:])


@pytest.mark.parametrize("which", ["paper", "synthetic"])
def test_unsealed_load_parses_and_validates_each_record_once(
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
    assert sorted(validated) == sorted(r.key for r in ws.corpus)
    assert len(validated) == len(set(validated))
    assert parsed == json.loads(snap.read_text())["records"]


@pytest.mark.parametrize("which", ["paper", "synthetic"])
def test_sealed_load_parses_each_record_once_and_validates_none(
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
    assert parsed == json.loads(snap.read_text())["records"]
    assert len(parsed) == len(ws.corpus)


def test_save_seals_the_graph_and_vocabularies_records_were_validated_against(
    tmp_path, monkeypatch, paper_workspace
):
    snap = tmp_path / "snap.json"
    save_snapshot(paper_workspace, snap)
    sealed = snap.read_bytes()
    _strip_seal(snap)
    unsealed = snap.read_bytes()
    assert len(sealed) == len(unsealed) + 77
    assert sealed == _sealed(unsealed.decode())
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


# (case, record text in the paper snapshot, its replacement, error text)
TAMPERED_RECORDS = [
    ("valence off its scale", "dim.valence=7.14", "dim.valence=99",
     "valence=99.0 outside scale [1.0, 9.0]"),
    ("unknown concept", "sem=Object:concept:GroupOfPeople",
     "sem=Object:concept:NoSuch", "unknown concept 'NoSuch'"),
    ("NaN SD", "dim.valence=7.14", "dim.valence=7.14\\tdim.valenceSD=nan",
     "valenceSD=nan is not a number"),
]


@pytest.mark.parametrize(
    "old, new, message", [c[1:] for c in TAMPERED_RECORDS],
    ids=[c[0] for c in TAMPERED_RECORDS],
)
def test_tampered_sealed_snapshot_exits_3_as_unsealed(
    old, new, message, tmp_path, paper_workspace, capsys
):
    snap = tmp_path / "snap.json"
    save_snapshot(paper_workspace, snap)
    data = snap.read_bytes()
    assert data.count(old.encode()) == 1
    snap.write_bytes(data.replace(old.encode(), new.encode()))
    outcomes = []
    for strip in (False, True):
        if strip:
            _strip_seal(snap)
        rc = main(["stats", "--snapshot", str(snap)])
        outcomes.append((rc, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 3
    assert message in outcomes[0][1]


def test_snapshot_sealed_under_older_rules_is_validated(
    tmp_path, paper_workspace, capsys
):
    doc = _snapshot_doc(paper_workspace, tmp_path)
    del doc["seal"]
    doc["records"][1] = "db=X\tid=1\tdim.scale=1:9\tdim.valence=5\tdim.arousalSD=nan"
    text = json.dumps(doc, indent=1) + "\n"
    snap = tmp_path / "stale.json"
    snap.write_bytes(_sealed(text, VALIDATION_RULES - 1))
    assert main(["stats", "--snapshot", str(snap)]) == 3
    assert capsys.readouterr().err == (
        f"error: bad snapshot {snap}: records[1]: record X/1: "
        "arousalSD=nan is not a number\n"
    )
    # Only the seal skips the check: anyone can seal bad records under the
    # current rules, so the seal is no security boundary.
    snap.write_bytes(_sealed(text))
    assert len(load_snapshot(snap).corpus) == 4


def _snapshot_doc(paper_workspace, tmp_path):
    snap = tmp_path / "good.json"
    save_snapshot(paper_workspace, snap)
    return json.loads(snap.read_text())


def _bad_record(line):
    def edit(doc):
        doc["records"][1] = line
        return json.dumps(doc)

    return edit


def test_load_of_more_layouts_than_plans(tmp_path, monkeypatch, paper_workspace):
    """Each record line has its own key layout, more than the plan table
    holds: load_snapshot still calls corpus.parse_record_line once per
    record and gets the general parser's records."""
    empty_plan_table(monkeypatch)
    lines = many_layout_lines(3 * stimkb.corpus._MAX_PLANS)
    snap = tmp_path / "layouts.json"
    snap.write_text(json.dumps({**_snapshot_doc(paper_workspace, tmp_path),
                                "records": lines}))
    parsed = _count_parses(monkeypatch)
    loaded = load_snapshot(snap)
    interned = {}
    assert list(loaded.corpus) == [
        stimkb.corpus._parse_record_line(line, None, interned) for line in lines
    ]
    assert parsed == lines
    assert len(stimkb.corpus._PLAN_LAYOUTS) == stimkb.corpus._MAX_PLANS


# (case, edit of a good snapshot document -> file text, error text)
BAD_SNAPSHOTS = [
    ("version only", lambda doc: '{"version": 1}', "missing key 'seed'"),
    ("no vocabularies", lambda doc: json.dumps(
        {k: v for k, v in doc.items() if k != "vocabularies"}),
     "missing key 'vocabularies'"),
    ("not JSON", lambda doc: "not json {", "not JSON"),
    ("truncated", lambda doc: json.dumps(doc)[:200], "not JSON"),
    ("top level list", lambda doc: "[1, 2]", "not a JSON object"),
    ("unknown version", lambda doc: json.dumps({**doc, "version": 2}),
     "unsupported snapshot version 2"),
    ("records not a list", lambda doc: json.dumps({**doc, "records": "x"}),
     "'records' has type str"),
    ("record not a string", lambda doc: json.dumps({**doc, "records": [7]}),
     "'records' holds a non-string item"),
    ("limit not an integer", lambda doc: json.dumps({**doc, "limit": "9"}),
     "'limit' has type str"),
    ("limit below 1", lambda doc: json.dumps({**doc, "limit": 0}),
     "'limit' is 0, not >= 1"),
    ("malformed record line", _bad_record("db=X\tid=1\tbogus=3"),
     "records[1]: unknown record field 'bogus'"),
    ("empty record line", _bad_record(""),
     "records[1]: record requires db= and id="),
    ("invalid record", _bad_record("db=X\tid=1\tsem=Object:concept:NoSuch"),
     "records[1]: record X/1: unknown concept 'NoSuch'"),
    ("repeated record field", _bad_record("db=A\tid=1\tdb=B\tctx=1"),
     "records[1]: repeated record field 'db'"),
    ("NaN dimension SD", _bad_record(
        "db=X\tid=1\tdim.scale=1:9\tdim.valence=5\tdim.arousalSD=nan"),
     "records[1]: record X/1: arousalSD=nan is not a number"),
    ("NaN context length", _bad_record("db=X\tid=1\tctx.lengthSeconds=nan"),
     "records[1]: record X/1: context length_seconds=nan is not a number"),
    ("negative context length", _bad_record("db=X\tid=1\tctx.lengthSeconds=-1"),
     "records[1]: record X/1: context length_seconds=-1.0 is negative"),
    ("duplicate record", lambda doc: json.dumps(
        {**doc, "records": doc["records"] + doc["records"][:1]}),
     "records[4]: duplicate stimulus key"),
    ("bad taxonomy", lambda doc: json.dumps({**doc, "taxonomy": "A\tB\nB\tA\n"}),
     "taxonomy is cyclic"),
]


@pytest.mark.parametrize(
    "edit, message", [c[1:] for c in BAD_SNAPSHOTS], ids=[c[0] for c in BAD_SNAPSHOTS]
)
def test_bad_snapshot_exits_3_naming_file(
    edit, message, tmp_path, paper_workspace, capsys
):
    doc = _snapshot_doc(paper_workspace, tmp_path)
    seal_line = (tmp_path / "good.json").read_bytes()[:SEAL_END + 2]
    text = edit({k: v for k, v in doc.items() if k != "seal"})
    bad = tmp_path / "bad.json"
    # The edited document, then the same one behind the good file's seal.
    variants = [text.encode()]
    if text.startswith("{"):
        variants.append(seal_line + text.encode()[1:])
    for data in variants:
        bad.write_bytes(data)
        with pytest.raises(SnapshotError) as exc:
            load_snapshot(bad)
        assert str(exc.value).startswith(f"bad snapshot {bad}: ")
        assert message in str(exc.value)

        rc = main(["stats", "--snapshot", str(bad)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith(f"error: bad snapshot {bad}: ")
        assert message in err


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
        f"record IAPS/666 (line {len(lines)}): unknown concept 'NoSuch'"
    )
    with pytest.raises(ValidationError) as direct:
        stimkb.corpus.parse_corpus_records(
            records.read_text(), paper_graph, load_vocabularies("")
        )
    assert str(direct.value) == str(exc.value)


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


def test_loaded_records_share_one_context_per_load(tmp_path, paper_workspace):
    lines = [f"db=X\tid={i}\tctx.mediaFormat={'wav' if i % 2 else 'jpg'}"
             for i in range(6)]
    snap = tmp_path / "contexts.json"
    snap.write_text(json.dumps({**_snapshot_doc(paper_workspace, tmp_path),
                                "records": lines}))
    loads = [[r.context for r in load_snapshot(snap).corpus] for _ in range(2)]
    for contexts in loads:
        assert len({id(c) for c in contexts}) == 2
        assert all(c is contexts[i % 2] for i, c in enumerate(contexts))
    assert all(a == b and a is not b for a, b in zip(*loads))


@pytest.mark.parametrize("enabled", [True, False])
def test_load_restores_the_collector_state(enabled, tmp_path, paper_workspace):
    doc = _snapshot_doc(paper_workspace, tmp_path)
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    bad.write_text(_bad_record("db=X\tid=1\tbogus=3")(doc))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        load_snapshot(good)
        assert gc.isenabled() is enabled
        with pytest.raises(SnapshotError):
            load_snapshot(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_good_load_freezes_the_workspace(enabled, tmp_path):
    ws = _synthetic_workspace()
    good = tmp_path / "good.json"
    save_snapshot(ws, good)
    doc = json.loads(good.read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(_bad_record("db=X\tid=1\tbogus=3")(doc))
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
