import gc
import json
import shutil
import weakref
from dataclasses import replace

import pytest

import stimkb.corpus
import stimkb.snapshot
from stimkb.affect import (
    CategoryAnnotation,
    build_equivalence_closure,
    load_vocabularies,
)
from stimkb.cli import main
from stimkb.corpus import serialize_records
from stimkb.errors import ParseError, SnapshotError, StimKbError, ValidationError
from stimkb.snapshot import (
    Workspace,
    build_workspace,
    load_snapshot,
    parse_manifest,
    save_snapshot,
)
from stimkb.synthetic import generate

from conftest import PAPER_MANIFEST, empty_plan_table, many_layout_lines


def test_snapshot_round_trip(tmp_path, paper_workspace):
    snap = tmp_path / "snap.json"
    save_snapshot(paper_workspace, snap)
    loaded = load_snapshot(snap)
    assert loaded.graph.parent_edges == paper_workspace.graph.parent_edges
    assert loaded.vocabs == paper_workspace.vocabs
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


def _synthetic_workspace():
    graph, corpus, _, _ = generate(5, n_concepts=40, n_stimuli=300)
    return Workspace(
        graph=graph,
        mapping=None,
        vocabs=load_vocabularies(""),
        closure=build_equivalence_closure([]),
        corpus=corpus,
        unmapped_keywords=[],
    )


def _count_validations(monkeypatch):
    """Record the key of every validate_stimulus call; each call must
    still check against the graph and the vocabularies."""
    validated = []
    validate = stimkb.corpus.validate_stimulus

    def counting_validate(rec, graph=None, vocabs=None):
        assert graph is not None and vocabs is not None
        validated.append(rec.key)
        return validate(rec, graph, vocabs)

    monkeypatch.setattr(stimkb.corpus, "validate_stimulus", counting_validate)
    return validated


@pytest.mark.parametrize("which", ["paper", "synthetic"])
def test_load_parses_and_validates_each_record_once(
    which, tmp_path, monkeypatch, paper_workspace
):
    ws = paper_workspace if which == "paper" else _synthetic_workspace()
    snap = tmp_path / "snap.json"
    save_snapshot(ws, snap)

    def no_bulk_parser(*args, **kwargs):
        raise AssertionError("load_snapshot must not use parse_corpus_records")

    validated = _count_validations(monkeypatch)
    monkeypatch.setattr(stimkb.snapshot, "parse_corpus_records", no_bulk_parser)
    loaded = load_snapshot(snap)

    assert list(loaded.corpus) == list(ws.corpus)
    assert loaded.corpus.concept_index == ws.corpus.concept_index
    assert sorted(validated) == sorted(r.key for r in ws.corpus)
    assert len(validated) == len(set(validated))


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
    parsed = []
    parse = stimkb.corpus.parse_record_line

    def counting_parse(line, *args, **kwargs):
        parsed.append(line)
        return parse(line, *args, **kwargs)

    monkeypatch.setattr(stimkb.corpus, "parse_record_line", counting_parse)
    loaded = load_snapshot(snap)
    interned = {}
    assert list(loaded.corpus) == [
        stimkb.corpus._parse_record_line(line, interned=interned) for line in lines
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
    bad = tmp_path / "bad.json"
    bad.write_text(edit(_snapshot_doc(paper_workspace, tmp_path)))
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
        replace(rec, categories=(
            CategoryAnnotation("BigSix", terms[i % 3], "High" if i % 2 else None),
        ))
        for i, rec in enumerate(corpus)
    ]
    (tmp_path / "taxonomy.tsv").write_text(graph.serialize())
    (tmp_path / "records.tsv").write_text(
        "# synthetic records\n" + serialize_records(records)
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
    assert loaded.vocabs == built.vocabs
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
    # workspace would leak it.
    snap = tmp_path / "snap.json"
    save_snapshot(paper_workspace, snap)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        loaded = load_snapshot(snap)
        refs = [weakref.ref(obj) for obj in (
            loaded, loaded.corpus, loaded.graph, loaded.mapping, loaded.closure,
        )]
        del loaded
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if was_enabled:
            gc.enable()
