import string
import threading

import pytest
from hypothesis import given, settings, strategies as st

import stimkb.corpus
from stimkb.affect import (
    DIMENSION_NAMES,
    DIMENSION_SD_NAMES,
    ActionTendencyAnnotation,
    AppraisalAnnotation,
    CategoryAnnotation,
    SentimentAnnotation,
    Vocabulary,
    load_vocabularies,
)
from stimkb.corpus import (
    SEMANTIC_KINDS,
    ContextRecord,
    Corpus,
    DimensionAnnotation,
    PhysiologyRef,
    SemanticsAnnotation,
    StimulusRecord,
    expand_keywords,
    parse_corpus_records,
    parse_legacy_table,
    parse_record_line,
    validate_stimulus,
)
from stimkb.errors import ParseError, ValidationError
from stimkb.evaluation import (
    ConfusionMatrix,
    ExperimentConfig,
    ExperimentQuery,
    ExperimentReport,
    MetricRecord,
)
from stimkb.retrieval import Query, RankedResult
from stimkb.sequence import SequenceItem, StimulusSequence, SyncEvent
from stimkb.snapshot import Manifest, Workspace
from stimkb.taxonomy import parse_mapping

from conftest import many_layout_lines, oracle_concept_index, serialize_record

BIG_SIX = load_vocabularies("")


def _record(ws, key):
    """The record of `ws` keyed `key`."""
    return dict(zip(ws.corpus.keys, ws.corpus))[key]


def test_parse_iads_311(paper_workspace):
    rec = _record(paper_workspace, "IADS/311")
    assert rec.context.length_seconds == 6
    assert rec.concepts() == ["GroupOfPeople"]


def test_parse_iaps_8163(paper_workspace):
    rec = _record(paper_workspace, "IAPS/8163")
    assert len(rec.semantics) == 6
    assert rec.dimensions.valence == 7.14
    assert rec.dimensions.arousal == 6.53
    assert (rec.dimensions.scale_min, rec.dimensions.scale_max) == (1, 9)
    assert len(rec.physiology) == 2
    assert [p.channel for p in rec.physiology] == ["HR", "SR"]
    assert validate_stimulus(
        rec, paper_workspace.graph, paper_workspace.corpus.vocabs
    ) == []


def test_empty_record_violates_four_component_axiom(paper_graph):
    rec = StimulusRecord(db="IAPS", id="1")
    problems = validate_stimulus(rec, paper_graph, BIG_SIX)
    assert any("four-component" in p for p in problems)


def test_physiology_only_record_is_ok(paper_graph):
    rec = StimulusRecord(
        db="IAPS", id="1", physiology=(PhysiologyRef("http://x/hr"),)
    )
    assert validate_stimulus(rec, paper_graph, BIG_SIX) == []


def test_out_of_scale_dimension_rejected(paper_graph):
    rec = StimulusRecord(
        db="IAPS",
        id="1",
        dimensions=DimensionAnnotation(scale_min=1, scale_max=9, valence=12),
    )
    assert any("outside scale" in p
               for p in validate_stimulus(rec, paper_graph, BIG_SIX))


def test_unknown_concept_rejected(paper_graph):
    rec = StimulusRecord(
        db="IAPS",
        id="1",
        semantics=(SemanticsAnnotation(kind="Object", concept="NoSuch"),),
    )
    assert any("unknown concept" in p
               for p in validate_stimulus(rec, paper_graph, BIG_SIX))


def test_empty_concept_or_keyword_is_absent(paper_graph):
    # As a load reads the `sem` section, where an empty item is null.
    def problems(*semantics):
        rec = StimulusRecord(db="IAPS", id="1", semantics=semantics)
        return validate_stimulus(rec, paper_graph, BIG_SIX)

    missing = ["semantics annotation needs a concept or a keyword"]
    assert problems(SemanticsAnnotation("Object", keyword="")) == missing
    assert problems(SemanticsAnnotation("Object", "", "")) == missing
    assert problems(SemanticsAnnotation("Object", "", "crowd")) == []


def test_tendency_and_sentiment_confidence_rejected(paper_graph):
    rec = StimulusRecord(
        db="IAPS", id="1",
        action_tendencies=(
            ActionTendencyAnnotation("approach", "Bogus", 7.0),),
        sentiments=(SentimentAnnotation(0.5, "Nope", -3.0),),
    )
    levels = "('VeryHigh', 'High', 'Average', 'Low', 'VeryLow')"
    assert validate_stimulus(rec, paper_graph, BIG_SIX) == [
        f"confidenceLevel 'Bogus' not one of {levels}",
        "confidenceValue 7.0 outside [0, 1]",
        f"confidenceLevel 'Nope' not one of {levels}",
        "confidenceValue -3.0 outside [0, 1]",
    ]


def test_parse_corpus_rejects_invalid(paper_graph):
    with pytest.raises(ValidationError, match="IAPS/9"):
        parse_corpus_records("db=IAPS\tid=9\tsem=Object:concept:NoSuch",
                             paper_graph, BIG_SIX)


def test_parse_legacy_table():
    text = (
        "id\tdb\tkeyword\tvalence\tvalenceSD\tarousal\tarousalSD\t"
        "dominance\tdominanceSD\n"
        "5635\tIAPS\tWinterStreet\t6.25\tNA\t3.97\tNA\tNA\tNA\n"
        "7039\tIAPS\tTrain\t5.93\tNA\t3.29\tNA\tNA\tNA\n"
    )
    rows = parse_legacy_table(text)
    assert [lineno for lineno, _ in rows] == [2, 3]
    recs = [rec for _, rec in rows]
    assert [r.key for r in recs] == ["IAPS/5635", "IAPS/7039"]
    r = recs[0]
    assert r.semantics[0].keyword == "WinterStreet"
    assert r.semantics[0].kind == "Object"
    assert r.dimensions.valence == 6.25
    assert r.dimensions.arousal == 3.97
    assert (r.dimensions.scale_min, r.dimensions.scale_max) == (1.0, 9.0)
    assert r.db == "IAPS"
    assert r.context == ContextRecord()
    assert recs[1].dimensions.valence == 5.93
    assert recs[1].dimensions.arousal == 3.29


def test_parse_legacy_empty_and_errors():
    assert parse_legacy_table("") == []
    header = "\t".join(
        ["id", "db", "keyword", "valence", "valenceSD", "arousal",
         "arousalSD", "dominance", "dominanceSD"]
    )
    with pytest.raises(ParseError, match="non-numeric"):
        parse_legacy_table(header + "\n1\tIAPS\tx\tbad\tNA\t3\tNA\tNA\tNA\n")
    with pytest.raises(ParseError, match="columns"):
        parse_legacy_table(header + "\n1\tIAPS\tx\n")
    with pytest.raises(ParseError, match="header"):
        parse_legacy_table("wrong\theader\n")
    # The records file's `sem=Object:keyword:` is a parse error too.
    with pytest.raises(ParseError, match="^line 2: empty keyword$"):
        parse_legacy_table(header + "\n1\tIAPS\t\t5\tNA\t3\tNA\tNA\tNA\n")


def test_parse_legacy_counts_every_line_and_skips_indented_comments():
    header = "\t".join(
        ["id", "db", "keyword", "valence", "valenceSD", "arousal",
         "arousalSD", "dominance", "dominanceSD"]
    )
    row = "1\tIAPS\tx\t5\tNA\t3\tNA\tNA\t"  # empty last column: missing
    with pytest.raises(ParseError, match="^line 4: non-numeric valence"):
        parse_legacy_table(f"{header}\n# note\n\n1\tIAPS\tx\tbad\tNA\t3\tNA\tNA\tNA\n")
    with pytest.raises(ParseError, match="^line 3: legacy header"):
        parse_legacy_table("# note\n\nwrong\theader\n")
    [(lineno, rec)] = parse_legacy_table(
        f"  # note\n{header}\n\t# indented note\n{row}\n")
    assert (lineno, rec.key) == (4, "IAPS/1")
    assert rec.dimensions.dominanceSD is None


def test_expand_keywords_winterstreet(paper_graph):
    mapping = parse_mapping(
        "\n".join(
            f"WinterStreet\t{c}"
            for c in ["WinterSeason", "Snow", "Street", "City", "Automobile",
                      "Covering"]
        ),
        paper_graph,
    )
    rec = StimulusRecord(
        db="IAPS",
        id="5635",
        semantics=(SemanticsAnnotation(kind="Object", keyword="WinterStreet"),),
    )
    out, unmapped = expand_keywords([rec], mapping)
    assert unmapped == []
    assert len(out[0].semantics) == 7
    assert len(out[0].concepts()) == 6


def test_expand_keywords_unmapped_warns():
    mapping = parse_mapping("", _tiny_graph())
    rec = StimulusRecord(
        db="X",
        id="1",
        semantics=(SemanticsAnnotation(kind="Object", keyword="mystery"),),
    )
    out, unmapped = expand_keywords([rec], mapping)
    assert out[0] == rec
    assert unmapped == ["mystery"]


def test_expand_keywords_idempotent(paper_workspace):
    records = list(paper_workspace.corpus)
    out, _ = expand_keywords(records, paper_workspace.mapping)
    assert out == records


def _tiny_graph():
    from stimkb.taxonomy import parse_taxonomy

    return parse_taxonomy("A\tB")


def test_corpus_round_trip(paper_workspace):
    records = list(paper_workspace.corpus)
    lines = [serialize_record(r) for r in records]
    reparsed = parse_corpus_records(
        "".join(line + "\n" for line in lines),
        paper_workspace.graph,
        paper_workspace.corpus.vocabs,
    )
    assert reparsed == records
    assert [serialize_record(r) for r in reparsed] == lines


def test_corpus_indices(paper_workspace):
    corpus = paper_workspace.corpus
    assert corpus.concept_index["GroupOfPeople"] == {"IADS/311"}
    assert "NoSuch" not in corpus.concept_index


def test_index_consistency_full_rebuild(paper_workspace):
    corpus = paper_workspace.corpus
    assert oracle_concept_index(corpus) == corpus.concept_index


def test_add_stimulus_drops_the_concept_index_it_outdates(paper_workspace):
    records = list(paper_workspace.corpus)
    corpus = Corpus(paper_workspace.graph, paper_workspace.corpus.vocabs)
    for rec in records[:2]:
        corpus.add_stimulus(rec)
    first = corpus.concept_index
    assert first == oracle_concept_index(corpus)
    assert corpus.concept_index is first  # built once, then kept
    corpus.add_stimulus(records[2])
    assert corpus.concept_index == oracle_concept_index(corpus) != first


def test_add_get_round_trip_and_duplicates():
    corpus = Corpus(_tiny_graph(), BIG_SIX)
    rec = StimulusRecord(
        db="X", id="1", physiology=(PhysiologyRef("http://p"),)
    )
    corpus.add_stimulus(rec)
    assert list(corpus) == [rec]
    with pytest.raises(ValidationError, match="duplicate"):
        corpus.add_stimulus(rec)
    assert list(corpus) == [rec] and corpus.keys == ["X/1"]


def test_fields_are_appended_to_and_zipped_into_records(paper_workspace):
    records = list(paper_workspace.corpus)
    corpus = Corpus(paper_workspace.graph, paper_workspace.corpus.vocabs)
    for rec in records[:2]:
        corpus.add_stimulus(rec)
    assert corpus.semantics == [r.semantics for r in records[:2]]
    assert list(corpus) == records[:2]
    corpus.add_stimulus(records[2])
    assert list(corpus) == records[:3]
    assert corpus.keys == [r.key for r in records[:3]]
    assert corpus.positions == {r.key: i for i, r in enumerate(records[:3])}
    assert corpus.physiology == [r.physiology for r in records[:3]]


def test_a_field_read_by_two_threads_at_once_is_one_list():
    # Without a lock in the property (Python 3.12 on), both threads may
    # run the builder; the first list kept is the one both get.  With a
    # lock, one builds while the other waits, and the barrier times out.
    corpus = Corpus(_tiny_graph(), BIG_SIX)
    barrier = threading.Barrier(2, timeout=0.5)
    builds = []

    def build():
        builds.append(len(builds))
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass
        return [(), ()]

    corpus.index_all(["X/1", "X/2"], {"semantics": build})
    got = []
    threads = [threading.Thread(target=lambda: got.append(corpus.semantics))
               for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(got) == 2 and got[0] is got[1] is corpus.semantics
    assert got[0] == [(), ()] and builds in ([0], [0, 1])
    assert corpus._builders == {}  # the builder, and what it held, dropped


def test_add_rejects_invalid():
    corpus = Corpus(_tiny_graph(), BIG_SIX)
    with pytest.raises(ValidationError, match="four-component"):
        corpus.add_stimulus(StimulusRecord(db="X", id="1"))


def test_duplicate_physiology_paths_allowed():
    rec = StimulusRecord(
        db="X",
        id="1",
        physiology=(PhysiologyRef("http://p"), PhysiologyRef("http://p")),
    )
    assert validate_stimulus(rec, _tiny_graph(), BIG_SIX) == []


_OK = "db=X\tid=1\t"


@pytest.mark.parametrize(
    "line, message",
    [
        (_OK + "noequals", "expected `key=value`, got 'noequals'"),
        (_OK + "foo=1", "unknown record field 'foo'"),
        (_OK + "dim.foo=1", "unknown dimension field 'foo'"),
        (_OK + "ctx.foo=1", "unknown context field 'foo'"),
        ("id=1\tsem=Object:concept:A", "record requires db= and id="),
        ("db=X\tid=\tctx=1", "record requires db= and id="),
        ("", "record requires db= and id="),
        (_OK + "sem=Object:A",
         "expected `Kind:concept:Name` or `Kind:keyword:text`, got 'Object:A'"),
        (_OK + "sem=Object:label:A",
         "expected `Kind:concept:Name` or `Kind:keyword:text`, "
         "got 'Object:label:A'"),
        (_OK + "sem=Object:concept:", "empty semantics payload"),
        (_OK + "cat=BigSix", "expected `Vocab.term`, got 'BigSix'"),
        (_OK + "cat=BigSix.fear@level", "malformed confidence part 'level'"),
        (_OK + "cat=BigSix.fear@", "malformed confidence part ''"),
        (_OK + "cat=BigSix.fear@mood=x", "unknown confidence key 'mood'"),
        (_OK + "cat=BigSix.fear@value=high",
         "non-numeric confidence value: 'high'"),
        (_OK + "appraisal=pleasantness",
         "expected `name:value`, got 'pleasantness'"),
        (_OK + "appraisal=p:0.5;q:x", "non-numeric appraisal: 'x'"),
        (_OK + "tendency=approach@value=x", "non-numeric confidence value: 'x'"),
        (_OK + "sentiment=pos@level=High", "non-numeric sentiment: 'pos'"),
        (_OK + "dim.scale=1-9", "expected `min:max`, got '1-9'"),
        (_OK + "dim.scale=a:9", "non-numeric scale min: 'a'"),
        (_OK + "dim.scale=1:b", "non-numeric scale max: 'b'"),
        (_OK + "dim.valence=7", "dimension values require dim.scale=min:max"),
        (_OK + "dim.scale=1:9\tdim.valence=high",
         "non-numeric dimension valence: 'high'"),
        (_OK + "dim.scale=1:9\tdim.arousalSD=?",
         "non-numeric dimension arousalSD: '?'"),
        (_OK + "dim.scale=1:9\tdim.value=x",
         "non-numeric dimension confidence: 'x'"),
        (_OK + "ctx.widthPx=1.5", "non-numeric widthPx: '1.5'"),
        (_OK + "ctx.lengthSeconds=long", "non-numeric lengthSeconds: 'long'"),
        # The first malformed token wins.
        (_OK + "foo=1\tnoequals", "unknown record field 'foo'"),
        # A single-valued field appears at most once.
        ("db=A\tid=1\tdb=B\tctx=1", "repeated record field 'db'"),
        (_OK + "dim.scale=1:9\tdim.valence=3\tdim.valence=7",
         "repeated record field 'dim.valence'"),
        (_OK + "ctx.author=a\tctx.lengthSeconds=x\tctx.author=a",
         "non-numeric lengthSeconds: 'x'"),
        (_OK + "ctx.author=a\tctx.author=b", "repeated record field 'ctx.author'"),
    ],
)
def test_malformed_record_line_error_text(line, message):
    with pytest.raises(ParseError) as exc:
        parse_record_line(line, 3, {})
    assert str(exc.value) == f"line 3: {message}"
    assert exc.value.line == 3
    with pytest.raises(ParseError) as exc:
        parse_record_line(line, None, {})
    assert str(exc.value) == message


def test_interned_annotations_are_shared_per_field_and_value():
    interned = {}
    # The same text is both a valid `sem=` and a valid `cat=` value.
    line = "db=X\tid={}\tsem=K:concept:A.b\tcat=K:concept:A.b"
    first = parse_record_line(line.format(1), 1, interned)
    second = parse_record_line(line.format(2), 2, interned)
    assert first.semantics == (SemanticsAnnotation("K", concept="A.b"),)
    assert first.categories == (CategoryAnnotation("K:concept:A", "b"),)
    assert second.semantics[0] is first.semantics[0]
    assert second.categories[0] is first.categories[0]
    assert parse_record_line(line.format(2), 2, {}) == second


@pytest.fixture(params=["plans", "general parser"])
def record_parser(request):
    """parse_record_line, either after lines of many key layouts have gone
    through it ("plans": the state that once filled a per-layout plan
    table) or fresh ("general parser").  The parser keeps no state between
    calls but the `interned` dict it is given, so both must agree."""
    if request.param == "plans":
        interned = {}
        for lineno, line in enumerate(many_layout_lines(48)):
            parse_record_line(line, lineno, interned)
    return parse_record_line


def test_equal_context_tokens_share_one_context_per_load(record_parser):
    lines = [
        "db=X\tid=1\tctx.mediaFormat=wav\tctx.lengthSeconds=6",
        "db=X\tid=2\tctx.lengthSeconds=6\tsem=Object:keyword:a\tctx.mediaFormat=wav",
        "db=Y\tid=1\tctx=1\tctx.mediaFormat=wav\tctx.lengthSeconds=6",
        "db=X\tid=3\tctx=1",
        "db=X\tid=4\tctx=2",
        "db=X\tid=5\tctx.mediaFormat=wav",
    ]
    loads = []
    for _ in range(2):
        interned = {}
        loads.append([record_parser(line, i, interned)
                      for i, line in enumerate(lines)])
    first, second = loads
    assert first[0].context == ContextRecord(media_format="wav",
                                             length_seconds=6.0)
    assert first[1].context is first[0].context
    assert first[2].context is first[0].context
    assert first[3].context == ContextRecord()
    assert first[4].context is first[3].context
    assert first[5].context == ContextRecord(media_format="wav")
    assert [k for k in interned if k[0] == "ctx"] == [
        ("ctx", "ctx.mediaFormat=wav\tctx.lengthSeconds=6"), ("ctx", ""),
        ("ctx", "ctx.mediaFormat=wav")]
    for a, b in zip(first, second):
        assert a == b and a.context is not b.context


@pytest.mark.parametrize("key", ["widthPx", "lengthSeconds"])
def test_contexts_differ_when_their_raw_text_does(record_parser, key):
    interned = {}
    zero, minus_zero, zero_again = (
        record_parser(f"db=X\tid={i}\tctx.{key}={v}", i, interned)
        for i, v in enumerate(["0", "-0", "0"])
    )
    assert minus_zero.context is not zero.context
    assert zero_again.context is zero.context
    # Each holds its own line's value (-0.0 for a float field).
    assert repr(minus_zero.context) == repr(parse_record_line(
        f"db=X\tid=1\tctx.{key}=-0", None, {}).context)


@pytest.mark.parametrize("line", [
    "db=X\tid=1\tctx.mediaFormat=wav\tsem=Object:idea:x",
    "db=X\tid=1\tctx.mediaFormat=wav\tctx.widthPx=x",
    "db=X\tid=1\tctx.mediaFormat=wav\tctx.mediaFormat=jpg",
    "db=X\tid=1\tctx=1\tdim.valence=5",
    "db=X\tctx.mediaFormat=wav",
    "db=X\tid=1\tctx.mediaFormat=wav\tnosuch=1",
])
def test_bad_line_interns_no_context(record_parser, line):
    interned = {}
    with pytest.raises(ParseError):
        record_parser(line, 3, interned)
    assert not [k for k in interned if k[0] == "ctx"]


# Every record class: its fields in order and the defaults of its trailing
# fields.
RECORD_CLASSES = [
    (Vocabulary, "id terms", ()),
    (CategoryAnnotation, "vocabulary term confidence_level confidence_value",
     (None, None)),
    (DimensionAnnotation,
     "scale_min scale_max valence arousal dominance potency unpredictability "
     "intensity valenceSD arousalSD dominanceSD confidence_level "
     "confidence_value", (None,) * 11),
    (AppraisalAnnotation, "values", ()),
    (ActionTendencyAnnotation, "term confidence_level confidence_value",
     (None, None)),
    (SentimentAnnotation, "value confidence_level confidence_value", (None, None)),
    (SemanticsAnnotation, "kind concept keyword", (None, None)),
    (ContextRecord,
     "media_format width_px height_px size_bytes color_depth_bits "
     "length_seconds author owner created_at location dc_type dc_creator "
     "dc_contributor dc_date dc_format", (None,) * 15),
    (PhysiologyRef, "path channel", (None,)),
    (StimulusRecord,
     "db id semantics categories dimensions appraisals action_tendencies "
     "sentiments context physiology", ((), (), None, (), (), (), None, ())),
    (Manifest, "paths seed limit", (0, None)),
    (Workspace,
     "graph mapping closure corpus unmapped_keywords seed limit",
     (0, None)),
    (Query, "concept keyword boxes category db_name measure mode limit",
     (None, None, {}, None, None, None, "rank", None)),
    (RankedResult, "entries query measure", ()),
    (ConfusionMatrix, "tp fp fn tn", (0, 0, 0, 0)),
    (MetricRecord,
     "accuracy precision recall fallout_standard miss_rate f1 "
     "precision_undefined", (False,)),
    (ExperimentQuery, "qid concept keyword", (None, None)),
    (ExperimentConfig, "candidate_size seed max_resamples", (100, 0, 5)),
    (ExperimentReport, "rows notes", ()),
    (SequenceItem, "stimulus track start_ms duration_ms", ()),
    (StimulusSequence, "items total_ms", ()),
    (SyncEvent, "timestamp_ms kind stimulus track", ()),
]


@pytest.mark.parametrize("cls, names, defaults", RECORD_CLASSES,
                         ids=[c[0].__name__ for c in RECORD_CLASSES])
def test_record_class_contract(cls, names, defaults):
    names = names.split()
    assert cls._fields == tuple(names)
    values = [f"v{i}" for i in range(len(names))]
    required = len(names) - len(defaults)
    obj = cls(*values)
    assert [getattr(obj, name) for name in names] == values
    assert cls(**dict(zip(names, values))) == obj
    assert tuple(cls(*values[:required])) == (*values[:required], *defaults)
    if defaults:
        last = cls(*values[:required], **{names[-1]: "last"})
        assert tuple(last) == (*values[:required], *defaults[:-1], "last")
    assert repr(obj) == "{}({})".format(
        cls.__name__, ", ".join(f"{n}={v!r}" for n, v in zip(names, values)))

    assert not hasattr(obj, "__dict__")
    for name in (names[0], "nosuch"):
        with pytest.raises(AttributeError):
            setattr(obj, name, "x")

    copy = obj._replace()
    assert type(copy) is cls and copy == obj and hash(copy) == hash(obj)
    changed = obj._replace(**{names[-1]: "new"})
    assert type(changed) is cls and changed != obj
    assert tuple(changed) == (*values[:-1], "new")

    too_few = [(values[:required - 1], {})] if required else []
    for args, kwargs in [*too_few, (values + ["extra"], {}),
                         (values[:required], {"nosuch": 1})]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_empty_vocabulary_is_rejected():
    with pytest.raises(ValidationError, match="vocabulary 'X' has no terms"):
        Vocabulary("X", frozenset())


def test_record_repr_text_is_pinned():
    # The same text as records printed when they were dataclasses.
    rec = parse_record_line(
        "db=IADS\tid=311\tsem=Scene:keyword:crowd\tcat=BigSix.fear@value=0.5"
        "\tdim.scale=1:9\tdim.valence=2.5\tappraisal=pleasantness:0.2"
        "\ttendency=avoid\tsentiment=0.1\tctx.lengthSeconds=6\tphys=p HR",
        None, {},
    )
    assert repr(rec) == (
        "StimulusRecord(db='IADS', id='311', semantics=(SemanticsAnnotation("
        "kind='Scene', concept=None, keyword='crowd'),), categories=("
        "CategoryAnnotation(vocabulary='BigSix', term='fear', "
        "confidence_level=None, confidence_value=0.5),), dimensions="
        "DimensionAnnotation(scale_min=1.0, scale_max=9.0, valence=2.5, "
        "arousal=None, dominance=None, potency=None, unpredictability=None, "
        "intensity=None, valenceSD=None, arousalSD=None, dominanceSD=None, "
        "confidence_level=None, confidence_value=None), appraisals=("
        "AppraisalAnnotation(values=(('pleasantness', 0.2),)),), "
        "action_tendencies=(ActionTendencyAnnotation(term='avoid', "
        "confidence_level=None, confidence_value=None),), sentiments=("
        "SentimentAnnotation(value=0.1, confidence_level=None, "
        "confidence_value=None),), context=ContextRecord(media_format=None, "
        "width_px=None, height_px=None, size_bytes=None, color_depth_bits=None, "
        "length_seconds=6.0, author=None, owner=None, created_at=None, "
        "location=None, dc_type=None, dc_creator=None, dc_contributor=None, "
        "dc_date=None, dc_format=None), physiology=(PhysiologyRef(path='p', "
        "channel='HR'),))"
    )


def test_bad_annotation_raises_on_every_line_that_has_it():
    interned = {}
    for lineno in (4, 9):
        for bad in ("sem=Object:idea:x", "cat=NoDot@level=High"):
            with pytest.raises(ParseError) as exc:
                parse_record_line(f"db=X\tid=1\t{bad}", lineno, interned)
            assert exc.value.line == lineno
    assert interned == {}


# Round trip of serialize_record through parse_record_line.  Text avoids
# the wire separators of the field it fills: tab and `;` everywhere, `@`
# and `,` in confidence-carrying values, ` ` in physiology paths, `.` in
# vocabulary ids.
_WORD = st.text(string.ascii_letters + string.digits + "-_/", min_size=1,
                max_size=8)
_PHRASE = st.text(string.ascii_letters + string.digits + "-_/ :.=", min_size=1,
                  max_size=12)
_NUM = st.floats(allow_nan=False)
_LEVEL = st.none() | st.sampled_from(["VeryHigh", "Average", "Low"]) | _WORD
_CONF = st.none() | _NUM
_SEM = st.builds(
    SemanticsAnnotation, kind=st.sampled_from(SEMANTIC_KINDS), concept=_PHRASE
) | st.builds(
    SemanticsAnnotation, kind=st.sampled_from(SEMANTIC_KINDS), keyword=_PHRASE
)
_DIMENSIONS = st.builds(
    DimensionAnnotation,
    scale_min=_NUM,
    scale_max=_NUM,
    confidence_level=_LEVEL,
    confidence_value=_CONF,
    **{name: st.none() | _NUM for name in DIMENSION_NAMES + DIMENSION_SD_NAMES},
)
_CONTEXT_FIELDS = {
    "media_format": _PHRASE,
    "width_px": st.integers(0, 10**6),
    "height_px": st.integers(0, 10**6),
    "size_bytes": st.integers(0, 10**12),
    "color_depth_bits": st.integers(0, 64),
    "length_seconds": _NUM,
    **{
        attr: st.text(string.ascii_letters + " :/=-", max_size=12)
        for attr in ("author", "owner", "created_at", "location", "dc_type",
                     "dc_creator", "dc_contributor", "dc_date", "dc_format")
    },
}


@st.composite
def _records(draw):
    db, rid = draw(_WORD), draw(_WORD)
    ctx = draw(st.none() | st.fixed_dictionaries({}, optional=_CONTEXT_FIELDS))
    appraisal = draw(st.lists(st.tuples(_PHRASE, _NUM), max_size=3))
    return StimulusRecord(
        db=db,
        id=rid,
        semantics=tuple(draw(st.lists(_SEM, max_size=3))),
        categories=tuple(draw(st.lists(
            st.builds(CategoryAnnotation, _WORD, _PHRASE, _LEVEL, _CONF),
            max_size=3,
        ))),
        dimensions=draw(st.none() | _DIMENSIONS),
        appraisals=(AppraisalAnnotation(tuple(appraisal)),) if appraisal else (),
        action_tendencies=tuple(draw(st.lists(
            st.builds(ActionTendencyAnnotation, _PHRASE, _LEVEL, _CONF),
            max_size=2,
        ))),
        sentiments=tuple(draw(st.lists(
            st.builds(SentimentAnnotation, _NUM, _LEVEL, _CONF), max_size=2
        ))),
        context=None if ctx is None else ContextRecord(**ctx),
        physiology=tuple(draw(st.lists(
            st.builds(PhysiologyRef, _WORD, st.none() | _PHRASE), max_size=3
        ))),
    )


def _packed(line):
    """The same record with each repeatable key's values packed into one
    `;`-separated token, plus an empty token and an empty item, which the
    parser skips."""
    singles, packed = [""], {}
    for token in line.split("\t"):
        key, _, value = token.partition("=")
        if key in ("sem", "cat", "appraisal", "phys"):
            packed.setdefault(key, []).append(value)
        else:
            singles.append(token)
    return "\t".join(singles + [f"{k}={';'.join(v)};" for k, v in packed.items()])


@given(_records())
def test_record_line_round_trip(rec):
    line = serialize_record(rec)
    assert parse_record_line(line, None, {}) == rec
    assert serialize_record(parse_record_line(line, None, {})) == line
    assert parse_record_line(_packed(line), None, {}) == rec


# Generated record lines for the parser's property test.  Values are well
# formed, but a line may have one value replaced by `_ODD` text, which
# holds the wire separators, or one odd token.
_NAME = st.text(string.ascii_letters + string.digits, min_size=1, max_size=4)
_ODD = st.text("aZ1-_ .:@,=;", max_size=5)
_NUMBER = (st.integers(-3, 10**6).map(str)
           | st.floats(allow_nan=True, allow_infinity=True).map(repr)
           | st.sampled_from([" 7 ", "1_0", "1e999", "-0"]))
_CONF_PART = st.one_of(
    st.just(""),
    _NAME.map("@level={}".format),
    st.tuples(_NAME, _NUMBER).map(lambda t: f"@level={t[0]},value={t[1]}"),
)


def _packed_items(item):
    """One item, or several `;`-packed, empty ones included."""
    return item | st.lists(item | st.just(""), max_size=3).map(";".join)


_VALUES = {
    "db": _NAME,
    "id": _NAME,
    "sem": _packed_items(st.tuples(
        st.sampled_from(SEMANTIC_KINDS), st.sampled_from(["concept", "keyword"]),
        _NAME,
    ).map(":".join)),
    "cat": _packed_items(st.tuples(_NAME, _NAME, _CONF_PART).map(
        lambda t: f"{t[0]}.{t[1]}{t[2]}")),
    "appraisal": _packed_items(st.tuples(_NAME, _NUMBER).map(":".join)),
    "phys": _packed_items(_NAME | st.tuples(_NAME, _NAME).map(" ".join)),
    "tendency": st.tuples(_NAME, _CONF_PART).map("".join),
    "sentiment": st.tuples(_NUMBER, _CONF_PART).map("".join),
    "ctx": st.just("1"),
    "dim.scale": st.tuples(_NUMBER, _NUMBER).map(":".join),
    **{key: _NAME if kind is None else _NUMBER
       for key, (_, kind) in stimkb.corpus._DIM_KEYS.items()},
    **{key: _NAME if kind is None else _NUMBER
       for key, (_, kind) in stimkb.corpus._CTX_KEYS.items()},
}
_OPTIONAL_SINGLE_KEYS = sorted(
    {"dim.scale", *stimkb.corpus._DIM_KEYS, *stimkb.corpus._CTX_KEYS}
)
_REPEATABLE_KEYS = ["sem", "cat", "appraisal", "phys", "tendency", "sentiment",
                    "ctx"]
_ODD_TOKENS = ["", "noequals", "=x", "foo=1", "dim.foo=1", "ctx.foo=1",
               "db=again", "dim.scale=1:9", "dim.valence=5", "ctx.widthPx=3",
               "appraisal=5", "sem=Object:concept:A;Object:idea:B"]


@st.composite
def _differential_lines(draw):
    """A record line of db, id, some single-valued and some repeatable
    keys (dim.scale added when a `dim.*` key is drawn), perhaps one odd
    value or token, in any order."""
    singles = draw(st.sets(st.sampled_from(_OPTIONAL_SINGLE_KEYS), max_size=6))
    if any(k.startswith("dim.") for k in singles):
        singles.add("dim.scale")
    keys = ["db", "id", *sorted(singles),
            *draw(st.lists(st.sampled_from(_REPEATABLE_KEYS), max_size=4))]
    values = [draw(_VALUES[k]) for k in keys]
    if len(keys) > 2 and draw(st.integers(0, 3)) == 0:
        values[draw(st.integers(2, len(keys) - 1))] = draw(_ODD | _NUMBER)
    tokens = [f"{k}={v}" for k, v in zip(keys, values)]
    if draw(st.booleans()):
        tokens.append(draw(st.sampled_from(_ODD_TOKENS)))
    return "\t".join(draw(st.permutations(tokens)))


@settings(max_examples=400)
@given(_differential_lines())
def test_record_line_parses_or_names_its_line(line):
    """A line either gives a record that serialize_record writes back as a
    line parsing to the same record, or raises a ParseError naming its
    line.  Records are compared by repr, as NaN is not equal to itself."""
    try:
        rec = parse_record_line(line, 3, {})
    except ParseError as e:
        assert str(e).startswith("line 3: ")
        return
    assert repr(parse_record_line(serialize_record(rec), 3, {})) == repr(rec)


@pytest.mark.parametrize("bad", [
    "dim.scale=a:9", "dim.scale=1:9\tdim.valence=x", "ctx.widthPx=x",
    "appraisal=p:x", "appraisal=5", "tendency=t@value=x", "sentiment=x",
    "sem=K:idea:C", "cat=V.t@mood=1",
])
def test_plans_intern_up_to_the_first_bad_token(bad):
    line = f"db=X\tid=1\tsem=K:concept:A\t{bad}\tsem=K:concept:B\tcat=V.t"
    interned = {}
    with pytest.raises(ParseError):
        parse_record_line(line, 3, interned)
    assert list(interned) == [("sem", "K:concept:A")]
