import dataclasses
import inspect
import string

import pytest
from hypothesis import given, strategies as st

from stimkb.affect import (
    DIMENSION_NAMES,
    DIMENSION_SD_NAMES,
    ActionTendencyAnnotation,
    AppraisalAnnotation,
    CategoryAnnotation,
    SentimentAnnotation,
    fast_init,
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
    serialize_record,
    serialize_records,
    validate_stimulus,
)
from stimkb.errors import ParseError, ValidationError
from stimkb.taxonomy import parse_mapping


def test_parse_iads_311(paper_workspace):
    rec = paper_workspace.corpus.get_stimulus("IADS/311")
    assert rec.context.length_seconds == 6
    assert rec.concepts() == ["GroupOfPeople"]


def test_parse_iaps_8163(paper_workspace):
    rec = paper_workspace.corpus.get_stimulus("IAPS/8163")
    assert len(rec.semantics) == 6
    assert rec.dimensions.valence == 7.14
    assert rec.dimensions.arousal == 6.53
    assert (rec.dimensions.scale_min, rec.dimensions.scale_max) == (1, 9)
    assert len(rec.physiology) == 2
    assert [p.channel for p in rec.physiology] == ["HR", "SR"]
    assert validate_stimulus(rec) == []


def test_empty_record_violates_four_component_axiom():
    rec = StimulusRecord(db="IAPS", id="1")
    problems = validate_stimulus(rec)
    assert any("four-component" in p for p in problems)


def test_physiology_only_record_is_ok():
    rec = StimulusRecord(
        db="IAPS", id="1", physiology=(PhysiologyRef("http://x/hr"),)
    )
    assert validate_stimulus(rec) == []


def test_out_of_scale_dimension_rejected():
    rec = StimulusRecord(
        db="IAPS",
        id="1",
        dimensions=DimensionAnnotation(scale_min=1, scale_max=9, valence=12),
    )
    assert any("outside scale" in p for p in validate_stimulus(rec))


def test_unknown_concept_rejected(paper_graph):
    rec = StimulusRecord(
        db="IAPS",
        id="1",
        semantics=(SemanticsAnnotation(kind="Object", concept="NoSuch"),),
    )
    assert any("unknown concept" in p for p in validate_stimulus(rec, paper_graph))


def test_parse_corpus_rejects_invalid(paper_graph):
    vocabs = load_vocabularies("")
    with pytest.raises(ValidationError, match="IAPS/9"):
        parse_corpus_records("db=IAPS\tid=9\tsem=Object:concept:NoSuch",
                             paper_graph, vocabs)


def test_parse_legacy_table():
    text = (
        "id\tdb\tkeyword\tvalence\tvalenceSD\tarousal\tarousalSD\t"
        "dominance\tdominanceSD\n"
        "5635\tIAPS\tWinterStreet\t6.25\tNA\t3.97\tNA\tNA\tNA\n"
        "7039\tIAPS\tTrain\t5.93\tNA\t3.29\tNA\tNA\tNA\n"
    )
    recs = parse_legacy_table(text)
    assert [r.key for r in recs] == ["IAPS/5635", "IAPS/7039"]
    r = recs[0]
    assert r.semantics[0].keyword == "WinterStreet"
    assert r.semantics[0].kind == "Object"
    assert r.dimensions.valence == 6.25
    assert r.dimensions.arousal == 3.97
    assert (r.dimensions.scale_min, r.dimensions.scale_max) == (1.0, 9.0)
    assert r.context.db_name == "IAPS"
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
    recs = parse_legacy_table(f"  # note\n{header}\n\t# indented note\n{row}\n")
    assert [r.key for r in recs] == ["IAPS/1"]
    assert recs[0].dimensions.dominanceSD is None


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
    text = serialize_records(records)
    reparsed = parse_corpus_records(
        text, paper_workspace.graph, paper_workspace.vocabs
    )
    assert reparsed == records
    assert serialize_records(reparsed) == text


def test_corpus_indices(paper_workspace):
    corpus = paper_workspace.corpus
    assert corpus.stimuli_by_concept("GroupOfPeople") == {"IADS/311"}
    assert corpus.stimuli_by_keyword("winterstreet") == {"IAPS/5635"}
    assert corpus.stimuli_by_keyword("WINTERSTREET") == {"IAPS/5635"}
    assert corpus.stimuli_by_concept("NoSuch") == set()


def test_index_consistency_full_rebuild(paper_workspace):
    corpus = paper_workspace.corpus
    concept_index = {}
    keyword_index = {}
    for rec in corpus:
        for c in rec.concepts():
            concept_index.setdefault(c, set()).add(rec.key)
        for k in rec.keywords():
            keyword_index.setdefault(k, set()).add(rec.key)
    assert concept_index == corpus.concept_index
    assert keyword_index == corpus.keyword_index


def test_add_get_round_trip_and_duplicates():
    corpus = Corpus()
    rec = StimulusRecord(
        db="X", id="1", physiology=(PhysiologyRef("http://p"),)
    )
    corpus.add_stimulus(rec)
    assert corpus.get_stimulus("X/1") == rec
    with pytest.raises(ValidationError, match="duplicate"):
        corpus.add_stimulus(rec)
    with pytest.raises(KeyError):
        corpus.get_stimulus("X/2")


def test_add_rejects_invalid():
    corpus = Corpus()
    with pytest.raises(ValidationError, match="four-component"):
        corpus.add_stimulus(StimulusRecord(db="X", id="1"))


def test_duplicate_physiology_paths_allowed():
    rec = StimulusRecord(
        db="X",
        id="1",
        physiology=(PhysiologyRef("http://p"), PhysiologyRef("http://p")),
    )
    assert validate_stimulus(rec) == []


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
    ],
)
def test_malformed_record_line_error_text(line, message):
    with pytest.raises(ParseError) as exc:
        parse_record_line(line, 3)
    assert str(exc.value) == f"line 3: {message}"
    assert exc.value.line == 3
    with pytest.raises(ParseError) as exc:
        parse_record_line(line)
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
    assert parse_record_line(line.format(2), 2) == second


def test_record_classes_are_slotted_and_frozen(paper_workspace):
    rec = paper_workspace.corpus.get_stimulus("IAPS/8163")
    objects = [rec, rec.semantics[0], rec.categories[0], rec.dimensions,
               rec.context, rec.physiology[0],
               AppraisalAnnotation((("pleasantness", 0.5),)),
               ActionTendencyAnnotation("approach"), SentimentAnnotation(0.5)]
    for obj in objects:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, dataclasses.fields(obj)[0].name, None)
        copy = dataclasses.replace(obj)
        assert copy == obj and hash(copy) == hash(obj) and copy is not obj
    assert repr(rec.physiology[0]) == (
        "PhysiologyRef(path='http://www.foo.com/subject1_hr', channel='HR')"
    )


def _plain_twin(cls):
    """A plain `@dataclass(frozen=True, slots=True)` with the fields of
    `cls`, built by the dataclass `__init__`."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(default=f.default))
         for f in dataclasses.fields(cls)],
        frozen=True,
        slots=True,
    )


@pytest.mark.parametrize(
    "cls", [StimulusRecord, ContextRecord, PhysiologyRef, DimensionAnnotation],
    ids=lambda cls: cls.__name__,
)
def test_fast_init_matches_a_plain_dataclass(cls):
    twin = _plain_twin(cls)
    assert inspect.signature(cls) == inspect.signature(twin)
    names = [f.name for f in dataclasses.fields(cls)]
    required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(cls))
    values = [f"v{i}" for i in range(len(names))]

    def state(obj):
        return [getattr(obj, name) for name in names]

    calls = [
        (values, {}),
        ((), dict(zip(names, values))),
        (values[:required], {}),
        (values[:required], {names[-1]: "last"}),
    ]
    for args, kwargs in calls:
        obj, plain = cls(*args, **kwargs), twin(*args, **kwargs)
        assert state(obj) == state(plain)
        assert repr(obj) == repr(plain) and hash(obj) == hash(plain)
        assert obj == cls(*args, **kwargs)
        assert obj != dataclasses.replace(obj, **{names[0]: "other"})
        assert state(dataclasses.replace(obj, **{names[-1]: "new"})) == state(
            dataclasses.replace(plain, **{names[-1]: "new"}))
        assert not hasattr(obj, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, names[0], "x")
    for args, kwargs in [(values[:required - 1], {}), (values + ["extra"], {}),
                         (values[:required], {"nosuch": 1})]:
        for make in (cls, twin):
            with pytest.raises(TypeError):
                make(*args, **kwargs)


@pytest.mark.parametrize(
    "fields, options",
    [
        ([("x", list, dataclasses.field(default_factory=list))], {}),
        ([("x", int, dataclasses.field(default=0, init=False))], {}),
        ([("x", int), ("y", dataclasses.InitVar[int])], {}),
        ([("x", int, dataclasses.field(kw_only=True))], {}),
        ([("x", int)], {"namespace": {"__post_init__": lambda self: None}}),
        ([("x", int)], {"frozen": False}),
        ([("x", int)], {"slots": False}),
    ],
    ids=["default_factory", "init_false", "initvar", "kw_only", "post_init",
         "not_frozen", "not_slotted"],
)
def test_fast_init_rejects_a_class_it_cannot_match(fields, options):
    options = {"frozen": True, "slots": True, **options}
    cls = dataclasses.make_dataclass("C", fields, **options)
    with pytest.raises(TypeError, match="fast_init: C "):
        fast_init(cls)


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
        context=None if ctx is None else ContextRecord(id=rid, db_name=db, **ctx),
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
    assert parse_record_line(line) == rec
    assert serialize_record(parse_record_line(line)) == line
    assert parse_record_line(_packed(line)) == rec
