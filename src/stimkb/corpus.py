"""Stimulus records (the assertional half of the knowledge base) plus
ingestion, validation, keyword expansion, and indexing.

Record file format: one record per line, tab-separated `key=value` tokens.
`db`, `id` and every `dim.*` and `ctx.*` key may appear at most once.  The
other keys repeat: `sem`, `cat`, `appraisal` and `phys` as separate tokens
or with several values packed into one token with `;`, `tendency` and
`sentiment` only as separate tokens (`tendency=a;b` is the one term
`a;b`).  Empty tokens and empty packed items are skipped.  Keys:

    db=IAPS  id=8163                       required; record key is "db/id"
    sem=Object:concept:GroupOfPeople       or  sem=Scene:keyword:winter street
    cat=BigSix.happiness@level=Average,value=0.9    confidence part optional
    dim.scale=1:9  dim.valence=7.14  dim.arousal=6.53  dim.valenceSD=...
    dim.level=Average  dim.value=0.9       dimension confidence, optional
    appraisal=pleasantness:0.7
    tendency=approach@level=High           sentiment=0.8@value=0.9
    ctx.lengthSeconds=6  ctx.mediaFormat=wav  ctx.author=...  ctx.location=...
    ctx=1                                  bare context (no metadata)
    phys=http://example.org/subject1_hr HR       channel after space, optional

No value may contain a tab, and no packed item a `;`.  Blank lines and `#`
comments ignored.

Legacy table format: TSV with header
`id db keyword valence valenceSD arousal arousalSD dominance dominanceSD`,
`NA` for missing values; every row becomes a keyword-only Object record on
the 1..9 scale.
"""

from collections import deque, namedtuple
from functools import cached_property
from itertools import chain, compress, repeat
from operator import itemgetter

from .affect import (
    DIMENSION_NAMES,
    DIMENSION_SD_NAMES,
    ActionTendencyAnnotation,
    AppraisalAnnotation,
    CategoryAnnotation,
    DimensionAnnotation,
    SentimentAnnotation,
    validate_category,
    validate_dimension,
    validate_unit_interval,
)
from .errors import ParseError, ValidationError
from .lines import data_lines

SEMANTIC_KINDS = ("Object", "Scene", "Event")

LEGACY_HEADER = [
    "id",
    "db",
    "keyword",
    "valence",
    "valenceSD",
    "arousal",
    "arousalSD",
    "dominance",
    "dominanceSD",
]

# Numeric context fields and their types; the others are text.
_CONTEXT_NUMBER_TYPES = {
    "widthPx": int,
    "heightPx": int,
    "sizeBytes": int,
    "colorDepthBits": int,
    "lengthSeconds": float,
}


class SemanticsAnnotation(namedtuple(
    "SemanticsAnnotation", "kind concept keyword", defaults=(None, None),
)):
    __slots__ = ()  # kind: Object | Scene | Event


_CTX_ATTR = {
    "mediaFormat": "media_format",
    "widthPx": "width_px",
    "heightPx": "height_px",
    "sizeBytes": "size_bytes",
    "colorDepthBits": "color_depth_bits",
    "lengthSeconds": "length_seconds",
    "author": "author",
    "owner": "owner",
    "createdAt": "created_at",
    "location": "location",
    "dcType": "dc_type",
    "dcCreator": "dc_creator",
    "dcContributor": "dc_contributor",
    "dcDate": "dc_date",
    "dcFormat": "dc_format",
}


class ContextRecord(namedtuple(
    "ContextRecord", tuple(_CTX_ATTR.values()), defaults=(None,) * len(_CTX_ATTR),
)):
    __slots__ = ()  # fields in the order of their `ctx.*` keys in _CTX_ATTR


# The number type of each numeric ContextRecord field; the others are text.
CONTEXT_NUMBER_TYPES = {
    _CTX_ATTR[wire]: kind for wire, kind in _CONTEXT_NUMBER_TYPES.items()
}


class PhysiologyRef(namedtuple("PhysiologyRef", "path channel", defaults=(None,))):
    __slots__ = ()


class StimulusRecord(namedtuple(
    "StimulusRecord",
    "db id semantics categories dimensions appraisals action_tendencies "
    "sentiments context physiology",
    defaults=((), (), None, (), (), (), None, ()),
)):
    """One stimulus, keyed by `db` and `id`: `dimensions` is a
    DimensionAnnotation or None, `context` a ContextRecord or None, and the
    other fields are tuples of annotations."""

    __slots__ = ()

    @property
    def key(self):
        return f"{self.db}/{self.id}"

    def concepts(self):
        return sorted({s.concept for s in self.semantics if s.concept})


# The version of the record validation rules: validate_stimulus and the
# affect rules it calls.  A snapshot's seal covers it, so a snapshot sealed
# under other rules is validated in full at load.  Bump it whenever the
# rules get stricter; tests/test_corpus.py pins the rules' source so that
# an edit to them fails a test until the pin is renewed.
VALIDATION_RULES = 1


def validate_stimulus(rec, graph, vocabs):
    """Return a list of problems of `rec` against the taxonomy `graph` and
    the vocabularies `vocabs`; empty means valid."""
    problems = []
    if not rec.db or not rec.id:
        problems.append("record key requires non-empty db and id")

    has_emotion = bool(
        rec.categories
        or rec.dimensions is not None
        or rec.appraisals
        or rec.action_tendencies
        or rec.sentiments
    )
    if not (rec.semantics or has_emotion or rec.context or rec.physiology):
        problems.append(
            "four-component axiom violated: record has no semantics, "
            "emotion, context, or physiology component"
        )

    for sem in rec.semantics:
        if sem.kind not in SEMANTIC_KINDS:
            problems.append(f"semantics kind {sem.kind!r} not in {SEMANTIC_KINDS}")
        if sem.concept is None and sem.keyword is None:
            problems.append("semantics annotation needs a concept or a keyword")
        if sem.concept is not None and sem.concept not in graph.concepts:
            problems.append(f"unknown concept {sem.concept!r}")

    for cat in rec.categories:
        problems.extend(validate_category(cat, vocabs))
    if rec.dimensions is not None:
        problems.extend(validate_dimension(rec.dimensions))
    for app in rec.appraisals:
        for name, value in app.values:
            validate_unit_interval(f"appraisal {name}", value, problems)
    for sen in rec.sentiments:
        validate_unit_interval("sentiment", sen.value, problems)
    for phy in rec.physiology:
        if not phy.path:
            problems.append("physiology reference with empty path")

    ctx = rec.context
    if ctx is not None:
        numbers = (
            ("width_px", ctx.width_px),
            ("height_px", ctx.height_px),
            ("size_bytes", ctx.size_bytes),
            ("color_depth_bits", ctx.color_depth_bits),
            ("length_seconds", ctx.length_seconds),
        )
        for attr, v in numbers:
            if v is not None and not v >= 0:  # negative, or NaN
                what = "negative" if v < 0 else "not a number"
                problems.append(f"context {attr}={v} is {what}")
    return problems


class Corpus:
    """Append-only store of records validated against `graph` and `vocabs`,
    keyed by "db/id", with a concept index built on first use; treat as
    immutable once queries start."""

    def __init__(self, graph, vocabs):
        self.graph = graph
        self.vocabs = vocabs
        self.records = {}

    @cached_property
    def concept_index(self):
        """Each annotation concept -> the set of keys of the records that
        carry it.  Built on first use, so that a command that never reads
        it (most do not) never pays for it."""
        return _concept_index(self.records.values(), self.records.keys())

    def add_stimulus(self, rec):
        """Validate `rec` against the graph and vocabularies and store it;
        a key already in the corpus raises ValidationError."""
        problems = validate_stimulus(rec, self.graph, self.vocabs)
        if problems:
            raise invalid_record(rec, problems)
        key = rec.key
        if key in self.records:
            raise ValidationError(f"duplicate stimulus key {key}")
        self.records[key] = rec
        self.__dict__.pop("concept_index", None)  # rebuilt on its next use

    def index_all(self, records, keys):
        """Store `records`, whose keys are `keys`, in one pass into this
        empty corpus, as add_stimulus would one by one, but without
        validating them.  Return the position of the first record whose
        key repeats an earlier one's, or len(records) if none does; a
        corpus with a repeated key is incomplete and must be dropped."""
        self.records = dict(zip(keys, records))
        if len(self.records) == len(records):
            return len(records)
        seen = set()
        for i, key in enumerate(keys):
            if key in seen:
                return i
            seen.add(key)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records.values())


def _concept_index(records, keys):
    """Corpus.concept_index of the iterable `records`, whose keys are
    `keys`, in order."""
    # Field 2 of a record is its semantics; field 1 of those, the concept.
    semantics = list(map(itemgetter(2), records))
    concepts = list(map(itemgetter(1), chain.from_iterable(semantics)))
    owners = chain.from_iterable(map(repeat, keys, map(len, semantics)))
    # index.setdefault(concept, set()).add(key) for each (concept, key)
    # pair with a concept, in C: a loop in Python takes twice as long.
    index = {}
    deque(map(
        set.add,
        map(index.setdefault, filter(None, concepts), map(set, repeat(()))),
        compress(owners, concepts),
    ), maxlen=0)
    return index


def invalid_record(rec, problems, lineno=None):
    """The ValidationError of record `rec` and its `problems`."""
    where = f"line {lineno}: " if lineno is not None else ""
    return ValidationError(
        f"{where}record {rec.key}: " + "; ".join(problems), problems=problems
    )


def _parse_number(text, kind, what, lineno):
    try:
        return kind(text)
    except ValueError:
        raise _non_numeric(what, text, lineno) from None


def _non_numeric(what, text, lineno):
    return ParseError(f"non-numeric {what}: {text!r}", line=lineno)


def _split_confidence(value, lineno):
    """Split `payload[@level=L,value=V]` into (payload, level, value)."""
    if "@" not in value:
        return value, None, None
    payload, _, conf = value.partition("@")
    level = cvalue = None
    for part in conf.split(","):
        k, sep, v = part.partition("=")
        if not sep:
            raise ParseError(f"malformed confidence part {part!r}", line=lineno)
        if k == "level":
            level = v
        elif k == "value":
            cvalue = _parse_number(v, float, "confidence value", lineno)
        else:
            raise ParseError(f"unknown confidence key {k!r}", line=lineno)
    return payload, level, cvalue


def _parse_sem(value, lineno):
    parts = value.split(":", 2)
    if len(parts) != 3 or parts[1] not in ("concept", "keyword"):
        raise ParseError(
            f"expected `Kind:concept:Name` or `Kind:keyword:text`, got {value!r}",
            line=lineno,
        )
    kind, marker, payload = parts
    if not payload:
        raise ParseError("empty semantics payload", line=lineno)
    if marker == "concept":
        return SemanticsAnnotation(kind=kind, concept=payload)
    return SemanticsAnnotation(kind=kind, keyword=payload)


def _parse_cat(value, lineno):
    payload, level, cvalue = _split_confidence(value, lineno)
    vocab, sep, term = payload.partition(".")
    if not sep or not vocab or not term:
        raise ParseError(f"expected `Vocab.term`, got {payload!r}", line=lineno)
    return CategoryAnnotation(vocab, term, level, cvalue)


# Exact-key dispatch for parse_record_line: each `dim.*` key to the
# position of its DimensionAnnotation field and its number type, and each
# `ctx.*` key to the position of its ContextRecord field and its number
# type (None for text).  dim.scale fills positions 0 and 1.
_DIM_ORDER = DimensionAnnotation._fields
_DIM_KEYS = {
    f"dim.{name}": (_DIM_ORDER.index(name), float)
    for name in DIMENSION_NAMES + DIMENSION_SD_NAMES
}
_DIM_KEYS["dim.level"] = (_DIM_ORDER.index("confidence_level"), None)
_DIM_KEYS["dim.value"] = (_DIM_ORDER.index("confidence_value"), float)
_CTX_ORDER = ContextRecord._fields
_CTX_KEYS = {
    f"ctx.{wire}": (_CTX_ORDER.index(attr), _CONTEXT_NUMBER_TYPES.get(wire))
    for wire, attr in _CTX_ATTR.items()
}


def _repeated(key, lineno):
    return ParseError(f"repeated record field {key!r}", line=lineno)


def parse_record_line(line, lineno, interned):
    """Parse one record line (format in the module docstring), token by
    token; the first malformed token raises ParseError, naming `lineno`
    unless it is None.  Does not validate.

    `interned` maps ("sem" or "cat", value) to the annotation parsed from
    it, and ("ctx", the line's `ctx.*` tokens in field order, tab-joined)
    to the ContextRecord built from them.  Pass one dict to all the lines
    of a file, so that records with the same `sem=`/`cat=` value, or the
    same context tokens, share one object; only values that parse are
    stored, and a context only once its whole line has parsed.
    """
    db = rid = dim = ctx = None
    sems, cats, apps, tends, sents, phys = [], [], [], [], [], []
    for token in line.split("\t"):
        key, sep, value = token.partition("=")
        if not sep:
            if not token:
                continue
            raise ParseError(f"expected `key=value`, got {token!r}", line=lineno)
        if key == "sem":
            for v in value.split(";"):
                if v:
                    ann = interned.get(("sem", v))
                    if ann is None:
                        ann = interned[("sem", v)] = _parse_sem(v, lineno)
                    sems.append(ann)
        elif key in _DIM_KEYS:
            if dim is None:
                dim = [None] * len(_DIM_ORDER)
            i, kind = _DIM_KEYS[key]
            if dim[i] is not None:
                raise _repeated(key, lineno)
            if kind is None:
                dim[i] = value
            else:
                try:
                    dim[i] = kind(value)
                except ValueError:
                    what = ("dimension confidence" if key == "dim.value"
                            else f"dimension {key[4:]}")
                    raise _non_numeric(what, value, lineno) from None
        elif key in _CTX_KEYS:
            if ctx is None:
                ctx = [None] * len(_CTX_ORDER)
                ctx_tokens = [None] * len(_CTX_ORDER)  # for the interning key
            i, kind = _CTX_KEYS[key]
            if ctx_tokens[i] is not None:
                raise _repeated(key, lineno)
            ctx_tokens[i] = token
            if kind is None:
                ctx[i] = value
            else:
                try:
                    ctx[i] = kind(value)
                except ValueError:
                    raise _non_numeric(key[4:], value, lineno) from None
        elif key == "db":
            if db is not None:
                raise _repeated(key, lineno)
            db = value
        elif key == "id":
            if rid is not None:
                raise _repeated(key, lineno)
            rid = value
        elif key == "cat":
            for v in value.split(";"):
                if v:
                    ann = interned.get(("cat", v))
                    if ann is None:
                        ann = interned[("cat", v)] = _parse_cat(v, lineno)
                    cats.append(ann)
        elif key == "dim.scale":
            if dim is None:
                dim = [None] * len(_DIM_ORDER)
            if dim[0] is not None:
                raise _repeated(key, lineno)
            lo, sep2, hi = value.partition(":")
            if not sep2:
                raise ParseError(f"expected `min:max`, got {value!r}", line=lineno)
            dim[0] = _parse_number(lo, float, "scale min", lineno)
            dim[1] = _parse_number(hi, float, "scale max", lineno)
        elif key == "phys":
            for v in value.split(";"):
                if v:
                    path, _, channel = v.partition(" ")
                    phys.append(tuple.__new__(PhysiologyRef, (path, channel or None)))
        elif key == "ctx":
            # Presence marker for a context with no metadata.
            if ctx is None:
                ctx = [None] * len(_CTX_ORDER)
                ctx_tokens = [None] * len(_CTX_ORDER)
        elif key == "appraisal":
            for v in value.split(";"):
                if v:
                    name, sep2, num = v.rpartition(":")
                    if not sep2:
                        raise ParseError(
                            f"expected `name:value`, got {v!r}", line=lineno
                        )
                    apps.append((name, _parse_number(num, float, "appraisal", lineno)))
        elif key == "tendency":
            payload, level, cvalue = _split_confidence(value, lineno)
            tends.append(ActionTendencyAnnotation(payload, level, cvalue))
        elif key == "sentiment":
            payload, level, cvalue = _split_confidence(value, lineno)
            sents.append(
                SentimentAnnotation(
                    _parse_number(payload, float, "sentiment", lineno), level, cvalue
                )
            )
        elif key.startswith("dim."):
            raise ParseError(f"unknown dimension field {key[4:]!r}", line=lineno)
        elif key.startswith("ctx."):
            raise ParseError(f"unknown context field {key[4:]!r}", line=lineno)
        else:
            raise ParseError(f"unknown record field {key!r}", line=lineno)

    if not db or not rid:
        raise ParseError("record requires db= and id=", line=lineno)

    dimensions = context = None
    if dim is not None:
        if dim[0] is None:
            raise ParseError(
                "dimension values require dim.scale=min:max", line=lineno
            )
        dimensions = tuple.__new__(DimensionAnnotation, dim)

    if ctx is not None:
        ckey = ("ctx", "\t".join(filter(None, ctx_tokens)))
        context = interned.get(ckey)
        if context is None:
            context = interned[ckey] = tuple.__new__(ContextRecord, ctx)

    return tuple.__new__(StimulusRecord, (
        db,
        rid,
        tuple(sems),
        tuple(cats),
        dimensions,
        (AppraisalAnnotation(tuple(apps)),) if apps else (),
        tuple(tends),
        tuple(sents),
        context,
        tuple(phys),
    ))


def parse_record_file(text):
    """Parse the record file into (line number, record) pairs.  Does not
    validate."""
    interned = {}
    return [
        (lineno, parse_record_line(line, lineno, interned))
        for lineno, line in data_lines(text)
    ]


def parse_corpus_records(text, graph, vocabs):
    """Parse the record file; every record must validate."""
    records = []
    for lineno, rec in parse_record_file(text):
        problems = validate_stimulus(rec, graph, vocabs)
        if problems:
            raise invalid_record(rec, problems, lineno)
        records.append(rec)
    return records


def parse_legacy_table(text):
    """Parse an IAPS-style keyword + ratings TSV into (line number, record)
    pairs.  Does not validate.

    Lines are split unstripped, so an empty last column reads as missing.
    """
    lines = data_lines(text)
    first = next(lines, None)
    if first is None:
        return []
    lineno, raw = first
    header = raw.split("\t")
    if header != LEGACY_HEADER:
        raise ParseError(
            f"legacy header must be {LEGACY_HEADER}, got {header}", line=lineno
        )
    records = []
    for lineno, raw in lines:
        cols = raw.split("\t")
        if len(cols) != len(LEGACY_HEADER):
            raise ParseError(
                f"expected {len(LEGACY_HEADER)} columns, got {len(cols)}",
                line=lineno,
            )
        row = dict(zip(LEGACY_HEADER, cols))

        def num(name, lineno=lineno, row=row):
            v = row[name].strip()
            if v == "NA" or v == "":
                return None
            return _parse_number(v, float, name, lineno)

        dims = {name: num(name) for name in LEGACY_HEADER[3:]}
        if all(v is None for n, v in dims.items() if not n.endswith("SD")):
            raise ParseError("row has no dimension value", line=lineno)
        records.append((
            lineno,
            StimulusRecord(
                db=row["db"],
                id=row["id"],
                semantics=(
                    SemanticsAnnotation(kind="Object", keyword=row["keyword"]),
                ),
                dimensions=DimensionAnnotation(scale_min=1.0, scale_max=9.0, **dims),
                context=ContextRecord(),
            ),
        ))
    return records


def expand_keywords(records, mapping):
    """Add one concept annotation per mapped concept for every keyword
    annotation; returns (new_records, sorted-unmapped-keyword list).

    Idempotent: concepts already present on a record are not duplicated.
    """
    out = []
    unmapped = set()
    for rec in records:
        existing = {(s.kind, s.concept) for s in rec.semantics if s.concept}
        added = []
        for sem in rec.semantics:
            if sem.keyword is None:
                continue
            concepts = mapping.concepts_for(sem.keyword)
            if not concepts:
                unmapped.add(sem.keyword.casefold())
                continue
            for c in sorted(concepts):
                if (sem.kind, c) not in existing:
                    existing.add((sem.kind, c))
                    added.append(SemanticsAnnotation(kind=sem.kind, concept=c))
        if added:
            rec = rec._replace(semantics=rec.semantics + tuple(added))
        out.append(rec)
    return out, sorted(unmapped)
