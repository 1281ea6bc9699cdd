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

import re
from collections import namedtuple

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
    with a concept index; treat as immutable once queries start."""

    def __init__(self, graph, vocabs):
        self.graph = graph
        self.vocabs = vocabs
        self.records = {}
        self.concept_index = {}

    def add_stimulus(self, rec, lineno=None, validated=False):
        """Validate `rec` against the graph and vocabularies and index it;
        `lineno`, the record's line in its source file, goes into the
        error text.  `validated=True` skips the validation, for a record
        already validated against this graph and these vocabularies (a
        sealed snapshot's); the duplicate-key check still runs."""
        if not validated:
            problems = validate_stimulus(rec, self.graph, self.vocabs)
            if problems:
                raise _invalid_record(rec, problems, lineno)
        key = rec.key
        if key in self.records:
            raise ValidationError(f"duplicate stimulus key {key}")
        self.records[key] = rec
        for sem in rec.semantics:
            if sem.concept:
                self.concept_index.setdefault(sem.concept, set()).add(key)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records.values())


def _invalid_record(rec, problems, lineno):
    where = f" (line {lineno})" if lineno is not None else ""
    return ValidationError(
        f"record {rec.key}{where}: " + "; ".join(problems), problems=problems
    )


def _parse_number(text, kind, what, lineno):
    try:
        return kind(text)
    except ValueError:
        raise ParseError(f"non-numeric {what}: {text!r}", line=lineno) from None


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


# Exact-key dispatch for parse_record_line.  `dim.*` keys map to the
# DimensionAnnotation field; `ctx.*` keys to the position of the
# ContextRecord field and its number type (None for text).
_DIM_KEYS = {f"dim.{name}": name for name in DIMENSION_NAMES + DIMENSION_SD_NAMES}
_CTX_ORDER = ContextRecord._fields
_CTX_KEYS = {
    f"ctx.{wire}": (_CTX_ORDER.index(attr), _CONTEXT_NUMBER_TYPES.get(wire))
    for wire, attr in _CTX_ATTR.items()
}


def _repeated(key, lineno):
    return ParseError(f"repeated record field {key!r}", line=lineno)


def _parse_record_line(line, lineno, interned):
    """The general record-line parser: what parse_record_line does for a
    line that no plan handles, token by token."""
    db = rid = None
    sems, cats, apps, tends, sents, phys = [], [], [], [], [], []
    dim = {}
    ctx = [None] * len(_CTX_ORDER)
    ctx_tokens = [None] * len(_CTX_ORDER)  # raw text, for the interning key
    has_ctx = False
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
            name = _DIM_KEYS[key]
            if name in dim:
                raise _repeated(key, lineno)
            dim[name] = _parse_number(value, float, f"dimension {name}", lineno)
        elif key in _CTX_KEYS:
            i, kind = _CTX_KEYS[key]
            if ctx_tokens[i] is not None:
                raise _repeated(key, lineno)
            has_ctx = True
            ctx_tokens[i] = token
            ctx[i] = value if kind is None else _parse_number(
                value, kind, key[4:], lineno
            )
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
            if "scale_min" in dim:
                raise _repeated(key, lineno)
            lo, sep2, hi = value.partition(":")
            if not sep2:
                raise ParseError(f"expected `min:max`, got {value!r}", line=lineno)
            dim["scale_min"] = _parse_number(lo, float, "scale min", lineno)
            dim["scale_max"] = _parse_number(hi, float, "scale max", lineno)
        elif key == "phys":
            for v in value.split(";"):
                if v:
                    path, _, channel = v.partition(" ")
                    phys.append(PhysiologyRef(path, channel or None))
        elif key == "ctx":
            # Presence marker for a context with no metadata.
            has_ctx = True
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
        elif key == "dim.level":
            if "confidence_level" in dim:
                raise _repeated(key, lineno)
            dim["confidence_level"] = value
        elif key == "dim.value":
            if "confidence_value" in dim:
                raise _repeated(key, lineno)
            dim["confidence_value"] = _parse_number(
                value, float, "dimension confidence", lineno
            )
        elif key.startswith("dim."):
            raise ParseError(f"unknown dimension field {key[4:]!r}", line=lineno)
        elif key.startswith("ctx."):
            raise ParseError(f"unknown context field {key[4:]!r}", line=lineno)
        else:
            raise ParseError(f"unknown record field {key!r}", line=lineno)

    if not db or not rid:
        raise ParseError("record requires db= and id=", line=lineno)

    dimensions = None
    if dim:
        if "scale_min" not in dim:
            raise ParseError(
                "dimension values require dim.scale=min:max", line=lineno
            )
        dimensions = DimensionAnnotation(**dim)

    context = None
    if has_ctx:
        ckey = ("ctx", "\t".join(t for t in ctx_tokens if t is not None))
        context = interned.get(ckey)
        if context is None:
            context = interned[ckey] = ContextRecord(*ctx)

    # Positional arguments, in field order: cheaper than keywords.
    return StimulusRecord(
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
    )


# Plans: parse_record_line's fast path.  A plan is a function generated for
# one key layout, the tuple of a line's token keys ("" for an empty token).
# One regex fullmatch checks that a line has that layout and extracts every
# value; the plan then converts, interns and builds in token order, as the
# general parser does.  It returns the record, or None when the line is not
# of its layout or has a bad value; the general parser then parses the line
# again and raises the same ParseError at the same token.
_SINGLE_KEYS = frozenset(
    {"db", "id", "dim.scale", "dim.level", "dim.value", *_DIM_KEYS, *_CTX_KEYS}
)
_REPEATABLE_KEYS = frozenset(
    {"", "sem", "cat", "appraisal", "tendency", "sentiment", "phys", "ctx"}
)
_DIM_ORDER = DimensionAnnotation._fields
# A plan takes about 1 ms to generate and compile (2-vCPU host), as long
# as the general parser takes for ~50 lines; the bound keeps a file whose
# every line has a new layout close to the general parser's speed.
_MAX_PLANS = 16
# Each plan under the tab count of its layout; _PLAN_LAYOUTS holds the
# layouts.  Filled as layouts are first seen, up to _MAX_PLANS plans.
_PLANS = {}
_PLAN_LAYOUTS = set()


def _intern_items(out, field, value, interned, parse):
    """Append to `out` the interned annotation of each non-empty
    `;`-separated item of `value`, parsing the new ones."""
    for v in value.split(";"):
        if v:
            ann = interned.get((field, v))
            if ann is None:
                ann = interned[(field, v)] = parse(v, None)
            out.append(ann)


def _plan_source(layout):
    """(regex, source of `plan(line, interned)`) for a layout, or None
    when it has a key the general parser rejects: an unknown or repeated
    single-valued key, no db or id, or `dim.*` keys without dim.scale."""
    singles = [k for k in layout if k in _SINGLE_KEYS]
    dims = [k for k in singles if k.startswith("dim.")]
    if (
        not _SINGLE_KEYS.union(_REPEATABLE_KEYS).issuperset(layout)
        or len(singles) != len(set(singles))
        or "db" not in singles
        or "id" not in singles
        or (dims and "dim.scale" not in dims)
    ):
        return None
    pattern, groups, body = [], [], []
    lists = set()  # record fields collected in lists: sems, cats, apps...
    dim = {}  # DimensionAnnotation field -> local name
    ctx = {}  # ContextRecord position -> local name of the value
    ctx_tokens = {}  # ContextRecord position -> f-string text of the token
    has_ctx = False
    for i, key in enumerate(layout):
        v = f"v{i}"
        if not key:
            pattern.append("")
        elif key == "dim.scale":
            pattern.append(r"dim\.scale=([^\t:]*):([^\t]*)")
            groups += [f"{v}lo", f"{v}hi"]
            body.append(f"{v}lo = float({v}lo); {v}hi = float({v}hi)")
            dim["scale_min"], dim["scale_max"] = f"{v}lo", f"{v}hi"
        else:
            value = "[^\t]+" if key in ("db", "id") else "[^\t]*"
            pattern.append(f"{re.escape(key)}=({value})")
            groups.append(v)
        if key in ("sem", "cat"):
            lists.add(f"{key}s")
            body += [
                f"a = get(({key!r}, {v}))",
                f"if a is None: intern_items({key}s, {key!r}, {v}, interned, "
                f"parse_{key})",
                f"else: {key}s.append(a)",
            ]
        elif key in _DIM_KEYS or key == "dim.value":
            body.append(f"{v} = float({v})")
            dim[_DIM_KEYS.get(key, "confidence_value")] = v
        elif key == "dim.level":
            dim["confidence_level"] = v
        elif key in _CTX_KEYS:
            pos, kind = _CTX_KEYS[key]
            ctx[pos] = v
            if kind is not None:
                # The number goes to its own local: the key needs the text.
                ctx[pos] = f"{v}n"
                body.append(f"{v}n = {kind.__name__}({v})")
            ctx_tokens[pos] = f"{key}={{{v}}}"
        elif key == "ctx":
            has_ctx = True
        elif key == "appraisal":
            lists.add("apps")
            body += [
                f"for item in {v}.split(';'):",
                "    if item:",
                "        name, sep, num = item.rpartition(':')",
                "        if not sep: return None",
                "        apps.append((name, float(num)))",
            ]
        elif key == "tendency":
            lists.add("tends")
            body.append(f"tends.append(Tendency(*split_confidence({v}, None)))")
        elif key == "sentiment":
            lists.add("sents")
            body += [
                f"payload, level, cvalue = split_confidence({v}, None)",
                "sents.append(Sentiment(float(payload), level, cvalue))",
            ]
        elif key == "phys":
            lists.add("phys")
            body += [
                f"for item in {v}.split(';'):",
                "    if item:",
                "        path, _, channel = item.partition(' ')",
                "        phys.append(Physiology(path, channel or None))",
            ]

    def collected(name):
        return f"tuple({name})" if name in lists else "()"

    db, rid = f"v{layout.index('db')}", f"v{layout.index('id')}"
    dimensions = context = "None"
    intern_context = []
    if dim:
        args = ", ".join(dim.get(name, "None") for name in _DIM_ORDER)
        dimensions = f"Dimension({args})"
    if ctx or has_ctx:
        # Interned after every value has converted, as the general parser
        # does, under the ctx tokens' raw text in field order.
        text = "\t".join(ctx_tokens[i] for i in sorted(ctx_tokens))
        ckey = f"('ctx', f{text!r})" if text else "('ctx', '')"
        args = ", ".join(ctx.get(i, "None") for i in range(len(_CTX_ORDER)))
        context = "context"
        intern_context = [
            f"    ckey = {ckey}",
            "    context = get(ckey)",
            f"    if context is None: context = interned[ckey] = Context({args})",
        ]
    appraisals = "(Appraisal(tuple(apps)),) if apps else ()"
    if "apps" not in lists:
        appraisals = "()"
    source = "\n".join([
        "def plan(line, interned):",
        "    m = match(line)",
        "    if m is None: return None",
        f"    {', '.join(groups)}, = m.groups()",
        "    get = interned.get",
        *(f"    {name} = []" for name in sorted(lists)),
        "    try:",
        *(f"        {stmt}" for stmt in body or ["pass"]),
        "    except (ValueError, ParseError):",
        "        return None",
        *intern_context,
        f"    return Record({db}, {rid}, {collected('sems')}, {collected('cats')}, "
        f"{dimensions}, {appraisals}, {collected('tends')}, "
        f"{collected('sents')}, {context}, {collected('phys')})",
    ])
    return "\t".join(pattern), source


def _compile_plan(layout):
    """The plan for a layout, or None when it gets none (see _plan_source)."""
    generated = _plan_source(layout)
    if generated is None:
        return None
    pattern, source = generated
    namespace = {
        "match": re.compile(pattern).fullmatch,
        "ParseError": ParseError,
        "intern_items": _intern_items,
        "parse_sem": _parse_sem,
        "parse_cat": _parse_cat,
        "split_confidence": _split_confidence,
        "Record": StimulusRecord,
        "Dimension": DimensionAnnotation,
        "Context": ContextRecord,
        "Physiology": PhysiologyRef,
        "Appraisal": AppraisalAnnotation,
        "Tendency": ActionTendencyAnnotation,
        "Sentiment": SentimentAnnotation,
    }
    exec(source, namespace)
    return namespace["plan"]


def parse_record_line(line, lineno, interned):
    """Parse one record line (format in the module docstring); the first
    malformed token raises ParseError, naming `lineno` unless it is None.
    Does not validate.

    `interned` maps ("sem" or "cat", value) to the annotation parsed from
    it, and ("ctx", the line's `ctx.*` tokens in field order, tab-joined)
    to the ContextRecord built from them.  Pass one dict to all the lines
    of a file, so that records with the same `sem=`/`cat=` value, or the
    same context tokens, share one object; only values that parse are
    stored, and a context only once its whole line has parsed.

    A line is parsed by the plan of its key layout, compiled when the
    layout is first seen while the plan table has room; any line no plan
    handles goes to the general parser.  Records, errors and interning
    are the same either way.
    """
    for plan in _PLANS.get(line.count("\t"), ()):
        rec = plan(line, interned)
        if rec is not None:
            return rec
    if len(_PLAN_LAYOUTS) < _MAX_PLANS:
        layout = tuple(token.partition("=")[0] for token in line.split("\t"))
        if layout not in _PLAN_LAYOUTS:
            plan = _compile_plan(layout)
            if plan is not None:
                _PLAN_LAYOUTS.add(layout)
                _PLANS.setdefault(len(layout) - 1, []).append(plan)
                rec = plan(line, interned)
                if rec is not None:
                    return rec
    return _parse_record_line(line, lineno, interned)


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
            raise _invalid_record(rec, problems, lineno)
        records.append(rec)
    return records


def _fmt_num(v):
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return repr(v) if isinstance(v, float) else str(v)


def _conf_suffix(level, value):
    parts = []
    if level is not None:
        parts.append(f"level={level}")
    if value is not None:
        parts.append(f"value={_fmt_num(value)}")
    return "@" + ",".join(parts) if parts else ""


def serialize_record(rec):
    tokens = [f"db={rec.db}", f"id={rec.id}"]
    for sem in rec.semantics:
        if sem.concept is not None:
            tokens.append(f"sem={sem.kind}:concept:{sem.concept}")
        else:
            tokens.append(f"sem={sem.kind}:keyword:{sem.keyword}")
    for cat in rec.categories:
        tokens.append(
            f"cat={cat.vocabulary}.{cat.term}"
            + _conf_suffix(cat.confidence_level, cat.confidence_value)
        )
    d = rec.dimensions
    if d is not None:
        tokens.append(f"dim.scale={_fmt_num(d.scale_min)}:{_fmt_num(d.scale_max)}")
        for name, v in d.values():
            tokens.append(f"dim.{name}={_fmt_num(v)}")
        for name in ("valenceSD", "arousalSD", "dominanceSD"):
            v = getattr(d, name)
            if v is not None:
                tokens.append(f"dim.{name}={_fmt_num(v)}")
        if d.confidence_level is not None:
            tokens.append(f"dim.level={d.confidence_level}")
        if d.confidence_value is not None:
            tokens.append(f"dim.value={_fmt_num(d.confidence_value)}")
    for app in rec.appraisals:
        for name, v in app.values:
            tokens.append(f"appraisal={name}:{_fmt_num(v)}")
    for t in rec.action_tendencies:
        tokens.append(
            f"tendency={t.term}" + _conf_suffix(t.confidence_level, t.confidence_value)
        )
    for s in rec.sentiments:
        tokens.append(
            f"sentiment={_fmt_num(s.value)}"
            + _conf_suffix(s.confidence_level, s.confidence_value)
        )
    if rec.context is not None:
        ctx_tokens = []
        for wire, v in zip(_CTX_ATTR, rec.context):  # in field order
            if v is not None:
                v = _fmt_num(v) if isinstance(v, (int, float)) else v
                ctx_tokens.append(f"ctx.{wire}={v}")
        tokens.extend(ctx_tokens if ctx_tokens else ["ctx=1"])
    for phy in rec.physiology:
        channel = f" {phy.channel}" if phy.channel else ""
        tokens.append(f"phys={phy.path}{channel}")
    return "\t".join(tokens)


def parse_legacy_table(text):
    """Parse an IAPS-style keyword + ratings TSV into stimulus records.

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
        records.append(
            StimulusRecord(
                db=row["db"],
                id=row["id"],
                semantics=(
                    SemanticsAnnotation(kind="Object", keyword=row["keyword"]),
                ),
                dimensions=DimensionAnnotation(scale_min=1.0, scale_max=9.0, **dims),
                context=ContextRecord(),
            )
        )
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
