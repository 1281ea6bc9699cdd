"""Emotion annotations: categorical vocabularies, dimensional values with
confidence, appraisal/action-tendency/sentiment records, and equivalence
closure over qualified emotion terms.

Dimensional values are stored, and filtered, on their source scale (e.g.
1..9) together with explicit scale bounds.
Cross-vocabulary equivalence exists only where an explicit axiom states it.
"""

from collections import namedtuple

from .errors import ParseError, ValidationError
from .lines import tab_rows

CONFIDENCE_LEVELS = ("VeryHigh", "High", "Average", "Low", "VeryLow")

BIG_SIX_ID = "BigSix"
BIG_SIX_REQUIRED = frozenset({"anger", "disgust", "fear", "happiness", "sadness"})
BIG_SIX_TERMS = frozenset(
    {"anger", "disgust", "fear", "happiness", "sadness", "surprise"}
)

DIMENSION_NAMES = (
    "valence",
    "arousal",
    "dominance",
    "potency",
    "unpredictability",
    "intensity",
)
DIMENSION_SD_NAMES = ("valenceSD", "arousalSD", "dominanceSD")


class Vocabulary(namedtuple("Vocabulary", "id terms")):
    __slots__ = ()

    def __new__(cls, id, terms):
        if not terms:
            raise ValidationError(f"vocabulary {id!r} has no terms")
        return super().__new__(cls, id, terms)


def load_vocabularies(text):
    """Parse `vocab<TAB>term` lines into a dict of Vocabulary by id.

    A built-in BigSix is supplied when the file does not define one.  A
    file-supplied BigSix must still contain the five primary emotions.
    """
    terms_by_id = {}
    for lineno, (vocab, term) in tab_rows(text, "vocab<TAB>term"):
        if not vocab or not term:
            raise ParseError("empty vocabulary id or term", line=lineno)
        terms_by_id.setdefault(vocab, set()).add(term)

    vocabs = {}
    for vid, terms in terms_by_id.items():
        if vid == BIG_SIX_ID and not BIG_SIX_REQUIRED <= terms:
            missing = sorted(BIG_SIX_REQUIRED - terms)
            raise ValidationError(f"BigSix is missing required terms: {missing}")
        vocabs[vid] = Vocabulary(vid, frozenset(terms))
    if BIG_SIX_ID not in vocabs:
        vocabs[BIG_SIX_ID] = Vocabulary(BIG_SIX_ID, BIG_SIX_TERMS)
    return vocabs


class CategoryAnnotation(namedtuple(
    "CategoryAnnotation", "vocabulary term confidence_level confidence_value",
    defaults=(None, None),
)):
    __slots__ = ()

    @property
    def qualified(self):
        return f"{self.vocabulary}.{self.term}"


def confidence_problems(level, value):
    """The problems of a confidence level and value, either of them None."""
    problems = []
    if level is not None and level not in CONFIDENCE_LEVELS:
        problems.append(f"confidenceLevel {level!r} not one of {CONFIDENCE_LEVELS}")
    if value is not None and not 0.0 <= value <= 1.0:
        problems.append(f"confidenceValue {value} outside [0, 1]")
    return problems


def validate_category(ann, vocabs):
    """Return a list of problems; empty means the annotation is valid."""
    problems = []
    vocab = vocabs.get(ann.vocabulary)
    if vocab is None:
        problems.append(f"unknown vocabulary {ann.vocabulary!r}")
    elif ann.term not in vocab.terms:
        problems.append(f"term {ann.term!r} not in vocabulary {ann.vocabulary!r}")
    return problems + confidence_problems(ann.confidence_level,
                                          ann.confidence_value)


class DimensionAnnotation(namedtuple(
    "DimensionAnnotation",
    ("scale_min", "scale_max", *DIMENSION_NAMES, *DIMENSION_SD_NAMES,
     "confidence_level", "confidence_value"),
    defaults=(None,) * 11,
)):
    __slots__ = ()

    def values(self):
        """Present (name, value) pairs in DIMENSION_NAMES order."""
        pairs = zip(DIMENSION_NAMES, self[2:2 + len(DIMENSION_NAMES)])
        return [pair for pair in pairs if pair[1] is not None]


def scale_problem(lo, hi):
    """The problem of the scale [lo, hi], or None."""
    if lo >= hi:
        return f"scaleMin {lo} must be < scaleMax {hi}"


def in_scale_problem(name, value, lo, hi):
    """The problem of dimension `name` at `value` on scale [lo, hi], or None."""
    if not lo <= value <= hi:
        return f"{name}={value} outside scale [{lo}, {hi}]"


def non_negative_problem(name, value):
    """The problem of `name` at `value` (or None) below 0 or NaN, or None."""
    if value is not None and not value >= 0:
        return f"{name}={value} is {'negative' if value < 0 else 'not a number'}"


def validate_dimension(ann):
    """Return a list of problems; empty means the annotation is valid.  A
    bad scale is reported alone."""
    lo, hi = ann.scale_min, ann.scale_max
    problem = scale_problem(lo, hi)
    if problem is not None:
        return [problem]
    present = ann.values()
    problems = [] if present else ["no dimension value present"]
    problems += [in_scale_problem(name, v, lo, hi) for name, v in present]
    problems += map(non_negative_problem, DIMENSION_SD_NAMES,
                    map(ann.__getattribute__, DIMENSION_SD_NAMES))
    problems += confidence_problems(ann.confidence_level, ann.confidence_value)
    return list(filter(None, problems))


class AppraisalAnnotation(namedtuple("AppraisalAnnotation", "values")):
    __slots__ = ()  # values: ((name, float-in-[0,1]), ...)


class ActionTendencyAnnotation(namedtuple(
    "ActionTendencyAnnotation", "term confidence_level confidence_value",
    defaults=(None, None),
)):
    __slots__ = ()


class SentimentAnnotation(namedtuple(
    "SentimentAnnotation", "value confidence_level confidence_value",
    defaults=(None, None),
)):
    __slots__ = ()


def unit_interval_problem(name, value):
    """The problem of `name` at `value` outside [0, 1], or None."""
    if not 0.0 <= value <= 1.0:
        return f"{name}={value} outside [0, 1]"


class EquivalenceClosure:
    """The partition of qualified terms `vocab.term` that the axioms'
    pairs induce: each class is a connected component of the pairs.

    Unknown terms, and terms paired only with themselves, behave as
    singleton classes.  The terms are taken as given: parse_axioms checks
    their form.
    """

    def __init__(self, axioms=()):
        neighbours = {}
        for a, b in axioms:
            if a != b:
                neighbours.setdefault(a, set()).add(b)
                neighbours.setdefault(b, set()).add(a)
        # One breadth-first walk per class, from its first-named term, so
        # each term and each pair is visited once.
        self._class_of = {}
        for start in neighbours:
            if start not in self._class_of:
                walk = [start]
                members = {start}
                for t in walk:  # `walk` grows as members are found
                    new = neighbours[t] - members
                    members |= new
                    walk += new
                members = frozenset(members)
                self._class_of.update(dict.fromkeys(members, members))

    def are_equivalent(self, a, b):
        return a == b or b in self._class_of.get(a, ())

    def equivalents(self, term):
        """The set of terms equivalent to `term`, `term` included."""
        return self._class_of.get(term) or {term}

    def classes(self):
        """The classes of two or more terms, as sorted tuples, sorted."""
        return sorted(tuple(sorted(c)) for c in set(self._class_of.values()))


def parse_axioms(text):
    """Parse `vocabA<TAB>termA<TAB>vocabB<TAB>termB` lines into pairs of
    qualified terms `vocab.term`; a qualified term must not start or end
    with `.`."""
    axioms = []
    shape = "vocabA<TAB>termA<TAB>vocabB<TAB>termB"
    for lineno, (va, ta, vb, tb) in tab_rows(text, shape):
        if not all((va, ta, vb, tb)):
            raise ParseError("empty field in axiom", line=lineno)
        pair = (f"{va}.{ta}", f"{vb}.{tb}")
        for term in pair:
            if term.startswith(".") or term.endswith("."):
                raise ParseError(f"malformed qualified term {term!r}", line=lineno)
        axioms.append(pair)
    return axioms
