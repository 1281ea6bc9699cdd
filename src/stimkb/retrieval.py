"""Query parsing, subsumption-filter evaluation, and ranked retrieval.

Query grammar (one line, whitespace-separated clauses, implicit AND):

    concept:<Ident> | keyword:"<text>" | keyword:<word>
    valence:[lo,hi] | arousal:[lo,hi] | dominance:[lo,hi]
    category:<vocab>.<term> | db:<Ident>
    measure:inclusion|levenshtein|pathlen|wupalmer|lch|li
    mode:filter|rank | limit:<int>

At most one of concept/keyword; measure and limit are rank-only.  Rank mode
defaults: measure wupalmer (concept) or levenshtein (keyword), limit 100.
"""

import re
from collections import namedtuple
from operator import itemgetter
from types import MappingProxyType

from .errors import QueryError, UnknownConceptError, ValidationError
from .similarity import (
    CONCEPT_MEASURES,
    DISTANCE_MEASURES,
    LEXICAL_MEASURES,
    Measure,
    distance_rel,
    parse_measure,
    relatedness,
)

MODE_FILTER = "filter"
MODE_RANK = "rank"

BOX_DIMENSIONS = ("valence", "arousal", "dominance")

DEFAULT_LIMIT = 100

_CLAUSE_RE = re.compile(r'(\S+?):("[^"]*"|\[[^\]\s]*\]|\S+)')


class Query(namedtuple(
    "Query", "concept keyword boxes category db_name measure mode limit",
    defaults=(None, None, MappingProxyType({}), None, None, None, MODE_RANK, None),
)):
    """A parsed query: `boxes` maps a dimension to its (lo, hi) interval,
    `category` is a (vocab, term) pair."""

    __slots__ = ()

    @property
    def term(self):
        return self.concept if self.concept is not None else self.keyword


class RankedResult(namedtuple("RankedResult", "entries query measure")):
    __slots__ = ()  # entries: ((stimulus key, score), ...) scores non-increasing


def parse_query(text, default_limit=DEFAULT_LIMIT):
    """Parse the one-line query grammar into a Query with defaults applied;
    a rank query without a `limit:` clause gets `default_limit`."""
    concept = keyword = category = db_name = measure = limit = None
    boxes = {}
    mode = MODE_RANK
    pos = 0
    starts = {}  # clause key -> its offset in `text`
    stripped = text.strip()
    if not stripped:
        raise QueryError("empty query", position=0)
    for m in _CLAUSE_RE.finditer(text):
        gap = text[pos:m.start()]
        if gap.strip():
            raise QueryError(f"unparseable text {gap.strip()!r}", position=pos)
        key, value = m.group(1), m.group(2)
        vpos = m.start(2)
        if key in starts:
            raise QueryError(f"duplicate clause {key!r}", position=m.start())
        starts[key] = m.start()
        if key == "concept":
            concept = value
        elif key == "keyword":
            if value.startswith('"'):
                # A quoted value with no closing quote falls to `\S+`.
                if len(value) < 2 or not value.endswith('"'):
                    raise QueryError(f"unterminated quote in keyword {value!r}",
                                     position=vpos)
                value = value[1:-1]
            keyword = value
            if not keyword:
                raise QueryError("empty keyword", position=vpos)
        elif key in BOX_DIMENSIONS:
            boxes[key] = _parse_interval(value, vpos)
        elif key == "category":
            vocab, sep, term = value.partition(".")
            if not sep or not vocab or not term:
                raise QueryError(
                    f"expected category:<vocab>.<term>, got {value!r}", position=vpos
                )
            category = (vocab, term)
        elif key == "db":
            db_name = value
        elif key == "measure":
            try:
                measure = parse_measure(value)
            except ValidationError as e:
                raise QueryError(str(e), position=vpos) from None
        elif key == "mode":
            if value not in (MODE_FILTER, MODE_RANK):
                raise QueryError(
                    f"mode must be filter or rank, got {value!r}", position=vpos
                )
            mode = value
        elif key == "limit":
            if not (value.isascii() and value.isdigit()) or int(value) < 1:
                raise QueryError(
                    f"limit must be a positive integer, got {value!r}", position=vpos
                )
            limit = int(value)
        else:
            raise QueryError(f"unknown clause {key!r}", position=m.start())
        pos = m.end()
    if text[pos:].strip():
        raise QueryError(f"unparseable text {text[pos:].strip()!r}", position=pos)

    if concept is not None and keyword is not None:
        raise QueryError("at most one of concept/keyword allowed", position=0)

    if mode == MODE_RANK:
        if concept is None and keyword is None:
            raise QueryError("rank mode requires a concept or keyword term",
                             position=0)
        if measure is None:
            measure = (
                Measure.WU_PALMER if concept is not None else Measure.LEVENSHTEIN
            )
        if limit is None:
            limit = default_limit
    else:
        for key in ("measure", "limit"):
            if key in starts:
                raise QueryError(f"clause {key!r} applies only in rank mode",
                                 position=starts[key])
        if concept is None and category is None and not boxes:
            raise QueryError(
                "filter mode requires a concept, a category, or a dimension box",
                position=0,
            )
    q = Query(concept, keyword, boxes, category, db_name, measure, mode, limit)
    if mode == MODE_RANK:
        _check_measure_kind(q)
    return q


def _parse_interval(value, pos):
    m = re.fullmatch(r"\[([^,\]]+),([^,\]]+)\]", value)
    if not m:
        raise QueryError(f"expected [lo,hi], got {value!r}", position=pos)
    try:
        lo, hi = float(m.group(1)), float(m.group(2))
    except ValueError:
        raise QueryError(f"non-numeric interval bound in {value!r}",
                         position=pos) from None
    if not lo <= hi:  # also rejects a NaN bound
        raise QueryError(f"interval [{lo}, {hi}] needs lo <= hi", position=pos)
    return (lo, hi)


def _check_measure_kind(q):
    if q.concept is not None and q.measure in LEXICAL_MEASURES:
        raise QueryError(
            f"measure {q.measure.value!r} is lexical but the query term is a concept"
        )
    if q.keyword is not None and q.measure in CONCEPT_MEASURES:
        raise QueryError(
            f"measure {q.measure.value!r} needs a concept term, not a keyword"
        )


def _passes_boxes(dims, boxes):
    if dims is None:
        return False
    for dim, (lo, hi) in boxes.items():
        v = getattr(dims, dim)
        if v is None or not lo <= v <= hi:
            return False
    return True


def _check_concept(graph, q):
    if q.concept is not None and q.concept not in graph.concepts:
        raise UnknownConceptError(f"unknown concept in query: {q.concept!r}")


def _candidates(corpus, q, closure, positions):
    """The `positions` of the corpus records, in order, that pass the
    query's db, box and category clauses: the candidate set of both filter
    and rank mode.  Each clause reads only its own field of the corpus
    (`db`, `dimensions`, `categories`).  A category clause matches any
    term of its equivalence class, taken once per query."""
    if q.db_name is not None:
        db = corpus.db
        positions = [i for i in positions if db[i] == q.db_name]
    if q.boxes:
        dims = corpus.dimensions
        positions = [i for i in positions if _passes_boxes(dims[i], q.boxes)]
    if q.category is not None:
        wanted = closure.equivalents("{}.{}".format(*q.category))
        cats = corpus.categories
        positions = [
            i for i in positions
            if not wanted.isdisjoint(cat.qualified for cat in cats[i])
        ]
    return positions


def filter_query(corpus, graph, q, closure):
    """Return the set of stimulus keys satisfying all present clauses.  A
    concept clause is read from the concept index: one subsumption test per
    distinct annotation concept, not per record.  The keys are the
    corpus's own strings."""
    if q.mode != MODE_FILTER:
        raise ValidationError("filter_query requires a filter-mode query")
    _check_concept(graph, q)
    positions = range(len(corpus))
    if q.concept is not None:
        keys = set()
        for concept, concept_keys in corpus.concept_index.items():
            if graph.is_subclass_of(concept, q.concept):
                keys |= concept_keys
        positions = list(map(corpus.positions.__getitem__, keys))
    keys = corpus.keys
    return set(map(keys.__getitem__, _candidates(corpus, q, closure, positions)))


class OperandScores:
    """Relatedness of one query term to each distinct operand, computed
    once and kept for every later record that carries the same operand.

    For path length, Leacock-Chodorow and Li the first concept operand runs
    one BFS from the term (`distances_from`); each operand then reads its
    distance from that map instead of running a `shortest_path` of its own.
    An unknown term raises at that first operand, as `relatedness` would.
    """

    def __init__(self, measure, term, graph):
        self.measure = Measure(measure)
        self.term = term
        self.graph = graph
        self._scores = {}
        self._distances = None

    def __call__(self, op):
        score = self._scores.get(op)
        if score is None:
            score = self._scores[op] = self._score(op)
        return score

    def _score(self, op):
        if self.measure not in DISTANCE_MEASURES:
            return relatedness(self.measure, self.term, op, graph=self.graph)
        if self._distances is None:
            self._distances = self.graph.distances_from(self.term)
        d = self._distances.get(op)
        if d is None:
            # Not a concept of the graph: fail as the per-pair path does.
            d = self.graph.shortest_path(self.term, op)
        return distance_rel(self.measure, self.graph, self.term, op, d)


def score_record(measure, semantics, score):
    """MAX over the semantics annotations `semantics` (one record's) of
    `score`, the relatedness of one operand to the query term under
    `measure`.

    Concept measures read annotation concepts, lexical measures read
    annotation keywords; a record with no annotation of the matching kind
    scores 0.
    """
    operands = (
        sorted({s.concept for s in semantics if s.concept})
        if measure in CONCEPT_MEASURES
        else [s.keyword for s in semantics if s.keyword]
    )
    best = 0.0
    for op in operands:
        best = max(best, score(op))
    return best


def sort_ranked(entries):
    """Sort (key, score) entries in place by score, highest first, and
    equal scores by key: as `key=lambda e: (-e[1], e[0])` sorts them, but
    by two stable passes whose keys are C calls, not one Python call per
    entry.  No score is NaN."""
    entries.sort(key=itemgetter(0))
    entries.sort(key=itemgetter(1), reverse=True)


def ranked_query(corpus, graph, q, closure):
    """Rank the candidate set (corpus after box/db/category filters) by
    relatedness to the query term; truncate to limit after sorting."""
    if q.mode != MODE_RANK:
        raise ValidationError("ranked_query requires a rank-mode query")
    _check_measure_kind(q)
    _check_concept(graph, q)
    keys, semantics = corpus.keys, corpus.semantics
    measure, term = q.measure, q.term

    def score(op):
        # One call per (record, operand) pair.  `relatedness` is looked up
        # at each call, so that a wrapper installed on this module sees
        # every one.
        return relatedness(measure, term, op, graph)

    scored = [
        (keys[i], score_record(measure, semantics[i], score))
        for i in _candidates(corpus, q, closure, range(len(corpus)))
    ]
    sort_ranked(scored)
    if q.limit is not None:
        scored = scored[: q.limit]
    return RankedResult(entries=tuple(scored), query=q, measure=q.measure)
