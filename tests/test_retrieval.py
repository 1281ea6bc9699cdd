import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from stimkb import retrieval
from stimkb.affect import (
    CategoryAnnotation,
    DimensionAnnotation,
    EquivalenceClosure,
    load_vocabularies,
)
from stimkb.corpus import Corpus, SemanticsAnnotation, StimulusRecord
from stimkb.errors import QueryError, UnknownConceptError, ValidationError
from stimkb.retrieval import (
    MODE_FILTER,
    MODE_RANK,
    OperandScores,
    filter_query,
    parse_query,
    ranked_query,
    score_record,
    sort_ranked,
)
from stimkb.similarity import CONCEPT_MEASURES, Measure, relatedness
from stimkb.taxonomy import parse_taxonomy


def test_parse_fig7_style_filter():
    q = parse_query(
        "concept:GroupOfPeople valence:[6.5,9] arousal:[1,3.5] mode:filter"
    )
    assert q.mode == MODE_FILTER
    assert q.concept == "GroupOfPeople"
    assert q.boxes == {"valence": (6.5, 9.0), "arousal": (1.0, 3.5)}


def test_parse_minimal_rank_query():
    q = parse_query("keyword:Man measure:levenshtein")
    assert q.mode == MODE_RANK
    assert q.keyword == "Man"
    assert q.measure is Measure.LEVENSHTEIN
    assert q.limit == 100


def test_parse_quoted_keyword():
    q = parse_query('keyword:"winter street"')
    assert q.keyword == "winter street"
    assert q.measure is Measure.LEVENSHTEIN


def test_rank_defaults_wupalmer_for_concepts():
    q = parse_query("concept:Dog")
    assert q.measure is Measure.WU_PALMER


def test_parse_errors():
    with pytest.raises(QueryError):
        parse_query("valence:[9,6.5]")  # inverted
    for box in ("[nan,9]", "[1,nan]"):  # NaN fails lo <= hi
        with pytest.raises(QueryError, match="needs lo <= hi"):
            parse_query(f"valence:{box} mode:filter")
    with pytest.raises(QueryError):
        parse_query("concept:A keyword:B")
    with pytest.raises(QueryError):
        parse_query("frobnicate:yes")
    with pytest.raises(QueryError):
        parse_query("mode:filter")  # no clause to filter on
    with pytest.raises(QueryError):
        parse_query("mode:rank")  # no term
    with pytest.raises(QueryError):
        parse_query("keyword:dog measure:wupalmer")  # kind mismatch
    with pytest.raises(QueryError):
        parse_query("concept:Dog limit:0")
    with pytest.raises(QueryError):
        parse_query("")
    for text in ('keyword:"nub', 'keyword:"n', 'keyword:"'):
        with pytest.raises(QueryError, match="unterminated quote") as exc:
            parse_query(text)
        assert exc.value.position == 8
    for digits in ("²", "١٢"):  # str.isdigit, but not ASCII digits
        with pytest.raises(QueryError, match="limit must be a positive integer"):
            parse_query(f"concept:Dog limit:{digits}")
    for clause in ("limit:3", "measure:wupalmer"):
        with pytest.raises(QueryError, match="applies only in rank mode"):
            parse_query(f"concept:Dog {clause} mode:filter")
    err = None
    try:
        parse_query("concept:Dog valence:[oops]")
    except QueryError as e:
        err = e
    assert err is not None and err.position is not None


def test_fig7_filter_empty_on_fixture(paper_workspace):
    ws = paper_workspace
    q = parse_query("concept:GroupOfPeople valence:[6.5,9] arousal:[1,3.5] mode:filter")
    assert filter_query(ws.corpus, ws.graph, q, ws.closure) == set()


def test_concept_filter_returns_311(paper_workspace):
    ws = paper_workspace
    q = parse_query("concept:GroupOfPeople mode:filter")
    assert filter_query(ws.corpus, ws.graph, q, ws.closure) == {"IADS/311"}


def test_subsumption_filter_matches_subclasses(paper_workspace):
    ws = paper_workspace
    q = parse_query("concept:Collection mode:filter")
    assert filter_query(ws.corpus, ws.graph, q, ws.closure) == {"IADS/311"}


def test_db_filter(paper_workspace):
    ws = paper_workspace
    q = parse_query("concept:Entity db:IADS mode:filter")
    assert filter_query(ws.corpus, ws.graph, q, ws.closure) == {"IADS/311"}


def test_category_filter_through_equivalence(paper_workspace):
    ws = paper_workspace
    direct = parse_query("category:BigSix.happiness mode:filter")
    assert filter_query(ws.corpus, ws.graph, direct, ws.closure) == {"IAPS/8163"}
    inferred = parse_query("category:FSRECategory.happiness mode:filter")
    assert filter_query(ws.corpus, ws.graph, inferred, ws.closure) == {"IAPS/8163"}
    other = parse_query("category:BigSix.fear mode:filter")
    assert filter_query(ws.corpus, ws.graph, other, ws.closure) == set()


def test_category_class_taken_once_per_query(paper_workspace, monkeypatch):
    ws = paper_workspace
    calls = []
    equivalents = EquivalenceClosure.equivalents
    monkeypatch.setattr(EquivalenceClosure, "equivalents",
                        lambda self, t: calls.append(t) or equivalents(self, t))
    monkeypatch.delattr(EquivalenceClosure, "are_equivalent")
    q = parse_query("category:FSRECategory.happiness mode:filter")
    assert filter_query(ws.corpus, ws.graph, q, ws.closure) == {"IAPS/8163"}
    q = parse_query("concept:Entity category:FSRECategory.happiness")
    result = ranked_query(ws.corpus, ws.graph, q, ws.closure)
    assert [k for k, _ in result.entries] == ["IAPS/8163"]
    assert calls == ["FSRECategory.happiness"] * 2


def test_results_hold_the_corpus_own_key_strings(paper_workspace):
    # Filter and rank return the corpus's key objects, not new strings.
    ws = paper_workspace
    own = {id(key): key for key in ws.corpus.keys}
    for text in ("concept:Human measure:pathlen", "keyword:Crowd",
                 "concept:Entity db:IAPS valence:[1,9]"):
        entries = ranked_query(ws.corpus, ws.graph, parse_query(text),
                               ws.closure).entries
        assert entries and all(own.get(id(key)) is key for key, _ in entries)
    for text in ("concept:Entity mode:filter", "db:IAPS valence:[1,9] mode:filter"):
        keys = filter_query(ws.corpus, ws.graph, parse_query(text), ws.closure)
        assert keys and all(own.get(id(key)) is key for key in keys)


def test_filter_unknown_concept(paper_workspace):
    ws = paper_workspace
    q = parse_query("concept:Entity mode:filter")._replace(concept="NoSuchConcept")
    with pytest.raises(UnknownConceptError):
        filter_query(ws.corpus, ws.graph, q, ws.closure)


def test_filter_equals_brute_force_clause_evaluation(paper_workspace):
    ws = paper_workspace
    q = parse_query("concept:Object valence:[1,9] mode:filter")
    got = filter_query(ws.corpus, ws.graph, q, ws.closure)
    expected = set()
    for rec in ws.corpus:
        if rec.dimensions is None:
            continue
        if not (1 <= rec.dimensions.valence <= 9):
            continue
        if any(ws.graph.is_subclass_of(c, "Object") for c in rec.concepts()):
            expected.add(rec.key)
    assert got == expected


def test_ranked_keyword_inclusion(paper_workspace):
    ws = paper_workspace
    q = parse_query("keyword:WinterStreet measure:inclusion db:IAPS")
    result = ranked_query(ws.corpus, ws.graph, q, ws.closure)
    scores = dict(result.entries)
    assert scores["IAPS/5635"] == 1.0
    assert scores["IAPS/7039"] == 0.0
    assert result.entries[0][0] == "IAPS/5635"


def test_exact_concept_ranks_first(paper_workspace):
    ws = paper_workspace
    for measure in ("pathlen", "wupalmer", "lch", "li"):
        q = parse_query(f"concept:GroupOfPeople measure:{measure}")
        result = ranked_query(ws.corpus, ws.graph, q, ws.closure)
        assert result.entries[0] == ("IADS/311", 1.0)
        assert all(s < 1.0 for _, s in result.entries[1:])


RANDOM_DBS = ("IAPS", "IADS", "T")
# Each category term of the random corpora, with the terms the axiom below
# makes equivalent to it (itself included).
RANDOM_CATEGORIES = {
    "BigSix.fear": {"BigSix.fear", "FSRECategory.fear"},
    "FSRECategory.fear": {"BigSix.fear", "FSRECategory.fear"},
    "BigSix.happiness": {"BigSix.happiness"},
}
RANDOM_CLOSURE = EquivalenceClosure([("BigSix.fear", "FSRECategory.fear")])
RANDOM_VOCABS = load_vocabularies("FSRECategory\tfear\n")


def _random_corpus(seed, graph):
    """5-25 records over `graph`'s concepts: each has one to three
    concepts and a keyword, a db among RANDOM_DBS, usually a valence/arousal
    annotation (dominance sometimes missing), and up to two categories."""
    rng = random.Random(seed)
    corpus = Corpus(graph, RANDOM_VOCABS)
    nodes = sorted(graph.concepts)
    for i in range(rng.randint(5, 25)):
        sems = [
            SemanticsAnnotation(kind="Object", concept=rng.choice(nodes))
            for _ in range(rng.randint(1, 3))
        ]
        sems.append(
            SemanticsAnnotation(
                kind="Object", keyword="".join(rng.choice("abcd") for _ in range(4))
            )
        )
        dims = None
        if rng.random() < 0.8:
            dims = DimensionAnnotation(
                scale_min=1.0, scale_max=9.0,
                valence=float(rng.randint(1, 9)), arousal=float(rng.randint(1, 9)),
                dominance=rng.choice([None, float(rng.randint(1, 9))]),
            )
        cats = tuple(
            CategoryAnnotation(*rng.choice(sorted(RANDOM_CATEGORIES)).split("."))
            for _ in range(rng.randint(0, 2))
        )
        corpus.add_stimulus(StimulusRecord(
            db=rng.choice(RANDOM_DBS), id=f"{i:03d}", semantics=tuple(sems),
            categories=cats, dimensions=dims,
        ))
    return corpus


def _random_clauses(rng):
    """Some of the db, box and category clauses, as (query text, checks),
    where each check is a naive per-record test of one clause."""
    parts, checks = [], []
    if rng.random() < 0.5:
        db = rng.choice(RANDOM_DBS)
        parts.append(f"db:{db}")
        checks.append(lambda rec: rec.db == db)
    for dim in ("valence", "arousal", "dominance"):
        if rng.random() < 0.3:
            lo = rng.randint(1, 9)
            hi = rng.randint(lo, 9)
            parts.append(f"{dim}:[{lo},{hi}]")
            checks.append(
                lambda rec, dim=dim, lo=lo, hi=hi: rec.dimensions is not None
                and getattr(rec.dimensions, dim) is not None
                and lo <= getattr(rec.dimensions, dim) <= hi
            )
    if rng.random() < 0.4:
        want = rng.choice(sorted(RANDOM_CATEGORIES))
        parts.append(f"category:{want}")
        checks.append(lambda rec: any(
            c.qualified in RANDOM_CATEGORIES[want] for c in rec.categories))
    return " ".join(parts), checks


@pytest.mark.parametrize("seed", range(10))
def test_ranking_matches_score_all_then_sort_oracle(seed):
    from conftest import random_dag

    graph = random_dag(seed, 30)
    corpus = _random_corpus(seed, graph)
    rng = random.Random(seed)
    for measure in Measure:
        if measure in CONCEPT_MEASURES:
            kind, term = "concept", rng.choice(sorted(graph.concepts))
        else:
            kind, term = "keyword", "".join(rng.choice("abcd") for _ in range(3))
        clauses, checks = _random_clauses(rng)
        q = parse_query(f"{kind}:{term} measure:{measure.value} limit:7 {clauses}")
        result = ranked_query(corpus, graph, q, RANDOM_CLOSURE)
        oracle = []
        for rec in corpus:
            if not all(check(rec) for check in checks):
                continue
            operands = (rec.concepts() if kind == "concept"
                        else [s.keyword for s in rec.semantics if s.keyword])
            best = max(
                relatedness(measure, term, op, graph=graph) for op in operands
            )
            oracle.append((rec.key, best))
        oracle.sort(key=lambda e: (-e[1], e[0]))
        assert list(result.entries) == oracle[:7]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 40), st.sampled_from(list(Measure)),
       st.data())
def test_ranking_through_operand_scores_equals_ranked_query(
    seed, n_nodes, measure, data
):
    # Scoring each distinct operand once, through OperandScores, ranks the
    # candidates exactly as ranked_query does, floats and tie order
    # included, with or without db, box and category clauses, and under
    # limits below and above the candidate count.
    from conftest import random_dag

    graph = random_dag(seed, n_nodes)
    corpus = _random_corpus(seed, graph)
    if measure in CONCEPT_MEASURES:
        kind, term = "concept", data.draw(st.sampled_from(sorted(graph.concepts)))
    else:
        kind, term = "keyword", data.draw(st.text("abcd", min_size=1, max_size=5))
    clauses, _ = _random_clauses(random.Random(data.draw(st.integers())))
    q = parse_query(f"{kind}:{term} measure:{measure.value} {clauses}")
    candidates = retrieval._candidates(
        corpus, q, RANDOM_CLOSURE, range(len(corpus)))
    q = q._replace(limit=data.draw(st.integers(1, len(candidates) + 2)))
    score = OperandScores(measure, term, graph)
    memoised = sorted(
        ((corpus.keys[i], score_record(measure, corpus.semantics[i], score))
         for i in candidates),
        key=lambda e: (-e[1], e[0]),
    )
    result = ranked_query(corpus, graph, q, RANDOM_CLOSURE)
    assert result.entries == tuple(memoised[:q.limit])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 40), st.booleans(), st.data())
def test_filter_matches_per_record_scan(seed, n_nodes, with_concept, data):
    from conftest import random_dag

    graph = random_dag(seed, n_nodes)
    corpus = _random_corpus(seed, graph)
    clauses, checks = _random_clauses(random.Random(data.draw(st.integers())))
    concept = None
    if with_concept or not any(k in clauses for k in ("[", "category:")):
        concept = data.draw(st.sampled_from(sorted(graph.concepts)))
        clauses += f" concept:{concept}"
    q = parse_query(clauses + " mode:filter")
    closure = graph.ancestor_closure
    expected = {
        rec.key for rec in corpus
        if all(check(rec) for check in checks)
        and (concept is None or any(c == concept or concept in closure[c]
                                    for c in rec.concepts()))
    }
    assert filter_query(corpus, graph, q, RANDOM_CLOSURE) == expected


# Scores drawn from a few values, -0.0 and 0.0 among them, so that most
# lists hold many ties; keys are distinct, as a corpus's are.
TIED_SCORES = st.sampled_from([0.0, -0.0, 0, 0.25, 1.0, 1, -3.5, 1e-300])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.text(max_size=4), TIED_SCORES),
                unique_by=lambda e: e[0], max_size=40)
       | st.lists(st.tuples(st.text(max_size=4),
                            st.floats(allow_nan=False)),
                  unique_by=lambda e: e[0], max_size=40))
def test_sort_ranked_equals_the_tuple_key_sort(entries):
    expected = sorted(entries, key=lambda e: (-e[1], e[0]))
    sort_ranked(entries)
    assert entries == expected
    # The same objects in the same order, 0 kept apart from 0.0 and -0.0.
    assert list(map(repr, entries)) == list(map(repr, expected))


def test_truncation_happens_after_sorting(paper_workspace):
    ws = paper_workspace
    q = parse_query("concept:Human measure:pathlen limit:1")
    result = ranked_query(ws.corpus, ws.graph, q, ws.closure)
    assert len(result.entries) == 1
    assert result.entries[0][0] == "IAPS/8163"


def test_adding_irrelevant_stimulus_preserves_order(paper_graph):
    corpus = _random_corpus(42, paper_graph)
    q = parse_query("concept:Human measure:pathlen")
    before = ranked_query(corpus, paper_graph, q, RANDOM_CLOSURE).entries
    # A stimulus whose only annotation is maximally distant scores lowest.
    far = StimulusRecord(
        db="Z",
        id="zzz",
        semantics=(SemanticsAnnotation(kind="Object", keyword="unrelated"),),
    )
    corpus.add_stimulus(far)
    after = ranked_query(corpus, paper_graph, q, RANDOM_CLOSURE).entries
    assert [e for e in after if e[0] != "Z/zzz"] == list(before)


def test_score_record_max_aggregation(paper_graph):
    rec = StimulusRecord(
        db="T",
        id="1",
        semantics=(
            SemanticsAnnotation(kind="Object", concept="Human"),
            SemanticsAnnotation(kind="Object", concept="Entity"),
        ),
    )
    s = score_record(Measure.PATH_LENGTH, rec.semantics, partial(
        relatedness, Measure.PATH_LENGTH, "Human", graph=paper_graph))
    assert s == 1.0


def test_rank_mode_guard():
    g = parse_taxonomy("A\tB")
    q = parse_query("concept:A mode:filter")
    with pytest.raises(ValidationError):
        ranked_query(Corpus(g, RANDOM_VOCABS), g, q, RANDOM_CLOSURE)
    q2 = parse_query("concept:A")
    with pytest.raises(ValidationError):
        filter_query(Corpus(g, RANDOM_VOCABS), g, q2, RANDOM_CLOSURE)
