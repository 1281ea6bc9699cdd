import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, strategies as st

import stimkb.evaluation as evaluation
from stimkb.errors import ParseError, UnknownConceptError, ValidationError
from stimkb.evaluation import (
    ConfusionMatrix,
    ExperimentConfig,
    ExperimentQuery,
    aggregate,
    classify_at_threshold,
    confusion,
    lift_curve,
    metrics,
    parse_judgments,
    parse_queries,
    report_to_tsv,
    run_experiment,
    select_threshold,
)
from stimkb.retrieval import OperandScores, score_record
from stimkb.similarity import CONCEPT_MEASURES, Measure, relatedness
from stimkb.taxonomy import TaxonomyGraph

from synthetic import generate


def _ranked(relevance):
    return [(f"s{i:03d}", 1.0 - i * 0.01) for i in range(len(relevance))]


def _judged(relevance):
    return {f"s{i:03d}": rel for i, rel in enumerate(relevance)}


def test_lift_all_relevant_is_flat():
    rel = [True] * 6
    curve = lift_curve(_ranked(rel), _judged(rel))
    assert [l for _, l in curve] == pytest.approx([1.0] * 6)


def test_lift_hand_arithmetic_tftf():
    rel = [True, False, True, False]
    curve = lift_curve(_ranked(rel), _judged(rel))
    assert [l for _, l in curve] == pytest.approx([2.0, 1.0, 4 / 3, 1.0])


def test_lift_single_relevant_at_top_of_100():
    rel = [True] + [False] * 99
    curve = lift_curve(_ranked(rel), _judged(rel))
    assert curve[0] == (1, pytest.approx(100.0))


def test_lift_requires_a_relevant_item():
    rel = [False, False]
    with pytest.raises(ValidationError, match="lift undefined"):
        lift_curve(_ranked(rel), _judged(rel))


def test_lift_requires_full_judgments():
    with pytest.raises(ValidationError, match="unjudged"):
        lift_curve(_ranked([True, True]), {"s000": True})


@given(st.lists(st.booleans(), min_size=1, max_size=300).filter(any))
def test_lift_equals_exact_fraction_form(rel):
    base = Fraction(sum(rel), len(rel))
    want = []
    hits = 0
    for r, relevant in enumerate(rel, start=1):
        hits += relevant
        want.append((r, float(Fraction(hits, r) / base)))
    assert lift_curve(_ranked(rel), _judged(rel)) == want


def test_select_threshold():
    rel = [True, False, True, False]
    assert select_threshold(lift_curve(_ranked(rel), _judged(rel))) == 1
    flat = [(1, 1.0), (2, 1.0), (3, 1.0)]
    assert select_threshold(flat) == 1


def test_classify_at_threshold():
    entries = _ranked([True] * 5)
    assert all(classify_at_threshold(entries, 5).values())
    labels = classify_at_threshold(entries, 1)
    assert labels["s000"] and not any(labels[k] for k in list(labels)[1:])
    with pytest.raises(ValidationError):
        classify_at_threshold(entries, 0)
    with pytest.raises(ValidationError):
        classify_at_threshold(entries, 6)


def test_paper_rule_top5_of_100():
    entries = _ranked([True] * 100)
    labels = classify_at_threshold(entries, 5)
    assert sum(labels.values()) == 5
    assert sum(not v for v in labels.values()) == 95


def test_confusion_and_metrics_arithmetic():
    m = ConfusionMatrix(tp=5, fp=1, fn=10, tn=84)
    rec = metrics(m)
    assert rec.precision == pytest.approx(5 / 6)
    assert rec.recall == pytest.approx(1 / 3)
    assert rec.accuracy == pytest.approx(0.89)


def test_perfect_classifier_metrics():
    rec = metrics(ConfusionMatrix(tp=10, fp=0, fn=0, tn=90))
    assert rec.precision == rec.recall == rec.accuracy == rec.f1 == 1.0
    assert rec.fallout_standard == 0.0
    assert rec.miss_rate == 0.0


def test_table1_row_f1_recomputation():
    # With P=0.5887 and R=0.3279 the harmonic mean is ~0.4212, not the
    # 0.6103 printed in the source table.
    p, r = 0.5887, 0.3279
    f1 = 2 * p * r / (p + r)
    assert f1 == pytest.approx(0.4212, abs=1e-4)


def test_metric_identities_random_matrices():
    rng = random.Random(1)
    for _ in range(300):
        m = ConfusionMatrix(*(rng.randint(0, 30) for _ in range(4)))
        if m.total == 0:
            continue
        rec = metrics(m)
        for v in (rec.accuracy, rec.precision, rec.recall,
                  rec.fallout_standard, rec.miss_rate, rec.f1):
            assert 0.0 <= v <= 1.0
        if m.tp + m.fn > 0:
            assert rec.recall + rec.miss_rate == pytest.approx(1.0)
        if m.fp + m.tn > 0:
            specificity = m.tn / (m.fp + m.tn)
            assert rec.fallout_standard + specificity == pytest.approx(1.0)


def test_zero_denominator_guards():
    rec = metrics(ConfusionMatrix(tp=0, fp=0, fn=3, tn=7))
    assert rec.precision == 0.0
    assert rec.precision_undefined
    assert rec.f1 == 0.0


def test_aggregate_single_and_duplicate():
    m = ConfusionMatrix(3, 1, 2, 4)
    assert aggregate([m]) == metrics(m)
    assert aggregate([m, m]) == metrics(m + m)
    # Micro-average is scale-invariant under duplication.
    assert aggregate([m, m]).precision == metrics(m).precision


@pytest.mark.parametrize("seed", range(10))
def test_aggregate_matches_elementwise_sum_oracle(seed):
    rng = random.Random(seed)
    ms = [
        ConfusionMatrix(*(rng.randint(0, 20) for _ in range(4)))
        for _ in range(rng.randint(1, 8))
    ]
    total = ConfusionMatrix(
        sum(m.tp for m in ms), sum(m.fp for m in ms),
        sum(m.fn for m in ms), sum(m.tn for m in ms),
    )
    assert aggregate(ms) == metrics(total)


@pytest.mark.parametrize("seed", range(20))
def test_lift_threshold_maximizes_precision(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    rel = [rng.random() < 0.4 for _ in range(n)]
    if not any(rel):
        rel[rng.randrange(n)] = True
    entries = _ranked(rel)
    judged = _judged(rel)
    t = select_threshold(lift_curve(entries, judged))
    labels = classify_at_threshold(entries, t)
    chosen = metrics(confusion(labels, judged)).precision
    best = max(
        metrics(confusion(classify_at_threshold(entries, k), judged)).precision
        for k in range(1, n + 1)
    )
    assert chosen == pytest.approx(best)


def test_run_experiment_deterministic():
    g, corpus, queries, judgments = generate(5, n_queries=5)
    cfg = ExperimentConfig(candidate_size=40, seed=99)
    r1 = run_experiment(corpus, g, queries, judgments,
                        ["pathlen", "levenshtein"], cfg)
    r2 = run_experiment(corpus, g, queries, judgments,
                        ["pathlen", "levenshtein"], cfg)
    assert report_to_tsv(r1) == report_to_tsv(r2)


def test_run_experiment_scheme_follows_measure():
    g, corpus, queries, judgments = generate(5, n_queries=3)
    cfg = ExperimentConfig(candidate_size=30, seed=1)
    rep = run_experiment(corpus, g, queries, judgments,
                         ["wupalmer", "levenshtein", "lch", "inclusion"], cfg)
    # One row per measure, in (scheme, measure) order.
    assert [row[:2] for row in rep.rows] == [
        ("concept", "lch"), ("concept", "wupalmer"),
        ("keyword", "inclusion"), ("keyword", "levenshtein"),
    ]


def test_report_tsv_shape():
    g, corpus, queries, judgments = generate(3, n_queries=4)
    cfg = ExperimentConfig(candidate_size=30, seed=2)
    rep = run_experiment(corpus, g, queries, judgments,
                         ["inclusion", "pathlen"], cfg)
    lines = report_to_tsv(rep).splitlines()
    header = lines[0].split("\t")
    assert header[:3] == ["scheme", "measure", "queries"]
    assert {"fallout_standard", "miss_rate", "f1_standard"} <= set(header)
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) == 2  # keyword/inclusion and concept/pathlen


def test_parse_judgments():
    relevant, judged = parse_judgments(
        "q1\tIAPS/1\t1\nq1\tIAPS/2\t0\nq2\tIAPS/1\t0\n"
    )
    assert relevant == {"q1": {"IAPS/1"}, "q2": set()}
    # Each judged stimulus, with the line of its first judgment.
    assert judged == {"IAPS/1": 1, "IAPS/2": 2}
    with pytest.raises(ParseError):
        parse_judgments("q1\tIAPS/1\tmaybe\n")
    with pytest.raises(ParseError, match="line 2: judgment must be 0 or 1"):
        parse_judgments("# c\nq1\tIAPS/1\tmaybe\n")
    # Fields are stripped, as in the queries file.
    assert parse_judgments("q1 \tIADS/311\t1\n")[0] == {"q1": {"IADS/311"}}


def test_parse_queries():
    queries = parse_queries("# qid concept keyword\n\nq1\tDog \tNA\nq2\tNA\tcat\n")
    assert queries == [
        ExperimentQuery("q1", concept="Dog"),
        ExperimentQuery("q2", keyword="cat"),
    ]
    with pytest.raises(ParseError) as exc:
        parse_queries("q1\tDog\tdog\nq3\tDog\n")
    assert str(exc.value) == (
        r"line 2: expected `qid<TAB>concept<TAB>keyword`, got 'q3\tDog'"
    )


def _per_pair_score_record(measure, semantics, score):
    """score_record without the memo `score` (an OperandScores): one
    relatedness call per operand."""
    return score_record(measure, semantics, partial(
        relatedness, measure, score.term, graph=score.graph))


@pytest.mark.parametrize("measure", list(Measure))
def test_memoised_scores_equal_per_pair_scores(measure):
    g, corpus, queries, _ = generate(11, n_concepts=60, n_stimuli=200,
                                     n_queries=8)
    for query in queries:
        term = query.concept if measure in CONCEPT_MEASURES else query.keyword
        memo = OperandScores(measure, term, g)
        per_pair = partial(relatedness, measure, term, graph=g)
        for sems in corpus.semantics:
            assert score_record(measure, sems, memo) == \
                score_record(measure, sems, per_pair)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("measure", list(Measure))
def test_memoised_report_matches_per_pair_report(seed, measure, monkeypatch):
    g, corpus, queries, judgments = generate(seed, n_queries=6)
    cfg = ExperimentConfig(candidate_size=40, seed=seed)
    args = (corpus, g, queries, judgments, [measure], cfg)
    memoised = report_to_tsv(run_experiment(*args))
    monkeypatch.setattr(evaluation, "score_record", _per_pair_score_record)
    assert report_to_tsv(run_experiment(*args)) == memoised
    assert memoised.splitlines()[1].split("\t")[1] == measure.value


def test_run_experiment_one_bfs_per_query(monkeypatch):
    g, corpus, queries, judgments = generate(4, n_queries=5)
    calls = []
    original = TaxonomyGraph.distances_from

    def counting(self, c):
        calls.append(c)
        return original(self, c)

    def refuse(self, a, b):
        raise AssertionError("per-pair BFS in run_experiment")

    monkeypatch.setattr(TaxonomyGraph, "distances_from", counting)
    monkeypatch.setattr(TaxonomyGraph, "shortest_path", refuse)
    cfg = ExperimentConfig(candidate_size=40, seed=5)
    rep = run_experiment(corpus, g, queries, judgments, ["pathlen", "li"],
                         cfg)
    assert [row[2] for row in rep.rows] == [5, 5]
    assert sorted(calls) == sorted([q.concept for q in queries] * 2)


@pytest.mark.parametrize("seed, radius", [(1, 1), (2, 1), (3, 2)])
def test_generate_judges_by_pairwise_taxonomy_distance(seed, radius):
    g, corpus, queries, judgments = generate(seed, relevance_radius=radius)
    concept_of = {rec.key: rec.semantics[0].concept for rec in corpus}
    assert len(queries) == 20
    assert set(judgments) == {q.qid for q in queries}
    for q in queries:
        relevant = {key for key, c in concept_of.items()
                    if g.shortest_path(c, q.concept) <= radius}
        assert 0 < len(relevant) < len(concept_of)
        assert judgments[q.qid] == relevant


def test_run_experiment_unknown_query_concept(monkeypatch):
    g, corpus, queries, judgments = generate(4, n_queries=2)
    bad = [evaluation.ExperimentQuery(qid=queries[0].qid, concept="Nowhere",
                                      keyword=queries[0].keyword)]
    cfg = ExperimentConfig(candidate_size=40, seed=5)
    errors = []
    for scorer in (score_record, _per_pair_score_record):
        monkeypatch.setattr(evaluation, "score_record", scorer)
        with pytest.raises(UnknownConceptError) as exc:
            run_experiment(corpus, g, bad, judgments, ["pathlen"], cfg)
        errors.append(str(exc.value))
    assert errors == ["unknown concept: 'Nowhere'"] * 2


def test_run_experiment_rejects_unknown_measure():
    g, corpus, queries, judgments = generate(4, n_queries=2)
    with pytest.raises(ValidationError, match="unknown measure 'foo'"):
        run_experiment(corpus, g, queries, judgments, ["pathlen", "foo"],
                       ExperimentConfig())
