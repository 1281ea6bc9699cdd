"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with `pytest tests/test_acceptance.py -v -s`)."""

import random
import shutil
import time
from pathlib import Path

import pytest

from stimkb.cli import main
from stimkb.evaluation import (
    ConfusionMatrix,
    ExperimentConfig,
    aggregate,
    classify_at_threshold,
    confusion,
    lift_curve,
    metrics,
    run_experiment,
    select_threshold,
)
from stimkb.retrieval import parse_query, filter_query, ranked_query
from stimkb.sequence import build_sequence, emit_schedule, make_sequence
from stimkb.affect import EquivalenceClosure, load_vocabularies
from stimkb.errors import ValidationError
from stimkb.similarity import (
    CONCEPT_MEASURES,
    inclusion_rel,
    levenshtein_rel,
    levenshtein_distance,
    relatedness,
    Measure,
)
from stimkb.snapshot import build_workspace, parse_manifest

from conftest import (
    PAPER_MANIFEST,
    oracle_ancestors,
    oracle_edit_distance,
    oracle_lcs,
    oracle_shortest_path,
    random_dag,
    random_dag_edges,
)
from synthetic import generate

FIXTURES = Path(PAPER_MANIFEST).parent


def _ok(name):
    print(f"\nACCEPTANCE PASS: {name}")


def test_fixture_suite():
    start = time.perf_counter()
    ws = build_workspace(parse_manifest(PAPER_MANIFEST))
    assert len(ws.corpus) == 4
    records = dict(zip(ws.corpus.keys, ws.corpus))

    r311 = records["IADS/311"]
    assert "GroupOfPeople" in r311.concepts()
    assert r311.context.length_seconds == 6

    r8163 = records["IAPS/8163"]
    assert r8163.dimensions.valence == 7.14
    assert r8163.dimensions.arousal == 6.53
    assert len(r8163.semantics) == 6
    assert len(r8163.physiology) == 2

    r5635 = records["IAPS/5635"]
    assert (r5635.dimensions.valence, r5635.dimensions.arousal) == (6.25, 3.97)
    r7039 = records["IAPS/7039"]
    assert (r7039.dimensions.valence, r7039.dimensions.arousal) == (5.93, 3.29)

    box = parse_query(
        "concept:GroupOfPeople valence:[6.5,9] arousal:[1,3.5] mode:filter"
    )
    assert filter_query(ws.corpus, ws.graph, box, ws.closure) == set()

    only = parse_query("concept:GroupOfPeople mode:filter")
    assert filter_query(ws.corpus, ws.graph, only, ws.closure) == {"IADS/311"}

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"fixture suite took {elapsed:.2f}s"
    _ok("fixture suite (worked-example records, Fig.-style box and concept "
        "filters)")


def test_measure_axiom_suite():
    start = time.perf_counter()
    g = random_dag(2024, 200, max_parents=2)
    nodes = sorted(g.concepts)
    concept_measures = sorted(CONCEPT_MEASURES)
    for i, a in enumerate(nodes):
        for b in nodes[i:]:
            for measure in concept_measures:
                v = relatedness(measure, a, b, graph=g)
                assert 0.0 <= v <= 1.0, (measure, a, b, v)
                assert abs(v - relatedness(measure, b, a, graph=g)) < 1e-12
                if a == b:
                    assert abs(v - 1.0) < 1e-12
                else:
                    assert v < 1.0

    rng = random.Random(77)
    alphabet = "abcdefgh XYZ"
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10))).strip() or "a"
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10))).strip() or "b"
        for rel in (inclusion_rel, levenshtein_rel):
            v = rel(a, b)
            assert 0.0 <= v <= 1.0
            assert v == rel(b, a)
            assert rel(a, a) == 1.0
            if a.casefold() != b.casefold():
                assert v < 1.0

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"measure-axiom suite took {elapsed:.2f}s"
    _ok("measure axioms (identity, symmetry, range, strict inequality) on "
        "200-concept taxonomy and 1000 string pairs")


def test_oracle_equivalence_suite():
    start = time.perf_counter()
    for seed in range(100):
        rng = random.Random(seed)
        edges = random_dag_edges(rng, rng.randint(2, 100))
        from stimkb.taxonomy import TaxonomyGraph

        g = TaxonomyGraph(edges)
        nodes = sorted(edges)
        for c in rng.sample(nodes, min(10, len(nodes))):
            assert g.ancestor_closure[c] == oracle_ancestors(edges, c)
        for _ in range(20):
            a, b = rng.choice(nodes), rng.choice(nodes)
            assert g.lcs(a, b) == oracle_lcs(edges, "N0", a, b)
            assert g.shortest_path(a, b) == oracle_shortest_path(edges, a, b)
            assert g.is_subclass_of(a, b) == (
                a == b or b in oracle_ancestors(edges, a)
            )

    rng = random.Random(4242)
    for _ in range(300):
        a = "".join(rng.choice("abc") for _ in range(rng.randint(1, 8)))
        b = "".join(rng.choice("abc") for _ in range(rng.randint(1, 8)))
        assert levenshtein_distance(a, b) == oracle_edit_distance(a, b)

    # Ranked retrieval vs score-all-then-sort.
    from stimkb.corpus import Corpus, SemanticsAnnotation, StimulusRecord

    for seed in range(10):
        rng = random.Random(seed)
        g = random_dag(seed, 40)
        nodes = sorted(g.concepts)
        corpus = Corpus(g, load_vocabularies(""))
        for i in range(20):
            corpus.add_stimulus(
                StimulusRecord(
                    db="T",
                    id=f"{i:02d}",
                    semantics=tuple(
                        SemanticsAnnotation(kind="Object", concept=rng.choice(nodes))
                        for _ in range(rng.randint(1, 3))
                    ),
                )
            )
        term = rng.choice(nodes)
        q = parse_query(f"concept:{term} measure:wupalmer limit:20")
        got = list(ranked_query(corpus, g, q, EquivalenceClosure()).entries)
        oracle = []
        for rec in corpus:
            score = max(
                relatedness(Measure.WU_PALMER, term, c, graph=g)
                for c in rec.concepts()
            )
            oracle.append((rec.key, score))
        oracle.sort(key=lambda e: (-e[1], e[0]))
        assert got == oracle

    rng = random.Random(11)
    for _ in range(50):
        ms = [
            ConfusionMatrix(*(rng.randint(0, 9) for _ in range(4)))
            for _ in range(rng.randint(1, 6))
        ]
        total = ConfusionMatrix(
            sum(m.tp for m in ms), sum(m.fp for m in ms),
            sum(m.fn for m in ms), sum(m.tn for m in ms),
        )
        assert aggregate(ms) == metrics(total)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle suite took {elapsed:.2f}s"
    _ok("oracle equivalence (taxonomy ops, edit distance, ranking, "
        "aggregation) with exact equality")


def test_lift_protocol_suite():
    entries = [(f"s{i}", 1.0 - 0.1 * i) for i in range(4)]
    judged = {"s0": True, "s1": False, "s2": True, "s3": False}
    curve = lift_curve(entries, judged)
    assert [l for _, l in curve] == pytest.approx([2.0, 1.0, 4 / 3, 1.0])

    rng = random.Random(123)
    for _ in range(500):
        n = rng.randint(1, 50)
        rel = [rng.random() < rng.uniform(0.1, 0.9) for _ in range(n)]
        if not any(rel):
            rel[rng.randrange(n)] = True
        es = [(f"s{i:03d}", 1.0 - i / n) for i in range(n)]
        js = {f"s{i:03d}": rel[i] for i in range(n)}
        t = select_threshold(lift_curve(es, js))
        chosen = metrics(confusion(classify_at_threshold(es, t), js)).precision
        best = max(
            metrics(confusion(classify_at_threshold(es, k), js)).precision
            for k in range(1, n + 1)
        )
        assert chosen == pytest.approx(best)
    _ok("lift protocol (hand-arithmetic curve; argmax threshold maximizes "
        "precision on 500 random cases)")


def test_directional_precision_gap():
    start = time.perf_counter()
    g, corpus, queries, judgments = generate(
        seed=20240711, n_concepts=50, n_stimuli=100, n_queries=20
    )
    assert len(queries) >= 20
    report = run_experiment(
        corpus, g, queries, judgments,
        ["inclusion", "levenshtein", "pathlen", "wupalmer"],
        ExperimentConfig(candidate_size=100, seed=20240711),
    )
    precision = {(s, m): rec.precision for s, m, _, rec in report.rows}
    concept_p = [precision[("concept", m)] for m in ("pathlen", "wupalmer")]
    keyword_p = [precision[("keyword", m)] for m in ("inclusion", "levenshtein")]
    gap = min(concept_p) - max(keyword_p)
    assert gap >= 0.05, f"directional gap {gap:.3f} below 0.05"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"directional run took {elapsed:.2f}s"
    _ok(f"directional reproduction (concept-over-keyword precision gap "
        f"{gap:.3f} >= 0.05)")


def test_metric_identity_suite():
    rng = random.Random(9)
    for _ in range(500):
        m = ConfusionMatrix(*(rng.randint(0, 40) for _ in range(4)))
        rec = metrics(m)
        if m.tp + m.fn > 0:
            assert rec.recall + rec.miss_rate == pytest.approx(1.0)
        if m.fp + m.tn > 0:
            assert rec.fallout_standard + m.tn / (m.fp + m.tn) == pytest.approx(1.0)
    p, r = 0.5887, 0.3279
    assert 2 * p * r / (p + r) == pytest.approx(0.4212, abs=1e-4)
    _ok("metric identities and published-row F1 recomputation (0.4212)")


def test_equivalence_inference_check():
    closure = EquivalenceClosure(
        [("BigSix.anger", "OCC.anger"), ("BigSix.anger", "FSRE.anger")]
    )
    assert closure.are_equivalent("FSRE.anger", "OCC.anger")

    ws = build_workspace(parse_manifest(PAPER_MANIFEST))
    q = parse_query("category:FSRECategory.happiness mode:filter")
    assert filter_query(ws.corpus, ws.graph, q, ws.closure) == {"IAPS/8163"}
    _ok("equivalence inference (axiom transitivity and cross-vocabulary "
        "category filter)")


def test_sequence_suite():
    ranked = [(f"s{i}", 1.0) for i in range(3)]
    seq = build_sequence(ranked, count=3, duration_ms=2000, isi_ms=500)
    assert [i.start_ms for i in seq.items] == [0, 2500, 5000]
    assert seq.total_ms == 7000
    events = emit_schedule(seq)
    assert len(events) == 6
    assert [e.timestamp_ms for e in events] == [0, 2000, 2500, 4500, 5000, 7000]

    other = build_sequence(ranked, count=3, duration_ms=2000, isi_ms=500,
                           track="auditory")
    both = make_sequence(seq.items + other.items)
    assert len(both.items) == 6

    with pytest.raises(ValidationError):
        make_sequence(seq.items + seq.items)
    _ok("sequence suite (timing, schedule, same-track rejection, "
        "cross-track overlap)")


def test_determinism(tmp_path, capsys):
    for f in FIXTURES.iterdir():
        shutil.copy(f, tmp_path / f.name)
    snap = tmp_path / "snap.json"
    assert main(["ingest", "--manifest", str(tmp_path / "manifest.txt"),
                 "--snapshot", str(snap)]) == 0
    capsys.readouterr()

    qargs = ["query", "--snapshot", str(snap), "concept:Object measure:wupalmer"]
    main(qargs)
    q1 = capsys.readouterr().out
    main(qargs)
    q2 = capsys.readouterr().out
    assert q1 == q2 and q1

    queries = tmp_path / "q.tsv"
    queries.write_text("q1\tGroupOfPeople\tCrowd2\n")
    judgments = tmp_path / "j.tsv"
    judgments.write_text(
        "q1\tIADS/311\t1\nq1\tIAPS/8163\t0\nq1\tIAPS/5635\t0\nq1\tIAPS/7039\t0\n"
    )
    eargs = ["eval", "--snapshot", str(snap), "--queries", str(queries),
             "--judgments", str(judgments), "--seed", "13", "--candidates", "4"]
    assert main(eargs) == 0
    e1 = capsys.readouterr().out
    assert main(eargs) == 0
    e2 = capsys.readouterr().out
    assert e1 == e2 and e1
    _ok("determinism (byte-identical query and eval outputs under a fixed "
        "seed)")
