"""Ranked-retrieval evaluation: lift-curve threshold selection,
classification, confusion-matrix metrics, and micro-aggregated reports.

The experiment runner samples a candidate subset per query with a seeded
RNG, ranks it under each measure, picks the classification threshold at
the maximum lift, and pools the resulting confusion matrices per measure.
The measure decides the annotation scheme: a concept measure reads the
query's concept, a lexical one its keyword.
"""

import random
from collections import namedtuple

from .errors import ParseError, ValidationError
from .lines import tab_rows
from .retrieval import OperandScores, score_record, sort_ranked
from .similarity import CONCEPT_MEASURES, parse_measure


class ConfusionMatrix(namedtuple("ConfusionMatrix", "tp fp fn tn",
                                 defaults=(0, 0, 0, 0))):
    __slots__ = ()

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn

    def __add__(self, other):
        return ConfusionMatrix(
            self.tp + other.tp,
            self.fp + other.fp,
            self.fn + other.fn,
            self.tn + other.tn,
        )


class MetricRecord(namedtuple(
    "MetricRecord",
    "accuracy precision recall fallout_standard miss_rate f1 precision_undefined",
    defaults=(False,),
)):
    __slots__ = ()


def lift_curve(ranked_entries, judgments):
    """For each rank r: lift(r) = precision@r / base-rate.

    `judgments` maps stimulus key -> bool and must cover every entry.
    Raises when no entry is relevant (lift undefined).
    """
    keys = [k for k, _ in ranked_entries]
    missing = [k for k in keys if k not in judgments]
    if missing:
        raise ValidationError(f"unjudged stimuli: {missing[:5]}")
    n = len(keys)
    relevant_total = sum(1 for k in keys if judgments[k])
    if relevant_total == 0:
        raise ValidationError("no relevant item in the ranked list; lift undefined")
    # (hits / r) / (relevant_total / n) as one integer quotient: Python's
    # int true division is correctly rounded, so this is the exact ratio
    # rounded once, the same float Fraction arithmetic gives.
    curve = []
    hits = 0
    for r, k in enumerate(keys, start=1):
        if judgments[k]:
            hits += 1
        curve.append((r, hits * n / (r * relevant_total)))
    return curve


def select_threshold(curve):
    """Rank with the highest lift; ties broken by the smallest rank."""
    if not curve:
        raise ValidationError("empty lift curve")
    return max(curve, key=lambda rl: (rl[1], -rl[0]))[0]


def classify_at_threshold(ranked_entries, t):
    """Label exactly the top-t entries True."""
    n = len(ranked_entries)
    if not 1 <= t <= n:
        raise ValidationError(f"threshold {t} out of range 1..{n}")
    return {k: r <= t for r, (k, _) in enumerate(ranked_entries, start=1)}


def confusion(labels, judgments):
    if set(labels) != set(judgments):
        raise ValidationError("labels and judgments cover different stimuli")
    tp = fp = fn = tn = 0
    for k, predicted in labels.items():
        actual = judgments[k]
        if predicted and actual:
            tp += 1
        elif predicted and not actual:
            fp += 1
        elif not predicted and actual:
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tp, fp, fn, tn)


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(m):
    precision = _ratio(m.tp, m.tp + m.fp)
    recall = _ratio(m.tp, m.tp + m.fn)
    f1 = _ratio(2 * precision * recall, precision + recall)
    return MetricRecord(
        accuracy=_ratio(m.tp + m.tn, m.total),
        precision=precision,
        recall=recall,
        fallout_standard=_ratio(m.fp, m.fp + m.tn),
        miss_rate=_ratio(m.fn, m.fn + m.tp),
        f1=f1,
        precision_undefined=(m.tp + m.fp) == 0,
    )


def aggregate(matrices):
    """Micro-average: element-wise sum, then compute metrics once."""
    if not matrices:
        raise ValidationError("nothing to aggregate")
    total = ConfusionMatrix()
    for m in matrices:
        total = total + m
    return metrics(total)


class ExperimentQuery(namedtuple("ExperimentQuery", "qid concept keyword",
                                 defaults=(None, None))):
    __slots__ = ()

    def term_for(self, measure):
        return self.concept if measure in CONCEPT_MEASURES else self.keyword


class ExperimentConfig(namedtuple(
    "ExperimentConfig", "candidate_size seed max_resamples", defaults=(100, 0, 5),
)):
    __slots__ = ()


class ExperimentReport(namedtuple("ExperimentReport", "rows notes")):
    __slots__ = ()  # rows: ((scheme, measure, n_queries, MetricRecord), ...)


def _scheme_of(measure):
    """The annotation scheme `measure` reads: "concept" or "keyword"."""
    return "concept" if measure in CONCEPT_MEASURES else "keyword"


def run_experiment(corpus, graph, queries, judgments, measures, config):
    """Rank a sampled candidate subset per (measure, query), apply the
    lift-threshold classification rule, and micro-aggregate.

    `judgments` maps query id -> set of relevant stimulus keys over the
    whole corpus.  Queries whose sampled subset has no relevant item are
    resampled up to `config.max_resamples` times, then skipped with a note.
    Each (measure, query) scores its candidates through one OperandScores,
    so each distinct annotation operand is scored once.  A measure named
    twice runs once.  Rows come in (scheme, measure) order.
    """
    measures = sorted({parse_measure(m) for m in measures},
                      key=lambda m: (_scheme_of(m), m.value))
    positions, semantics = corpus.positions, corpus.semantics
    all_keys = sorted(corpus.keys)
    rows = []
    notes = []
    for measure in measures:
        scheme = _scheme_of(measure)
        matrices = []
        used = 0
        for query in sorted(queries, key=lambda q: q.qid):
            term = query.term_for(measure)
            if term is None:
                continue
            if query.qid not in judgments:
                raise ValidationError(f"no judgments for query {query.qid}")
            relevant = judgments[query.qid]
            candidates = None
            for attempt in range(config.max_resamples + 1):
                rng = random.Random(
                    f"{config.seed}:{scheme}:{measure.value}:"
                    f"{query.qid}:{attempt}"
                )
                size = min(config.candidate_size, len(all_keys))
                sample = rng.sample(all_keys, size)
                if any(k in relevant for k in sample):
                    candidates = sample
                    break
            if candidates is None:
                notes.append(
                    f"query {query.qid} ({scheme}/{measure.value}): no "
                    f"relevant candidate after {config.max_resamples + 1} "
                    "samples; skipped"
                )
                continue
            memo = OperandScores(measure, term, graph)
            scored = [
                (k, score_record(measure, semantics[positions[k]], memo))
                for k in candidates
            ]
            sort_ranked(scored)
            local_judgments = {k: k in relevant for k, _ in scored}
            curve = lift_curve(scored, local_judgments)
            t = select_threshold(curve)
            labels = classify_at_threshold(scored, t)
            matrices.append(confusion(labels, local_judgments))
            used += 1
        if matrices:
            rows.append((scheme, measure.value, used, aggregate(matrices)))
        else:
            notes.append(f"{scheme}/{measure.value}: no usable queries")
    return ExperimentReport(rows=tuple(rows), notes=tuple(notes))


REPORT_COLUMNS = [
    "scheme",
    "measure",
    "queries",
    "accuracy",
    "precision",
    "recall",
    "fallout",
    "f_measure",
    "fallout_standard",
    "miss_rate",
    "f1_standard",
]


def report_to_tsv(report):
    lines = ["\t".join(REPORT_COLUMNS)]
    for scheme, measure, n, rec in report.rows:
        lines.append(
            "\t".join(
                [
                    scheme,
                    measure,
                    str(n),
                    f"{rec.accuracy:.4f}",
                    f"{rec.precision:.4f}",
                    f"{rec.recall:.4f}",
                    f"{rec.fallout_standard:.4f}",
                    f"{rec.f1:.4f}",
                    f"{rec.fallout_standard:.4f}",
                    f"{rec.miss_rate:.4f}",
                    f"{rec.f1:.4f}",
                ]
            )
        )
    for note in report.notes:
        lines.append(f"# {note}")
    return "\n".join(lines) + "\n"


def parse_queries(text):
    """Parse `qid<TAB>concept<TAB>keyword` lines into ExperimentQuery
    objects; NA marks an absent term.  A query id may appear once."""
    queries = []
    first_line = {}  # query id -> its line
    for lineno, (qid, concept, keyword) in tab_rows(
        text, "qid<TAB>concept<TAB>keyword"
    ):
        if qid in first_line:
            raise ParseError(f"repeated query id {qid!r} (first on line "
                             f"{first_line[qid]})", line=lineno)
        first_line[qid] = lineno
        queries.append(ExperimentQuery(
            qid=qid,
            concept=None if concept == "NA" else concept,
            keyword=None if keyword == "NA" else keyword,
        ))
    return queries


def parse_judgments(text):
    """Parse `query-id<TAB>stimulus-id<TAB>0|1` lines into
    qid -> set-of-relevant-keys (only the 1 rows) plus judged stimulus key
    -> the line of its first judgment.  A (query, stimulus) pair may be
    judged once."""
    relevant = {}
    judged = {}
    pair_line = {}  # (query id, stimulus key) -> its line
    for lineno, (qid, key, flag) in tab_rows(text, "qid<TAB>stimulus<TAB>0|1"):
        if flag not in ("0", "1"):
            raise ParseError(f"judgment must be 0 or 1, got {flag!r}", line=lineno)
        if (qid, key) in pair_line:
            raise ParseError(f"repeated judgment of {key!r} for query {qid!r} "
                             f"(first on line {pair_line[qid, key]})", line=lineno)
        pair_line[qid, key] = lineno
        judged.setdefault(key, lineno)
        relevant.setdefault(qid, set())
        if flag == "1":
            relevant[qid].add(key)
    return relevant, judged
