"""Output checks.  Each returns a list of problems; empty means correct.

The expectations are recomputed naively from query specs (never from the
program's parse of the query text): filters from `graph.ancestor_closure`,
the boxes and the equivalence classes of `axioms.tsv`; rankings from
`similarity.relatedness`, scoring every candidate and then sorting.
"""

import json

from stimkb.similarity import CONCEPT_MEASURES, Measure, relatedness


def equivalence_classes(axioms_text):
    """Qualified term -> the set of terms the axioms make equivalent to it."""
    classes = {}
    for line in axioms_text.splitlines():
        parts = line.split("\t")
        if line.startswith("#") or len(parts) != 4:
            continue
        a, b = f"{parts[0]}.{parts[1]}", f"{parts[2]}.{parts[3]}"
        merged = classes.get(a, {a}) | classes.get(b, {b})
        for term in merged:
            classes[term] = merged
    return classes


def passes_clauses(rec, spec, classes):
    """The db, box and category clauses, shared by filter and rank."""
    if spec.get("db") and rec.db != spec["db"]:
        return False
    for dim, (lo, hi) in spec.get("boxes", {}).items():
        v = getattr(rec.dimensions, dim) if rec.dimensions else None
        if v is None or not lo <= v <= hi:
            return False
    if spec.get("category"):
        want = "{}.{}".format(*spec["category"])
        allowed = classes.get(want, {want})
        if not any(c.qualified in allowed for c in rec.categories):
            return False
    return True


def naive_filter(ws, spec, classes):
    closure = ws.graph.ancestor_closure
    keys = []
    for rec in ws.corpus:
        if not passes_clauses(rec, spec, classes):
            continue
        q = spec.get("concept")
        if q and not any(c == q or q in closure[c] for c in rec.concepts()):
            continue
        keys.append(rec.key)
    return sorted(keys)


def naive_candidates(ws, spec, classes):
    return sum(1 for rec in ws.corpus if passes_clauses(rec, spec, classes))


def naive_ranking(ws, spec, classes):
    """Score every candidate with `relatedness`, then sort and truncate."""
    measure = Measure(spec["measure"])
    term = spec.get("concept") or spec.get("keyword")
    scored = []
    for rec in ws.corpus:
        if not passes_clauses(rec, spec, classes):
            continue
        operands = (rec.concepts() if measure in CONCEPT_MEASURES
                    else [s.keyword for s in rec.semantics if s.keyword])
        best = 0.0
        for op in operands:
            best = max(best, relatedness(measure, term, op, graph=ws.graph))
        scored.append((rec.key, best))
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[: spec["limit"]]


def check_ranking(entries, limit, n_candidates):
    """Sorted by (-score, key), scores in [0, 1], length min(limit, n)."""
    problems = []
    if len(entries) != min(limit, n_candidates):
        problems.append(f"{len(entries)} entries, expected "
                        f"min({limit}, {n_candidates})")
    if any(not 0.0 <= s <= 1.0 for _, s in entries):
        problems.append("score outside [0, 1]")
    if list(entries) != sorted(entries, key=lambda e: (-e[1], e[0])):
        problems.append("entries not sorted by (-score, key)")
    return problems


def parse_rank_output(text, fmt):
    """(key, score) entries from `query` output in either format."""
    if fmt == "json":
        doc = json.loads(text)
        entries = [(e["stimulus"], e["score"]) for e in doc["entries"]]
        ranks = [e["rank"] for e in doc["entries"]]
    else:
        rows = [line.split("\t") for line in text.splitlines()]
        entries = [(r[2], float(r[1])) for r in rows]
        ranks = [int(r[0]) for r in rows]
    if ranks != list(range(1, len(entries) + 1)):
        raise ValueError("ranks are not 1..n")
    return entries


def parse_filter_output(text, fmt):
    if fmt == "json":
        return json.loads(text)["stimuli"]
    return text.splitlines()


def check_eval_report(text, columns, n_queries, pairs):
    """Header equals `columns`; every rate is in [0, 1]; for each (scheme,
    measure) pair the used plus skipped queries add up to `n_queries`.
    Returns (problems, used, skipped)."""
    lines = text.splitlines()
    problems = []
    if not lines or lines[0].split("\t") != list(columns):
        return [f"eval header {lines[:1]} != {list(columns)}"], 0, 0
    used = {}
    skipped = {}
    for line in lines[1:]:
        if line.startswith("# query "):
            pair = line.split("(", 1)[1].split(")", 1)[0]
            skipped[pair] = skipped.get(pair, 0) + 1
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        used[f"{cols[0]}/{cols[1]}"] = int(cols[2])
        if any(not 0.0 <= float(v) <= 1.0 for v in cols[3:]):
            problems.append(f"rate outside [0, 1] in {line!r}")
    for pair in pairs:
        got = used.get(pair, 0) + skipped.get(pair, 0)
        if got != n_queries:
            problems.append(f"{pair}: {got} queries accounted for, "
                            f"expected {n_queries}")
    return problems, sum(used.values()), sum(skipped.values())
