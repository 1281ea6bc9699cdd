"""Seeded workspace generator for the benchmark.

Writes a manifest workspace (taxonomy, records, legacy table, mapping,
vocabularies, axioms) plus the ranking queries, eval queries and planted
judgments the workloads use.  Everything is drawn from one
`random.Random`, so the same seed and sizes give byte-identical files.

The taxonomy is a random recursive tree built the way
`stimkb.synthetic.generate` builds it (each new concept picks a parent
among the earlier ones), plus about 5% second-parent edges so that `lcs`
runs on a DAG, grafted under the fixture taxonomy's `Entity` root.  The
fixture taxonomy stays in because the fixture `mapping.tsv` names its
concepts; legacy rows use the fixture keywords and are expanded through
that mapping at ingest.

This module deliberately imports nothing from `stimkb`: the inputs must
not depend on the code being measured.
"""

import random
import string
from dataclasses import dataclass, field
from pathlib import Path

SYLLABLES = [
    "ba", "do", "fi", "gu", "ka", "lo", "me", "nu", "pa", "re",
    "si", "tu", "va", "wo", "ze", "chi", "dra", "fen", "gor", "lim",
]
DBS = ("IAPS", "IADS", "GAPED")
LEGACY_DB = "IAPS"
BIG_SIX = ("anger", "disgust", "fear", "happiness", "sadness", "surprise")
CONFIDENCE_LEVELS = ("VeryHigh", "High", "Average", "Low", "VeryLow")
MEDIA = ("jpg", "png", "wav")
FIXTURE_FILES = ("taxonomy.tsv", "mapping.tsv", "vocabularies.tsv", "axioms.tsv")

TYPO_PROB = 0.25
ALIAS_PROB = 0.15
SECOND_PARENT_PROB = 0.05
LEGACY_SHARE = 0.10


@dataclass
class Workspace:
    """What the generator wrote, kept for building queries and checks."""

    dir: Path
    manifest: Path
    names: list  # generated concepts; names[0] hangs under Entity
    parents: dict  # generated concept -> list of parents (first = tree parent)
    children: dict = field(default_factory=dict)
    concept_of: dict = field(default_factory=dict)  # record key -> concept
    records: int = 0  # total records (four-component + legacy)


def _word(rng):
    return "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))


def _unique_word(rng, taken):
    while True:
        w = _word(rng)
        if w not in taken:
            taken.add(w)
            return w


def _typo(rng, word):
    i = rng.randrange(len(word))
    return word[:i] + rng.choice(string.ascii_lowercase) + word[i + 1:]


def _fixture_mapping_keywords(text):
    keys = []
    for line in text.splitlines():
        if line.strip() and not line.startswith("#"):
            kw = line.split("\t")[0]
            if kw not in keys:
                keys.append(kw)
    return tuple(keys)


def generate(out_dir, seed, n_concepts, n_records, fixtures):
    """Write a workspace of `n_concepts` generated concepts and about
    `n_records` records into `out_dir`; returns a `Workspace`."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"perfbench:{seed}:{n_concepts}:{n_records}")
    fixture_text = {f: (Path(fixtures) / f).read_text() for f in FIXTURE_FILES}

    taken = set()
    names = [_unique_word(rng, taken) for _ in range(n_concepts)]
    parents = {names[0]: ["Entity"]}
    for i, name in enumerate(names[1:], start=1):
        ps = [names[rng.randrange(i)]]
        if i > 1 and rng.random() < SECOND_PARENT_PROB:
            second = names[rng.randrange(i)]
            if second != ps[0]:
                ps.append(second)
        parents[name] = ps
    children = {n: [] for n in names}
    for name, ps in parents.items():
        for p in ps:
            if p in children:
                children[p].append(name)
    tax_lines = [fixture_text["taxonomy.tsv"].rstrip("\n")]
    tax_lines += [f"{c}\t{p}" for c in names for p in parents[c]]
    (out_dir / "taxonomy.tsv").write_text("\n".join(tax_lines) + "\n")
    for f in ("mapping.tsv", "vocabularies.tsv", "axioms.tsv"):
        (out_dir / f).write_text(fixture_text[f])

    n_legacy = round(n_records * LEGACY_SHARE)
    mapped = _fixture_mapping_keywords(fixture_text["mapping.tsv"])
    lines = []
    concept_of = {}
    for k in range(n_records - n_legacy):
        db = DBS[k % len(DBS)]
        concept = rng.choice(names[1:])
        concept_of[f"{db}/S{k:06d}"] = concept
        keyword = parents[concept][0]
        roll = rng.random()
        if roll < ALIAS_PROB:
            keyword = _unique_word(rng, taken)
        elif roll < ALIAS_PROB + TYPO_PROB:
            keyword = _typo(rng, keyword)
        level = rng.choice(CONFIDENCE_LEVELS)
        lines.append("\t".join([
            f"db={db}",
            f"id=S{k:06d}",
            f"sem=Object:concept:{concept};Object:keyword:{keyword}",
            f"cat=BigSix.{rng.choice(BIG_SIX)}@level={level}",
            "dim.scale=1:9",
            f"dim.valence={rng.randint(100, 900) / 100}",
            f"dim.arousal={rng.randint(100, 900) / 100}",
            f"ctx.mediaFormat={rng.choice(MEDIA)}",
            f"ctx.lengthSeconds={rng.randint(1, 12)}",
            f"phys=http://example.org/{db}/S{k:06d}_hr HR",
        ]))
    (out_dir / "records.tsv").write_text("\n".join(lines) + "\n")

    legacy = ["id\tdb\tkeyword\tvalence\tvalenceSD\tarousal\tarousalSD"
              "\tdominance\tdominanceSD"]
    for k in range(n_legacy):
        legacy.append("\t".join([
            f"L{k:06d}", LEGACY_DB, rng.choice(mapped),
            str(rng.randint(100, 900) / 100), str(rng.randint(50, 250) / 100),
            str(rng.randint(100, 900) / 100), "NA", "NA", "NA",
        ]))
    (out_dir / "legacy.tsv").write_text("\n".join(legacy) + "\n")

    manifest = out_dir / "manifest.txt"
    manifest.write_text(
        "taxonomy=taxonomy.tsv\nmapping=mapping.tsv\n"
        "vocabularies=vocabularies.tsv\naxioms=axioms.tsv\n"
        f"records=records.tsv\nlegacy=legacy.tsv\nseed={seed}\n"
    )
    return Workspace(
        dir=out_dir, manifest=manifest, names=names, parents=parents,
        children=children, concept_of=concept_of, records=n_records,
    )


# --- Ops.  Queries are kept as specs so that checks need not parse them.

RANK_MEASURES = ("pathlen", "lch", "li", "wupalmer")
BOX_DIMS = ("valence", "arousal")
# Category terms that match BigSix records only through `axioms.tsv`.
EQUIVALENT_CATEGORIES = (
    ("OCCCategory", "anger"), ("FSRECategory", "anger"),
    ("FSRECategory", "happiness"),
)


def render_query(spec):
    """The one-line query text for a spec dict."""
    parts = []
    if spec.get("concept"):
        parts.append(f"concept:{spec['concept']}")
    if spec.get("keyword"):
        parts.append(f"keyword:{spec['keyword']}")
    for dim, (lo, hi) in sorted(spec.get("boxes", {}).items()):
        parts.append(f"{dim}:[{lo},{hi}]")
    if spec.get("category"):
        parts.append("category:{}.{}".format(*spec["category"]))
    if spec.get("db"):
        parts.append(f"db:{spec['db']}")
    if spec.get("measure"):
        parts.append(f"measure:{spec['measure']}")
    if spec.get("limit"):
        parts.append(f"limit:{spec['limit']}")
    parts.append(f"mode:{spec['mode']}")
    return " ".join(parts)


def _box(rng):
    lo = rng.randint(100, 600) / 100
    return rng.choice(BOX_DIMS), (lo, round(lo + rng.randint(150, 300) / 100, 2))


def rank_queries(ws, rng, n):
    """`n` rank specs over distinct generated concepts.

    Measures rotate pathlen, lch, li, wupalmer.  One query in each run of
    four adds a dimension box or a `db:` clause, at a position that moves
    by one every four queries, so every measure also runs on a restricted
    candidate set.
    """
    concepts = ws.names[1:]
    rng.shuffle(concepts)
    specs = []
    k = len(RANK_MEASURES)
    for i, concept in enumerate(concepts[:n]):
        spec = {"mode": "rank", "concept": concept,
                "measure": RANK_MEASURES[i % k], "limit": 100}
        if i % k == (i // k) % k:
            if (i // k) % 2:
                spec["db"] = rng.choice(DBS)
            else:
                dim, box = _box(rng)
                spec["boxes"] = {dim: box}
        specs.append(spec)
    return specs


def _keyword(ws, rng):
    """A generated keyword as records carry it: a concept name, or a prefix
    of one so that inclusion scores partial matches."""
    word = rng.choice(ws.names)
    return word if rng.random() < 0.7 else word[: max(3, len(word) // 2)]


# One cycle of the cli-mixed op mix: (kind, output format).
CLI_CYCLE = (
    ("filter-concept", "tsv"), ("filter-category", "json"),
    ("rank-inclusion", "tsv"), ("rank-levenshtein", "tsv"),
    ("stats", None), ("sequence", None),
    ("filter-concept", "json"), ("filter-category-box", "tsv"),
    ("rank-levenshtein-box", "json"), ("rank-inclusion-db", "tsv"),
    ("filter-concept-db", "tsv"), ("stats", None), ("eval", None),
)


def cli_ops(ws, rng, n, seq_count):
    """`n` CLI ops cycling through `CLI_CYCLE`: subsumption filters with
    boxes, category filters that match only through the axioms, keyword
    ranks, stats, sequences and one `eval` per cycle.  Only the eval op
    uses a concept measure."""
    internal = [c for c in ws.names[1:] if ws.children[c]]
    ops = []
    for i in range(n):
        kind, fmt = CLI_CYCLE[i % len(CLI_CYCLE)]
        if kind in ("stats", "eval"):
            ops.append({"cmd": kind})
            continue
        if kind == "sequence":
            spec = {"mode": "rank", "keyword": _keyword(ws, rng),
                    "measure": "inclusion", "limit": 100}
            ops.append({"cmd": "sequence", "spec": spec, "count": seq_count,
                        "duration": 2000, "isi": 500})
            continue
        if kind.startswith("filter-concept"):
            spec = {"mode": "filter", "concept": rng.choice(internal),
                    "boxes": dict([_box(rng)])}
        elif kind.startswith("filter-category"):
            spec = {"mode": "filter",
                    "category": rng.choice(EQUIVALENT_CATEGORIES)}
        else:
            spec = {"mode": "rank", "keyword": _keyword(ws, rng),
                    "measure": kind.split("-")[1],
                    "limit": rng.choice((20, 50, 100))}
        if kind.endswith("-box"):
            spec["boxes"] = dict([_box(rng)])
        if kind.endswith("-db"):
            spec["db"] = rng.choice(DBS)
        ops.append({"cmd": "query", "spec": spec, "format": fmt})
    return ops


def eval_inputs(ws, rng, n_queries, min_children=3):
    """Write `queries.tsv` and planted radius-1 `judgments.tsv`.

    A record is relevant to a query concept when its concept is the query
    concept, a parent or a child of it: one neighbourhood lookup per query,
    not one path search per record.  Query concepts have at least
    `min_children` children: the larger neighbourhood makes a sampled
    candidate set hold a relevant record more often, so fewer (scheme,
    measure, query) triples are skipped unscored and the work of one eval
    varies less with its `--seed`.
    """
    by_concept = {}
    for key, concept in ws.concept_of.items():
        by_concept.setdefault(concept, []).append(key)

    def hood(c):
        return {c, *ws.parents[c], *ws.children[c]}

    usable = [c for c in ws.names[1:] if len(ws.children[c]) >= min_children
              and any(n in by_concept for n in hood(c))]
    chosen = rng.sample(usable, min(n_queries, len(usable)))
    qlines, jlines = [], []
    for i, concept in enumerate(chosen):
        qid = f"q{i:02d}"
        qlines.append(f"{qid}\t{concept}\t{ws.parents[concept][0]}")
        for c in sorted(hood(concept)):
            jlines.extend(f"{qid}\t{key}\t1" for key in by_concept.get(c, ()))
    queries = ws.dir / "queries.tsv"
    judgments = ws.dir / "judgments.tsv"
    queries.write_text("\n".join(qlines) + "\n")
    judgments.write_text("\n".join(jlines) + "\n")
    return queries, judgments, len(chosen)
