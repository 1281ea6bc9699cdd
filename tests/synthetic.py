"""Seeded synthetic corpus generator for retrieval experiments.

Builds a random concept tree plus stimuli that carry both a concept
annotation and a coarse, noisy keyword (the parent concept's name with
occasional typos or unrelated aliases), mirroring how legacy databases tag
with a small unsupervised glossary.  Relevance is planted by taxonomy
proximity, so concept-based ranking has a structural advantage over
lexical keyword matching.
"""

import random
import string

from stimkb.affect import load_vocabularies
from stimkb.corpus import Corpus, SemanticsAnnotation, StimulusRecord
from stimkb.evaluation import ExperimentQuery
from stimkb.taxonomy import TaxonomyGraph

_SYLLABLES = [
    "ba", "do", "fi", "gu", "ka", "lo", "me", "nu", "pa", "re",
    "si", "tu", "va", "wo", "ze", "chi", "dra", "fen", "gor", "lim",
]


def _word(rng):
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))


def _unique_word(rng, taken):
    while True:
        w = _word(rng)
        if w not in taken:
            taken.add(w)
            return w


def _typo(rng, word):
    i = rng.randrange(len(word))
    c = rng.choice(string.ascii_lowercase)
    return word[:i] + c + word[i + 1:]


def generate(
    seed,
    n_concepts=50,
    n_stimuli=100,
    n_queries=20,
    typo_prob=0.25,
    alias_prob=0.15,
    relevance_radius=1,
):
    """Return (graph, corpus, queries, judgments) for run_experiment."""
    rng = random.Random(seed)
    taken = set()
    names = [_unique_word(rng, taken) for _ in range(n_concepts)]
    root = names[0]
    parent_of = {}
    edges = {}
    for i, name in enumerate(names[1:], start=1):
        parent = names[rng.randrange(i)]
        parent_of[name] = parent
        edges.setdefault(name, set()).add(parent)
    graph = TaxonomyGraph(edges)

    corpus = Corpus(graph, load_vocabularies(""))
    concept_of = {}
    for k in range(n_stimuli):
        concept = rng.choice(names[1:])
        keyword = parent_of[concept]
        roll = rng.random()
        if roll < alias_prob:
            keyword = _unique_word(rng, taken)
        elif roll < alias_prob + typo_prob:
            keyword = _typo(rng, keyword)
        rec = StimulusRecord(
            db="SYN",
            id=f"{k:04d}",
            semantics=(
                SemanticsAnnotation(kind="Object", concept=concept),
                SemanticsAnnotation(kind="Object", keyword=keyword),
            ),
        )
        concept_of[rec.key] = concept
        corpus.add_stimulus(rec)

    queries = []
    judgments = {}
    candidates = [n for n in names[1:] if n in parent_of]
    rng.shuffle(candidates)
    for concept in candidates:
        dist = graph.distances_from(concept)
        relevant = {
            key for key, c in concept_of.items() if dist[c] <= relevance_radius
        }
        # Need both signal and noise for a meaningful query.
        if not relevant or len(relevant) == len(concept_of):
            continue
        qid = f"q{len(queries):02d}"
        queries.append(
            ExperimentQuery(qid=qid, concept=concept, keyword=parent_of[concept])
        )
        judgments[qid] = relevant
        if len(queries) >= n_queries:
            break
    return graph, corpus, queries, judgments
