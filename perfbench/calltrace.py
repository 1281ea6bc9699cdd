"""Call tracing for the benchmark's traced runs.

`install(tracer)` replaces functions of `stimkb` at the places where they
are looked up (a module global such as `stimkb.cli.load_snapshot`, or a
class attribute such as `TaxonomyGraph.shortest_path`) with wrappers that
time each call.  Nothing under `src/stimkb/` is edited.

Every wrapped call adds its inclusive and self time (inclusive minus the
time spent in wrapped calls it made) and one call to per-phase counters;
the phase is "setup" until the workload starts its first op.  Coarse calls
(`SPANS`) also record a span with its parent span and op id.  Hot leaf
calls keep only the counters: a path-measure query makes one
`shortest_path` call per candidate annotation, thousands per query, far
too many for a span each.  Spans and
counters are kept in memory and written out once, by `dump`.
"""

import functools
import json
import random
import time
import types

SETUP = "setup"

# (module, attribute holder, attribute, metric name).  Module globals are
# patched in the module that calls them, because `from x import f` binds
# the name there.
TARGETS = (
    ("stimkb.cli", None, "main", "cli.main"),
    ("stimkb.cli", None, "load_snapshot", "snapshot.load_snapshot"),
    ("stimkb.cli", None, "build_workspace", "snapshot.build_workspace"),
    ("stimkb.cli", None, "save_snapshot", "snapshot.save_snapshot"),
    ("stimkb.cli", None, "run_experiment", "evaluation.run_experiment"),
    ("stimkb.retrieval", None, "ranked_query", "retrieval.ranked_query"),
    ("stimkb.retrieval", None, "filter_query", "retrieval.filter_query"),
    ("stimkb.retrieval", None, "score_record", "retrieval.score_record"),
    ("stimkb.retrieval", None, "relatedness", "similarity.relatedness"),
    ("stimkb.sequence", None, "build_sequence", "sequence.build_sequence"),
    ("stimkb.snapshot", None, "parse_taxonomy", "taxonomy.parse_taxonomy"),
    ("stimkb.snapshot", None, "parse_corpus_records",
     "corpus.parse_corpus_records"),
    ("stimkb.snapshot", None, "expand_keywords", "corpus.expand_keywords"),
    ("stimkb.corpus", None, "parse_record_line", "corpus.parse_record_line"),
    ("stimkb.corpus", None, "validate_stimulus", "corpus.validate_stimulus"),
    ("stimkb.corpus", "Corpus", "add_stimulus", "corpus.add_stimulus"),
    ("stimkb.taxonomy", "TaxonomyGraph", "shortest_path",
     "taxonomy.shortest_path"),
    ("stimkb.taxonomy", "TaxonomyGraph", "lcs", "taxonomy.lcs"),
    ("stimkb.taxonomy", "TaxonomyGraph", "up_distance", "taxonomy.up_distance"),
    ("stimkb.taxonomy", "TaxonomyGraph", "is_subclass_of",
     "taxonomy.is_subclass_of"),
    ("stimkb.affect", "EquivalenceClosure", "are_equivalent",
     "affect.are_equivalent"),
    ("stimkb.similarity", None, "levenshtein_distance",
     "similarity.levenshtein_distance"),
    ("stimkb.evaluation", None, "score_record", "evaluation.score_record"),
    ("stimkb.evaluation", None, "lift_curve", "evaluation.lift_curve"),
)

SPANS = frozenset({
    "cli.main",
    "snapshot.load_snapshot",
    "snapshot.build_workspace",
    "snapshot.save_snapshot",
    "evaluation.run_experiment",
    "retrieval.ranked_query",
    "retrieval.filter_query",
    "sequence.build_sequence",
    "taxonomy.parse_taxonomy",
    "corpus.expand_keywords",
})


def _examined_returned(tracer, args, result):
    tracer.add("retrieval.filter.examined", len(args[0]))
    tracer.add("retrieval.filter.returned", len(result))


def _ranked_returned(tracer, args, result):
    tracer.add("retrieval.ranked.returned", len(result.entries))


# Counts taken from a call's arguments and result, at the same boundary.
RESULT_HOOKS = {
    "retrieval.filter_query": _examined_returned,
    "retrieval.ranked_query": _ranked_returned,
}


class Tracer:
    """Per-phase call counters plus spans for coarse calls, in memory."""

    def __init__(self, pid_tag=""):
        self.pid_tag = pid_tag
        self.op = SETUP
        self.stats = {SETUP: {}, "ops": {}}  # phase -> name -> [calls, incl, self]
        self.counts = {SETUP: {}, "ops": {}}  # phase -> name -> amount
        self.spans = []  # [name, op, parent index, start ns, end ns]
        self._frames = []  # child ns accumulated by each open call
        self._open_spans = []
        self._stats = self.stats[SETUP]

    def phase(self):
        return SETUP if self.op == SETUP else "ops"

    def set_op(self, op):
        self.op = op
        self._stats = self.stats[self.phase()]

    def add(self, name, amount):
        c = self.counts[self.phase()]
        c[name] = c.get(name, 0) + amount

    def wrap(self, name, fn):
        tracer = self
        frames = self._frames
        open_spans = self._open_spans
        spans = self.spans
        span = name in SPANS
        hook = RESULT_HOOKS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            frames.append(frame)
            if span:
                idx = len(spans)
                spans.append([name, tracer.op,
                              open_spans[-1] if open_spans else None, 0, 0])
                open_spans.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dt
                if span:
                    open_spans.pop()
                    spans[idx][3] = t0
                    spans[idx][4] = t0 + dt
                st = tracer._stats.get(name)
                if st is None:
                    st = tracer._stats[name] = [0, 0, 0]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def snapshot(self):
        return {
            "stats": {p: {k: list(v) for k, v in s.items()}
                      for p, s in self.stats.items()},
            "counts": {p: dict(c) for p, c in self.counts.items()},
            "spans": [list(s) for s in self.spans],
            "pid": self.pid_tag,
        }

    def dump(self, path):
        with open(path, "w") as f:
            json.dump(self.snapshot(), f)


def install(tracer):
    """Patch every target; returns a function that undoes the patches."""
    import importlib

    undo = []
    for module_name, holder, attr, name in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, holder) if holder else module
        original = owner.__dict__[attr] if holder else getattr(module, attr)
        setattr(owner, attr, tracer.wrap(name, original))
        undo.append((owner, attr, original))

    # Candidate samples drawn by run_experiment: each attempt seeds a fresh
    # `random.Random` and calls `sample` once.
    import stimkb.evaluation as evaluation

    class CountingRandom(random.Random):
        def sample(self, *args, **kwargs):
            tracer.add("evaluation.samples", 1)
            return super().sample(*args, **kwargs)

    undo.append((evaluation, "random", evaluation.random))
    evaluation.random = types.SimpleNamespace(Random=CountingRandom)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def merge(parts):
    """Sum the counters of several `Tracer.snapshot()` dicts (one per
    process) and concatenate their spans."""
    stats = {SETUP: {}, "ops": {}}
    counts = {SETUP: {}, "ops": {}}
    spans = []
    for part in parts:
        for phase in stats:
            for name, (calls, incl, self_ns) in part["stats"][phase].items():
                acc = stats[phase].setdefault(name, [0, 0, 0])
                acc[0] += calls
                acc[1] += incl
                acc[2] += self_ns
            for name, amount in part["counts"][phase].items():
                counts[phase][name] = counts[phase].get(name, 0) + amount
        spans.extend([part["pid"]] + s for s in part["spans"])
    return {"stats": stats, "counts": counts, "spans": spans}
