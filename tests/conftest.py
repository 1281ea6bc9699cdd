import hashlib
import random
import sys
import zlib
from array import array
from base64 import b64decode, b64encode
from pathlib import Path

import pytest

import stimkb.corpus
import stimkb.snapshot
from stimkb.corpus import invalid_record
from stimkb.similarity import relatedness
from stimkb.snapshot import build_workspace, parse_manifest
from stimkb.taxonomy import TaxonomyGraph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PAPER_MANIFEST = FIXTURES / "paper" / "manifest.txt"


@pytest.fixture(scope="session")
def paper_workspace():
    return build_workspace(parse_manifest(PAPER_MANIFEST))


@pytest.fixture(scope="session")
def paper_graph(paper_workspace):
    return paper_workspace.graph


# The record columns a snapshot stores packed, as [typecode, base64] pairs
# whose text encodes a zlib stream of the column's little-endian items.
PACKED_COLUMNS = sorted(
    key for key, allowed in {**stimkb.snapshot._RECORD_COLUMNS,
                             **stimkb.snapshot._FLAT_COLUMNS}.items()
    if allowed is stimkb.snapshot._PACKED
)


def packed_values(pair):
    """The list of the integers that packed column `pair` holds, however
    many: the items of its inflated stream, read as little-endian."""
    code, text = pair
    items = array(code, zlib.decompress(b64decode(text)))
    if sys.byteorder == "big":
        items.byteswap()
    return list(items)


# The record columns a snapshot stores as text, [length, base64] pairs
# whose text encodes a zlib stream of `length` bytes: the UTF-8 text of the
# column's items, each followed by a line break.
TEXT_COLUMNS = sorted(
    key for key, allowed in {**stimkb.snapshot._RECORD_COLUMNS,
                             **stimkb.snapshot._FLAT_COLUMNS}.items()
    if allowed is stimkb.snapshot._LINES
)


def text_items(pair):
    """The list of the strings that text column `pair` holds, whatever
    its declared length."""
    return zlib.decompress(b64decode(pair[1])).decode().split("\n")[:-1]


def text_pair(items):
    """The text column of strings `items`: the UTF-8 text of each followed
    by a line break, deflated, and its length."""
    data = "".join(item + "\n" for item in items).encode()
    return text_stream(zlib.compress(data), len(data))


def text_stream(stream, length):
    """The text column whose base64 text encodes bytes `stream`, with
    `length` declared."""
    return [length, b64encode(stream).decode()]


def packed_pair(code, values):
    """The packed column of `values` under typecode `code`, whatever the
    code, signed or not: their little-endian bytes, deflated."""
    items = array(code, values)
    if sys.byteorder == "big":
        items.byteswap()
    return [code, b64encode(zlib.compress(items.tobytes())).decode()]


def sealed_layout(data):
    """Snapshot bytes `data`, as save_snapshot writes them, in the layout
    it wrote while a snapshot carried a seal: `{`, then the line
    ` "seal": "<64 hex digits>",`, then the document after its `{`.  The
    seal is the one that layout's writer computed: the BLAKE2b-256 digest
    of `validation rules 1` and of every byte after the hex digits."""
    rest = b'",\n' + data[1:]
    seal = hashlib.blake2b(b"validation rules 1\n" + rest, digest_size=32)
    return b'{\n "seal": "' + seal.hexdigest().encode() + rest


def oracle_first_problem(records, graph, vocabs):
    """The first problem of `records` in order, as a load reports it, or
    None: each record's validate_stimulus problems against `graph` and
    `vocabs`, then its key if an earlier record has it, as
    Corpus.add_stimulus checks them one by one."""
    seen = set()
    for i, rec in enumerate(records):
        problems = stimkb.corpus.validate_stimulus(rec, graph, vocabs)
        if problems:
            return f"records[{i}]: {invalid_record(rec, problems)}"
        if rec.key in seen:
            return f"records[{i}]: duplicate stimulus key {rec.key}"
        seen.add(rec.key)
    return None


def random_dag_edges(rng, n_nodes, max_parents=3):
    """Child->parents edge map for a rooted random DAG: node 0 is the only
    parentless node, every later node picks parents among earlier ones."""
    edges = {"N0": set()}
    for i in range(1, n_nodes):
        k = rng.randint(1, min(max_parents, i))
        parents = rng.sample(range(i), k)
        edges[f"N{i}"] = {f"N{p}" for p in parents}
    return edges


def random_dag(seed, n_nodes, max_parents=3):
    rng = random.Random(seed)
    return TaxonomyGraph(random_dag_edges(rng, n_nodes, max_parents))


# Independent oracles: deliberately naive re-derivations of the structural
# queries, used to cross-check the materialized implementations.

def oracle_ancestors(edges, c):
    seen = set()
    stack = [c]
    while stack:
        node = stack.pop()
        for p in edges.get(node, ()):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def oracle_root_depth(edges, root, c):
    """Depth as 1 + minimum edge count from root down to c."""
    if c == root:
        return 1
    children = {}
    for child, parents in edges.items():
        for p in parents:
            children.setdefault(p, set()).add(child)
    frontier = {root}
    d = 1
    seen = set(frontier)
    while frontier:
        nxt = set()
        for node in frontier:
            nxt |= children.get(node, set()) - seen
        d += 1
        if c in nxt:
            return d
        seen |= nxt
        frontier = nxt
    raise AssertionError(f"{c} unreachable from root")


def oracle_lcs(edges, root, a, b):
    common = (oracle_ancestors(edges, a) | {a}) & (oracle_ancestors(edges, b) | {b})
    # Most-specific candidates only, then deepest, then smallest name.
    specific = [
        c
        for c in common
        if not any(c in oracle_ancestors(edges, d) for d in common if d != c)
    ]
    return min(specific, key=lambda c: (-oracle_root_depth(edges, root, c), c))


def oracle_shortest_path(edges, a, b):
    adj = {}
    for child, parents in edges.items():
        adj.setdefault(child, set())
        for p in parents:
            adj[child].add(p)
            adj.setdefault(p, set()).add(child)
    frontier = {a}
    seen = {a}
    d = 0
    while frontier:
        if b in frontier:
            return d
        nxt = set()
        for node in frontier:
            nxt |= adj[node] - seen
        seen |= nxt
        frontier = nxt
        d += 1
    raise AssertionError(f"{b} unreachable from {a}")


def oracle_up_distance(edges, c, ancestor):
    """Fewest parent-edge steps from c up to ancestor: whole frontiers of
    parents, level by level, with no visited set (a DAG's walk up ends)."""
    frontier = {c}
    d = 0
    while frontier:
        if ancestor in frontier:
            return d
        frontier = set().union(*(edges.get(node, ()) for node in frontier))
        d += 1
    raise AssertionError(f"{ancestor} is not above {c}")


def oracle_concept_index(corpus):
    """Corpus.concept_index rebuilt record by record."""
    index = {}
    for rec in corpus:
        for c in rec.concepts():
            index.setdefault(c, set()).add(rec.key)
    return index


def oracle_candidates(corpus, closure, q):
    """The records of `corpus`, in order, that pass the db, box and
    category clauses of query `q`, each clause tested record by record; a
    category matches any term of its class among closure.classes()."""
    want = None
    if q.category is not None:
        term = "{}.{}".format(*q.category)
        want = next((set(c) for c in closure.classes() if term in c), {term})
    for rec in corpus:
        if q.db_name is not None and rec.db != q.db_name:
            continue
        values = [None if rec.dimensions is None else getattr(rec.dimensions, d)
                  for d in q.boxes]
        if not all(v is not None and lo <= v <= hi
                   for v, (lo, hi) in zip(values, q.boxes.values())):
            continue
        if want is not None and not any(c.qualified in want
                                        for c in rec.categories):
            continue
        yield rec


def oracle_filter(corpus, graph, closure, q):
    """retrieval.filter_query, record by record: a concept clause tests
    each record concept against its naive ancestors."""
    return {
        rec.key for rec in oracle_candidates(corpus, closure, q)
        if q.concept is None or any(
            c == q.concept or q.concept in oracle_ancestors(graph.parent_edges, c)
            for c in rec.concepts())
    }


def oracle_ranking(corpus, graph, closure, q):
    """retrieval.ranked_query's entries, scored pair by pair: every
    candidate's MAX relatedness over its operands (0.0 with none), sorted
    by score, then key, then cut to the limit."""
    scored = []
    for rec in oracle_candidates(corpus, closure, q):
        operands = (rec.concepts() if q.concept is not None
                    else [s.keyword for s in rec.semantics if s.keyword])
        scored.append((rec.key, max(
            (relatedness(q.measure, q.term, op, graph=graph) for op in operands),
            default=0.0)))
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:q.limit]


def oracle_edit_distance(a, b):
    """Exhaustive recursion; only for short strings."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        oracle_edit_distance(a[1:], b) + 1,
        oracle_edit_distance(a, b[1:]) + 1,
        oracle_edit_distance(a[1:], b[1:]) + (a[0] != b[0]),
    )


def dp_edit_distance(a, b):
    """The row-by-row O(len(a) * len(b)) dynamic program; fast enough for
    strings of a few hundred characters."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        left = i
        cur = [left]
        # diag = prev[j - 1], up = prev[j], left = cur[j - 1].
        for diag, up, cb in zip(prev, prev[1:], b):
            if ca != cb:
                diag += 1
            if up < left:
                left = up
            left += 1
            if diag < left:
                left = diag
            cur.append(left)
        prev = cur
    return prev[-1]


def layout(line):
    """The key layout of a record line: its token keys, in order."""
    return tuple(token.partition("=")[0] for token in line.split("\t"))


def many_layout_lines(n):
    """`n` good record lines, each of its own key layout."""
    ctx_keys = sorted(k for k in stimkb.corpus._CTX_KEYS if k != "ctx.widthPx")
    rng = random.Random(n)
    lines = []
    for k in range(n):
        tokens = ["db=X", f"id={k}", f"ctx.widthPx={k}"]
        tokens += [f"sem=Object:keyword:w{k % 7}"] * (k % 5 + 1)
        tokens += [f"{key}=1" for key in rng.sample(ctx_keys, k // 5 % 4)]
        rng.shuffle(tokens)
        lines.append("\t".join(tokens))
    assert len({layout(line) for line in lines}) == n
    return lines


# The records-file writer, kept as a test oracle: parse_record_line must
# read back what it writes.

def _fmt_num(v):
    if isinstance(v, float) and v.is_integer():
        return f"{v:.0f}"  # "-0" for -0.0
    return repr(v) if isinstance(v, float) else str(v)


def _conf_suffix(level, value):
    parts = []
    if level is not None:
        parts.append(f"level={level}")
    if value is not None:
        parts.append(f"value={_fmt_num(value)}")
    return "@" + ",".join(parts) if parts else ""


def serialize_record(rec):
    """The records-file line of `rec`: the round-trip oracle of
    parse_record_line, and the way tests write records files."""
    tokens = [f"db={rec.db}", f"id={rec.id}"]
    for sem in rec.semantics:
        if sem.concept is not None:
            tokens.append(f"sem={sem.kind}:concept:{sem.concept}")
        else:
            tokens.append(f"sem={sem.kind}:keyword:{sem.keyword}")
    for cat in rec.categories:
        tokens.append(
            f"cat={cat.vocabulary}.{cat.term}"
            + _conf_suffix(cat.confidence_level, cat.confidence_value)
        )
    d = rec.dimensions
    if d is not None:
        tokens.append(f"dim.scale={_fmt_num(d.scale_min)}:{_fmt_num(d.scale_max)}")
        for name, v in d.values():
            tokens.append(f"dim.{name}={_fmt_num(v)}")
        for name in ("valenceSD", "arousalSD", "dominanceSD"):
            v = getattr(d, name)
            if v is not None:
                tokens.append(f"dim.{name}={_fmt_num(v)}")
        if d.confidence_level is not None:
            tokens.append(f"dim.level={d.confidence_level}")
        if d.confidence_value is not None:
            tokens.append(f"dim.value={_fmt_num(d.confidence_value)}")
    for app in rec.appraisals:
        for name, v in app.values:
            tokens.append(f"appraisal={name}:{_fmt_num(v)}")
    for t in rec.action_tendencies:
        tokens.append(
            f"tendency={t.term}" + _conf_suffix(t.confidence_level, t.confidence_value)
        )
    for s in rec.sentiments:
        tokens.append(
            f"sentiment={_fmt_num(s.value)}"
            + _conf_suffix(s.confidence_level, s.confidence_value)
        )
    if rec.context is not None:
        ctx_tokens = []
        for wire, v in zip(stimkb.corpus._CTX_ATTR, rec.context):  # in field order
            if v is not None:
                v = _fmt_num(v) if isinstance(v, (int, float)) else v
                ctx_tokens.append(f"ctx.{wire}={v}")
        tokens.extend(ctx_tokens if ctx_tokens else ["ctx=1"])
    for phy in rec.physiology:
        channel = f" {phy.channel}" if phy.channel else ""
        tokens.append(f"phys={phy.path}{channel}")
    return "\t".join(tokens)
