import random
from pathlib import Path

import pytest

import stimkb.corpus
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


def empty_plan_table(monkeypatch):
    """Give `stimkb.corpus` an empty record-line plan table."""
    monkeypatch.setattr(stimkb.corpus, "_PLANS", {})
    monkeypatch.setattr(stimkb.corpus, "_PLAN_LAYOUTS", set())


def many_layout_lines(n):
    """`n` good record lines, each of its own key layout; many share a
    tab count."""
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
