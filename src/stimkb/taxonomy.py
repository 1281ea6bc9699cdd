"""Rooted concept hierarchy (IS-A DAG) and its serializations.

Concepts are case-sensitive identifiers arranged in a single-rooted DAG.
Depth is the minimum distance to the root, with depth(root) = 1.
Construction builds the edge tables and checks that the graph is acyclic.
The ancestor closure, the depths and the undirected adjacency are each
built on first use and then kept, so a command that reads none of them
(a keyword rank, a db, box or category filter) never pays for them.  A
graph is immutable.  Two threads that read a table before it is kept
may each build it; the builds are equal, and one of them is kept.
"""

import re
from functools import cached_property

from .errors import CycleError, ParseError, UnknownConceptError, ValidationError
from .lines import tab_rows

IDENT_RE = re.compile(r"^[A-Za-z0-9_-]+$")

VIRTUAL_ROOT = "Entity"


def _levels(c, adjacency):
    """Breadth-first from `c`: yield the list of concepts first reached at
    each distance 0, 1, 2, ... (`[c]` first), each concept exactly once."""
    seen = {c}
    frontier = [c]
    while frontier:
        yield frontier
        reached = []
        for node in frontier:
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    reached.append(nxt)
        frontier = reached


def _children(parent_edges):
    """Each concept of the child -> parents table `parent_edges` (which
    holds every concept) -> the set of its children."""
    children = {c: set() for c in parent_edges}
    for child, parents in parent_edges.items():
        for p in parents:
            children[p].add(child)
    return children


class TaxonomyGraph:
    """Immutable rooted DAG of concepts.  Construction keeps the edge
    tables; the ancestor closure, the depths and `neighbors`, each
    concept's parents and children in one tuple (the undirected adjacency
    `_levels` walks), are built on first use."""

    def __init__(self, parent_edges):
        """Build from a child -> iterable-of-parents mapping.

        Nodes appearing only as parents are created implicitly.  If more
        than one node is parentless, a virtual root "Entity" is inserted
        above all of them.  A cycle raises CycleError.
        """
        edges = {}
        nodes = set()
        for child, parents in parent_edges.items():
            nodes.add(child)
            edges.setdefault(child, set())
            for p in parents:
                nodes.add(p)
                edges[child].add(p)
                edges.setdefault(p, set())
        if not nodes:
            raise ValidationError("taxonomy has no concepts")

        roots = sorted(n for n in nodes if not edges[n])
        if len(roots) > 1:
            nodes.add(VIRTUAL_ROOT)
            edges.setdefault(VIRTUAL_ROOT, set())
            for r in roots:
                if r != VIRTUAL_ROOT:
                    edges[r].add(VIRTUAL_ROOT)
            root = VIRTUAL_ROOT
        elif len(roots) == 1:
            root = roots[0]
        else:
            raise CycleError("every concept has a parent; taxonomy is cyclic")

        child_edges = _children(edges)

        # Kahn's order, parents first: a concept comes once all its parents
        # have.  The concepts it never reaches lie on or under a cycle.
        unresolved_parents = {c: len(ps) for c, ps in edges.items()}
        order = [root]
        for node in order:  # `order` grows as concepts resolve
            for child in child_edges[node]:
                unresolved_parents[child] -= 1
                if not unresolved_parents[child]:
                    order.append(child)
        if len(order) < len(nodes):
            # Every unresolved concept has an unresolved parent, so walking
            # up smallest such parents must revisit a concept on a cycle.
            resolved = set(order)
            up = {
                c: min(p for p in ps if p not in resolved)
                for c, ps in edges.items()
                if c not in resolved
            }
            c, seen = min(up), set()
            while c not in seen:
                seen.add(c)
                c = up[c]
            raise CycleError(f"cycle detected at edge {c} -> {up[c]}")

        self.concepts = frozenset(nodes)
        self.parent_edges = {c: frozenset(ps) for c, ps in edges.items()}
        self.root = root
        self._order = order

    @cached_property
    def ancestor_closure(self):
        """Each concept -> the frozenset of its strict ancestors, built
        parents first from the parents' own."""
        closure = {}
        parent_edges = self.parent_edges
        for c in self._order:
            parents = parent_edges[c]
            closure[c] = parents.union(*map(closure.__getitem__, parents))
        return closure

    @cached_property
    def depth_cache(self):
        """Each concept -> its depth: the minimum root distance, so 1 + the
        shallowest parent's."""
        depths = {}
        parent_edges = self.parent_edges
        for c in self._order:
            depths[c] = 1 + min(map(depths.__getitem__, parent_edges[c]),
                                default=0)
        return depths

    @cached_property
    def max_depth(self):
        return max(self.depth_cache.values())

    @cached_property
    def neighbors(self):
        """Each concept -> its parents and children, in one tuple."""
        children = _children(self.parent_edges)
        return {c: (*ps, *children[c]) for c, ps in self.parent_edges.items()}

    def _require(self, c):
        if c not in self.concepts:
            raise UnknownConceptError(f"unknown concept: {c!r}")

    def depth(self, c):
        self._require(c)
        return self.depth_cache[c]

    def lcs(self, a, b):
        """Deepest most-specific common subsumer of `a` and `b` (either
        operand counts as its own subsumer); ties broken by smallest name.

        Candidates are first restricted to those not strictly subsuming
        another candidate; on a DAG with min-root-distance depth a plain
        depth argmax could otherwise pick an ancestor of the answer.
        """
        self._require(a)
        self._require(b)
        closure = self.ancestor_closure
        common = (closure[a] | {a}) & (closure[b] | {b})
        # No concept is in its own strict closure, so this drops exactly
        # the candidates that subsume another candidate.
        specific = common.difference(*(closure[d] for d in common))
        return min(specific, key=lambda c: (-self.depth_cache[c], c))

    def shortest_path(self, a, b):
        """Edge count of the shortest path treating IS-A edges as undirected."""
        self._require(a)
        self._require(b)
        for dist, level in enumerate(_levels(a, self.neighbors)):
            if b in level:
                return dist
        raise ValidationError(f"no path between {a!r} and {b!r}")

    def distances_from(self, c):
        """Edge count of the shortest undirected path from `c` to every
        concept: one BFS, so `distances_from(a)[b] == shortest_path(a, b)`."""
        self._require(c)
        levels = enumerate(_levels(c, self.neighbors))
        return {node: d for d, level in levels for node in level}

    def up_distance(self, c, ancestor):
        """Minimum number of parent-edge steps from `c` up to `ancestor`."""
        self._require(c)
        self._require(ancestor)
        if c == ancestor:
            return 0
        if ancestor not in self.ancestor_closure[c]:
            raise ValidationError(f"{ancestor!r} does not subsume {c!r}")
        seen, frontier, dist = {c}, [c], 0
        while frontier:
            dist += 1
            reached = []
            for node in frontier:
                for parent in self.parent_edges[node]:
                    if parent == ancestor:
                        return dist
                    if parent not in seen:
                        seen.add(parent)
                        reached.append(parent)
            frontier = reached
        raise AssertionError("unreachable: closure guaranteed a path")

    def is_subclass_of(self, a, b):
        """Reflexive-transitive subsumption test: a == b or b subsumes a."""
        self._require(a)
        self._require(b)
        return a == b or b in self.ancestor_closure[a]

    def serialize(self):
        """Edge list in the taxonomy file format (one `child\\tparent` per line)."""
        lines = []
        for child in sorted(self.concepts):
            for parent in sorted(self.parent_edges[child]):
                lines.append(f"{child}\t{parent}")
        return "\n".join(lines) + ("\n" if lines else "")


def parse_taxonomy(text):
    """Parse the `child<TAB>parent` edge-list format into a TaxonomyGraph.

    Blank lines and `#` comments are ignored; duplicate edges are tolerated.
    """
    edges = {}
    for lineno, (child, parent) in tab_rows(text, "child<TAB>parent"):
        for ident in (child, parent):
            if not IDENT_RE.match(ident):
                raise ParseError(f"invalid identifier {ident!r}", line=lineno)
        edges.setdefault(child, set()).add(parent)
        edges.setdefault(parent, set())
    if not edges:
        raise ParseError("taxonomy file contains no edges")
    return TaxonomyGraph(edges)


class KeywordMapping:
    """Flat keyword -> set-of-concepts table; keywords are case-folded."""

    def __init__(self, entries):
        self.entries = {k.casefold(): frozenset(v) for k, v in entries.items()}

    def concepts_for(self, keyword):
        return self.entries.get(keyword.casefold(), frozenset())

    def __len__(self):
        return len(self.entries)


def parse_mapping(text, graph):
    """Parse `keyword<TAB>concept` lines; every concept must exist in `graph`."""
    entries = {}
    for lineno, (keyword, concept) in tab_rows(text, "keyword<TAB>concept"):
        if not keyword:
            raise ParseError("empty keyword", line=lineno)
        if concept not in graph.concepts:
            raise ParseError(
                f"unknown concept {concept!r} for keyword {keyword!r}",
                line=lineno,
            )
        entries.setdefault(keyword.casefold(), set()).add(concept)
    return KeywordMapping(entries)
