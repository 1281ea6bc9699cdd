import random

import pytest
from hypothesis import given, settings, strategies as st

from stimkb.errors import (
    CycleError,
    ParseError,
    UnknownConceptError,
    ValidationError,
)
from stimkb.taxonomy import TaxonomyGraph, parse_mapping, parse_taxonomy

from conftest import (
    oracle_ancestors,
    oracle_lcs,
    oracle_root_depth,
    oracle_shortest_path,
    oracle_up_distance,
    random_dag,
    random_dag_edges,
)


def test_two_edge_chain():
    g = parse_taxonomy("Animal\tEntity\nDog\tAnimal")
    assert g.root == "Entity"
    assert g.depth("Dog") == 3
    assert g.max_depth == 3
    assert g.ancestor_closure["Dog"] == {"Animal", "Entity"}
    assert g.ancestor_closure["Entity"] == set()


def test_two_node_cycle():
    with pytest.raises(CycleError):
        parse_taxonomy("A\tB\nB\tA")


def test_self_loop():
    with pytest.raises(CycleError):
        parse_taxonomy("A\tA")


def test_cycle_error_names_a_cycle_edge():
    # A hangs below the Y/Z cycle; the root R is reached by Q only.
    with pytest.raises(CycleError, match="^cycle detected at edge Z -> Y$"):
        parse_taxonomy("Q\tR\nA\tZ\nZ\tY\nY\tZ\nY\tQ")
    with pytest.raises(CycleError, match="^cycle detected at edge B -> B$"):
        parse_taxonomy("A\tR\nB\tB\nB\tA")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n_nodes=st.integers(2, 30), data=st.data())
def test_back_edge_raises_cycle_error_on_that_cycle(seed, n_nodes, data):
    edges = random_dag_edges(random.Random(seed), n_nodes)
    child = data.draw(st.sampled_from(sorted(edges)[1:]), label="child")
    below = {c for c in edges if child in oracle_ancestors(edges, c)}
    # Make `child` a child of itself or of one of its descendants.
    edges[child] = edges[child] | {data.draw(
        st.sampled_from(sorted(below | {child})), label="new parent")}
    messages = set()
    for order in (edges, dict(reversed(edges.items()))):
        with pytest.raises(CycleError) as exc:
            TaxonomyGraph(order)
        messages.add(str(exc.value))
    assert len(messages) == 1  # independent of the input order
    # The reported edge lies on a cycle: its parent reaches its child.
    a, b = messages.pop().removeprefix("cycle detected at edge ").split(" -> ")
    assert b in edges[a]
    assert a == b or a in oracle_ancestors(edges, b)


def test_malformed_line_reports_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_taxonomy("A\tB\nbogus line without tab")


def test_bad_identifier():
    with pytest.raises(ParseError):
        parse_taxonomy("A b\tC")


def test_duplicate_edge_tolerated():
    g = parse_taxonomy("A\tB\nA\tB")
    assert g.parent_edges["A"] == {"B"}


def test_comments_and_blank_lines():
    g = parse_taxonomy("# header\n\nA\tB\n")
    assert g.concepts == {"A", "B"}


def test_virtual_root_inserted():
    g = parse_taxonomy("A\tB\nC\tD")
    assert g.root == "Entity"
    assert g.depth("B") == 2
    assert g.depth("A") == 3


def test_virtual_root_with_existing_entity():
    g = parse_taxonomy("A\tEntity\nC\tD")
    assert g.root == "Entity"
    assert "Entity" in g.ancestor_closure["C"]


def test_lcs_reflexive_and_ancestor_case():
    g = parse_taxonomy("Animal\tEntity\nDog\tAnimal")
    assert g.lcs("Dog", "Dog") == "Dog"
    assert g.lcs("Dog", "Animal") == "Animal"
    assert g.lcs("Dog", "Entity") == "Entity"


def test_lcs_tie_break_lexicographic():
    # Two parents at the same depth: tie broken by smallest name.
    g = parse_taxonomy("Pa\tR\nPb\tR\nX\tPa\nX\tPb\nY\tPa\nY\tPb")
    assert g.lcs("X", "Y") == "Pa"


def test_shortest_path_basics():
    g = parse_taxonomy("Animal\tEntity\nDog\tAnimal\nCat\tAnimal")
    assert g.shortest_path("Dog", "Dog") == 0
    assert g.shortest_path("Dog", "Animal") == 1
    assert g.shortest_path("Dog", "Cat") == 2


def test_subsumption_reflexive_and_directional():
    g = parse_taxonomy("Animal\tEntity\nDog\tAnimal")
    assert g.is_subclass_of("Dog", "Dog")
    assert g.is_subclass_of("Dog", "Entity")
    assert not g.is_subclass_of("Entity", "Dog")


def test_max_depth_single_node_and_chain():
    assert parse_taxonomy("A\tRoot").max_depth == 2
    chain = "\n".join(f"C{i}\tC{i-1}" for i in range(1, 6))
    assert parse_taxonomy(chain).max_depth == 6


def test_unknown_concept_errors():
    g = parse_taxonomy("A\tB")
    for call in (lambda: g.depth("Z"),
                 lambda: g.lcs("A", "Z"),
                 lambda: g.shortest_path("Z", "A"),
                 lambda: g.shortest_path("A", "Z"),
                 lambda: g.up_distance("Z", "B"),
                 lambda: g.up_distance("A", "Z"),
                 lambda: g.is_subclass_of("A", "Z")):
        with pytest.raises(UnknownConceptError) as exc:
            call()
        assert str(exc.value) == "unknown concept: 'Z'"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 60), st.integers(1, 3))
def test_path_searches_match_oracles(seed, n_nodes, max_parents):
    g = random_dag(seed, n_nodes, max_parents)
    edges = g.parent_edges
    for c in g.concepts:
        children = {child for child, ps in edges.items() if c in ps}
        assert len(g.neighbors[c]) == len(edges[c]) + len(children)
        assert set(g.neighbors[c]) == edges[c] | children
    for a in g.concepts:
        dist = g.distances_from(a)
        assert set(dist) == g.concepts
        for b in g.concepts:
            expected = oracle_shortest_path(edges, a, b)
            assert g.shortest_path(a, b) == dist[b] == expected
        for up in oracle_ancestors(edges, a) | {a}:
            assert g.up_distance(a, up) == oracle_up_distance(edges, a, up)


def test_up_distance_from_a_non_ancestor():
    g = parse_taxonomy("Animal\tEntity\nDog\tAnimal\nCat\tAnimal")
    for c, other in (("Dog", "Cat"), ("Entity", "Dog"), ("Animal", "Dog")):
        with pytest.raises(ValidationError) as exc:
            g.up_distance(c, other)
        assert type(exc.value) is ValidationError
        assert str(exc.value) == f"{other!r} does not subsume {c!r}"


def test_distances_from_unknown_concept():
    g = parse_taxonomy("A\tB")
    with pytest.raises(UnknownConceptError, match="unknown concept: 'Z'"):
        g.distances_from("Z")


@pytest.mark.parametrize("seed", range(20))
def test_structural_queries_match_oracles(seed):
    rng = random.Random(seed)
    edges = random_dag_edges(rng, rng.randint(2, 60))
    g = parse_taxonomy(
        "\n".join(f"{c}\t{p}" for c, ps in edges.items() for p in ps)
    )
    nodes = sorted(edges)
    for c in nodes:
        assert g.ancestor_closure[c] == oracle_ancestors(edges, c)
        assert g.depth(c) == oracle_root_depth(edges, "N0", c)
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(30)]
    for a, b in pairs:
        assert g.lcs(a, b) == oracle_lcs(edges, "N0", a, b)
        assert g.shortest_path(a, b) == oracle_shortest_path(edges, a, b)
        assert g.is_subclass_of(a, b) == (
            a == b or b in oracle_ancestors(edges, a)
        )
    assert g.max_depth == max(oracle_root_depth(edges, "N0", c) for c in nodes)


def test_depth_consistent_with_recursive_definition():
    g = random_dag(99, 120)
    for c in g.concepts:
        if c == g.root:
            assert g.depth(c) == 1
        else:
            assert g.depth(c) == 1 + min(g.depth(p) for p in g.parent_edges[c])
            assert g.root in g.ancestor_closure[c]


def test_lcs_symmetric():
    g = random_dag(5, 80)
    nodes = sorted(g.concepts)
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.choice(nodes), rng.choice(nodes)
        assert g.lcs(a, b) == g.lcs(b, a)


def test_shortest_path_is_a_metric():
    g = random_dag(11, 40)
    nodes = sorted(g.concepts)
    rng = random.Random(11)
    for _ in range(100):
        a, b, c = (rng.choice(nodes) for _ in range(3))
        dab = g.shortest_path(a, b)
        assert (dab == 0) == (a == b)
        assert dab == g.shortest_path(b, a)
        assert dab <= g.shortest_path(a, c) + g.shortest_path(c, b)


def test_subsumption_transitive():
    g = random_dag(3, 30)
    nodes = sorted(g.concepts)
    for a in nodes:
        for b in nodes:
            if not g.is_subclass_of(a, b):
                continue
            for c in nodes:
                if g.is_subclass_of(b, c):
                    assert g.is_subclass_of(a, c)


def test_serialize_round_trip():
    g = random_dag(17, 50)
    g2 = parse_taxonomy(g.serialize())
    assert g2.concepts == g.concepts
    assert g2.parent_edges == g.parent_edges
    assert g2.root == g.root


def test_parse_mapping():
    g = parse_taxonomy("GroupOfPeople\tGroup\nGroup\tEntity")
    m = parse_mapping("Crowd2\tGroupOfPeople", g)
    assert m.concepts_for("crowd2") == {"GroupOfPeople"}
    assert m.concepts_for("CROWD2") == {"GroupOfPeople"}
    assert m.concepts_for("Crowd2") == {"GroupOfPeople"}
    assert m.concepts_for("Crowd3") == frozenset()


def test_parse_mapping_multi_concept():
    g = parse_taxonomy("WinterSeason\tEntity\nStreet\tEntity")
    m = parse_mapping("WinterStreet\tWinterSeason\nWinterStreet\tStreet", g)
    assert m.concepts_for("winterstreet") == {"WinterSeason", "Street"}


def test_parse_mapping_empty_and_unknown():
    g = parse_taxonomy("A\tB")
    assert len(parse_mapping("", g)) == 0
    with pytest.raises(ParseError, match="line 1"):
        parse_mapping("kw\tNoSuchConcept", g)


def test_mapping_keyword_may_contain_spaces():
    g = parse_taxonomy("A\tB")
    m = parse_mapping("winter street\tA", g)
    assert m.concepts_for("Winter Street") == {"A"}
