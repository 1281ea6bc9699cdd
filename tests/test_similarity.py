import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from stimkb.errors import UnknownConceptError, ValidationError
from stimkb.similarity import (
    CONCEPT_MEASURES,
    LI_ALPHA,
    LI_BETA,
    Measure,
    inclusion_rel,
    levenshtein_distance,
    levenshtein_rel,
    parse_measure,
    relatedness,
    wu_palmer_rel,
)
from stimkb.taxonomy import parse_taxonomy

from conftest import dp_edit_distance, oracle_edit_distance, random_dag



def test_inclusion_examples():
    assert inclusion_rel("Train", "train") == 1.0
    assert inclusion_rel("dog", "attackdog") == pytest.approx(3 / 9)
    assert inclusion_rel("dog", "cat") == 0.0


def test_inclusion_empty_string_rejected():
    with pytest.raises(ValidationError):
        inclusion_rel("", "x")


def test_levenshtein_examples():
    assert levenshtein_rel("Train", "Train") == 1.0
    assert levenshtein_rel("dog", "dogs") == 0.75


@pytest.mark.parametrize("seed", range(30))
def test_levenshtein_matches_exhaustive_recursion(seed):
    rng = random.Random(seed)
    alphabet = "abc"
    a = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
    b = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
    assert levenshtein_distance(a, b) == oracle_edit_distance(a, b)


# Mixed case and non-ASCII letters, including ones that casefold to
# several characters; the distance itself compares code points as given.
_EDIT_ALPHABET = "aAbBéÉßẞ漢 "


@given(st.text(alphabet=_EDIT_ALPHABET, max_size=6),
       st.text(alphabet=_EDIT_ALPHABET, max_size=6))
def test_levenshtein_matches_oracle_on_mixed_text(a, b):
    assert levenshtein_distance(a, b) == oracle_edit_distance(a, b)
    assert levenshtein_distance(b, a) == oracle_edit_distance(a, b)


# The bit-vector kernel against the DP: pattern widths around the 64- and
# 128-bit marks, astral characters (one code point each), runs of one
# character, equal strings, and near pairs (a few edits apart), where the
# +1/-1 deltas cancel most.
_KERNEL_ALPHABET = "abé\U0001F600\U00010348"
_LENGTHS = st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129, 150]) | st.integers(
    0, 150)


@st.composite
def _kernel_text(draw):
    n = draw(_LENGTHS)
    if draw(st.booleans()):
        return draw(st.sampled_from(_KERNEL_ALPHABET)) * n
    return "".join(draw(st.lists(st.sampled_from(_KERNEL_ALPHABET), min_size=n,
                                 max_size=n)))


@st.composite
def _near(draw, text):
    chars = list(text)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        c = draw(st.sampled_from(_KERNEL_ALPHABET))
        if op == "insert":
            chars.insert(i, c)
        elif i < len(chars):
            chars[i:i + 1] = [c] if op == "replace" else []
    return "".join(chars)


_KERNEL_PAIRS = (
    st.tuples(_kernel_text(), _kernel_text())
    | _kernel_text().map(lambda a: (a, a))
    | _kernel_text().flatmap(lambda a: st.tuples(st.just(a), _near(a)))
)


@settings(max_examples=300)
@given(_KERNEL_PAIRS)
@example(("", ""))
@example(("", "a" * 130))
@example(("\U0001F600" * 129, "\U0001F600" * 64))
@example(("ab" * 65, "ba" * 65))
def test_levenshtein_kernel_matches_the_dp(pair):
    a, b = pair
    expected = dp_edit_distance(a, b)
    assert levenshtein_distance(a, b) == expected
    assert levenshtein_distance(b, a) == expected


def _chain(n):
    return parse_taxonomy("\n".join(f"C{i}\tC{i-1}" for i in range(1, n)))


def test_path_length_examples():
    g = parse_taxonomy("Animal\tEntity\nDog\tAnimal\nCat\tAnimal")
    pathlen = Measure.PATH_LENGTH
    assert relatedness(pathlen, "Dog", "Dog", graph=g) == 1.0
    assert relatedness(pathlen, "Dog", "Animal", graph=g) == 0.5
    assert relatedness(pathlen, "Dog", "Cat", graph=g) == pytest.approx(1 / 3)


def test_wu_palmer_examples():
    g = parse_taxonomy("Animal\tEntity\nDog\tAnimal\nCat\tAnimal")
    assert wu_palmer_rel(g, "Dog", "Dog") == 1.0
    # Dog depth 3, Animal depth 2, lcs Animal: 2*2/(3+2)
    assert wu_palmer_rel(g, "Dog", "Animal") == pytest.approx(0.8)
    # depth-2 siblings, lcs root: 2*1/(2+2)
    g2 = parse_taxonomy("A\tR\nB\tR")
    assert wu_palmer_rel(g2, "A", "B") == pytest.approx(0.5)


def test_leacock_chodorow_fixture():
    # Chain of 4: maxDepth 4; pair at distance 2 -> log(4)/log(16) = 0.5.
    g = _chain(4)
    assert g.max_depth == 4
    lch = Measure.LEACOCK_CHODOROW
    assert relatedness(lch, "C0", "C2", graph=g) == pytest.approx(
        math.log(4) / math.log(16)
    )
    assert relatedness(lch, "C1", "C1", graph=g) == 1.0


def test_li_fixture_scalar_arithmetic():
    # Siblings at depth 3 under a parent at depth 2: d=2, h=2.
    g = parse_taxonomy("P\tR\nA\tP\nB\tP")
    expected = (
        math.exp(-LI_ALPHA * 2)
        * math.tanh(LI_BETA * 2)
        / math.tanh(LI_BETA * 3)
    )
    assert relatedness(Measure.LI, "A", "B", graph=g) == pytest.approx(expected)
    assert relatedness(Measure.LI, "A", "A", graph=g) == 1.0


def test_li_decays_with_distance():
    g = _chain(30)
    rels = [relatedness(Measure.LI, "C0", f"C{i}", graph=g) for i in range(1, 30)]
    assert all(a > b for a, b in zip(rels, rels[1:]))
    assert rels[-1] < 0.01


@pytest.mark.parametrize("seed", range(15))
def test_concept_measure_axioms_on_random_dags(seed):
    g = random_dag(seed, random.Random(seed).randint(2, 50))
    nodes = sorted(g.concepts)
    rng = random.Random(seed + 1000)
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(40)]
    pairs += [(n, n) for n in rng.sample(nodes, min(5, len(nodes)))]
    for measure in sorted(CONCEPT_MEASURES):
        for a, b in pairs:
            v = relatedness(measure, a, b, graph=g)
            assert 0.0 <= v <= 1.0, (measure, a, b, v)
            assert v == pytest.approx(relatedness(measure, b, a, graph=g))
            if a == b:
                assert v == pytest.approx(1.0)
            else:
                assert v < 1.0, (measure, a, b, v)


def test_pathlen_strictly_monotone_in_distance():
    g = random_dag(2, 40)
    nodes = sorted(g.concepts)
    rng = random.Random(2)
    for _ in range(100):
        a, b = rng.choice(nodes), rng.choice(nodes)
        c, d = rng.choice(nodes), rng.choice(nodes)
        if g.shortest_path(a, b) < g.shortest_path(c, d):
            assert (relatedness(Measure.PATH_LENGTH, a, b, graph=g)
                    > relatedness(Measure.PATH_LENGTH, c, d, graph=g))


@given(st.text(alphabet="abcXYZ ", min_size=1, max_size=12),
       st.text(alphabet="abcXYZ ", min_size=1, max_size=12))
def test_lexical_measure_axioms(a, b):
    for rel in (inclusion_rel, levenshtein_rel):
        v = rel(a, b)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(rel(b, a))
        assert rel(a, a) == 1.0
        if a.casefold() != b.casefold():
            assert v < 1.0


def test_dispatch():
    g = parse_taxonomy("Dog\tAnimal")
    assert relatedness(Measure.LEVENSHTEIN, "a", "a", graph=g) == 1.0
    assert relatedness(Measure.PATH_LENGTH, "Dog", "Dog", graph=g) == 1.0
    # A concept measure on keywords: they are not concepts of the graph.
    with pytest.raises(UnknownConceptError, match="unknown concept: 'dog'"):
        relatedness(Measure.WU_PALMER, "dog", "cat", graph=g)


def test_parse_measure_names():
    assert parse_measure("WuPalmer") is Measure.WU_PALMER
    assert parse_measure("lch") is Measure.LEACOCK_CHODOROW
    with pytest.raises(ValidationError):
        parse_measure("cosine")
