import random

import pytest
from hypothesis import given, settings, strategies as st

from stimkb.affect import (
    BIG_SIX_TERMS,
    CategoryAnnotation,
    DimensionAnnotation,
    EquivalenceClosure,
    load_vocabularies,
    parse_axioms,
    validate_category,
    validate_dimension,
)
from stimkb.errors import ParseError, ValidationError


def test_load_vocabularies_big_six_file():
    text = "\n".join(f"BigSix\t{t}" for t in sorted(BIG_SIX_TERMS))
    vocabs = load_vocabularies(text)
    assert vocabs["BigSix"].terms == BIG_SIX_TERMS


def test_empty_file_gives_built_in_big_six():
    vocabs = load_vocabularies("")
    assert set(vocabs) == {"BigSix"}
    assert vocabs["BigSix"].terms == BIG_SIX_TERMS


def test_big_six_missing_primary_emotion_rejected():
    with pytest.raises(ValidationError, match="disgust"):
        load_vocabularies("BigSix\tanger\nBigSix\thappiness")


def test_general_vocabulary_66_terms(paper_workspace):
    assert len(paper_workspace.corpus.vocabs["General"].terms) == 66


def test_validate_category_ok_with_level():
    vocabs = load_vocabularies("")
    ann = CategoryAnnotation("BigSix", "happiness", confidence_level="Average")
    assert validate_category(ann, vocabs) == []


def test_validate_category_boundary_value():
    vocabs = load_vocabularies("")
    ann = CategoryAnnotation("BigSix", "happiness", confidence_value=1.0)
    assert validate_category(ann, vocabs) == []


def test_validate_category_rejections():
    vocabs = load_vocabularies("")
    cases = [
        (CategoryAnnotation("BigSix", "ecstasy"), "not in vocabulary"),
        (CategoryAnnotation("NoSuch", "anger"), "unknown vocabulary"),
        (CategoryAnnotation("BigSix", "fear", confidence_value=1.5), "outside"),
        (CategoryAnnotation("BigSix", "fear", confidence_level="Medium"), "not one of"),
    ]
    for ann, fragment in cases:
        problems = validate_category(ann, vocabs)
        assert problems and fragment in problems[0]


def test_validate_dimension_out_of_scale():
    ann = DimensionAnnotation(scale_min=1, scale_max=9, valence=12)
    assert any("outside scale" in p for p in validate_dimension(ann))


def test_validate_dimension_requires_a_value():
    ann = DimensionAnnotation(scale_min=1, scale_max=9)
    assert any("no dimension value" in p for p in validate_dimension(ann))


def test_validate_dimension_negative_sd():
    ann = DimensionAnnotation(scale_min=1, scale_max=9, valence=5, valenceSD=-0.1)
    assert any("negative" in p for p in validate_dimension(ann))
    ann = DimensionAnnotation(scale_min=1, scale_max=9, valence=5,
                              dominanceSD=float("nan"))
    assert validate_dimension(ann) == ["dominanceSD=nan is not a number"]


def test_degenerate_scale():
    ann = DimensionAnnotation(scale_min=3, scale_max=3, valence=3)
    assert validate_dimension(ann) == ["scaleMin 3 must be < scaleMax 3"]


def test_equivalence_inference_paper_example():
    closure = EquivalenceClosure(
        [("BigSix.anger", "OCC.anger"), ("BigSix.anger", "FSRE.anger")]
    )
    assert closure.are_equivalent("FSRE.anger", "OCC.anger")
    assert not closure.are_equivalent("FSRE.anger", "BigSix.fear")


def test_empty_closure_is_identity():
    closure = EquivalenceClosure([])
    assert closure.are_equivalent("A.x", "A.x")
    assert not closure.are_equivalent("A.x", "B.x")


def test_malformed_qualified_term():
    for row, term in ((".\tx\tBigSix\tanger", "..x"),
                      ("BigSix\tanger\tA\tx.", "A.x.")):
        with pytest.raises(ParseError) as exc:
            parse_axioms(f"# c\n{row}\n")
        assert str(exc.value) == f"line 2: malformed qualified term {term!r}"


def _oracle_components(axioms):
    adj = {}
    for a, b in axioms:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = set()
        stack = [start]
        while stack:
            n = stack.pop()
            if n in comp:
                continue
            comp.add(n)
            stack.extend(adj[n] - comp)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


@pytest.mark.parametrize("seed", range(10))
def test_closure_matches_component_oracle(seed):
    rng = random.Random(seed)
    terms = [f"V{i}.t{j}" for i in range(4) for j in range(5)]
    axioms = [tuple(rng.sample(terms, 2)) for _ in range(rng.randint(0, 25))]
    closure = EquivalenceClosure(axioms)
    assert closure.classes() == _oracle_components(axioms)


def test_closure_order_independent():
    rng = random.Random(9)
    axioms = [("A.x", "B.x"), ("B.x", "C.x"), ("D.y", "E.y"), ("C.x", "D.y")]
    base = EquivalenceClosure(axioms).classes()
    for _ in range(10):
        rng.shuffle(axioms)
        assert EquivalenceClosure(axioms).classes() == base


@given(
    st.lists(
        st.tuples(
            st.sampled_from([f"V{i}.t{j}" for i in range(3) for j in range(3)]),
            st.sampled_from([f"V{i}.t{j}" for i in range(3) for j in range(3)]),
        ),
        max_size=15,
    )
)
def test_equivalence_relation_properties(axioms):
    closure = EquivalenceClosure(axioms)
    terms = sorted({t for ax in axioms for t in ax}) + ["Z.unseen"]
    for a in terms:
        assert closure.are_equivalent(a, a)
        assert closure.equivalents(a) == {
            b for b in terms if closure.are_equivalent(a, b)
        }
        for b in terms:
            assert closure.are_equivalent(a, b) == closure.are_equivalent(b, a)
            for c in terms:
                if closure.are_equivalent(a, b) and closure.are_equivalent(b, c):
                    assert closure.are_equivalent(a, c)


def _merge_until_nothing_changes(axioms):
    """Naive closure: each term named in an axiom starts as its own class;
    each pass merges the classes of every axiom's two terms, until a pass
    merges nothing."""
    classes = [{t} for t in sorted({t for pair in axioms for t in pair})]
    changed = True
    while changed:
        changed = False
        for a, b in axioms:
            ca = next(c for c in classes if a in c)
            cb = next(c for c in classes if b in c)
            if ca is not cb:
                ca |= cb
                classes.remove(cb)
                changed = True
    return classes


_AXIOM_TERMS = [f"V{i}.t{j}" for i in range(3) for j in range(4)]


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(_AXIOM_TERMS),
                          st.sampled_from(_AXIOM_TERMS)), max_size=30))
def test_closure_matches_merge_until_nothing_changes(axioms):
    closure = EquivalenceClosure(axioms)
    oracle = _merge_until_nothing_changes(axioms)
    # A term paired only with itself forms no class of its own.
    assert closure.classes() == sorted(
        tuple(sorted(c)) for c in oracle if len(c) > 1
    )
    for c in oracle:
        for a in c:
            assert closure.equivalents(a) == c
            for b in _AXIOM_TERMS:
                assert closure.are_equivalent(a, b) == (b in c)
    assert closure.equivalents("Z.unseen") == {"Z.unseen"}


def test_parse_axioms():
    axioms = parse_axioms("BigSix\tanger\tOCC\tanger\n# c\nBigSix\tanger\tFSRE\tanger")
    assert axioms == [("BigSix.anger", "OCC.anger"), ("BigSix.anger", "FSRE.anger")]
    with pytest.raises(ParseError, match="line 1"):
        parse_axioms("only\tthree\tfields")
    with pytest.raises(
        ParseError,
        match=r"^line 3: expected `vocabA<TAB>termA<TAB>vocabB<TAB>termB`, "
        r"got 'A\\tx\\tB'$",
    ):
        parse_axioms("# c\n\nA\tx\tB\n")
