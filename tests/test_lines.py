import pytest

from stimkb.errors import CycleError, ParseError
from stimkb.lines import data_lines, parse_input, tab_rows
from stimkb.taxonomy import parse_taxonomy

TEXT = "# header\n\n  \nA\tB\n  # indented comment\n\tC \t D\n#\n"


def test_data_lines_skip_blank_and_comment_lines_and_count_every_line():
    assert list(data_lines(TEXT)) == [(4, "A\tB"), (6, "\tC \t D")]
    assert list(data_lines("")) == []
    assert list(data_lines("a\r\nb\rc")) == [(1, "a"), (2, "b"), (3, "c")]


def test_tab_rows_yield_stripped_fields():
    assert list(tab_rows(TEXT, "x<TAB>y")) == [(4, ["A", "B"]), (6, ["C", "D"])]


def test_tab_rows_check_the_field_count():
    with pytest.raises(ParseError) as exc:
        list(tab_rows("# c\nA\tB\n\nA\tB\tC\n", "x<TAB>y"))
    assert exc.value.line == 4
    assert str(exc.value) == r"line 4: expected `x<TAB>y`, got 'A\tB\tC'"
    with pytest.raises(ParseError, match="^line 1: expected `a<TAB>b<TAB>c`"):
        list(tab_rows("one field", "a<TAB>b<TAB>c"))


def test_parse_input_names_the_input_and_keeps_the_error(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("# c\nA\tB\nB\tA\tC\n")
    with pytest.raises(ParseError) as exc:
        parse_input(parse_taxonomy, path, "taxonomy file")
    assert type(exc.value) is ParseError
    assert exc.value.line == 3
    assert str(exc.value) == (
        rf"taxonomy file {path} line 3: expected `child<TAB>parent`, "
        r"got 'B\tA\tC'"
    )
    path.write_text("A\tB\nB\tA\n")
    with pytest.raises(CycleError) as exc:
        parse_input(parse_taxonomy, path, "taxonomy file")
    assert exc.value.line is None
    assert str(exc.value) == (f"taxonomy file {path}: every concept has a "
                              "parent; taxonomy is cyclic")
    assert parse_input(lambda text, n: text * n, path, "x", 2) == "A\tB\nB\tA\n" * 2
