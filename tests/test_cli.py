import contextlib
import io
import json
import shlex
import shutil
import subprocess
import sys
import zlib
from base64 import b64decode, b64encode
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stimkb
import stimkb.snapshot
from stimkb.affect import EquivalenceClosure
from stimkb.cli import main
from stimkb.snapshot import Workspace, save_snapshot

from conftest import (
    PACKED_COLUMNS,
    TEXT_COLUMNS,
    packed_values,
    text_items,
    text_stream,
)
from synthetic import generate

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "paper"


@pytest.fixture()
def workspace(tmp_path):
    for f in FIXTURES.iterdir():
        shutil.copy(f, tmp_path / f.name)
    return tmp_path


@pytest.fixture()
def snapshot(workspace, capsys):
    snap = workspace / "snap.json"
    rc = main(["ingest", "--manifest", str(workspace / "manifest.txt"),
               "--snapshot", str(snap)])
    capsys.readouterr()
    assert rc == 0
    return snap


def test_ingest_reports_counts(workspace, capsys):
    snap = workspace / "snap.json"
    rc = main(["ingest", "--manifest", str(workspace / "manifest.txt"),
               "--snapshot", str(snap)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("4 records, 0 invalid")
    assert snap.is_file()


def test_ingest_missing_taxonomy_exits_2(workspace, capsys):
    (workspace / "taxonomy.tsv").unlink()
    rc = main(["ingest", "--manifest", str(workspace / "manifest.txt"),
               "--snapshot", str(workspace / "s.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "taxonomy.tsv" in err


def test_ingest_invalid_record_exits_3(workspace, capsys):
    with open(workspace / "records.tsv", "a") as f:
        f.write("db=IAPS\tid=666\n")
    rc = main(["ingest", "--manifest", str(workspace / "manifest.txt"),
               "--snapshot", str(workspace / "s.json")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "IAPS/666" in err


@pytest.mark.parametrize(
    "line, code, message",
    [
        ("db=IAPS\tid=666\tdb=X\tctx=1", 2, "repeated record field 'db'"),
        ("db=IAPS\tid=666\tdim.scale=1:9\tdim.valence=3\tdim.valence=7", 2,
         "repeated record field 'dim.valence'"),
        ("db=IAPS\tid=666\tctx.lengthSeconds=nan", 3,
         "context length_seconds=nan is not a number"),
        ("db=IAPS\tid=666\tdim.scale=1:9\tdim.valence=3\tdim.valenceSD=nan", 3,
         "valenceSD=nan is not a number"),
    ],
)
def test_ingest_bad_record_exit_code(line, code, message, workspace, capsys):
    with open(workspace / "records.tsv", "a") as f:
        f.write(line + "\n")
    rc = main(["ingest", "--manifest", str(workspace / "manifest.txt"),
               "--snapshot", str(workspace / "s.json")])
    err = capsys.readouterr().err
    assert rc == code
    assert message in err


def test_query_fig7_filter_empty(snapshot, capsys):
    rc = main(["query", "--snapshot", str(snapshot),
               "concept:GroupOfPeople valence:[6.5,9] arousal:[1,3.5] mode:filter"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == ""


def test_query_concept_filter(snapshot, capsys):
    rc = main(["query", "--snapshot", str(snapshot),
               "concept:GroupOfPeople mode:filter"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "IADS/311\n"


def test_query_rank_tsv_shape(snapshot, capsys):
    rc = main(["query", "--snapshot", str(snapshot),
               "keyword:WinterStreet measure:levenshtein"])
    out = capsys.readouterr().out
    assert rc == 0
    first = out.splitlines()[0].split("\t")
    assert first == ["1", "1.000000", "IAPS/5635", "IAPS", "5635"]


def test_query_json_format(snapshot, capsys):
    rc = main(["query", "--snapshot", str(snapshot), "--format", "json",
               "concept:Human measure:wupalmer"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["entries"][0]["stimulus"] == "IAPS/8163"


def test_query_malformed_exits_2(snapshot, capsys):
    rc = main(["query", "--snapshot", str(snapshot), "valence:[9,1]"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "^" in err  # caret position marker


SEQUENCE_ARGS = ["--count", "1", "--duration", "10"]


@pytest.mark.parametrize("command", ["query", "sequence"])
@pytest.mark.parametrize(
    "query, position, message",
    [
        ("concept:Object limit:²", 21,
         "limit must be a positive integer, got '²'"),
        ("valence:[1,9] mode:filter limit:3", 26,
         "clause 'limit' applies only in rank mode"),
        ("concept:Object measure:li mode:filter", 15,
         "clause 'measure' applies only in rank mode"),
        ("valence:[nan,9] mode:filter", 8, "interval [nan, 9.0] needs lo <= hi"),
        ("concept:Object arousal:[1,nan]", 23,
         "interval [1.0, nan] needs lo <= hi"),
        ('keyword:"nub', 8, "unterminated quote in keyword '\"nub'"),
        ('keyword:"n', 8, "unterminated quote in keyword '\"n'"),
    ],
)
def test_query_error_exits_2_with_a_caret(command, query, position, message,
                                          snapshot, capsys):
    extra = SEQUENCE_ARGS if command == "sequence" else []
    rc = main([command, "--snapshot", str(snapshot), *extra, query])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (f"query error: position {position}: {message}\n"
                            f"{query}\n" + " " * position + "^\n")
    assert captured.out == ""


def test_sequence_filter_query_exits_2(snapshot, capsys):
    rc = main(["sequence", "--snapshot", str(snapshot), *SEQUENCE_ARGS,
               "valence:[1,9] mode:filter"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (
        "query error: sequence needs a rank-mode query, not mode:filter\n")
    assert captured.out == ""


def test_query_deterministic(snapshot, capsys):
    args = ["query", "--snapshot", str(snapshot), "concept:Object measure:pathlen"]
    main(args)
    out1 = capsys.readouterr().out
    main(args)
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_stats(snapshot, capsys):
    rc = main(["stats", "--snapshot", str(snapshot)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "4 records"


def test_validate(workspace, capsys):
    rc = main(["validate", "--manifest", str(workspace / "manifest.txt")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("ok: 4 records")


def test_sequence_command(snapshot, workspace, capsys):
    prefix = str(workspace / "seq")
    rc = main(["sequence", "--snapshot", str(snapshot),
               "--count", "3", "--duration", "2000", "--isi", "500",
               "--out-prefix", prefix,
               "concept:Entity measure:pathlen"])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads(Path(prefix + ".json").read_text())
    assert doc["totalMs"] == 7000
    schedule = Path(prefix + ".schedule.tsv").read_text().splitlines()
    assert len(schedule) == 6
    assert [int(l.split("\t")[0]) for l in schedule] == [0, 2000, 2500, 4500,
                                                         5000, 7000]


def _eval_files(workspace, queries="queries.tsv", judgments="judgments.tsv"):
    queries = workspace / queries
    queries.write_text(
        "q1\tGroupOfPeople\tCrowd2\nq2\tHuman\tParachute\n"
    )
    judgments = workspace / judgments
    judgments.write_text(
        "q1\tIADS/311\t1\nq1\tIAPS/8163\t0\nq1\tIAPS/5635\t0\nq1\tIAPS/7039\t0\n"
        "q2\tIAPS/8163\t1\nq2\tIADS/311\t0\nq2\tIAPS/5635\t0\nq2\tIAPS/7039\t0\n"
    )
    return queries, judgments


def test_eval_deterministic(snapshot, workspace, capsys):
    queries, judgments = _eval_files(workspace)
    args = ["eval", "--snapshot", str(snapshot),
            "--queries", str(queries), "--judgments", str(judgments),
            "--seed", "7", "--candidates", "4"]
    rc = main(args)
    out1 = capsys.readouterr().out
    assert rc == 0
    main(args)
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert out1.splitlines()[0].startswith("scheme\tmeasure")


def test_eval_writes_report_file(snapshot, workspace, capsys):
    queries, judgments = _eval_files(workspace)
    report = workspace / "report.tsv"
    rc = main(["eval", "--snapshot", str(snapshot),
               "--queries", str(queries), "--judgments", str(judgments),
               "--seed", "7", "--candidates", "4", "--out", str(report)])
    capsys.readouterr()
    assert rc == 0
    lines = report.read_text().splitlines()
    # One row per default measure: two concept, two keyword.
    assert len([l for l in lines[1:] if l and not l.startswith("#")]) == 4


def test_eval_repeated_names_run_once(snapshot, workspace, capsys):
    queries, judgments = _eval_files(workspace)
    base = ["eval", "--snapshot", str(snapshot), "--queries", str(queries),
            "--judgments", str(judgments), "--seed", "7", "--candidates", "4"]
    assert main(base + ["--measures", "pathlen"]) == 0
    once = capsys.readouterr().out
    assert main(base + ["--measures", "pathlen,PathLen"]) == 0
    twice = capsys.readouterr().out
    assert twice == once
    rows = [l for l in twice.splitlines()[1:] if not l.startswith("#")]
    assert len(rows) == 1 and rows[0].startswith("concept\tpathlen\t")


def test_eval_strips_judgment_fields(snapshot, workspace, capsys):
    queries, judgments = _eval_files(workspace)
    args = ["eval", "--snapshot", str(snapshot), "--queries", str(queries),
            "--judgments", str(judgments), "--seed", "7", "--candidates", "4"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    judgments.write_text("".join(
        f"{qid} \t {key}\t{flag}\n"
        for qid, key, flag in (l.split("\t") for l in
                               judgments.read_text().splitlines())
    ))
    queries.write_text(" q1\tGroupOfPeople \tCrowd2\nq2 \tHuman\tParachute\n")
    assert main(args) == 0
    assert capsys.readouterr().out == plain


def test_explicit_limit_beats_snapshot_limit(workspace, capsys):
    with open(workspace / "manifest.txt", "a") as f:
        f.write("limit=2\n")
    snap = workspace / "snap.json"
    assert main(["ingest", "--manifest", str(workspace / "manifest.txt"),
                 "--snapshot", str(snap)]) == 0
    capsys.readouterr()
    counts = {}
    for query in ("concept:Human", "concept:Human limit:100",
                  "concept:Human limit:1"):
        assert main(["query", "--snapshot", str(snap), query]) == 0
        counts[query] = len(capsys.readouterr().out.splitlines())
    assert counts == {"concept:Human": 2, "concept:Human limit:100": 4,
                      "concept:Human limit:1": 1}


def test_sequence_uses_the_snapshot_limit(workspace, capsys):
    with open(workspace / "manifest.txt", "a") as f:
        f.write("limit=2\n")
    snap = workspace / "snap.json"
    assert main(["ingest", "--manifest", str(workspace / "manifest.txt"),
                 "--snapshot", str(snap)]) == 0
    capsys.readouterr()
    assert main(["query", "--snapshot", str(snap), "concept:Object mode:rank"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2

    def sequence(count, query):
        return main(["sequence", "--snapshot", str(snap), "--count", str(count),
                     "--duration", "100", "--out-prefix",
                     str(workspace / "seq"), query])

    assert sequence(3, "concept:Object mode:rank") == 3
    assert "requested 3 items but only 2 results" in capsys.readouterr().err
    for count, query in ((2, "concept:Object mode:rank"),
                         (3, "concept:Object mode:rank limit:3")):
        assert sequence(count, query) == 0
        assert capsys.readouterr().out.startswith(f"{count} items, ")


def test_stats_counts_match_the_records(tmp_path, capsys):
    graph, corpus, _, _ = generate(7, n_concepts=40, n_stimuli=300)
    ws = Workspace(graph=graph, mapping=None,
                   closure=EquivalenceClosure([]), corpus=corpus,
                   unmapped_keywords=[])
    snap = tmp_path / "snap.json"
    save_snapshot(ws, snap)
    assert main(["stats", "--snapshot", str(snap)]) == 0
    concepts = {c for rec in corpus for c in rec.concepts()}
    keywords = {s.keyword.casefold() for rec in corpus for s in rec.semantics
                if s.keyword}
    assert capsys.readouterr().out.splitlines()[:3] == [
        f"{len(corpus)} records",
        f"{len(keywords)} distinct keywords",
        f"{len(concepts)} distinct concepts",
    ]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["eval", "--candidates", "0"], "--candidates"),
        (["eval", "--candidates", "-3"], "--candidates"),
        (["eval", "--retries", "-1"], "--retries"),
        (["eval", "--retries", "two"], "--retries"),
        (["sequence", "--count", "0", "--duration", "2000"], "--count"),
        (["sequence", "--count", "3", "--duration", "0"], "--duration"),
        (["sequence", "--count", "3", "--duration", "2000", "--isi", "-5"],
         "--isi"),
    ],
)
def test_bad_flag_values_exit_2(argv, flag, snapshot, workspace, capsys):
    queries, judgments = _eval_files(workspace)
    rest = (["--queries", str(queries), "--judgments", str(judgments)]
            if argv[0] == "eval" else ["concept:Entity measure:pathlen"])
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--snapshot", str(snapshot)] + argv[1:] + rest)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {flag}: expected an integer >= " in err


@pytest.mark.parametrize(
    "track", ["", "a\tb", "a\nb", "visual\r"], ids=["empty", "tab", "newline", "cr"]
)
def test_sequence_bad_track_exits_2(track, snapshot, workspace, capsys):
    prefix = workspace / "seq"
    with pytest.raises(SystemExit) as exc:
        main(["sequence", "--snapshot", str(snapshot), "--count", "3",
              "--duration", "2000", "--track", track,
              "--out-prefix", str(prefix), "concept:Entity measure:pathlen"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert (f"argument --track: expected a non-empty track name with no tab "
            f"or line break, got {track!r}") in captured.err
    assert captured.out == ""
    assert not Path(f"{prefix}.schedule.tsv").exists()


def test_sequence_track_names_the_schedule_column(snapshot, capsys):
    assert main(["sequence", "--snapshot", str(snapshot), "--count", "2",
                 "--duration", "100", "--track", "left ear",
                 "concept:Entity measure:pathlen"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()
            if line[:1].isdigit()]
    assert len(rows) == 4
    assert {len(row) for row in rows} == {4}
    assert {row[2] for row in rows} == {"left ear"}


def test_smallest_flag_values_accepted(snapshot, workspace, capsys):
    queries, judgments = _eval_files(workspace)
    assert main(["eval", "--snapshot", str(snapshot), "--queries", str(queries),
                 "--judgments", str(judgments), "--candidates", "1",
                 "--retries", "0"]) == 0
    assert main(["sequence", "--snapshot", str(snapshot), "--count", "1",
                 "--duration", "1", "--isi", "0",
                 "concept:Entity measure:pathlen"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--measures", "foo", "unknown measure 'foo'"),
        ("--measures", "pathlen,", "unknown measure ''"),
    ],
)
def test_eval_unknown_measure_or_scheme_exits_2(flag, value, message,
                                                snapshot, workspace, capsys):
    queries, judgments = _eval_files(workspace)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--snapshot", str(snapshot), "--queries", str(queries),
              "--judgments", str(judgments), flag, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("judgments, lineno", [
    ("q1\tIADS/9999\t1\n", 1),
    ("# header\nq1\tIADS/311\t1\nq2\tIADS/9999\t0\nq2\tIAPS/0\t1\n", 3),
])
def test_eval_judgment_of_an_unknown_stimulus_exits_3(
    judgments, lineno, snapshot, workspace, capsys
):
    queries, path = _eval_files(workspace)
    path.write_text(judgments)
    rc = main(["eval", "--snapshot", str(snapshot), "--queries", str(queries),
               "--judgments", str(path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == (f"error: judgments file {path} line {lineno}: "
                            "unknown stimulus 'IADS/9999'\n")
    assert captured.out == ""


@pytest.mark.parametrize("which, text, message", [
    ("queries", "q1\tGroupOfPeople\tCrowd2\n# c\nq1\tHuman\tParachute\n",
     "line 3: repeated query id 'q1' (first on line 1)"),
    ("judgments", "q1\tIADS/311\t0\nq1\tIAPS/8163\t0\nq1\tIADS/311\t1\n",
     "line 3: repeated judgment of 'IADS/311' for query 'q1' (first on line 1)"),
    ("judgments", "q1\tIADS/311\t1\nq1\tIADS/311\t1\n",
     "line 2: repeated judgment of 'IADS/311' for query 'q1' (first on line 1)"),
    ("queries", "q1\tHuman\tNA\nq2\tHuman\n",
     r"line 2: expected `qid<TAB>concept<TAB>keyword`, got 'q2\tHuman'"),
    ("judgments", "# header\nq1\tIADS/311\t1\nq1\tIAPS/8163\tyes\n",
     "line 3: judgment must be 0 or 1, got 'yes'"),
])
def test_eval_parse_error_exits_2_naming_its_file(
    which, text, message, snapshot, workspace, capsys
):
    # Both files are line-oriented: the error says which one its line is in.
    queries, judgments = _eval_files(workspace)
    bad = queries if which == "queries" else judgments
    bad.write_text(text)
    rc = main(["eval", "--snapshot", str(snapshot), "--queries", str(queries),
               "--judgments", str(judgments)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {which} file {bad} {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("name, line, message", [
    ("taxonomy", "bad ident\tEntity", " line 40: invalid identifier 'bad ident'"),
    ("taxonomy", "Entity\tHuman",
     ": every concept has a parent; taxonomy is cyclic"),
    ("mapping", "Crowd9\tNowhere",
     " line 18: unknown concept 'Nowhere' for keyword 'Crowd9'"),
    ("vocabularies", "x\ty\tz",
     r" line 132: expected `vocab<TAB>term`, got 'x\ty\tz'"),
    ("axioms", "BigSix\t\tFSRE\tfear", " line 5: empty field in axiom"),
    ("axioms", ".\tx\tBigSix\tanger", " line 5: malformed qualified term '..x'"),
    ("records", "db=IAPS\tid=666\tdb=X", " line 4: repeated record field 'db'"),
    ("legacy", "x\ty\tz", " line 4: expected 9 columns, got 3"),
    ("legacy", "1\tIAPS\t\t5\tNA\tNA\tNA\tNA\tNA", " line 4: empty keyword"),
])
def test_ingest_parse_error_names_its_file(name, line, message, workspace,
                                           capsys):
    path = workspace / f"{name}.tsv"
    with open(path, "a") as f:
        f.write(line + "\n")
    rc = main(["ingest", "--manifest", str(workspace / "manifest.txt"),
               "--snapshot", str(workspace / "snap.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {name} file {path.resolve()}{message}\n"
    assert not (workspace / "snap.json").exists()


@pytest.mark.parametrize("command", ["ingest", "validate"])
def test_unreadable_input_names_the_manifest(command, workspace, capsys):
    manifest = workspace / "manifest.txt"
    text = manifest.read_text()
    manifest.write_text(text.replace("records=records.tsv", "records=nowhere"))
    argv = [command, "--manifest", str(manifest)]
    if command == "ingest":
        argv += ["--snapshot", str(workspace / "snap.json")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"error: manifest file {manifest}: records file not found: "
                   f"{(workspace / 'nowhere').resolve()}\n")


@pytest.mark.parametrize("name, old, new, message", [
    ("vocabularies", "BigSix\tanger\n", "",
     ": BigSix is missing required terms: ['anger']"),
    ("records", "dim.valence=7.14", "dim.valence=99",
     " line 3: record IAPS/8163: valence=99.0 outside scale [1.0, 9.0]"),
    ("legacy", "6.25", "99",
     " line 2: record IAPS/5635: valence=99.0 outside scale [1.0, 9.0]"),
    ("records", "db=IADS\tid=311", "db=IAPS\tid=8163",
     " line 3: duplicate stimulus key IAPS/8163"),
    ("records", "ctx.mediaFormat=jpg", "tendency=approach@level=Bogus",
     " line 3: record IAPS/8163: confidenceLevel 'Bogus' not one of "
     "('VeryHigh', 'High', 'Average', 'Low', 'VeryLow')"),
    ("records", "ctx.mediaFormat=jpg", "sentiment=0.5@value=-3",
     " line 3: record IAPS/8163: confidenceValue -3.0 outside [0, 1]"),
    # Records a snapshot cannot hold: ingest reports add_stimulus's words.
    ("legacy", "5635\tIAPS", "5635\t",
     " line 2: record /5635: record key requires non-empty db and id"),
    ("records", "sem=Object:concept:GroupOfPeople", "sem=:concept:Human",
     " line 2: record IADS/311: semantics kind '' not in "
     "('Object', 'Scene', 'Event')"),
])
@pytest.mark.parametrize("command", ["ingest", "validate"])
def test_ingest_validation_error_names_its_file(command, name, old, new,
                                                message, workspace, capsys):
    path = workspace / f"{name}.tsv"
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    argv = [command, "--manifest", str(workspace / "manifest.txt")]
    if command == "ingest":
        argv += ["--snapshot", str(workspace / "snap.json")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3
    assert err == f"error: {name} file {path.resolve()}{message}\n"
    assert not (workspace / "snap.json").exists()


def test_eval_has_no_schemes_option(snapshot, workspace, capsys):
    # The measures decide the scheme; `--measures pathlen,wupalmer` runs
    # the concept scheme only.
    queries, judgments = _eval_files(workspace)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--snapshot", str(snapshot), "--queries", str(queries),
              "--judgments", str(judgments), "--schemes", "concept"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "unrecognized arguments: --schemes concept" in captured.err
    assert captured.out == ""


_EVAL = ["eval", "--snapshot", "{ws}/snap.json", "--queries", "{ws}/queries.tsv",
         "--judgments", "{ws}/judgments.tsv"]
_INGEST = ["ingest", "--manifest", "{ws}/manifest.txt", "--snapshot",
           "{ws}/s.json"]

# (flag, the workspace file it reads, a command that reads it, the exit
# code when that file is not UTF-8).
_INPUT_FLAGS = [
    ("ingest --manifest", "manifest.txt", _INGEST, 2),
    ("validate --manifest", "manifest.txt",
     ["validate", "--manifest", "{ws}/manifest.txt"], 2),
    ("manifest taxonomy", "taxonomy.tsv", _INGEST, 2),
    ("query --snapshot", "snap.json",
     ["query", "--snapshot", "{ws}/snap.json", "concept:Human"], 3),
    ("sequence --snapshot", "snap.json",
     ["sequence", "--snapshot", "{ws}/snap.json", *SEQUENCE_ARGS,
      "concept:Human"], 3),
    ("stats --snapshot", "snap.json", ["stats", "--snapshot", "{ws}/snap.json"],
     3),
    ("eval --snapshot", "snap.json", _EVAL, 3),
    ("eval --queries", "queries.tsv", _EVAL, 2),
    ("eval --judgments", "judgments.tsv", _EVAL, 2),
]
# (flag, a command that writes `{out}`).
_OUTPUT_FLAGS = [
    ("ingest --snapshot", [*_INGEST[:-1], "{out}"]),
    ("eval --out", [*_EVAL, "--out", "{out}"]),
]


def _file_error_cases():
    for flag, name, argv, not_utf8_code in _INPUT_FLAGS:
        for kind, code in (("missing", 2), ("directory", 2),
                           ("not UTF-8", not_utf8_code)):
            yield pytest.param(name, argv, kind, code, id=f"{flag}-{kind}")
    for flag, argv in _OUTPUT_FLAGS:
        # A missing output is one whose directory does not exist.
        for kind in ("missing", "directory"):
            yield pytest.param("out", argv, kind, 2, id=f"{flag}-{kind}")


@pytest.mark.parametrize("name, argv, kind, code", _file_error_cases())
def test_file_errors_exit_with_a_message(name, argv, kind, code,
                                         snapshot, workspace, capsys):
    _eval_files(workspace)
    bad = workspace / name
    bad.unlink(missing_ok=True)
    out = workspace / "out"
    if kind == "missing":
        out = workspace / "no-such-dir" / "out"
    elif kind == "directory":
        bad.mkdir()
    elif kind == "not UTF-8":
        bad.write_bytes(b"caf\xe9\tEntity\n")
    rc = main([a.format(ws=workspace, out=out) for a in argv])
    captured = capsys.readouterr()
    assert rc == code
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert name in captured.err
    if code == 3:
        assert "not JSON" in captured.err
    assert captured.out == ""


def _readme_quick_start():
    """The `stimkb` command lines of the README's Quick start block."""
    readme = (FIXTURES.parent.parent / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    commands = _readme_quick_start()
    assert len(commands) >= 8
    shutil.copytree(FIXTURES, tmp_path / "fixtures" / "paper")
    _eval_files(tmp_path, queries="q.tsv", judgments="j.tsv")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "stimkb"
        try:
            rc = main(argv[1:])
        except SystemExit as e:
            rc = e.code
        assert rc == 0, (argv, capsys.readouterr().err)
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "concept:Nowhere"],
        ["query", "concept:Nowhere mode:filter"],
        ["sequence", "--count", "1", "--duration", "10", "concept:Nowhere"],
    ],
)
def test_unknown_concept_exits_3(argv, snapshot, capsys):
    rc = main(argv[:1] + ["--snapshot", str(snapshot)] + argv[1:])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: unknown concept") and "'Nowhere'" in err


def test_eval_unknown_query_concept_exits_3(snapshot, workspace, capsys):
    queries, judgments = _eval_files(workspace)
    queries.write_text("q1\tNowhere\tCrowd2\n")
    rc = main(["eval", "--snapshot", str(snapshot), "--queries", str(queries),
               "--judgments", str(judgments), "--candidates", "4"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == (f"error: queries file {queries} with judgments file "
                   f"{judgments}: unknown concept: 'Nowhere'\n")


@pytest.mark.parametrize(
    "option, message",
    [
        ("limit=ten", "line 9: limit must be an integer, got 'ten'"),
        ("limit=-1", "line 9: limit must be >= 1, got '-1'"),
        ("limit=0", "line 9: limit must be >= 1, got '0'"),
        ("seed=x", "line 9: seed must be an integer, got 'x'"),
        ("seed=1.5", "line 9: seed must be an integer, got '1.5'"),
        ("measure=pathlen", "line 9: unknown manifest key 'measure'"),
        ("judgments=judgments.tsv", "line 9: unknown manifest key 'judgments'"),
        ("seed=2", "line 9: repeated manifest key 'seed'"),
        ("taxonomy=taxonomy.tsv", "line 9: repeated manifest key 'taxonomy'"),
    ],
)
def test_ingest_bad_manifest_option_exits_2(option, message, workspace, capsys):
    manifest = workspace / "manifest.txt"
    assert len(manifest.read_text().splitlines()) == 8
    with open(manifest, "a") as f:
        f.write(option + "\n")
    rc = main(["ingest", "--manifest", str(manifest),
               "--snapshot", str(workspace / "snap.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: manifest file {manifest} {message}\n"
    assert not (workspace / "snap.json").exists()


# --- Fuzzing: whatever the query or the snapshot, main() ends with a
# documented exit code (0, 2, 3 or 4), or argparse's usage exit 2.

DOCUMENTED_EXITS = (0, 2, 3, 4)


@pytest.fixture(scope="module")
def fuzz_snapshot(tmp_path_factory):
    snap = tmp_path_factory.mktemp("fuzz") / "snap.json"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["ingest", "--manifest", str(FIXTURES / "manifest.txt"),
                   "--snapshot", str(snap)])
    assert rc == 0
    return snap


def _exit_code(argv):
    """main's return value, or the code of the SystemExit argparse raises
    for a usage error; any other exception propagates and fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as e:
            assert e.code == 2, err.getvalue()
            assert err.getvalue().startswith("usage: ")
            return e.code


CLAUSE_KEYS = st.sampled_from([
    "concept", "keyword", "category", "db", "measure", "mode", "limit",
    "valence", "arousal", "dominance", "potency", "colour", "",
])
CLAUSE_VALUES = st.sampled_from([
    "Human", "GroupOfPeople", "Entity", "Nowhere", "Crowd", "Parachute",
    '"winter street"', '""', "BigSix.happiness", "FSRECategory.anger",
    "Big.", "IAPS", "IADS", "filter", "rank", "pathlen", "lch", "li",
    "wupalmer", "inclusion", "levenshtein", "LI", "[1,9]", "[9,1]",
    "[nan,inf]", "[-inf,1e308]", "[1,", "0", "1", "-1",
    "99999999999999999999", "1.5", "x", "é", "", "²", "١٢", "[nan,9]",
    "[1,nan]",
])
# Clauses that parse on their own, so that queries also reach the filter
# and rank code.
GOOD_CLAUSES = st.sampled_from([
    ("concept", "Human"), ("concept", "GroupOfPeople"), ("concept", "Entity"),
    ("keyword", "Crowd"), ("keyword", '"winter street"'), ("keyword", "tra"),
    ("category", "BigSix.happiness"), ("category", "FSRECategory.anger"),
    ("db", "IAPS"), ("db", "IADS"), ("mode", "filter"), ("mode", "rank"),
    ("measure", "pathlen"), ("measure", "lch"), ("measure", "li"),
    ("measure", "wupalmer"), ("measure", "inclusion"),
    ("measure", "levenshtein"), ("limit", "1"), ("limit", "3"),
    ("valence", "[1,9]"), ("valence", "[5,7.5]"), ("arousal", "[6,7]"),
])


def _query_text(clauses):
    return " ".join(f"{k}:{v}" for k, v in clauses)


QUERIES = st.one_of(
    st.text(max_size=40),
    st.lists(st.tuples(CLAUSE_KEYS, CLAUSE_VALUES), max_size=5).map(_query_text),
    st.lists(GOOD_CLAUSES, min_size=1, max_size=4,
             unique_by=lambda kv: kv[0]).map(_query_text),
)


@settings(max_examples=300, deadline=None)
@given(query=QUERIES, fmt=st.sampled_from(["tsv", "json"]))
def test_fuzzed_query_exits_with_a_documented_code(fuzz_snapshot, query, fmt):
    argv = ["query", "--snapshot", str(fuzz_snapshot), "--format", fmt, query]
    assert _exit_code(argv) in DOCUMENTED_EXITS


# The text of a numeric option: an integer (zero, negative, huge), or text
# that may not be one (a fraction, an exponent, other digits, spaces).
NUMBER_TEXT = st.one_of(
    st.integers(-10**18 - 1, 10**18 + 1).map(str),
    st.sampled_from(["0", "-0", "-1", str(10**18), str(-10**18), "1.5", "2e3",
                     "", " ", " 3 ", "+3", "1_0", "0x10", "x", "nan", "inf",
                     "\u0661\u0662", "\u00b2"]),
    st.text(max_size=6),
)


def _option(low, high):
    """Text for an integer option whose good values run from `low` to
    `high`: one of them, often an end of the range, two times in three;
    else any NUMBER_TEXT that is no integer above `high`."""
    def at_most_high(text):
        try:
            return int(text) <= high
        except ValueError:
            return True

    return st.one_of(st.integers(low, high).map(str),
                     st.sampled_from([str(low), str(high)]),
                     NUMBER_TEXT.filter(at_most_high))


# --count stays at 50 or less, so that no example builds a large sequence.
@settings(max_examples=200, deadline=None)
@given(count=_option(1, 50), duration=_option(1, 10**18),
       isi=_option(0, 10**18))
def test_fuzzed_sequence_options_exit_with_a_documented_code(
    fuzz_snapshot, count, duration, isi
):
    # A bad value is a usage error (2), or a data error (3) when the query
    # has fewer results than --count; never an internal one (4).  The
    # `--flag=value` form passes a value that starts with `-` as a value.
    argv = ["sequence", "--snapshot", str(fuzz_snapshot), f"--count={count}",
            f"--duration={duration}", f"--isi={isi}",
            "concept:Entity measure:pathlen"]
    assert _exit_code(argv) in (0, 2, 3)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
SPLICE_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from(list("\t\n;=:.@,# -")), st.characters()),
    max_size=12,
)


# An item put into a table or a column: any JSON value, or a number near
# the bounds of the fixture's tables (18 semantics annotations, 3 contexts,
# 2 dbs, 1 scale, 1 kind).
ITEMS = JSON_VALUES | st.integers(-3, 22)
# A value put into a packed column.
PACKED_ITEMS = st.integers(0, 22) | st.integers(0, 2**64 - 1)


def _rows(doc):
    """The lists a mutation may edit: every table and record column, every
    annotation section and its field columns or rows, and every context
    row and scale row."""
    tables, columns = doc["tables"], doc["records"]
    sections = tables["annotations"]
    return [*tables.values(), *columns.values(), *sections,
            *(field for section in sections for field in section[1:]),
            *tables["contexts"], *tables["scales"]]


def _encoded_columns(doc, keys, schema):
    """(holder, key) of every column stored as `schema` (packed or text):
    the record columns `keys` and the annotation sections' field
    columns."""
    found = [(doc["records"], key) for key in keys]
    for section in doc["tables"]["annotations"]:
        types = stimkb.snapshot._ANNOTATIONS[section[0]][1] or ()
        found += [(section, i) for i, allowed in enumerate(types, start=1)
                  if allowed is schema]
    return found


@st.composite
def _streams(draw, data):
    """Bytes in place of a packed column's zlib stream of bytes `data`: a
    valid stream (of `data` or of any bytes, deflated at any level), one
    cut short, followed by more bytes or inflating to far more items than
    the column should hold, or bytes that are no zlib stream (`data`
    itself, as format 4 stored it)."""
    edit = draw(st.sampled_from(["valid", "cut", "trailing", "long", "raw"]))
    if edit == "raw":
        return data
    if edit == "valid" and draw(st.booleans()):
        data = draw(st.binary(max_size=48))
    elif edit == "long":
        data += bytes(draw(st.integers(1, 1 << 16)))
    stream = zlib.compress(data, draw(st.integers(0, 9)))
    if edit == "cut":
        return stream[:draw(st.integers(0, len(stream) - 1))]
    if edit == "trailing":
        return stream + draw(st.binary(min_size=1, max_size=8))
    return stream


@st.composite
def _texts(draw, items):
    """A text column in place of one of strings `items`: the items, one
    perhaps spliced, their UTF-8 text perhaps spliced with any bytes,
    deflated at any level, with the stream whole, cut short or followed by
    more bytes, or not deflated at all, and their byte length declared, or
    one byte more or fewer; or the text without its last byte, whole."""
    if items and draw(st.booleans()):
        items[draw(st.integers(0, len(items) - 1))] = draw(SPLICE_TEXT)
    data = "".join(item + "\n" for item in items).encode()
    if draw(st.booleans()):
        i = draw(st.integers(0, len(data)))
        data = data[:i] + draw(st.binary(min_size=1, max_size=4)) + data[i:]
    edit = draw(st.sampled_from(["valid", "truncated", "trailing", "raw",
                                 "short", "long", "unended"]))
    if edit == "unended":
        data = data[:-1]
    stream = zlib.compress(data, draw(st.integers(0, 9)))
    if edit == "truncated":
        stream = stream[:draw(st.integers(0, len(stream) - 1))]
    elif edit == "trailing":
        stream += draw(st.binary(min_size=1, max_size=8))
    elif edit == "raw":
        stream = data
    return text_stream(stream, len(data) + {"short": -1, "long": 1}.get(edit, 0))


@st.composite
def mutated_snapshots(draw, text):
    """The text of a snapshot with one edit: truncated; a key of the
    document, its tables or its record columns dropped or its value
    replaced by any JSON value; an item of a table, a column, an
    annotation section or its field columns, a row or a packed column's
    [typecode, base64] pair replaced, added or removed; a value of a
    packed column (a record column or an annotation field column)
    replaced, added or removed, and the column packed again; a packed
    column's stream replaced (see _streams), under any typecode; a text
    column (a record column or an annotation field column) replaced (see
    _texts); or a splice into a text input or into one string of a table,
    a column or an encoded pair."""
    kind = draw(st.sampled_from(["truncate", "drop", "replace", "item",
                                 "resize", "values", "stream", "text",
                                 "splice"]))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    holder = draw(st.sampled_from([doc, doc["tables"], doc["records"]]))
    if kind == "drop":
        del holder[draw(st.sampled_from(sorted(holder)))]
    elif kind == "replace":
        holder[draw(st.sampled_from(sorted(holder)))] = draw(JSON_VALUES)
    elif kind == "item":
        row = draw(st.sampled_from([r for r in _rows(doc) if r]))
        row[draw(st.integers(0, len(row) - 1))] = draw(ITEMS)
    elif kind == "resize":
        row = draw(st.sampled_from(_rows(doc)))
        if row and draw(st.booleans()):
            del row[draw(st.integers(0, len(row) - 1))]
        else:
            row.insert(draw(st.integers(0, len(row))), draw(ITEMS))
    elif kind == "values":
        columns, key = draw(st.sampled_from(_encoded_columns(
            doc, PACKED_COLUMNS, stimkb.snapshot._PACKED)))
        values = packed_values(columns[key])
        edit = draw(st.sampled_from(["set", "delete", "insert"])
                    if values else st.just("insert"))
        if edit == "insert":
            values.insert(draw(st.integers(0, len(values))), draw(PACKED_ITEMS))
        else:
            i = draw(st.integers(0, len(values) - 1))
            if edit == "delete":
                del values[i]
            else:
                values[i] = draw(PACKED_ITEMS)
        columns[key] = stimkb.snapshot._packed(values)
    elif kind == "stream":
        columns, key = draw(st.sampled_from(_encoded_columns(
            doc, PACKED_COLUMNS, stimkb.snapshot._PACKED)))
        code = draw(st.sampled_from(["B", "H", "I", "Q", columns[key][0]]))
        stream = draw(_streams(zlib.decompress(b64decode(columns[key][1]))))
        columns[key] = [code, b64encode(stream).decode()]
    elif kind == "text":
        columns, key = draw(st.sampled_from(_encoded_columns(
            doc, TEXT_COLUMNS, stimkb.snapshot._LINES)))
        columns[key] = draw(_texts(text_items(columns[key])))
    else:
        holder, key = draw(st.sampled_from(
            [(doc, k) for k in ("taxonomy", "vocabularies", "axioms")]
            + [(row, i) for row in _rows(doc)
               for i, v in enumerate(row) if type(v) is str]))
        old = holder[key]
        pos = draw(st.integers(0, len(old)))
        cut = draw(st.integers(0, 8))
        holder[key] = old[:pos] + draw(SPLICE_TEXT) + old[pos + cut:]
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_snapshot_exits_with_a_documented_code(fuzz_snapshot, data):
    # A bad snapshot is a data error: exit 3, never 4.
    text = data.draw(mutated_snapshots(fuzz_snapshot.read_text()))
    bad = fuzz_snapshot.with_name("mutated.json")
    bad.write_text(text)
    for command in (["stats"], ["query", "concept:Human"],
                    ["query", "category:FSRECategory.anger mode:filter"]):
        argv = command[:1] + ["--snapshot", str(bad)] + command[1:]
        assert _exit_code(argv) in (0, 3)


# The manifest and the six inputs it names.
INGEST_INPUTS = sorted(f.name for f in FIXTURES.iterdir())


def _edited(draw, texts):
    """(name, new text) of one of `texts` (name -> text) after one edit:
    truncated, a stretch replaced by a stretch of any of them, or a line
    duplicated."""
    name = draw(st.sampled_from(sorted(texts)))
    text = texts[name]
    edit = draw(st.sampled_from(["truncate", "splice", "duplicate"]))
    if edit == "truncate":
        return name, text[:draw(st.integers(0, len(text)))]
    if edit == "splice":
        donor = texts[draw(st.sampled_from(sorted(texts)))]
        a, b = sorted(draw(st.lists(st.integers(0, len(text)),
                                    min_size=2, max_size=2)))
        c, d = sorted(draw(st.lists(st.integers(0, len(donor)),
                                    min_size=2, max_size=2)))
        return name, text[:a] + donor[c:d] + text[b:]
    lines = text.splitlines(keepends=True)
    line = lines[draw(st.integers(0, len(lines) - 1))]
    lines.insert(draw(st.integers(0, len(lines))), line.rstrip("\n") + "\n")
    return name, "".join(lines)


@st.composite
def edited_inputs(draw):
    """(name, new text) of one fixture input after one edit (see _edited)."""
    return _edited(draw, {name: (FIXTURES / name).read_text()
                          for name in INGEST_INPUTS})


@settings(max_examples=200, deadline=None)
@given(edited=edited_inputs())
def test_fuzzed_ingest_exits_with_a_documented_code(edited, tmp_path_factory):
    # A bad input is a parse error (2) or a data error (3), never an
    # internal one (4), and its message names the input at fault.
    ws = tmp_path_factory.mktemp("ingest").resolve()
    for name in INGEST_INPUTS:
        shutil.copy(FIXTURES / name, ws / name)
    name, text = edited
    (ws / name).write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["ingest", "--manifest", str(ws / "manifest.txt"),
                   "--snapshot", str(ws / "snap.json")])
    assert rc in (0, 2, 3), err.getvalue()
    if rc:
        assert any(str(ws / n) in err.getvalue() for n in INGEST_INPUTS), \
            err.getvalue()


# eval's two inputs over the fuzz snapshot (the paper fixture).
EVAL_INPUTS = {
    "queries.tsv": "q1\tGroupOfPeople\tCrowd2\nq2\tHuman\tParachute\n",
    "judgments.tsv": (
        "q1\tIADS/311\t1\nq1\tIAPS/8163\t0\nq1\tIAPS/5635\t0\n"
        "q2\tIAPS/8163\t1\nq2\tIADS/311\t0\nq2\tIAPS/7039\t0\n"
    ),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_eval_inputs_exit_with_a_documented_code(fuzz_snapshot, data):
    # One edit of the queries or the judgments file: a parse error (2) or
    # a data error (3), never an internal one (4), naming the file at fault.
    name, text = _edited(data.draw, EVAL_INPUTS)
    paths = {n: fuzz_snapshot.with_name(n) for n in EVAL_INPUTS}
    for n, path in paths.items():
        path.write_text(text if n == name else EVAL_INPUTS[n])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["eval", "--snapshot", str(fuzz_snapshot),
                   "--queries", str(paths["queries.tsv"]),
                   "--judgments", str(paths["judgments.tsv"]),
                   "--seed", "7", "--candidates", "3", "--retries", "1"])
    assert rc in (0, 2, 3), err.getvalue()
    if rc:
        assert str(paths[name]) in err.getvalue(), err.getvalue()


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # Each CLI command is a fresh process, so what `import stimkb.cli`
    # loads is paid on every op.  `-I -S` keeps the environment and the
    # `site` module (which may load `typing` itself) out of the count;
    # `-I` also ignores PYTHONDONTWRITEBYTECODE, so `-B` keeps the import
    # from writing `__pycache__` into the checkout.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import stimkb.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    src = str(Path(stimkb.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-B", "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
