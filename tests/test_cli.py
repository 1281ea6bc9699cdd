import json
import shutil
from pathlib import Path

import pytest

from stimkb.cli import main

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


def _eval_files(workspace):
    queries = workspace / "queries.tsv"
    queries.write_text(
        "q1\tGroupOfPeople\tCrowd2\nq2\tHuman\tParachute\n"
    )
    judgments = workspace / "judgments.tsv"
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
    # Two schemes x two compatible measures each.
    assert len([l for l in lines[1:] if l and not l.startswith("#")]) == 4


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
        ("--schemes", "bogus", "unknown scheme 'bogus'"),
        ("--schemes", "concept,Keyword", "unknown scheme 'Keyword'"),
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
    assert err == "error: unknown concept: 'Nowhere'\n"


@pytest.mark.parametrize(
    "option, message",
    [
        ("limit=ten", "line 9: limit must be an integer, got 'ten'"),
        ("limit=-1", "line 9: limit must be >= 1, got '-1'"),
        ("limit=0", "line 9: limit must be >= 1, got '0'"),
        ("seed=x", "line 9: seed must be an integer, got 'x'"),
        ("seed=1.5", "line 9: seed must be an integer, got '1.5'"),
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
    assert err == f"error: {message}\n"
    assert not (workspace / "snap.json").exists()
