"""Golden CLI transcript: a fixed list of `stimkb` commands and everything
each one gives, checked byte for byte.

    python tests/golden.py           # compare; prints a diff and exits 1 on a change
    python tests/golden.py --write   # regenerate tests/golden/*.txt

`tests/test_golden.py` runs the comparison in tier-1.  Each transcript runs
its commands in order, in-process through `stimkb.cli.main`, in a fresh
temporary copy of its workspace, and records per command the exit code,
stdout, stderr and every file it writes.  The workspace's path reads `$WS`.

- `paper.txt`: `fixtures/paper` plus a few hand-made inputs (eval queries
  and judgments, and inputs that must exit 2 or 3).  Results are stored as
  plain text, except the snapshot, which is stored as its digest.
- `generated.txt`: a `perfbench/gen.py` workspace (seed 7, 200 concepts,
  1.1k records).  Each result is stored as its sha256 digest.

An intended change of output is made by re-running with `--write`; the
diff of the transcript then shows the change.
"""

import contextlib
import difflib
import hashlib
import importlib.util
import io
import random
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = ROOT / "fixtures" / "paper"

SEQUENCE = ["--count", "3", "--duration", "2000", "--isi", "500"]
CONCEPT_MEASURES = ("pathlen", "wupalmer", "lch", "li")


def _manifest(ws, name, **files):
    """Write `manifest-<name>.txt`: the paper manifest with the inputs
    named in `files` (key -> file text) replaced by new files."""
    lines = (FIXTURES / "manifest.txt").read_text().splitlines()
    for key, text in files.items():
        (ws / f"{key}-{name}.tsv").write_text(text)
        lines = [f"{key}={key}-{name}.tsv" if line.startswith(f"{key}=")
                 else line for line in lines]
    (ws / f"manifest-{name}.txt").write_text("\n".join(lines) + "\n")
    return f"$WS/manifest-{name}.txt"


def paper_commands(ws):
    """Set up the paper workspace `ws` (a copy of fixtures/paper) and
    return its command list."""
    (ws / "q.tsv").write_text(
        "q1\tHuman\tParachute\nq2\tGroupOfPeople\tCrowd2\nq3\tSnow\tNA\n")
    (ws / "j.tsv").write_text(
        "q1\tIAPS/8163\t1\nq2\tIADS/311\t1\nq2\tIAPS/7039\t0\nq3\tIAPS/5635\t1\n")
    (ws / "j-unknown.tsv").write_text("q1\tIAPS/9999\t1\n")
    (ws / "not-json.json").write_text("not json {\n")
    records = (FIXTURES / "records.tsv").read_text()
    legacy = (FIXTURES / "legacy.tsv").read_text()
    vocabularies = (FIXTURES / "vocabularies.tsv").read_text()
    bad_record = _manifest(ws, "bad-record", records=records.replace(
        "dim.valence=7.14", "dim.valence=99"))
    bad_legacy = _manifest(ws, "bad-legacy", legacy=legacy.replace(
        "6.25", "99"))
    no_anger = _manifest(ws, "no-anger", vocabularies=vocabularies.replace(
        "BigSix\tanger\n", ""))
    repeated = _manifest(ws, "repeated", records=records.replace(
        "db=IADS\tid=311", "db=IAPS\tid=8163"))
    bad_field = _manifest(ws, "bad-field", records=records + "db=X\tid=1\tbogus=3\n")
    unknown_key = "$WS/manifest-unknown-key.txt"
    (ws / "manifest-unknown-key.txt").write_text(
        (FIXTURES / "manifest.txt").read_text() + "measure=pathlen\n")

    snap = ["--snapshot", "$WS/kb.json"]
    commands = [
        ["ingest", "--manifest", "$WS/manifest.txt", *snap],
        ["validate", "--manifest", "$WS/manifest.txt"],
        ["stats", *snap],
    ]
    filters = [
        "concept:GroupOfPeople valence:[6.5,9] arousal:[1,3.5] mode:filter",
        "concept:Object mode:filter",
        "concept:Physical db:IAPS valence:[5,7] mode:filter",
        "category:FSRECategory.happiness mode:filter",
        "category:OCCCategory.anger mode:filter",
    ]
    ranks = [f"concept:Human measure:{m}" for m in CONCEPT_MEASURES] + [
        "concept:Snow measure:lch db:IAPS",
        "concept:Transportation measure:li valence:[5,9]",
        "concept:Entity measure:wupalmer limit:2",
        "concept:Device measure:pathlen category:BigSix.happiness",
        'keyword:"winter street" measure:inclusion',
        'keyword:"winter street" measure:levenshtein',
        "keyword:tra measure:inclusion arousal:[3,7]",
        "keyword:Parachute measure:levenshtein db:IAPS limit:3",
    ]
    for query in filters + ranks:
        for fmt in ("tsv", "json"):
            commands.append(["query", *snap, "--format", fmt, query])
    commands += [
        ["sequence", *snap, *SEQUENCE, "--out-prefix", "$WS/run1",
         "concept:Entity measure:pathlen"],
        ["sequence", *snap, "--count", "2", "--duration", "1000",
         "--track", "audio", "keyword:Crowd2 measure:levenshtein"],
        ["eval", *snap, "--queries", "$WS/q.tsv", "--judgments", "$WS/j.tsv",
         "--seed", "42", "--candidates", "3", "--out", "$WS/report.tsv"],
        ["eval", *snap, "--queries", "$WS/q.tsv", "--judgments", "$WS/j.tsv",
         "--measures", "lch,li,levenshtein", "--candidates", "2"],
        # Exit 2: a malformed query, manifest or record line.
        ["query", *snap, "valence:[9,1]"],
        ["ingest", "--manifest", unknown_key, "--snapshot", "$WS/x.json"],
        ["validate", "--manifest", bad_field],
        ["sequence", *snap, *SEQUENCE, "concept:Human mode:filter"],
        # Exit 3: an unknown concept, bad data in each kind of input, a
        # repeated record key and a snapshot that is not JSON.
        ["query", *snap, "concept:Nowhere"],
        ["eval", *snap, "--queries", "$WS/q.tsv",
         "--judgments", "$WS/j-unknown.tsv"],
        ["ingest", "--manifest", bad_record, "--snapshot", "$WS/x.json"],
        ["ingest", "--manifest", bad_legacy, "--snapshot", "$WS/x.json"],
        ["validate", "--manifest", no_anger],
        ["validate", "--manifest", repeated],
        ["stats", "--snapshot", "$WS/not-json.json"],
    ]
    return commands


def _load_gen():
    """perfbench/gen.py, which imports nothing from stimkb."""
    spec = importlib.util.spec_from_file_location(
        "_golden_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # dataclasses looks the module up
    spec.loader.exec_module(gen)
    return gen


def generated_commands(ws):
    """Generate the benchmark-style workspace in `ws` and return its
    command list."""
    gen = _load_gen()
    made = gen.generate(ws, 7, 200, 1100, FIXTURES)
    rng = random.Random(7)
    gen.eval_inputs(made, rng, 5)
    internal = [c for c in made.names[1:] if made.children[c]]
    a, b = internal[0], internal[len(internal) // 2]
    word = made.names[3]
    snap = ["--snapshot", "$WS/kb.json"]
    commands = [
        ["ingest", "--manifest", "$WS/manifest.txt", *snap],
        ["validate", "--manifest", "$WS/manifest.txt"],
        ["stats", *snap],
    ]
    queries = [
        f"concept:{a} mode:filter",
        f"concept:{b} valence:[3,7] db:IADS mode:filter",
        "category:FSRECategory.anger arousal:[2,6] mode:filter",
    ] + [f"concept:{b} measure:{m} limit:50" for m in CONCEPT_MEASURES] + [
        f"concept:{a} measure:lch db:GAPED",
        f"concept:{a} measure:wupalmer valence:[4,8]",
        f"keyword:{word} measure:inclusion",
        f"keyword:{word[:4]} measure:levenshtein limit:30",
        "keyword:Train measure:inclusion db:IAPS",
    ]
    for query in queries:
        for fmt in ("tsv", "json"):
            commands.append(["query", *snap, "--format", fmt, query])
    commands += [
        ["sequence", *snap, "--count", "10", "--duration", "2000",
         "--isi", "500", "--out-prefix", "$WS/seq", f"keyword:{word}"],
        ["eval", *snap, "--queries", "$WS/queries.tsv",
         "--judgments", "$WS/judgments.tsv", "--candidates", "60",
         "--seed", "3", "--out", "$WS/report.tsv"],
        ["query", *snap, f"concept:{a} measure:nope"],
        ["query", *snap, "concept:Nowhere measure:li"],
    ]
    return commands


TRANSCRIPTS = {
    "paper": (paper_commands, False),
    "generated": (generated_commands, True),
}


def _block(name, data, digest):
    """One result: its name, then its text or its digest."""
    if digest:
        return f"{name}: {len(data)} bytes, sha256 {hashlib.sha256(data).hexdigest()}\n"
    if not data:
        return f"{name}: empty\n"
    text = data.decode()
    end = "" if text.endswith("\n") else "\n(no newline at end)\n"
    return f"{name}:\n{text}{end}"


def transcript(which):
    """The transcript text of `which` (a key of TRANSCRIPTS), run now."""
    from stimkb.cli import main

    setup, digest = TRANSCRIPTS[which]
    tmp = Path(tempfile.mkdtemp(prefix="golden-")).resolve()
    try:
        ws = tmp / "ws"
        shutil.copytree(FIXTURES, ws)
        commands = setup(ws)
        out = []
        for argv in commands:
            before = {p: p.read_bytes() for p in ws.iterdir()}
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    code = main([a.replace("$WS", str(ws)) for a in argv])
                except SystemExit as e:  # argparse usage errors
                    code = e.code
            out.append(f"$ stimkb {shlex.join(argv)}\nexit {code}\n")
            for name, text in (("stdout", stdout), ("stderr", stderr)):
                data = text.getvalue().replace(str(ws), "$WS").encode()
                out.append(_block(name, data, digest))
            written = sorted(p for p in ws.iterdir()
                             if before.get(p) != p.read_bytes())
            for p in written:
                snapshot = p.suffix == ".json" and p.stem in ("kb", "x")
                out.append(_block(f"file {p.name}", p.read_bytes(),
                                  digest or snapshot))
            out.append("\n")
        return "".join(out)
    finally:
        shutil.rmtree(tmp)


def main(argv):
    write = argv == ["--write"]
    if argv and not write:
        print(__doc__, file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    status = 0
    for which in TRANSCRIPTS:
        path = GOLDEN / f"{which}.txt"
        got = transcript(which)
        if write:
            path.write_text(got)
            print(f"wrote {path}")
            continue
        want = path.read_text() if path.exists() else ""
        if got != want:
            status = 1
            sys.stdout.writelines(difflib.unified_diff(
                want.splitlines(True), got.splitlines(True),
                str(path), "now"))
    return status


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
