"""`stimkb` command line: ingest, validate, query, eval, sequence, stats.

Exit statuses: 0 success, 2 usage, parse or file error, 3 data validation
error, 4 internal invariant violation.
"""

import argparse
import json
import sys
from pathlib import Path

from . import retrieval, sequence as seqmod
from .errors import ParseError, QueryError, StimKbError, ValidationError
from .evaluation import (
    ExperimentConfig,
    parse_judgments,
    parse_queries,
    report_to_tsv,
    run_experiment,
)
from .lines import parse_input
from .similarity import parse_measure
from .snapshot import build_workspace, load_snapshot, parse_manifest, save_snapshot

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _manifest_workspace(path):
    """build_workspace of the manifest file at `path`.  An input it names
    that cannot be read names the manifest as well as the input."""
    manifest = parse_manifest(path)
    try:
        return build_workspace(manifest)
    except OSError as e:
        raise OSError(f"manifest file {path}: {e}") from None


def _cmd_ingest(args):
    ws = _manifest_workspace(args.manifest)
    save_snapshot(ws, args.snapshot)
    mapped = len(ws.mapping) if ws.mapping is not None else 0
    print(
        f"{len(ws.corpus)} records, 0 invalid; "
        f"{len(ws.graph.concepts)} concepts; "
        f"{mapped} mapped keywords, {len(ws.unmapped_keywords)} unmapped"
    )
    for kw in ws.unmapped_keywords:
        print(f"warning: unmapped keyword {kw!r}", file=sys.stderr)
    return EXIT_OK


def _cmd_validate(args):
    ws = _manifest_workspace(args.manifest)
    print(f"ok: {len(ws.corpus)} records, {len(ws.graph.concepts)} concepts")
    return EXIT_OK


def _query_output(ws, q, fmt):
    if q.mode == retrieval.MODE_FILTER:
        keys = sorted(retrieval.filter_query(ws.corpus, ws.graph, q, ws.closure))
        if fmt == "json":
            return json.dumps({"stimuli": keys}, indent=2) + "\n"
        return "".join(k + "\n" for k in keys)
    result = retrieval.ranked_query(ws.corpus, ws.graph, q, ws.closure)
    if fmt == "json":
        return (
            json.dumps(
                {
                    "measure": result.measure.value,
                    "entries": [
                        {"rank": i, "score": s, "stimulus": k}
                        for i, (k, s) in enumerate(result.entries, start=1)
                    ],
                },
                indent=2,
            )
            + "\n"
        )
    lines = []
    for i, (key, score) in enumerate(result.entries, start=1):
        db, _, sid = key.partition("/")
        lines.append(f"{i}\t{score:.6f}\t{key}\t{db}\t{sid}\n")
    return "".join(lines)


def _load_query(args):
    """Load the snapshot and parse the command's query; a query with no
    `limit:` clause gets the manifest's `limit` when it sets one."""
    ws = load_snapshot(args.snapshot)
    limit = ws.limit if ws.limit is not None else retrieval.DEFAULT_LIMIT
    return ws, retrieval.parse_query(args.query, limit)


def _cmd_query(args):
    ws, q = _load_query(args)
    sys.stdout.write(_query_output(ws, q, args.format))
    return EXIT_OK


def _cmd_eval(args):
    ws = load_snapshot(args.snapshot)
    queries = parse_input(parse_queries, args.queries, "queries file")
    relevant, judged = parse_input(parse_judgments, args.judgments,
                                   "judgments file")
    for key, lineno in judged.items():
        if key not in ws.corpus.records:
            raise ValidationError(
                f"judgments file {args.judgments} line {lineno}: "
                f"unknown stimulus {key!r}"
            )
    config = ExperimentConfig(
        candidate_size=args.candidates,
        seed=args.seed if args.seed is not None else ws.seed,
        max_resamples=args.retries,
    )
    try:
        report = run_experiment(
            ws.corpus, ws.graph, queries, relevant, args.measures, config
        )
    except ValidationError as e:
        # A query with an unknown concept, or with no judgments: name both
        # inputs, as the fault may lie in either.
        raise ValidationError(f"queries file {args.queries} with judgments "
                              f"file {args.judgments}: {e}") from e
    text = report_to_tsv(report)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_sequence(args):
    ws, q = _load_query(args)
    if q.mode != retrieval.MODE_RANK:
        raise QueryError("sequence needs a rank-mode query, not mode:filter")
    result = retrieval.ranked_query(ws.corpus, ws.graph, q, ws.closure)
    seq = seqmod.build_sequence(
        result.entries,
        count=args.count,
        duration_ms=args.duration,
        isi_ms=args.isi,
        track=args.track,
    )
    events = seqmod.emit_schedule(seq)
    if args.out_prefix:
        Path(args.out_prefix + ".json").write_text(
            seqmod.sequence_to_json(seq) + "\n"
        )
        Path(args.out_prefix + ".schedule.tsv").write_text(
            seqmod.schedule_to_tsv(events)
        )
        print(f"{len(seq.items)} items, {len(events)} events, {seq.total_ms} ms")
    else:
        sys.stdout.write(seqmod.sequence_to_json(seq) + "\n")
        sys.stdout.write(seqmod.schedule_to_tsv(events))
    return EXIT_OK


def _cmd_stats(args):
    ws = load_snapshot(args.snapshot)
    print(f"{len(ws.corpus)} records")
    keywords = {
        s.keyword.casefold() for rec in ws.corpus for s in rec.semantics if s.keyword
    }
    print(f"{len(keywords)} distinct keywords")
    print(f"{len(ws.corpus.concept_index)} distinct concepts")
    print(f"{len(ws.graph.concepts)} taxonomy concepts, max depth "
          f"{ws.graph.max_depth}")
    return EXIT_OK


def _int_at_least(low):
    """An argparse type: an integer no smaller than `low`."""

    def convert(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}"
            )
        return value

    return convert


def _track_name(text):
    """An argparse type: a non-empty track name, which goes into one
    column of the schedule TSV, so holds no tab or line break."""
    if not text or any(c in text for c in "\t\n\r"):
        raise argparse.ArgumentTypeError(
            f"expected a non-empty track name with no tab or line break, "
            f"got {text!r}"
        )
    return text


def _measure_list(text):
    """An argparse type: a comma-separated list of measure names."""
    try:
        return [parse_measure(name.strip()) for name in text.split(",")]
    except ValidationError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stimkb",
        description="Knowledge-base engine for affectively annotated "
        "multimedia stimulus metadata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a snapshot from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--snapshot", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("validate", help="parse and validate manifest inputs")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("query", help="run a filter or rank query")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("query")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("eval", help="run the retrieval evaluation protocol")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--judgments", required=True)
    p.add_argument("--measures", type=_measure_list,
                   default="inclusion,levenshtein,pathlen,wupalmer")
    p.add_argument("--candidates", type=_int_at_least(1), default=100)
    p.add_argument("--retries", type=_int_at_least(0), default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sequence", help="build a presentation sequence")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--count", type=_int_at_least(1), required=True)
    p.add_argument("--duration", type=_int_at_least(1), required=True)
    p.add_argument("--isi", type=_int_at_least(0), default=0)
    p.add_argument("--track", type=_track_name, default="visual")
    p.add_argument("--out-prefix")
    p.add_argument("query")
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("stats", help="print corpus statistics")
    p.add_argument("--snapshot", required=True)
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except QueryError as e:
        # A parse_query error points at its offset in the query argument.
        caret = ""
        if e.position is not None:
            caret = "\n" + args.query + "\n" + " " * e.position + "^"
        print(f"query error: {e}{caret}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except StimKbError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
