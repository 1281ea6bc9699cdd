"""stimkb benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run generates the workload's inputs
from the seed (untimed), sets the program up `SETUP_REPS` times, runs one
client in a closed loop for S seconds (then on to the end of the op
mix's current cycle, so that every run times whole cycles of it), checks
every output, prints every metric by name with its unit and sample
count, and ends with one JSON line
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 1` the
set-up runs once, then the workload's first `trace_ops` ops run under the
call wrappers of `calltrace`, whatever S is; the JSON then holds the
per-layer metrics and the merged spans go to `.perfbench-out/`.

Workloads (see `WORKLOADS` for sizes):

- rank-taxonomy: in-process `parse_query` + `ranked_query` over distinct
  concepts, path and depth measures in rotation.  Taxonomy BFS/LCS,
  relatedness and scoring do nearly all the work; no query repeats, so a
  result cache gains nothing.
- cli-mixed: one fresh CLI process per op (filter, equivalent-category,
  keyword rank, stats, sequence, and one `eval` with the default measures
  per 13 ops).  Snapshot load dominates the median op, as it does for a
  CLI user; only the eval ops use a concept measure, scoring small sampled
  candidate sets over the taxonomy.

Set-up is the `ingest` command (the write path), plus the in-process
`load_snapshot` on rank-taxonomy.  `setup_s` and `ops_per_s` in the JSON
are scaled to a reference host speed by `hostspeed`, from a fixed loop
timed before and after each set-up and after each op; the printed lines
also give them as timed.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calltrace
import gen
import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures" / "paper"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

SETUP_REPS = 7
# Ops whose outputs go into the printed sha256 digest: a fixed prefix of
# the seeded op list, so that digests compare across commits.
DIGEST_OPS = 4

WORKLOADS = {
    "rank-taxonomy": {"concepts": 1000, "records": 2200, "trace_ops": 8},
    "cli-mixed": {"concepts": 1000, "records": 11000, "trace_ops": 13,
                  "seq_count": 10, "queries": 20, "candidates": 200},
}
EVAL_PAIRS = ("concept/pathlen", "concept/wupalmer",
              "keyword/inclusion", "keyword/levenshtein")

# Metric names and units come from BENCHMARK.json, in its order.  The
# median op latency is printed but is not an end-to-end metric: on a
# shared host the median jumps between fast and slow phases more than the
# mean does, so throughput is the steadier timing of a run.  Per-layer
# times are means per call over the traced run (set-up included), 0 where
# a workload makes no such call; `calls_per_op` counts calls made by the
# traced ops only, so it repeats exactly for a seed.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])


class SetupError(Exception):
    """The workload could not be set up; no result can be reported."""


class Run:
    """One workload run: its work directory, seeded inputs and results."""

    def __init__(self, workload, seed, seconds, trace, sizes):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.rng = random.Random(f"perfbench-ops:{workload}:{seed}")
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.trace_files = []
        self.latencies = []  # seconds per timed op
        self.setups = []  # seconds per set-up
        # `hostspeed.sample()` seconds taken beside the set-ups and the ops.
        self.ref = {"setup": [], "ops": []}
        self.problems = []  # (op index, text); each failed op once
        self.attempted = 0
        self.stdout_bytes = []
        self.digest = hashlib.sha256()
        self.digested = 0
        self.eval_triples = (0, 0)  # (used, skipped) over the eval ops
        self.peak_rss_kb, self.peak_rss_of = 0, None

    def cli(self, args, op):
        """Run one CLI command in a fresh process; returns (exit code,
        wall seconds, stdout text).  Only the process's life is timed."""
        cmd = [sys.executable, str(HERE / "launch.py")]
        if self.trace:
            tf = self.dir / f"trace-{len(self.trace_files)}.json"
            self.trace_files.append(tf)
            cmd += ["--trace", str(tf), "--op", str(op)]
        out = self.dir / "stdout.txt"
        with open(out, "wb") as so, open(self.dir / "stderr.txt", "wb") as se:
            code, wall = self.spawn(cmd + ["--"] + args, args[0],
                                    stdout=so, stderr=se, cwd=self.dir)
        return code, wall, out.read_text()

    def spawn(self, cmd, what, **kwargs):
        """Run one child process to its end; returns (exit code, wall
        seconds).  Keeps the largest peak RSS of any child and what that
        child ran."""
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, env=self.env, **kwargs)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        if usage.ru_maxrss > self.peak_rss_kb:
            self.peak_rss_kb, self.peak_rss_of = usage.ru_maxrss, what
        return child.returncode, wall

    def ingest(self, ws):
        snapshot = self.dir / "snapshot.json"
        sizes = set()
        for _ in range(1 if self.trace else SETUP_REPS):
            self.ref["setup"].append(hostspeed.sample())
            code, wall, text = self.cli(
                ["ingest", "--manifest", str(ws.manifest),
                 "--snapshot", str(snapshot)], "setup")
            self.ref["setup"].append(hostspeed.sample())
            if code != 0:
                raise SetupError(f"ingest exited {code}: "
                                 f"{(self.dir / 'stderr.txt').read_text()[-500:]}")
            expected = f"{ws.records} records, 0 invalid;"
            if not text.startswith(expected):
                raise SetupError(f"ingest summary {text!r} lacks {expected!r}")
            self.setups.append(wall)
            sizes.add(snapshot.stat().st_size)
        if len(sizes) != 1:
            raise SetupError(f"ingest wrote snapshots of sizes {sorted(sizes)}")
        self.snapshot_bytes = sizes.pop()
        self.digest.update(text.encode())
        return snapshot

    def timings(self):
        """(set-up seconds, ops per second) as timed, then both scaled to
        the reference host by the loop samples taken beside them."""
        setup = statistics.median(self.setups)
        ops = len(self.latencies) / sum(self.latencies)
        return (setup, ops, setup * hostspeed.scale(self.ref["setup"]),
                ops / hostspeed.scale(self.ref["ops"]))

    def deadline_passed(self, i, start, cycle):
        """Whether op `i` should not run: the run has had its seconds and
        `i` starts a new cycle of `cycle` ops."""
        if self.trace:
            return i >= self.sizes["trace_ops"]
        return i % cycle == 0 and time.perf_counter() - start >= self.seconds

    def record(self, i, wall, problems, output):
        self.attempted += 1
        self.latencies.append(wall)
        if problems:
            self.problems.append((i, "; ".join(problems)))
        if i < DIGEST_OPS:
            self.digest.update(output.encode())
            self.digested += 1


def generate(run):
    return gen.generate(run.dir / "ws", run.seed, run.sizes["concepts"],
                        run.sizes["records"], FIXTURES)


def rank_taxonomy(run):
    ws = generate(run)
    queries = gen.rank_queries(ws, run.rng, len(ws.names))
    snapshot = run.ingest(ws)
    job = {
        "snapshot": str(snapshot), "axioms": str(ws.dir / "axioms.tsv"),
        "queries": queries, "seconds": run.seconds,
        "max_ops": run.sizes["trace_ops"] if run.trace else None,
        "setup_reps": 1 if run.trace else SETUP_REPS,
        "trace": run.trace, "oracle_seed": run.rng.random(),
        "digest_ops": DIGEST_OPS, "out": str(run.dir / "rank.json"),
    }
    (run.dir / "job.json").write_text(json.dumps(job))
    code, _ = run.spawn([sys.executable, str(HERE / "rank_worker.py"),
                         str(run.dir / "job.json")], "rank worker")
    if code != 0:
        raise SetupError(f"rank worker exited {code}")
    res = json.loads((run.dir / "rank.json").read_text())
    # A set-up is one ingest plus one load.
    run.setups = [a + b for a, b in zip(run.setups, res["load_s"])]
    run.latencies = res["latencies"]
    run.ref["setup"] += res["setup_ref_s"]
    run.ref["ops"] += res["op_ref_s"]
    run.attempted = len(res["latencies"])
    failed_ops = {i for i, _ in res["problems"]}
    run.problems = [(i, "; ".join(p for j, p in res["problems"] if j == i))
                    for i in sorted(failed_ops)]
    run.digest.update(res["digest"].encode())
    run.digested = res["digest_ops"]
    return [res["trace"]] if res["trace"] else []


def _workspace_oracle(ws):
    """The workspace built from the raw inputs, not from the snapshot the
    ops read, with the axioms' equivalence classes."""
    import checks
    from stimkb.snapshot import build_workspace, parse_manifest

    oracle = build_workspace(parse_manifest(ws.manifest))
    return oracle, checks.equivalence_classes((ws.dir / "axioms.tsv").read_text())


def _check_cli_op(op, text, oracle, classes, n_records, prefix):
    import checks

    if op["cmd"] == "stats":
        first = text.splitlines()[:1]
        return [] if first == [f"{n_records} records"] else [f"stats said {first}"]
    if op["cmd"] == "sequence":
        count = op["count"]
        total = count * (op["duration"] + op["isi"]) - op["isi"]
        want = f"{count} items, {count * 2} events, {total} ms"
        problems = [] if text.strip() == want else [f"sequence said {text!r}"]
        items = json.loads(Path(prefix + ".json").read_text())["items"]
        events = Path(prefix + ".schedule.tsv").read_text().splitlines()
        if len(items) != count or len(events) != 2 * count:
            problems.append(f"{len(items)} items / {len(events)} events")
        return problems
    spec = op["spec"]
    if spec["mode"] == "filter":
        got = checks.parse_filter_output(text, op["format"])
        want = checks.naive_filter(oracle, spec, classes)
        return [] if got == want else [f"{len(got)} keys, expected {len(want)}"]
    entries = checks.parse_rank_output(text, op["format"])
    n = checks.naive_candidates(oracle, spec, classes)
    return checks.check_ranking(entries, spec["limit"], n)


def cli_mixed(run):
    import checks
    from stimkb.evaluation import REPORT_COLUMNS

    ws = generate(run)
    queries, judgments, n_queries = gen.eval_inputs(
        ws, run.rng, run.sizes["queries"])
    ops = gen.cli_ops(ws, run.rng, 2000, run.sizes["seq_count"])
    snapshot = run.ingest(ws)
    oracle, classes = _workspace_oracle(ws)
    used = skipped = 0
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if run.deadline_passed(i, start, len(gen.CLI_CYCLE)):
            break
        prefix = str(run.dir / f"seq{i}")
        args = [op["cmd"], "--snapshot", str(snapshot)]
        if op["cmd"] == "query":
            args += ["--format", op["format"], gen.render_query(op["spec"])]
        elif op["cmd"] == "sequence":
            args += ["--count", str(op["count"]), "--duration",
                     str(op["duration"]), "--isi", str(op["isi"]),
                     "--out-prefix", prefix, gen.render_query(op["spec"])]
        elif op["cmd"] == "eval":
            args += ["--queries", str(queries), "--judgments", str(judgments),
                     "--candidates", str(run.sizes["candidates"]),
                     "--seed", str(i)]
        code, wall, text = run.cli(args, i)
        run.stdout_bytes.append(len(text.encode()))
        if code != 0:
            problems = [f"exit {code}"]
        elif op["cmd"] == "eval":
            problems, u, s = checks.check_eval_report(
                text, REPORT_COLUMNS, n_queries, EVAL_PAIRS)
            used, skipped = used + u, skipped + s
        else:
            try:
                problems = _check_cli_op(op, text, oracle, classes,
                                         ws.records, prefix)
            except (ValueError, KeyError, IndexError, OSError) as e:
                problems = [f"unreadable output: {e!r}"]
        run.record(i, wall, [f"{op['cmd']}: {p}" for p in problems], text)
        run.ref["ops"].append(hostspeed.sample())
    run.eval_triples = (used, skipped)
    return []


RUNNERS = {
    "rank-taxonomy": rank_taxonomy,
    "cli-mixed": cli_mixed,
}


def end_to_end(run):
    n = len(run.latencies)
    setup, ops, setup_ref, ops_ref = run.timings()
    return {
        "setup_s": (setup_ref, len(run.setups),
                    f"set-ups; {setup:.4g} s as timed"),
        "ops_per_s": (ops_ref, n, f"ops; {ops:.4g}/s as timed"),
        "peak_rss_mb": (run.peak_rss_kb / 1024, 1,
                        f"largest child, `{run.peak_rss_of}`"),
        "snapshot_bytes": (run.snapshot_bytes, 1, "snapshot"),
    }


def per_layer(run, trace):
    """Per-layer metrics from the merged trace; see PER_LAYER."""
    stats, counts = trace["stats"], trace["counts"]
    n_ops = max(1, len(run.latencies))

    def total(name):
        a = stats["setup"].get(name, [0, 0, 0])
        b = stats["ops"].get(name, [0, 0, 0])
        return [x + y for x, y in zip(a, b)]

    def ratio(num, den):
        return num / den if den else 0.0

    def op_calls(name):
        return stats["ops"].get(name, [0, 0, 0])[0]

    def count(name):
        return counts["ops"].get(name, 0)

    values = {}
    for name in set(stats["setup"]) | set(stats["ops"]):
        calls, incl, self_ns = total(name)
        values[f"{name}.ms"] = incl / calls / 1e6
        values[f"{name}.self_ms"] = self_ns / calls / 1e6
        values[f"{name}.calls_per_op"] = op_calls(name) / n_ops
    values["corpus.validate_stimulus.per_record"] = ratio(
        total("corpus.validate_stimulus")[0], total("corpus.add_stimulus")[0])
    values["retrieval.scored_per_returned"] = ratio(
        op_calls("retrieval.score_record"), count("retrieval.ranked.returned"))
    values["retrieval.filter.examined_per_returned"] = ratio(
        count("retrieval.filter.examined"), count("retrieval.filter.returned"))
    values["evaluation.score_record.calls"] = op_calls("evaluation.score_record")
    used, skipped = run.eval_triples
    values["evaluation.samples_per_query"] = ratio(
        count("evaluation.samples"), used + skipped)
    values["evaluation.skipped_ratio"] = ratio(skipped, used + skipped)
    values["cli.stdout_bytes_per_op"] = ratio(
        sum(run.stdout_bytes), len(run.stdout_bytes))
    _, _, values["traced.setup_s"], values["traced.ops_per_s"] = run.timings()
    return values


def execute(workload, seed, seconds, trace, sizes=None):
    """Run one workload; returns (result dict for the JSON line, lines to
    print before it)."""
    sizes = sizes or WORKLOADS[workload]
    run = Run(workload, seed, seconds, trace, sizes)
    run.dir.mkdir(parents=True)
    try:
        parts = RUNNERS[workload](run)
        lines = []
        if trace:
            parts += [json.loads(f.read_text()) for f in run.trace_files]
            merged = calltrace.merge(parts)
            OUT.mkdir(exist_ok=True)
            (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps(merged))
            values = per_layer(run, merged)
            metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                       for name, unit in PER_LAYER}
            lines += [f"{n} = {m['value']:.6g} {m['unit']}"
                      for n, m in metrics.items()]
        else:
            e2e = end_to_end(run)
            metrics = {}
            for name, unit in END_TO_END:
                value, n, what = e2e[name]
                metrics[name] = {"value": value, "unit": unit}
                lines.append(f"{name} = {value:.10g} {unit} (n={n} {what})")
            n = len(run.latencies)
            for phase, samples in run.ref.items():
                lines.append(f"host_factor.{phase} = "
                             f"{hostspeed.scale(samples):.6g} "
                             f"(n={len(samples)} loop samples)")
            p50 = statistics.median(run.latencies) * 1000
            lines.append(f"op_ms_p50 = {p50:.6g} ms (n={n} ops)")
            # The highest percentile with at least ten ops above it.
            if n >= 20:
                pct = 100 * (n - 10) // n
                q = statistics.quantiles(run.latencies, n=100)[pct - 1] * 1000
                lines.append(f"op_ms_p{pct} = {q:.6g} ms (n={n} ops)")
        failed = len(run.problems)
        lines.append(f"error_ratio = {failed / run.attempted:.6g} "
                     f"(n={run.attempted} ops)")
        lines.append(f"digest = {run.digest.hexdigest()} "
                     f"(ingest summary + first {run.digested} op outputs)")
        for i, text in run.problems[:20]:
            lines.append(f"FAILED op {i}: {text}")
        result = {"correct": failed == 0, "attempted": run.attempted,
                  "failed": failed, "metrics": metrics}
        return result, lines
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stimkb" / "cli.py").is_file() or not FIXTURES.is_dir():
        print(f"perfbench: no stimkb sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result, lines = execute(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    except SetupError as e:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
