"""The `rank-taxonomy` loop, run as its own process so that its peak RSS
is the workload's.

    python3 perfbench/rank_worker.py JOB.json

JOB holds the snapshot path, the rank query specs, the run length and the
trace settings.  The worker loads the snapshot `setup_reps` times (timed),
then runs `retrieval.parse_query` + `retrieval.ranked_query` one query at
a time on the last workspace, in whole rotations of the measures.  It
checks every ranking, recomputes a seeded sample of them naively, and
writes its results to the JOB's `out` path, with a `hostspeed.sample()`
taken before and after each load and after each op.
"""

import hashlib
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calltrace  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
from stimkb import retrieval  # noqa: E402
from stimkb.snapshot import load_snapshot  # noqa: E402

# Ops recomputed by the naive oracle, drawn from the first ORACLE_WINDOW.
ORACLE_SAMPLE = 1
ORACLE_WINDOW = 8


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    tracer = calltrace.Tracer(pid_tag="rank-worker") if job["trace"] else None
    load = load_snapshot
    if tracer:
        uninstall = calltrace.install(tracer)
        load = tracer.wrap("snapshot.load_snapshot", load_snapshot)

    load_s, setup_ref_s, op_ref_s = [], [], []
    for _ in range(job["setup_reps"]):
        ws = None  # so the peak RSS holds one workspace, as one load does
        setup_ref_s.append(hostspeed.sample())
        t0 = time.perf_counter()
        ws = load(job["snapshot"])
        load_s.append(time.perf_counter() - t0)
        setup_ref_s.append(hostspeed.sample())

    classes = checks.equivalence_classes(Path(job["axioms"]).read_text())
    latencies, problems, results = [], [], []
    start = time.perf_counter()
    for i, spec in enumerate(job["queries"]):
        if job["max_ops"] is not None and i >= job["max_ops"]:
            break
        if (job["max_ops"] is None and i % len(gen.RANK_MEASURES) == 0
                and time.perf_counter() - start >= job["seconds"]):
            break
        text = gen.render_query(spec)
        if tracer:
            tracer.set_op(str(i))
        t0 = time.perf_counter()
        try:
            q = retrieval.parse_query(text)
            entries = retrieval.ranked_query(
                ws.corpus, ws.graph, q, ws.closure).entries
        except Exception as e:  # a failed op is counted, not fatal
            latencies.append(time.perf_counter() - t0)
            problems.append([i, f"{text}: {type(e).__name__}: {e}"])
            results.append(None)
            continue
        latencies.append(time.perf_counter() - t0)
        results.append(entries)
        op_ref_s.append(hostspeed.sample())
        n = checks.naive_candidates(ws, spec, classes)
        problems += [[i, f"{text}: {p}"]
                     for p in checks.check_ranking(entries, spec["limit"], n)]

    trace = None
    if tracer:
        trace = tracer.snapshot()
        uninstall()

    rng = random.Random(job["oracle_seed"])
    window = min(ORACLE_WINDOW, len(results))
    for i in sorted(rng.sample(range(window), min(ORACLE_SAMPLE, window))):
        if results[i] is None:
            continue
        spec = job["queries"][i]
        if list(results[i]) != checks.naive_ranking(ws, spec, classes):
            problems.append([i, f"{gen.render_query(spec)}: ranking differs "
                                "from score-all-then-sort"])

    digest = hashlib.sha256()
    for spec, entries in zip(job["queries"], results[: job["digest_ops"]]):
        digest.update(f"{gen.render_query(spec)}\n{entries!r}\n".encode())
    Path(job["out"]).write_text(json.dumps({
        "load_s": load_s,
        "latencies": latencies,
        "setup_ref_s": setup_ref_s,
        "op_ref_s": op_ref_s,
        "problems": problems,
        "digest": digest.hexdigest(),
        "digest_ops": min(len(results), job["digest_ops"]),
        "trace": trace,
    }))


if __name__ == "__main__":
    main(sys.argv[1])
