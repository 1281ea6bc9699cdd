"""Self-test of the benchmark at tiny sizes (about 50 concepts / 200
records), for every workload, untraced and traced.

    python3 perfbench/selftest.py

Checks that every metric is reported with its unit, that no op fails and
that the generator writes byte-identical files for the same seed.  Exits
non-zero on the first failure.
"""

import sys
import tempfile
from pathlib import Path

import gen
import run

TINY = {
    "rank-taxonomy": {"concepts": 50, "records": 200, "trace_ops": 4},
    "cli-mixed": {"concepts": 50, "records": 200, "trace_ops": 13,
                  "seq_count": 3, "queries": 5, "candidates": 40},
}


def check_generator_deterministic():
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        a = gen.generate(Path(tmp, "a"), 7, 50, 200, run.FIXTURES)
        b = gen.generate(Path(tmp, "b"), 7, 50, 200, run.FIXTURES)
        for f in sorted(a.dir.iterdir()):
            if f.read_bytes() != (b.dir / f.name).read_bytes():
                raise AssertionError(f"generator output {f.name} differs")
        c = gen.generate(Path(tmp, "c"), 8, 50, 200, run.FIXTURES)
        if (c.dir / "records.tsv").read_bytes() == \
                (a.dir / "records.tsv").read_bytes():
            raise AssertionError("seeds 7 and 8 generate the same records")


def check_workload(name, trace):
    result, lines = run.execute(name, 3, 1.0, trace, TINY[name])
    expected = run.PER_LAYER if trace else run.END_TO_END
    for metric, unit in expected:
        got = result["metrics"].get(metric)
        if got is None or got["unit"] != unit:
            raise AssertionError(f"{name}: metric {metric} ({unit}) missing")
        if not any(line.startswith(f"{metric} = ") for line in lines):
            raise AssertionError(f"{name}: metric {metric} not printed")
    if set(result["metrics"]) != {m for m, _ in expected}:
        raise AssertionError(f"{name}: unexpected metrics")
    if result["failed"] or not result["correct"]:
        raise AssertionError(f"{name}: failed ops:\n" + "\n".join(lines))
    if not any(line.startswith("error_ratio = 0 ") for line in lines):
        raise AssertionError(f"{name}: error_ratio is not 0")


def main():
    if not run.SRC.joinpath("stimkb").is_dir():
        print("selftest: no stimkb sources", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    check_generator_deterministic()
    for name in run.WORKLOADS:
        for trace in (False, True):
            check_workload(name, trace)
            print(f"ok {name} trace={int(trace)}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
