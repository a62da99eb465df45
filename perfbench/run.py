#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper_dense --seed 1 --seconds 30 --trace 0

Builds the `perfbench` package (release profile, offline) into
$CARGO_TARGET_DIR (default `.bench_build` at the repository root), runs it
with the given arguments from the repository root, and passes its output
through. The last line of standard output is the JSON result; before
printing it, this script checks that it carries exactly the metrics
BENCHMARK.json names for the mode (`end_to_end` for --trace 0,
`per_layer` for --trace 1). Any build, run or format failure exits
non-zero without printing a result.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT,
        env={**os.environ, "CARGO_TARGET_DIR": target},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}", 3)

    try:
        run = subprocess.run(
            [os.path.join(target, "release", "perfbench"), *argv],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 4)
    if run.returncode != 0:
        fail(f"benchmark exited with code {run.returncode}", 5)

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("the last output line is not a JSON result", 6)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    traced = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    expected = {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}
    if set(result.get("metrics", {})) != expected:
        fail("the result's metrics differ from BENCHMARK.json", 7)
    print("\n".join(lines))


if __name__ == "__main__":
    main(sys.argv[1:])
