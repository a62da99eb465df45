#!/usr/bin/env python3
"""Compare a freshly-generated BENCH_engine.json against the checked-in one.

Usage: bench_compare.py [--threshold F] <baseline.json> <fresh.json>

CI machines are slower and noisier than the dev boxes that generate the
checked-in report, so raw events/sec cells are not comparable across
machines. The trick: every report carries in-process `seed` cells (the
frozen pre-PR engine) measured on the *same* machine and run as the
shipped cells, so the median seed-cell ratio fresh/baseline estimates the
machine-speed factor. Each shipped cell's throughput ratio is divided by
that factor before gating:

  * normalised ratio < 1 - threshold  -> regression, job FAILS
  * raw ratio < 1 - threshold only    -> warning (machine speed, not code)
  * cell missing from fresh report    -> the grid shrank, job FAILS
  * cell only in fresh report         -> warning (regenerate baseline)

`--threshold` defaults to 0.25 for the noisy reduced (HYPERROUTE_SCALE=ci)
grid; the full-scale pipeline tightens it to 0.05. When the
GITHUB_STEP_SUMMARY environment variable points at a writable file, a
markdown table of every gated cell is appended to it.

Exit status: 0 clean/warnings, 1 regression, missing cell, or unusable
input.
"""

import json
import os
import statistics
import sys


def cells_by_key(report):
    return {
        (c["sim"], c["dim"], c["rho"], c["engine"]): c["events_per_sec"]
        for c in report["results"]
    }


def machine_factor(base, new):
    """Median fresh/baseline ratio over the common seed cells, or None
    when the reports share no usable seed cell."""
    seed_ratios = [
        new[k] / base[k]
        for k in base
        if k[3] == "seed" and k in new and base[k] > 0
    ]
    if not seed_ratios:
        return None
    return statistics.median(seed_ratios)


def compare(baseline, fresh, threshold):
    """Gate every shipped cell of `fresh` against `baseline`.

    Returns (rows, regressions, warnings, machine). `rows` is one
    (key, raw, norm, marker) tuple per shipped baseline cell, in key
    order, with raw/norm None for cells the fresh report dropped;
    `regressions` non-empty means the gate fails.
    """
    base = cells_by_key(baseline)
    new = cells_by_key(fresh)
    machine = machine_factor(base, new)
    if machine is None:
        return [], ["no common seed cells; cannot normalise machine speed"], \
            [], None

    rows, regressions, warnings = [], [], []
    for key in sorted(k for k in base if k[3] != "seed"):
        if key not in new:
            rows.append((key, None, None, "MISSING"))
            regressions.append(
                f"cell {key} missing from fresh report (the bench grid "
                f"shrank; fix the grid or regenerate the baseline)"
            )
            continue
        raw = new[key] / base[key]
        norm = raw / machine
        marker = "ok"
        if norm < 1.0 - threshold:
            marker = "REGRESSION"
            regressions.append(
                f"{key}: normalised throughput ratio {norm:.3f} "
                f"(raw {raw:.3f}, machine {machine:.3f})"
            )
        elif raw < 1.0 - threshold:
            marker = "warn(raw)"
            warnings.append(
                f"{key}: raw ratio {raw:.3f} low but normalised {norm:.3f} "
                f"fine (slow machine)"
            )
        rows.append((key, raw, norm, marker))
    for key in sorted(new):
        if key[3] != "seed" and key not in base:
            warnings.append(f"cell {key} missing from checked-in report "
                            f"(regenerate BENCH_engine.json)")
    return rows, regressions, warnings, machine


def render_markdown(rows, threshold, machine):
    """The gated cells as a GitHub-flavoured markdown table."""
    lines = [
        f"### Bench throughput gate (threshold {threshold:.0%}, "
        f"machine factor {machine:.3f})",
        "",
        "| sim | dim | rho | engine | raw | normalised | verdict |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for (sim, dim, rho, engine), raw, norm, marker in rows:
        raw_s = "—" if raw is None else f"{raw:.3f}"
        norm_s = "—" if norm is None else f"{norm:.3f}"
        lines.append(f"| {sim} | {dim} | {rho} | {engine} "
                     f"| {raw_s} | {norm_s} | {marker} |")
    return "\n".join(lines) + "\n"


def write_step_summary(markdown):
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    with open(path, "a") as f:
        f.write(markdown)


def main(argv) -> int:
    args = list(argv)
    threshold = 0.25
    if "--threshold" in args:
        i = args.index("--threshold")
        try:
            threshold = float(args[i + 1])
        except (IndexError, ValueError):
            print("bench-compare: --threshold needs a number", file=sys.stderr)
            return 1
        del args[i:i + 2]
    if len(args) != 2 or not 0.0 < threshold < 1.0:
        print(__doc__, file=sys.stderr)
        return 1
    with open(args[0]) as f:
        baseline = json.load(f)
    with open(args[1]) as f:
        fresh = json.load(f)

    rows, regressions, warnings, machine = compare(baseline, fresh, threshold)
    if machine is None:
        print(f"bench-compare: {regressions[0]}")
        return 1
    print(f"bench-compare: machine-speed factor = {machine:.3f}, "
          f"threshold {threshold:.0%}")
    for (sim, dim, rho, engine), raw, norm, marker in rows:
        raw_s = "   na " if raw is None else f"{raw:6.3f}"
        norm_s = "   na " if norm is None else f"{norm:6.3f}"
        print(f"  {sim:10s} dim={dim:<5} rho={rho:<5} {engine:9s} "
              f"raw={raw_s} norm={norm_s}  {marker}")
    write_step_summary(render_markdown(rows, threshold, machine))

    for w in warnings:
        print(f"bench-compare: WARNING: {w}")
    if regressions:
        print(f"bench-compare: FAILED — {len(regressions)} problem(s) at "
              f"threshold {threshold:.0%}:")
        for r in regressions:
            print(f"  {r}")
        return 1
    print(f"bench-compare: {len(rows)} shipped cells within "
          f"{threshold:.0%} of the checked-in report")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
