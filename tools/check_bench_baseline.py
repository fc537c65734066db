#!/usr/bin/env python3
"""CI guard: bench-smoke throughput vs committed per-bench baselines.

Reads a directory of bench ``--json`` documents (the bench-smoke
artifacts) and compares their *throughput-like* metrics against
committed baselines under ``bench/baselines/<arch>/<bench>.json``,
failing (exit 1) on a regression. The goal is the same as
check_e16_ratio.py's: turn a silent gross slowdown (an accidental
seq_cst fence, a lock on the hot path, an encode-per-subscriber bug)
into a red build — NOT to police single-digit noise across runner
generations. Hence:

  * only metrics whose column name looks rate-like (Mops/s, frames/s,
    B/s, /sec) are compared — sizes, latencies and ratio columns have
    their own guards or no stable direction;
  * per bench, the GEOMETRIC MEAN of current/baseline across its
    metrics must be >= --tolerance (default 0.40: runners differ in
    core count and clocks; a uniform 2.5x collapse is a regression, a
    30% wobble is a Tuesday);
  * baselines are arch-keyed (uname -m): an arch with no committed
    baselines (e.g. a brand-new arm64 runner) SKIPS with a notice
    instead of failing — commit baselines from its first artifacts via
    --update to arm the guard there.

Usage:
  check_bench_baseline.py <bench-json-dir> [--baselines=<dir>]
      [--tolerance=0.40] [--arch=auto] [--update]
      [--dry-run-from-artifact]

--baselines defaults to bench/baselines of the repository this script
lives in, whatever the working directory. A baselines root that does
not exist is a usage error (exit 2), never a skip: only an arch with no
subdirectory under an existing root skips.

--update (re)writes the baselines for this arch from the given JSON
directory instead of checking — run it on the target machine at the
same --scale CI uses, and commit the result.

--dry-run-from-artifact previews an --update without writing anything:
for each JSON document it prints the baseline path it would (re)write,
the metric count, and — where a committed baseline already exists — an
advisory geomean drift. Exit 0 whenever the input directory is
readable; use it to sanity-check a downloaded CI artifact before
committing baselines from a machine you cannot rerun on.

Arming a new arch (e.g. the arm64 runner) from its CI artifacts is one
download plus one update — run from the repo root:

  gh run download --name bench-json-arm64 --dir /tmp/bench-json-arm64
  python3 tools/check_bench_baseline.py /tmp/bench-json-arm64 \
      --dry-run-from-artifact --arch=aarch64       # preview first
  python3 tools/check_bench_baseline.py /tmp/bench-json-arm64 \
      --arch=aarch64 --update                      # then write + commit

(the arm64 job uploads its artifacts under that name on every run, so
no arm64 hardware is needed locally; until the baselines land, the
arm64 guard step prints the skip notice below and passes).
"""

import json
import math
import os
import platform
import re
import sys

DEFAULT_BASELINES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench", "baselines")

RATE_COLUMN = re.compile(r"(mops|ops/s|frames/s|/sec)", re.I)
# Columns that look rate-like but are ratios, byte rates (smaller is an
# improvement) or neutral tallies: never compared. Ratio columns like
# "relaxed/seq_cst" never match RATE_COLUMN in the first place — do NOT
# exclude broad words like "relaxed" here, or genuine throughput
# columns ("relaxed Mops/s") silently fall out of the guard.
EXCLUDE_COLUMN = re.compile(
    r"(ratio|vs |coalesced|suppressed|b/s|bytes)", re.I)


def parse_number(cell):
    try:
        return float(str(cell).replace(",", ""))
    except ValueError:
        return None


def parameter_prefix(columns):
    """Benches lay out parameter columns (impl, shards, threads, tick
    ms, filter ...) before the measured ones: the row label must come
    ONLY from that prefix. Including a measured cell in the key would
    make every run's keys unique (the measurement wobbles), so nothing
    would ever compare and the guard would silently pass."""
    for index, column in enumerate(columns):
        if RATE_COLUMN.search(column) or EXCLUDE_COLUMN.search(column):
            return index
    return len(columns)


def extract_metrics(doc):
    """Flattens a bench --json document into {key: value} for every
    rate-like numeric cell. Keys are section|row-label|column, with the
    label built from the row's parameter-column prefix (suffixed for
    duplicates so reordering cannot silently remap)."""
    metrics = {}
    for section in doc.get("sections", []):
        title = section.get("title", "")
        columns = section.get("columns", [])
        label_cells = parameter_prefix(columns)
        seen = {}
        for row in section.get("rows", []):
            if not row:
                continue
            label = "/".join(str(c) for c in row[:label_cells])
            seen[label] = seen.get(label, 0) + 1
            if seen[label] > 1:
                label = f"{label}#{seen[label]}"
            for column, cell in zip(columns, row):
                if not RATE_COLUMN.search(column):
                    continue
                if EXCLUDE_COLUMN.search(column):
                    continue
                value = parse_number(cell)
                if value is None or value <= 0.0:
                    continue
                metrics[f"{title}|{label}|{column}"] = value
    return metrics


def load_json_dir(json_dir):
    docs = {}
    for name in sorted(os.listdir(json_dir)):
        if not name.endswith(".json"):
            continue
        bench = name[: -len(".json")]
        try:
            with open(os.path.join(json_dir, name)) as handle:
                docs[bench] = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"baseline-check: unreadable {name}: {error}")
            return None
    return docs


def update(json_dir, baseline_dir, arch):
    docs = load_json_dir(json_dir)
    if docs is None:
        return 1
    arch_dir = os.path.join(baseline_dir, arch)
    os.makedirs(arch_dir, exist_ok=True)
    written = 0
    for bench, doc in docs.items():
        metrics = extract_metrics(doc)
        if not metrics:
            continue  # nothing rate-like to guard (e.g. accuracy benches)
        path = os.path.join(arch_dir, f"{bench}.json")
        with open(path, "w") as handle:
            json.dump(
                {"bench": bench, "arch": arch, "metrics": metrics},
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        written += 1
        print(f"baseline-check: wrote {path} ({len(metrics)} metrics)")
    print(f"baseline-check: {written} baselines updated for {arch}")
    return 0


def dry_run(json_dir, baseline_dir, arch):
    """Preview --update: what would be written, and advisory drift vs
    any committed baseline. Never writes; exit 0 on readable input."""
    docs = load_json_dir(json_dir)
    if docs is None:
        return 1
    arch_dir = os.path.join(baseline_dir, arch)
    for bench, doc in sorted(docs.items()):
        metrics = extract_metrics(doc)
        if not metrics:
            print(f"  {bench:28s} no rate-like metrics — would not write")
            continue
        path = os.path.join(arch_dir, f"{bench}.json")
        if not os.path.exists(path):
            print(f"  {bench:28s} would write {path}"
                  f" ({len(metrics)} metrics, new)")
            continue
        with open(path) as handle:
            baseline = json.load(handle)
        ratios = [
            metrics[key] / base_value
            for key, base_value in baseline.get("metrics", {}).items()
            if key in metrics and base_value > 0.0
        ]
        drift = (
            "no comparable metrics"
            if not ratios
            else "geomean drift {:.2f}x over {} metrics".format(
                math.exp(sum(math.log(r) for r in ratios) / len(ratios)),
                len(ratios),
            )
        )
        print(f"  {bench:28s} would replace {path}"
              f" ({len(metrics)} metrics, {drift})")
    print(f"baseline-check: dry run for {arch} — nothing written")
    return 0


def check(json_dir, baseline_dir, arch, tolerance):
    arch_dir = os.path.join(baseline_dir, arch)
    if not os.path.isdir(arch_dir):
        print(
            f"baseline-check: no baselines for {arch} under {baseline_dir};"
            " skipping — arm the guard from this arch's CI artifacts"
            " (one-command recipe in this script's docstring)"
        )
        return 0
    docs = load_json_dir(json_dir)
    if docs is None:
        return 1
    failures = []
    checked = 0
    for name in sorted(os.listdir(arch_dir)):
        if not name.endswith(".json"):
            continue
        bench = name[: -len(".json")]
        with open(os.path.join(arch_dir, name)) as handle:
            baseline = json.load(handle)
        if bench not in docs:
            failures.append(f"{bench}: baseline exists but no JSON artifact")
            continue
        current = extract_metrics(docs[bench])
        ratios = []
        for key, base_value in baseline.get("metrics", {}).items():
            cur_value = current.get(key)
            if cur_value is None or base_value <= 0.0:
                # A renamed/removed metric is a layout change, not a
                # perf regression: refresh the baseline via --update.
                continue
            ratios.append(cur_value / base_value)
        if not ratios:
            print(f"  {bench:28s} no comparable metrics (refresh baseline?)")
            continue
        geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        checked += 1
        verdict = "ok" if geomean >= tolerance else "REGRESSION"
        print(
            f"  {bench:28s} geomean {geomean:5.2f}x over {len(ratios):3d}"
            f" metrics (floor {tolerance:.2f})  {verdict}"
        )
        if geomean < tolerance:
            worst = sorted(ratios)[:3]
            failures.append(
                f"{bench}: geomean {geomean:.2f} < {tolerance:.2f}"
                f" (worst cells {', '.join(f'{r:.2f}' for r in worst)})"
            )
    if failures:
        print("baseline-check: FAILED")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"baseline-check: {checked} benches within tolerance on {arch}")
    return 0


def main(argv):
    json_dir = None
    baseline_dir = DEFAULT_BASELINES
    tolerance = 0.40
    arch = platform.machine()
    do_update = False
    do_dry_run = False
    for arg in argv[1:]:
        if arg.startswith("--baselines="):
            baseline_dir = arg.split("=", 1)[1]
        elif arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
        elif arg.startswith("--arch="):
            value = arg.split("=", 1)[1]
            if value != "auto":
                arch = value
        elif arg == "--update":
            do_update = True
        elif arg == "--dry-run-from-artifact":
            do_dry_run = True
        elif arg.startswith("--"):
            print(__doc__)
            return 2
        else:
            json_dir = arg
    if json_dir is None or not os.path.isdir(json_dir):
        print(__doc__)
        return 2
    if not os.path.isdir(baseline_dir):
        print(f"baseline-check: baselines root {baseline_dir} does not exist")
        return 2
    if do_dry_run:
        return dry_run(json_dir, baseline_dir, arch)
    if do_update:
        return update(json_dir, baseline_dir, arch)
    return check(json_dir, baseline_dir, arch, tolerance)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
