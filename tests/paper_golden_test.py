#!/usr/bin/env python3
"""Pins the paper reproduction: reruns the model-cost sweeps and compares
them with the committed golden tables.

Runs bench_directional (Tables 1-4, Figure 7), bench_aoi (Tables 5/6,
Figure 8) and bench_ordering (E17) with --runs=1 and compares their stdout
with the matching "== <bench> ==" sections of results/bench_small.txt. The
comparison is exact on every column except the wall-clock `tiling_ms` and
`load_ms` columns of the tiling-scheme tables, which are dropped on both
sides.

Usage: paper_golden_test.py <golden file> <bench binary dir>

A change to the cost model on purpose regenerates the golden in the same
change (scripts/reproduce.sh, or the three benches above) and quotes the
diff in CHANGES.md.
"""

import subprocess
import sys

BENCHES = ("bench_directional", "bench_aoi", "bench_ordering")
WALL_CLOCK_COLUMNS = ("tiling_ms", "load_ms")


def golden_section(lines, bench):
    """The lines between "== <bench> ==" and the next bench header."""
    header = "== %s ==" % bench
    if header not in lines:
        raise SystemExit("golden has no section %r" % header)
    out = []
    for line in lines[lines.index(header) + 1:]:
        if line.startswith("== "):
            break
        out.append(line)
    return out


def drop_wall_clock(lines):
    """Removes the wall-clock columns from every table that has them."""
    out = []
    drop = []
    for line in lines:
        fields = line.split()
        if any(c in fields for c in WALL_CLOCK_COLUMNS):
            drop = [i for i, f in enumerate(fields) if f in WALL_CLOCK_COLUMNS]
        elif not fields:
            drop = []
        if drop:
            line = " ".join(f for i, f in enumerate(fields) if i not in drop)
        out.append(line.rstrip())
    while out and not out[-1]:
        out.pop()
    return out


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    golden_path, bench_dir = sys.argv[1], sys.argv[2]
    with open(golden_path) as f:
        golden = f.read().splitlines()
    failed = False
    for bench in BENCHES:
        run = subprocess.run(["%s/%s" % (bench_dir, bench), "--runs=1"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL,
                             universal_newlines=True)
        if run.returncode != 0:
            print("%s exited with %d" % (bench, run.returncode))
            failed = True
            continue
        want = drop_wall_clock(golden_section(golden, bench))
        got = drop_wall_clock(run.stdout.splitlines())
        mismatches = [(i, w, g) for i, (w, g) in enumerate(zip(want, got))
                      if w != g]
        for i, w, g in mismatches[:10]:
            print("%s line %d\n  golden: %s\n  got:    %s" %
                  (bench, i + 1, w, g))
        if mismatches or len(want) != len(got):
            print("%s: %d of %d lines differ; %d lines, golden has %d" %
                  (bench, len(mismatches), len(want), len(got), len(want)))
            failed = True
        else:
            print("%s: %d lines match" % (bench, len(want)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
