#!/usr/bin/env python3
"""One-time fidelity cross-check of the benchmark's simulations.

Compares the `sim <workload>/<scheme> ...` lines the benchmark prints on
stderr against the entries of a `--bench-out` snapshot, exactly, on
cycles, total bytes, metadata bytes and per-class bytes. This is not a
standing test: a fidelity fix rightly regenerates the snapshot.

    cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload figrepro --seed 0 --seconds 1 --trace 0 2> sims.txt
    python3 perfbench/fidelity.py sims.txt BENCH_8.json
"""

import json
import sys


def parse_sims(path):
    sims = {}
    with open(path) as f:
        for line in f:
            if not line.startswith("sim "):
                continue
            words = line.split()
            fields = dict(w.split("=", 1) for w in words[2:] if "=" in w)
            classes = dict(c.split(":") for c in fields["class_bytes"].split(","))
            sims.setdefault(words[1], {
                "cycles": int(fields["cycles"]),
                "total_bytes": int(fields["total_bytes"]),
                "metadata_bytes": int(fields["metadata_bytes"]),
                "class_bytes": {k: int(v) for k, v in classes.items()},
            })
    return sims


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sims = parse_sims(sys.argv[1])
    with open(sys.argv[2]) as f:
        entries = {f"{e['workload']}/{e['scheme']}": e for e in json.load(f)["entries"]}
    mismatches = 0
    for key, got in sorted(sims.items()):
        ref = entries.get(key)
        if ref is None:
            print(f"{key}: no reference entry")
            mismatches += 1
            continue
        diffs = [f for f in got if got[f] != ref[f]]
        print(f"{key}: {'match' if not diffs else 'MISMATCH ' + ', '.join(diffs)}")
        mismatches += bool(diffs)
    print(f"{len(sims) - mismatches}/{len(sims)} simulations match exactly")
    sys.exit(1 if mismatches or not sims else 0)


if __name__ == "__main__":
    main()
