"""Per-call time and peak memory of ldlab's coset tally on seeded codes.

Run from the root of a checkout:

    python3 bench/tally_layer.py [--repeats 5]

Each row is one (q, n, k, r): one full-rank code, random_code(n, k, q,
True, Random(1000 q + n)), tallied with `codes._coset_tally(code, r)`, the
walk behind `check_ld_exact`'s default mode.  The script prints one JSON
object per row with the median and minimum milliseconds of one tally over
the repeats, the peak memory the tally allocates above what was live
before it (tracemalloc, in a separate untimed call, so the figure counts
Python objects and not the allocator's slack), the number of cosets and a
SHA-256 of the sorted tally, so two checkouts that print the same digests
computed the same tallies.  The script uses only `random_code` and
`_coset_tally`, so a copy of it runs unchanged against an older checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from ldlab.codes import _coset_tally, random_code  # noqa: E402

# (q, n, k, r); the binary n = 40 row is the rate-sweep regime near
# capacity, the n = 24 row lies far above capacity (2^12 cosets)
ROWS = ((2, 18, 5, 3), (2, 30, 10, 5), (2, 40, 10, 6), (3, 16, 5, 2),
        (9, 8, 2, 2), (2, 24, 12, 8), (3, 20, 6, 4), (5, 14, 4, 3))
# the slowest row gets fewer timed calls
SLOW_REPEATS = 3


def row(q: int, n: int, k: int, r: int, repeats: int) -> dict:
    code = random_code(n, k, q, True, random.Random(1000 * q + n))
    if q == 2 and n >= 40:
        repeats = min(repeats, SLOW_REPEATS)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        tally = _coset_tally(code, r)
        times.append((time.perf_counter() - t0) * 1e3)
        del tally
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    tally = _coset_tally(code, r)
    peak = tracemalloc.get_traced_memory()[1] - before
    tracemalloc.stop()
    text = "".join(f"{label} {count}\n" for label, count in sorted(tally.items()))
    return {"q_n_k_r": [q, n, k, r], "calls": repeats,
            "median_ms": round(statistics.median(times), 3),
            "min_ms": round(min(times), 3),
            "peak_mb": round(peak / 2 ** 20, 3),
            "cosets": len(tally), "points": sum(tally.values()),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    for q, n, k, r in ROWS:
        print(json.dumps(row(q, n, k, r, args.repeats)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
