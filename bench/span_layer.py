"""Per-part time and peak memory of ldlab's span trial on seeded inputs.

Run from the root of a checkout:

    python3 bench/span_layer.py [--repeats 5]

Each row is one (q, n, l, p) and a number of trials.  Trial t draws its
l points of B(0, floor(p n)) as `span-exp` does at seed 12345
(`derive_stream(12345, "span", t)`, then `sample_ball_uniform` l times).
The parts of a trial are timed one by one on those points:

- span:  `codes._span_block` of the points' payloads, every q^l member
  in one packed block;
- zeros: `gfq.block_in_balls` of the block at radius 0 alone, the
  slots each distinct member fills, so that q^l / zeros is the distinct
  count;
- count: `gfq.block_in_balls` of the block at the ball's radius alone,
  divided by zeros;
- rank:  `gfq.rank_of` of the points;
- span_in_ball: `codes.span_in_ball` of the points at the ball's radius,
  as `experiments._span_chunk` calls it: the span block and both counts;
- trial: `experiments._span_chunk` of the same trials, which is the
  whole trial as `span-exp` runs it, sampling included.

The script prints one JSON object per row: for each part the median over
the repeats of its milliseconds per trial, the peak memory one untimed
trial allocates above what was live before it (tracemalloc, so Python
objects and not the allocator's slack), the number of span members per
trial, and a SHA-256 of the (distinct size, in-ball count) pair of every
trial.  It asserts that `span_in_ball` and the trial path count what the
parts count, that q^l / zeros is q^rank, and that no trial fails its
rank check.  It calls `_span_block(field, n, payloads)`, whose slots
hold n digits each; a checkout whose `_span_block` takes no n (before
the codeword checkers counted the span block as built) needs a copy of
the script without that argument.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from ldlab.codes import _span_block, span_in_ball  # noqa: E402
from ldlab.experiments import SpanTrialConfig, _span_chunk  # noqa: E402
from ldlab.gfq import block_in_balls, field_new, rank_of  # noqa: E402
from ldlab.hamming import BallSpec, sample_ball_uniform  # noqa: E402
from ldlab.seeding import derive_stream  # noqa: E402

SEED = 12345

# (q, n, l, p, trials).  (3, 32, 6) is the span-q3 trial; the q = 2,
# n = 8, l = 10 row has rank below l, so its spans hold duplicates;
# (5, 20, 8) is the 390,625-member memory row; every row from 4096
# members up fills one or more slices of gfq._BATCH = 4096 slots.
ROWS = ((2, 64, 12, "1/4", 4), (2, 8, 10, "1/4", 10), (3, 32, 6, "1/4", 40),
        (3, 20, 9, "1/5", 4), (5, 20, 6, "1/4", 4), (5, 20, 8, "1/4", 1),
        (9, 12, 4, "1/4", 4), (16, 10, 3, "1/5", 10))
PARTS = ("span", "zeros", "count", "rank", "span_in_ball", "trial")


def row(q: int, n: int, ell: int, p: str, trials: int, repeats: int) -> dict:
    field = field_new(q)
    spec = BallSpec.from_p(q, n, Fraction(p))
    points = []
    for t in range(trials):
        rng = derive_stream(SEED, "span", t)
        points.append([sample_ball_uniform(spec, rng) for _ in range(ell)])
    config = SpanTrialConfig(n, Fraction(p), q, ell, trials, SEED)
    times = {part: [] for part in PARTS}
    pairs = []
    for _ in range(repeats):
        spent = dict.fromkeys(PARTS, 0.0)
        pairs = []
        for vecs in points:
            t0 = time.perf_counter()
            block, width, total = _span_block(field, n,
                                              [v.payload for v in vecs])
            t1 = time.perf_counter()
            zeros = block_in_balls(field, n, block, width, total, (0,))[0]
            t2 = time.perf_counter()
            count = block_in_balls(field, n, block, width, total,
                                   (spec.radius,))[0] // zeros
            t3 = time.perf_counter()
            rank = rank_of(vecs)
            t4 = time.perf_counter()
            both = span_in_ball(vecs, spec.radius)
            t5 = time.perf_counter()
            for part, dt in zip(PARTS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3,
                                        t5 - t4)):
                spent[part] += dt
            assert total // zeros == q ** rank
            assert both == (total // zeros, count)
            pairs.append((total // zeros, count))
            del block
        t0 = time.perf_counter()
        chunk = _span_chunk(config, 0, trials)
        spent["trial"] = time.perf_counter() - t0
        assert chunk == [(count, False) for _, count in pairs]
        for part in PARTS:
            times[part].append(spent[part] * 1e3 / trials)
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    _span_chunk(config, 0, 1)
    peak = tracemalloc.get_traced_memory()[1] - before
    tracemalloc.stop()
    text = "".join(f"{size} {count}\n" for size, count in pairs)
    return {"q_n_l_p": [q, n, ell, p], "trials": trials, "repeats": repeats,
            "members": q ** ell,
            **{f"{part}_ms": round(statistics.median(times[part]), 4)
               for part in PARTS},
            "trial_peak_mb": round(peak / 2 ** 20, 3),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    for q, n, ell, p, trials in ROWS:
        print(json.dumps(row(q, n, ell, p, trials, args.repeats)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
