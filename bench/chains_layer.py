"""Per-call timings of ldlab's chains layer on seeded vector sets.

Run from the root of a checkout:

    python3 bench/chains_layer.py [--repeats 5] [--sets 40] [--seed 11]

Each row is one (q, ell, c).  It draws `--sets` seeded subsets of F_q^ell
(sizes spread over 1 .. min(q^ell, 256)) and times, in this one process,
`shatter_find`, `chain_find`, `longest_chain_oracle` (on each set moved by
its chain's translate, as the benchmark's chains workload does) and, where
q^ell <= 256, `oracle_best_translate`.  It prints one JSON object per row
with the median microseconds per call over the repeats and a SHA-256 of
the outputs (witness and chain texts, oracle values, best translates), so
two checkouts that print the same digests computed the same results.
The script uses only the public `ldlab.chains` API, so a copy of it runs
unchanged against an older checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from ldlab.chains import (chain_find, format_chain,  # noqa: E402
                          format_witness, longest_chain_oracle,
                          oracle_best_translate, shatter_find)
from ldlab.gfq import VecQ, field_new  # noqa: E402

SPACES = ((2, 6), (3, 3), (2, 10), (4, 4), (7, 3), (16, 3))
TRANSLATE_LIMIT = 256


def seeded_sets(q: int, ell: int, count: int, seed: int) -> list[list[VecQ]]:
    field = field_new(q)
    size = q ** ell
    rng = random.Random(f"{seed}-{q}-{ell}")
    top = min(size, 256)
    out = []
    for i in range(count):
        picks = rng.sample(range(size), 1 + i * top // count)
        out.append([VecQ.from_digits(field, [x // q ** j % q for j in range(ell)])
                    for x in picks])
    return out


def median_us(fn, calls: list, repeats: int) -> float:
    """Median over the repeats of the mean microseconds per call."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in calls:
            fn(*args)
        times.append((time.perf_counter() - t0) / len(calls) * 1e6)
    return statistics.median(times)


def row(q: int, ell: int, c: int, sets: list, repeats: int) -> dict:
    witnesses = [shatter_find(S, c) for S in sets]
    found = [chain_find(S, c, q) for S in sets]
    moved = [[v + ch.translate_w for v in S] for S, ch in zip(sets, found)]
    texts = ["-" if w is None else format_witness(w) for w in witnesses]
    texts += [format_chain(ch) for ch in found]
    texts += [str(longest_chain_oracle(T, c)) for T in moved]
    result = {"q": q, "ell": ell, "c": c, "sets": len(sets),
              "shatter_find_us": median_us(shatter_find, [(S, c) for S in sets],
                                           repeats),
              "chain_find_us": median_us(chain_find, [(S, c, q) for S in sets],
                                         repeats),
              "longest_chain_oracle_us": median_us(
                  longest_chain_oracle, [(T, c) for T in moved], repeats),
              "oracle_best_translate_us": None}
    if q ** ell <= TRANSLATE_LIMIT:
        texts += ["%d %s" % oracle_best_translate(S, c) for S in sets]
        result["oracle_best_translate_us"] = median_us(
            oracle_best_translate, [(S, c) for S in sets], repeats)
    for key, value in result.items():
        if key.endswith("_us") and value is not None:
            result[key] = round(value, 2)
    result["sha256"] = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--sets", type=int, default=40)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    for q, ell in SPACES:
        sets = seeded_sets(q, ell, args.sets, args.seed)
        for c in (1, 2, 3):
            if c <= ell:
                print(json.dumps(row(q, ell, c, sets, args.repeats)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
