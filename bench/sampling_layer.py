"""Per-call timings of ldlab's L1 samplers against their stdlib-call forms.

Run from the root of a checkout:

    python3 bench/sampling_layer.py [--repeats 7] [--calls 2000]

Each row times, in this one process, the reference form kept in
tests/oracles.py (plain `randrange`/`sample` calls) and the library
function, on the same seed.  It prints one JSON object per row with the
median microseconds per call over the repeats and a SHA-256 of each
side's outputs (as digit strings); the two digests are equal when the
library draws the same stream as the stdlib calls.  The rows are
`sample_ball_uniform` at the three cells of the pair-sum-q2 benchmark
workload and at the span-q3 ball, `uniform_payload` at n = 20, 40, 80
over F_2, and `random_code` at the rate-sweep-q2 shapes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from ldlab.codes import random_code  # noqa: E402
from ldlab.gfq import VecQ, field_new, rank_of  # noqa: E402
from ldlab.hamming import (BallSpec, sample_ball_uniform,  # noqa: E402
                           uniform_payload)


@functools.lru_cache(maxsize=None)
def _field(q: int):
    return field_new(q)


def _digits(v: VecQ) -> str:
    return "".join(map(str, v.digits()))


def stdlib_random_code(n: int, k: int, q: int, rng: random.Random):
    """random_code(n, k, q, True, rng) with randrange(q) digit draws."""
    field = _field(q)
    while True:
        rows = tuple(VecQ.from_digits(field, oracles.stdlib_uniform_digits(q, n, rng))
                     for _ in range(k))
        if rank_of(rows) == k:
            return rows


def rows():
    """(name, params, reference call, library call, output -> text)."""
    for q, n, p in [(2, 20, "1/10"), (2, 40, "1/10"), (2, 80, "1/10"),
                    (3, 32, "1/4")]:
        spec = BallSpec.from_p(q, n, p)
        yield ("sample_ball_uniform", {"q": q, "n": n, "p": p},
               lambda rng, spec=spec: oracles.stdlib_ball_digits(
                   spec.n, spec.radius, spec.q, rng),
               lambda rng, spec=spec: sample_ball_uniform(spec, rng),
               lambda out: "".join(map(str, out)) if isinstance(out, tuple)
               else _digits(out))
    for n in (20, 40, 80):
        field = _field(2)
        yield ("uniform_payload", {"q": 2, "n": n},
               lambda rng, n=n: oracles.stdlib_uniform_digits(2, n, rng),
               lambda rng, n=n, field=field: VecQ(field, n,
                                                  uniform_payload(field, n, rng)),
               lambda out: "".join(map(str, out)) if isinstance(out, tuple)
               else _digits(out))
    for k in (5, 4, 2):
        yield ("random_code", {"q": 2, "n": 18, "k": k},
               lambda rng, k=k: stdlib_random_code(18, k, 2, rng),
               lambda rng, k=k: random_code(18, k, 2, True, rng).generator,
               lambda out: "|".join(map(_digits, out)))


def time_calls(fn, seed: int, calls: int, repeats: int):
    """Median microseconds per call, and the outputs of the first repeat."""
    times, first = [], None
    for _ in range(repeats):
        rng = random.Random(seed)
        t0 = time.perf_counter()
        outs = [fn(rng) for _ in range(calls)]
        times.append((time.perf_counter() - t0) / calls * 1e6)
        first = first or outs
    return statistics.median(times), first


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--calls", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    all_equal = True
    for name, params, reference, library, text in rows():
        result = {"function": name, **params}
        digests = {}
        for side, fn in (("stdlib", reference), ("ldlab", library)):
            us, outs = time_calls(fn, args.seed, args.calls, args.repeats)
            blob = "\n".join(text(o) for o in outs).encode()
            digests[side] = hashlib.sha256(blob).hexdigest()
            result[f"{side}_us"] = round(us, 3)
            result[f"{side}_sha256"] = digests[side]
        result["equal"] = digests["stdlib"] == digests["ldlab"]
        all_equal &= result["equal"]
        print(json.dumps(result), flush=True)
    return 0 if all_equal else 1


if __name__ == "__main__":
    sys.exit(main())
