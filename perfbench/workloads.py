"""The benchmark's four workloads: inputs from a seed, one job, output checks.

Three workloads drive the public CLI entry point in-process,
`ldlab.cli.dispatch([..., "--json"])`, with stdout captured; `chains`
calls the `ldlab.chains` API directly.  Every job is closed loop: the
benchmark starts a job only when the previous one has returned.

Why each workload (shares from cProfile on the parent commit):

- span-q3: `gfq` takes about 87% of the time (`payload_add` alone 74%)
  and sampling about 3%, so an odd-q kernel change shows here.
- pair-sum-q2: `seeding`, `hamming` sampling and `random` take about
  85%; at q=2 `gfq` reduces to XOR and `bit_count`, so an odd-q kernel
  change should leave it flat.  Its six chunk-and-merge rounds, one per
  (n, center), stress the pool in `experiments`.
- rate-sweep-q2: `hamming.ball_points` takes 69% and
  `codes.check_ld_exact` 16%; per-code cost varies about 8x across the
  eps grid, so contiguous chunks load two workers unevenly.
- chains: the only workload that touches `chains`: shatter, chain,
  verify and oracle on seeded subsets shaped like acceptance
  criterion 5.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from ldlab import chains as ld_chains
from ldlab import cli as ld_cli
from ldlab.gfq import all_vectors, field_new

# The seed whose outputs are pinned below; other seeds are checked by
# invariants and by comparing every job against the run's first job.
DEFAULT_SEED = 12345
SCALES = ("full", "smoke")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Inputs:
    seed: int
    scale: str
    units: int                        # work units in one job
    ops: int                          # operations in one job
    argv: tuple[str, ...] = ()        # CLI workloads
    sets: tuple = ()                  # chains: (q, [VecQ, ...]) pairs


@dataclass
class Output:
    text: str                         # the bytes the digest is taken of
    items: list[str]                  # one per operation, compared across jobs
    bad: set[int] = field(default_factory=set)   # operations that failed in the job


# ------------------------------------------------------------ CLI workloads

def _parse_record(text: str) -> dict:
    lines = text.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one JSON record, got {len(lines)} lines")
    return json.loads(lines[0])


def _check_span(rec: dict, size: int) -> list[str]:
    hist = {int(c): f for c, f in rec["histogram"].items()}
    problems = []
    if sum(hist.values()) != size:
        problems.append(f"histogram sums to {sum(hist.values())}, not {size}")
    if not all(1 <= c <= 3 ** rec["ell"] for c in hist):
        problems.append(f"span count outside [1, 3^ell]: {sorted(hist)}")
    if rec["rank_check_failures"]:
        problems.append(f"rank_check_failures={rec['rank_check_failures']}")
    threshold = rec["c_threshold"] * rec["ell"]
    if rec["tail_count"] != sum(f for c, f in hist.items() if c > threshold):
        problems.append("tail_count disagrees with the histogram")
    return problems


def _check_pair_sum(rec: dict, size: int) -> list[str]:
    cells = [(r["n"], r["center"]) for r in rec["records"]]
    want = [(n, c) for n in rec["n_values"] for c in ("zero", "random")]
    problems = [] if cells == want else [f"cells {cells}, want {want}"]
    for r in rec["records"]:
        if r["trials"] != size or not 0 <= r["hit_count"] <= size:
            problems.append(f"bad counts in {r}")
        elif r["estimate"] != r["hit_count"] / size:
            problems.append(f"estimate disagrees with hit_count in {r}")
    return problems


def _check_rate_sweep(rec: dict, size: int) -> list[str]:
    ks = [pt["k"] for pt in rec["points"]]
    problems = [] if ks == [5, 4, 2] else [f"dimensions {ks}, want [5, 4, 2]"]
    for pt in rec["points"]:
        hist = {int(v): f for v, f in pt["l_max_histogram"].items()}
        cand = math.ceil(1 / Fraction(pt["eps"]))
        if sum(hist.values()) != size:
            problems.append(f"eps={pt['eps']}: {sum(hist.values())} codes, not {size}")
        if not all(1 <= v <= 2 ** pt["k"] for v in hist):
            problems.append(f"eps={pt['eps']}: L_max outside [1, 2^k]: {sorted(hist)}")
        if pt["L_candidate"] != cand or pt["failure_count"] != sum(
                f for v, f in hist.items() if v > cand):
            problems.append(f"eps={pt['eps']}: failure count disagrees")
    return problems


@dataclass(frozen=True)
class CliWorkload:
    name: str
    q: int
    shape: tuple[str, ...]            # subcommand and its fixed flags
    size_flag: str
    sizes: dict                       # scale -> value of size_flag
    cells: int                        # units of work per unit of size
    unit: str
    want: dict                        # record fields fixed by the shape
    check: object                     # (record, size) -> list of problems
    pinned: dict                      # scale -> digest at DEFAULT_SEED

    def inputs(self, seed: int, scale: str) -> Inputs:
        field_new(self.q)
        size = self.sizes[scale]
        argv = self.shape + (self.size_flag, str(size), "--seed", str(seed),
                             "--json")
        return Inputs(seed, scale, size * self.cells, 1, argv=argv)

    def executor(self, inputs: Inputs, workers: int):
        return contextlib.nullcontext()   # ldlab forks its own pool per job

    def job(self, inputs: Inputs, workers: int, executor=None) -> Output:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = ld_cli.dispatch([*inputs.argv, "--workers", str(workers)])
        text = buf.getvalue()
        return Output(text, [text], set() if status == 0 else {0})

    def problems(self, inputs: Inputs, out: Output) -> list[str]:
        """What is wrong with one job's record, judged on its own."""
        size = self.sizes[inputs.scale]
        try:
            rec = _parse_record(out.text)
            want = dict(self.want, seed=inputs.seed)
            problems = [f"{k}={rec.get(k)!r}, want {v!r}"
                        for k, v in want.items() if rec.get(k) != v]
            return problems + self.check(rec, size)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable record: {exc!r}"]


# ------------------------------------------------------------------ chains

CHAIN_SPACES = ((2, 6), (3, 3))       # (q, ell): F_2^6 and F_3^3
CHAIN_C = 2


def certify(q: int, S: list) -> tuple[str, bool]:
    """Shatter, chain, verify and oracle-check one set; (result, passed)."""
    ell = S[0].n
    witness = ld_chains.shatter_find(S, CHAIN_C)
    chain = ld_chains.chain_find(S, CHAIN_C, q)
    oracle = ld_chains.longest_chain_oracle(
        [v + chain.translate_w for v in S], CHAIN_C)
    ok = chain.verify() and oracle >= chain.d
    if len(S) > ld_chains.shatter_threshold(ell, CHAIN_C, q):
        bound = ld_chains.chain_length_bound(len(S), ell, CHAIN_C, q)
        ok = ok and witness is not None and chain.d >= math.ceil(bound)
    result = json.dumps([len(S), None if witness is None else sorted(witness.U),
                         str(chain.translate_w), [str(m) for m in chain.members],
                         oracle])
    return result, ok


def _certify_all(sets, indices) -> list[tuple[int, str, bool]]:
    return [(i, *certify(*sets[i])) for i in indices]


_worker_inputs: Inputs | None = None   # inherited by the pool workers


def _wait_ready(_) -> None:
    time.sleep(0.1)   # long enough that every worker takes one call


def _certify_stride(task: tuple[int, int]) -> list[tuple[int, str, bool]]:
    start, step = task
    sets = _worker_inputs.sets
    return _certify_all(sets, range(start, len(sets), step))


@dataclass(frozen=True)
class ChainsWorkload:
    name: str
    sizes: dict                       # scale -> sets per space
    unit: str
    pinned: dict

    def inputs(self, seed: int, scale: str) -> Inputs:
        # Sizes cycle through 1..|pool| so every seed gets the same mix of
        # small and large sets; the seed picks the members.
        rng = random.Random(seed)
        pools = [(q, list(all_vectors(field_new(q), ell)))
                 for q, ell in CHAIN_SPACES]
        sets = tuple((q, rng.sample(pool, 1 + i % len(pool)))
                     for i in range(self.sizes[scale]) for q, pool in pools)
        return Inputs(seed, scale, len(sets), len(sets), sets=sets)

    @contextlib.contextmanager
    def executor(self, inputs: Inputs, workers: int):
        """A pool whose workers hold the inputs, started before timing.

        The workers are forked, as ldlab's own pool is: a spawn pool also
        starts multiprocessing's resource tracker, a process that ends
        only after the benchmark has exited.  Every worker has ended
        when this returns.
        """
        global _worker_inputs
        if workers <= 1:
            yield None
            return
        _worker_inputs = inputs
        pool = multiprocessing.get_context("fork").Pool(workers)
        try:
            pool.map(_wait_ready, range(workers), chunksize=1)
            yield pool
        except BaseException:
            pool.terminate()
            raise
        else:
            pool.close()
        finally:
            pool.join()
            _worker_inputs = None

    def job(self, inputs: Inputs, workers: int, executor=None) -> Output:
        if executor is None:
            done = _certify_all(inputs.sets, range(len(inputs.sets)))
        else:
            parts = executor.map(_certify_stride,
                                 [(w, workers) for w in range(workers)],
                                 chunksize=1)
            done = sorted(r for part in parts for r in part)
        items = [result for _, result, _ in done]
        return Output("\n".join(items) + "\n", items,
                      {i for i, _, ok in done if not ok})

    def problems(self, inputs: Inputs, out: Output) -> list[str]:
        if len(out.items) != len(inputs.sets):
            return [f"{len(out.items)} results for {len(inputs.sets)} sets"]
        return []


SPAN = CliWorkload(
    "span-q3", 3,
    ("span-exp", "--q", "3", "--n", "32", "--p", "1/4", "--ell", "6"),
    "--trials", {"full": 100, "smoke": 8}, 1, "trials",
    {"kind": "span-summary", "q": 3, "n": 32, "p": "1/4", "ell": 6,
     "radius": 8},
    _check_span,
    {"full": "4ba0b610e84b60cdea1de7e530611f197b3d85563846738596403c8c53b3ca72",
     "smoke": "f948ff1f7c7edbf7b62d7a239f6b31777a0adaa04a1141f88800400dccfd422c"})

PAIR_SUM = CliWorkload(
    "pair-sum-q2", 2,
    ("pair-sum", "--q", "2", "--p", "1/10", "--n-list", "20,40,80"),
    "--trials", {"full": 2000, "smoke": 40}, 6, "trials x grid cells",
    {"kind": "pair-sum-summary", "q": 2, "p": "1/10",
     "n_values": [20, 40, 80]},
    _check_pair_sum,
    {"full": "85a20a8eb89887b950a47f6b967a6a2e5fb521ad17b99f793f6fc53bff69af15",
     "smoke": "63ead7beb10fb6e1e484f5606171a638cb1865f2d32bd251628c976751724223"})

RATE_SWEEP = CliWorkload(
    "rate-sweep-q2", 2,
    ("rate-sweep", "--q", "2", "--n", "18", "--p", "1/6",
     "--eps", "1/20,1/10,1/5"),
    "--codes", {"full": 5, "smoke": 1}, 3, "codes checked",
    {"kind": "sweep-summary", "q": 2, "n": 18, "p": "1/6",
     "eps_grid": ["1/20", "1/10", "1/5"]},
    _check_rate_sweep,
    {"full": "c5c20df5ea690962fefee4660100ae509e966a1482f935ec4b14abd536a002d0",
     "smoke": "ec490dddeef57dec0066e237c3e1db846a44920f7e168f672e6abec76e59f324"})

CHAINS = ChainsWorkload("chains", {"full": 500, "smoke": 10},
                        "sets certified",
                        {"full": "a2367acb6c9e19bbfb29d942485d0f998be4fcfe15ae48394c19d02b010bb37b",
                         "smoke": "056a3be423d93bf080c2603373720d29faa20259b58471768b634d843f1e97fe"})

WORKLOADS = {w.name: w for w in (SPAN, PAIR_SUM, RATE_SWEEP, CHAINS)}


def failures(workload, inputs: Inputs, out: Output,
             ref: Output) -> tuple[int, list[str]]:
    """Failed operations of one job, and why.

    A job fails whole when its output differs from the pinned digest at
    DEFAULT_SEED or fails its own checks; otherwise each operation fails
    that failed inside the job or differs from the same operation in
    `ref`, an earlier job of the same run.
    """
    ops = inputs.ops
    pin = workload.pinned.get(inputs.scale) if inputs.seed == DEFAULT_SEED else ""
    if pin and digest(out.text) != pin:
        return ops, [f"output digest {digest(out.text)} is not the pinned {pin}"]
    problems = workload.problems(inputs, out)
    if problems:
        return ops, problems
    bad = out.bad | {i for i, (a, b) in enumerate(zip(out.items, ref.items))
                     if a != b}
    if not bad:
        return 0, []
    return len(bad), [f"{len(bad)} of {ops} operations failed or differ "
                      f"from the run's first job, first at {min(bad)}"]
