"""The layer harness `bench/layers.py` still runs and still computes what
was recorded: it is imported from its file, each layer's smallest rows
run once, and their digests are compared with those in the `BENCH_*.json`
records, so neither the harness nor the code it measures can drift
unnoticed."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location(
        "bench_layers", REPO / "bench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(layers, layer: str, params: tuple) -> dict:
    """The printed row of the table's case (layer, params), one repeat."""
    case = next(case for case in layers.CASES
                if (case.layer, case.params) == (layer, params))
    out = layers.measure(case, repeats=1)
    assert out["layer"] == layer
    return out


SPAN_DIGESTS = {  # BENCH_18.json
    (2, 8, 10, "1/4", 10):
        "d7c83006c19013665a8e71096e20159e74de349d4e0f301d5f47e6a2cebe1289",
    (16, 10, 3, "1/5", 10):
        "88d506426f58f55a0fc2810023ebd81d7ae9e434a42ae0010e908c76aae577e6",
    # the q = 3 rows, counted on two bit planes: the span-q3 trial and a
    # span of several gfq._BATCH slices
    (3, 32, 6, "1/4", 40):
        "019fdedcbda0e2fa132b023e3ff6a5b55463d219328f164b47225fd280345d3c",
    (3, 20, 9, "1/5", 4):
        "20bec632eadac17ea9754dc78074ffb57914c75ab6969c97c63c3e16b24c01cd",
    # the general-q count: a prime field's SWAR steps and F_9's steps on
    # the F_3 planes
    (5, 20, 6, "1/4", 4):
        "b80745b3a5df08e0179b4b6da3e5bf8a8cf74cd52427aa16046845895ff8c68c",
    (9, 12, 4, "1/4", 4):
        "02c5db007ce13a0836feace188d18fdf0ec5c7d8799275c85b40176201dd8620",
    # BENCH_28.json: F_9 in 80-bit slots, wider than a machine word
    (9, 20, 5, "1/4", 2):
        "1ed0e400fa1203145b81499d00f453bbecd43e87bc665ba9510d04264d8c9da5"}


@pytest.mark.parametrize("q,n,ell,p,trials", list(SPAN_DIGESTS))
def test_span_layer_rows_run(layers, q, n, ell, p, trials):
    """The span layer's two smallest rows (the q = 2 one has duplicate
    members), its two q = 3 rows, a q = 5 row and two q = 9 rows print the
    digests of their (distinct size, in-ball count) pairs recorded in
    `BENCH_18.json` (the wide-slot q = 9 row in `BENCH_28.json`); the row
    asserts that the trial counts what its parts
    count, q^l / zeros = q^rank and no rank check fails.  Each counts
    (q^l - 1) / (q - 1) slots, one per projective class."""
    out = _run(layers, "span", (q, n, ell, p, trials))
    assert out["q_n_l_p"] == [q, n, ell, p]
    assert out["members"] == q ** ell
    assert out["slots"] == (q ** ell - 1) // (q - 1)
    assert out["sha256"] == SPAN_DIGESTS[(q, n, ell, p, trials)]


@pytest.mark.parametrize("q,n,k,r,digest", [
    (2, 18, 5, 3,
     "baf68052efe547e227a47c5f9eef00ad7948bbbbee16144642f78c0388d20e40"),
    (3, 16, 5, 2,
     "59931f023efcd8c23dabbd0b5bad89716ff8fa711ab49b34e4251b1b747e73b4"),
    (9, 8, 2, 2,
     "a80683d0b91413e816f2cf5e1c9ed5169cb74d4335b2cb05265d3c9fc0025f68"),
    (5, 14, 4, 3,
     "239578f74d7971c7dfb93e2d7fdf68fd977d48c38e3702521849fd96fd45e978")])
def test_tally_layer_rows_keep_their_digests(layers, q, n, k, r, digest):
    """The tally layer's two smallest rows, and the q = 9 and q = 5 rows,
    whose ball walks add whole blocks on the F_3 planes and in SWAR
    lanes, print the SHA-256 of their sorted tallies recorded in
    `BENCH_13.json`, which pins every coset label and count of those
    codes byte for byte."""
    out = _run(layers, "tally", (q, n, k, r))
    assert out["q_n_k_r"] == [q, n, k, r]
    assert out["sha256"] == digest


@pytest.mark.parametrize("c,digest", [
    (1, "e241b398af5d6af2e6dbde29c093e27b03720eed39f4fde90ace3821324e03d7"),
    (2, "6843a2460ab5dee1b3a01a83e9db79336171eae0164bdbb40da589cd33e34391"),
    (3, "9e67f0d68b3cfaf05f95162763fff5065ab9eb7fa198c12742cb28cca5313fa4")])
def test_chains_layer_rows_keep_their_digests(layers, c, digest):
    """The chains layer's F_3^3 rows print the digests of their witnesses,
    chains, oracle values and best translates recorded in
    `BENCH_12.json`."""
    out = _run(layers, "chains", (3, 3, c))
    assert (out["q"], out["ell"], out["c"]) == (3, 3, c)
    assert out["sha256"] == digest


@pytest.mark.parametrize("function,params,digest", [
    ("uniform_payload", {"q": 2, "n": 20},
     "7603ff434578122eacb9c41b57b0e79015ea2a6d151400a65d0915247277d996"),
    ("uniform_payload", {"q": 2, "n": 40},
     "7b862f1b0c5b7d904b2e210587f6fb3506d01e7848dbb7c64b3041b0f6faaa26"),
    ("uniform_payload", {"q": 2, "n": 80},
     "fb2454fe07a17ade7a621fea71c3950987cd8eee638ebda80919850ef0fa5e03"),
    ("random_code", {"q": 2, "n": 18, "k": 5},
     "206a3023773baa920842db9e6d88f9217f097999bbfec0bb89b4ce3ae67431fd"),
    ("random_code", {"q": 2, "n": 18, "k": 4},
     "40953384370840f508eb12149ef97705c8e3ec8a459d85f650f1902cbc8c70c9"),
    ("random_code", {"q": 2, "n": 18, "k": 2},
     "5d190de722ee641ed8ac90768e7afed5a58ee07138ada528d28ad957818edc4a")])
def test_sampling_layer_rows_draw_the_stdlib_stream(layers, function, params,
                                                    digest):
    """Each `uniform_payload` and `random_code` row's library outputs hash
    to its stdlib form's, and both to the digest in `BENCH_11.json`."""
    out = _run(layers, "sampling", (function, params))
    assert out["function"] == function
    assert out["stdlib_sha256"] == out["ldlab_sha256"] == digest


def test_pair_layer_row_keeps_its_digest(layers):
    """The pair layer's smaller row prints the digest of its nine exact
    probabilities, one per center weight; a brute count of every pair of
    B(0, 2) in F_3^8 gives the same nine."""
    out = _run(layers, "pair", (3, 8, "1/4"))
    assert out["q_n_p"] == [3, 8, "1/4"]
    assert out["calls"] == 9
    assert out["sha256"] == (
        "00bc2b4f1aa76b3dea5249f988ed1f2cb1ae00dcd41d9141b214bcc968a2c8fe")


@pytest.mark.parametrize("shape", ["rate-sweep-q2", "span-q3"])
def test_runner_layer_rows_write_the_workload_records(layers, shape):
    """The runner rows give the same record with every chunk forked, with
    none and under `FORK_FLOOR_S` (the row asserts it), and that record
    hashes to the digest perfbench pins for the workload's job."""
    out = _run(layers, "runner", (shape,))
    assert out["shape"] == [shape]
    assert out["sha256"] == layers.workloads.WORKLOADS[shape].pinned["full"]
