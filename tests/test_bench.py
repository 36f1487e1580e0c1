"""The layer harnesses in `bench/` still run: each is imported from its
file and run on its smallest rows, so its built-in assertions check the
library and the harness cannot rot unnoticed."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", REPO / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("q,n,ell,p,trials", [(2, 8, 10, "1/4", 10),
                                              (16, 10, 3, "1/5", 10)])
def test_span_layer_rows_run(q, n, ell, p, trials):
    """The span harness's two smallest rows (the q = 2 one has duplicate
    members) run once; `row` asserts that the trial counts what its parts
    count, q^l / zeros = q^rank and no rank check fails."""
    span_layer = _load("span_layer")
    assert (q, n, ell, p, trials) in span_layer.ROWS
    out = span_layer.row(q, n, ell, p, trials, repeats=1)
    assert out["q_n_l_p"] == [q, n, ell, p]
    assert out["members"] == q ** ell
    assert len(out["sha256"]) == 64


@pytest.mark.parametrize("q,n,k,r,digest", [
    (2, 18, 5, 3,
     "baf68052efe547e227a47c5f9eef00ad7948bbbbee16144642f78c0388d20e40"),
    (3, 16, 5, 2,
     "59931f023efcd8c23dabbd0b5bad89716ff8fa711ab49b34e4251b1b747e73b4")])
def test_tally_layer_rows_keep_their_digests(q, n, k, r, digest):
    """The tally harness's two smallest rows run once and print the
    SHA-256 of their sorted tallies recorded in `BENCH_13.json`, which
    pins every coset label and count of those codes byte for byte."""
    tally_layer = _load("tally_layer")
    assert (q, n, k, r) in tally_layer.ROWS
    out = tally_layer.row(q, n, k, r, repeats=1)
    assert out["q_n_k_r"] == [q, n, k, r]
    assert out["sha256"] == digest
