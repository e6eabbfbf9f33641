"""Contract of the per-block kernel (repro.core.cellkernel): ``blocks`` cuts
the cells into weight-balanced runs, ``per_block`` ships each block exactly
the rows its ``need`` table lists."""
from contextlib import contextmanager

import numpy as np
import pandas as pd
import pytest

from repro.core.cellkernel import blocks, per_block


@contextmanager
def _partitions(spark, k):
    key = "spark.sql.shuffle.partitions"
    saved = spark.conf.get(key)
    spark.conf.set(key, str(k))
    try:
        yield
    finally:
        spark.conf.set(key, saved)


@pytest.mark.parametrize("k", [1, 3, 8, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_blocks_are_balanced_runs(spark, k, seed):
    rng = np.random.default_rng(seed)
    weight = rng.integers(0, 50, 200) * (rng.random(200) < 0.7)
    with _partitions(spark, k):
        block = blocks(spark, weight)
    assert len(block) == len(weight)
    assert (np.diff(block) >= 0).all()
    assert block.min() >= 0 and block.max() < k
    if k == 1:
        assert (block == 0).all()
    per = np.bincount(block, weights=weight, minlength=k)
    assert (per <= weight.sum() / k + weight.max()).all()


def test_blocks_zero_weight(spark):
    with _partitions(spark, 4):
        assert blocks(spark, np.zeros(5, dtype=np.int64)).tolist() == [0] * 5
        assert blocks(spark, np.zeros(0, dtype=np.int64)).tolist() == []


def test_per_block_ships_what_need_lists(spark):
    """Each row reaches exactly the blocks listed for its cell, once each
    despite duplicate ``need`` rows, and ``home`` holds only at the cell's
    own block."""
    block = np.array([0, 0, 1, 2])
    rows = spark.createDataFrame(
        pd.DataFrame({"id": np.arange(8), "cell": np.repeat(np.arange(4), 2)}), "id long, cell long"
    )
    need = pd.DataFrame({
        "cell": [0, 1, 2, 3, 0, 3, 3, 2, 0],
        "block": [0, 0, 1, 2, 1, 1, 1, 0, 0],
    })

    def fn(b, pdf):
        assert (pdf["block"] == b).all()
        return pdf[["id", "cell", "block", "home"]]

    got = per_block(spark, rows, need, block, fn, "id long, cell long, block long, home boolean")
    got = sorted(tuple(r) for r in got.collect())
    want = sorted(
        (i, c, b, b == block[c])
        for c, b in set(zip(need["cell"], need["block"]))
        for i in (2 * c, 2 * c + 1)
    )
    assert got == want
