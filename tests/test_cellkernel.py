"""Contract of the per-block kernel (repro.core.cellkernel): ``blocks`` cuts
the cells into weight-balanced runs, ``per_block`` ships each block exactly
the rows its ``need`` table lists, ``pairs_within`` finds every pair within
eps; and the two block functions, MarkCore's and ClusterCore's (which also
finds the border links), called without Spark on one block that holds every
cell, match brute force, and MarkCore's makes one distance block per cell."""
from contextlib import contextmanager

import numpy as np
import pandas as pd
import pytest

from repro.core import cellgraph, grid, mark_core
from repro.core.border import cluster_border
from repro.core.cellkernel import CellTable, blocks, pairs_within, per_block
from repro.core.reference import dbscan_brute
from repro.primitives.unionfind import UnionFind


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


def test_pairs_within_matches_brute_force():
    rng = np.random.default_rng(0)
    q, p = rng.random((1500, 2)), rng.random((4200, 2))
    assert len(q) > (1 << 22) // len(p)  # q spans more than one block
    i, j = pairs_within(q, p, 0.05)
    want = np.nonzero(((q[:, None, :] - p[None, :, :]) ** 2).sum(axis=2) <= 0.05**2)
    assert np.array_equal(i, want[0]) and np.array_equal(j, want[1])
    for a, b in ((q[:0], p), (q, p[:0])):
        i, j = pairs_within(a, b, 0.05)
        assert len(i) == len(j) == 0 and i.dtype == j.dtype == np.int64


def _one_block(pts, eps):
    """The grid cells of ``pts`` and the rows of one block holding them all:
    (cells, pdf with id, cell, x*, home=True)."""
    d = pts.shape[1]
    side = grid.cell_side(eps, d)
    coords, cell = np.unique(np.floor(pts / side).astype(np.int64), axis=0, return_inverse=True)
    cell = cell.ravel()
    table = pd.DataFrame(coords, columns=grid.ccols(d))
    table.insert(0, "cell", np.arange(len(coords)))
    table["cnt"] = np.bincount(cell, minlength=len(coords))
    for j in range(d):
        table[f"lo{j}"] = coords[:, j] * side
    table["side"] = side
    pdf = pd.DataFrame(pts, columns=grid.xcols(d)).assign(id=np.arange(len(pts)), cell=cell)
    return CellTable(table, grid.neighbor_pairs(table, d)), pdf.assign(home=True)


@pytest.mark.parametrize("use_quadtree", [False, True])
def test_mark_block_one_count_per_sparse_cell(monkeypatch, use_quadtree):
    pts = np.random.default_rng(4).random((400, 2)) * 20.0
    eps, min_pts = 1.5, 10
    cells, pdf = _one_block(pts, eps)
    calls = []
    count = mark_core.count_within
    monkeypatch.setattr(mark_core, "count_within", lambda *a: calls.append(1) or count(*a))
    out = mark_core._mark_block(cells, 2, eps, min_pts, use_quadtree)(0, pdf)
    assert out["is_core"].to_numpy().tolist() == dbscan_brute(pts, eps, min_pts)[0].tolist()
    sparse = np.flatnonzero(cells.pdf["cnt"].to_numpy() < min_pts)
    assert np.isin(cells.pairs["cell"], sparse).sum() > 4 * len(sparse) > 0  # many neighbours
    assert len(calls) == len(sparse)


def _cluster_block(pts, eps, min_pts):
    """Run ClusterCore's block function on one block holding every cell, with
    every neighbouring core-cell pair as a candidate edge once, in cell
    order; returns (out, cells, cell, core, g, h)."""
    core, _ = dbscan_brute(pts, eps, min_pts)
    cells, pdf = _one_block(pts, eps)
    cell, m = pdf["cell"].to_numpy(), len(cells.pdf)
    core_cnt = np.bincount(cell[core], minlength=m)
    g, h = cells.pairs["cell"].to_numpy(), cells.pairs["ncell"].to_numpy()
    keep = (core_cnt[g] > 0) & (core_cnt[h] > 0) & (g > h)
    fn = cellgraph._cluster_block(
        g[keep], h[keep], np.zeros(m, dtype=np.int64), cells, pts.shape[1], eps, "bcp", 0.01
    )
    return fn(0, pdf.assign(is_core=core)), cells, cell, core, g[keep], h[keep]


def test_cluster_block_edges_and_links_match_brute_force():
    """Edge rows: the edges a walk in order checks, skipping an edge whose
    cells its connected edges already join, each with its brute-force
    connectivity.  Link rows: each non-core point once, with the sorted set
    of cells that hold a core point within eps of it (``[]`` for noise)."""
    pts = np.random.default_rng(5).random((400, 2)) * 20.0
    eps = 1.5
    out, cells, cell, core, g, h = _cluster_block(pts, eps, 8)
    near = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2) <= eps * eps
    uf, want = UnionFind(len(cells.pdf)), []
    for e, (a, b) in enumerate(zip(g, h)):
        if uf.connected(a, b):
            continue
        want.append((e, bool(near[np.ix_((cell == a) & core, (cell == b) & core)].any())))
        if want[-1][1]:
            uf.union(a, b)
    edges, links = out[out["edge"]], out[~out["edge"]]
    assert list(zip(edges["id"], edges["connected"])) == want
    assert 0 < sum(c for _, c in want) < len(want) < len(g)  # some skipped, some unconnected
    assert sorted(links["id"]) == np.flatnonzero(~core).tolist()
    for i, got in zip(links["id"], links["cells"]):
        assert got == sorted(set(cell[core & near[i]].tolist()))
    assert (links["cells"].map(len) == 0).any() and (links["cells"].map(len) > 1).any()


def test_border_block_labels_sorted_and_noise_empty(spark):
    """A border point within eps of two clusters gets both labels, sorted,
    although its lower-numbered neighbour cells hold the larger label; noise
    gets none."""
    left = np.stack([np.linspace(-4.0, 0.0, 40), np.zeros(40)], axis=1)
    right = np.stack([np.linspace(10.0, 14.0, 40), np.zeros(40)], axis=1)
    # labels are min core ids: right 0, left 40; bridge 80 and noise 81
    pts = np.vstack([right, left, [[5.0, 0.0], [100.0, 100.0]]])
    eps, min_pts = 5.0, 40
    _, labels = dbscan_brute(pts, eps, min_pts)
    out, cells, cell, core, _, _ = _cluster_block(pts, eps, min_pts)
    cluster = np.full(len(cells.pdf), -1, dtype=np.int64)
    cluster[cell[core]] = [min(labels[i]) for i in np.flatnonzero(core)]
    links = out[~out["edge"]]
    assert dict(zip(links["id"], links["cells"].map(lambda c: cluster[c].tolist()))) == {
        80: [40, 0], 81: []
    }
    flagged = spark.createDataFrame(
        pd.DataFrame({"id": np.arange(len(pts)), "cell": cell, "is_core": core}),
        "id long, cell long, is_core boolean",
    )
    res = cluster_border(spark, flagged, cluster, spark.createDataFrame(out, cellgraph.PASS_SCHEMA))
    got = {r["id"]: r["clusters"] for r in res.where("not is_core").collect()}
    assert got == {80: [0, 40], 81: []}
