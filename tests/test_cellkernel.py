"""Contract of the per-block kernel (repro.core.cellkernel): ``blocks`` cuts
the cells into weight-balanced runs, ``per_block`` ships each block exactly
the rows its ``need`` table lists, ``pairs_within`` finds every pair within
eps, ``core_within`` (MarkCore's RangeCount, stopped at minPts) flags as a
full count does with no more distance pairs; and the pass's block function
(MarkCore, ClusterCore and the border links), called without Spark on one
block that holds every cell, matches brute force and makes one distance
block per sparse cell whose neighbours are all small."""
from contextlib import contextmanager

import numpy as np
import pandas as pd
import pytest

from repro.core import cellgraph, cellkernel, grid, mark_core
from repro.core.border import cluster_border
from repro.core.cellkernel import CellTable, blocks, core_within, count_within, pairs_within, per_block
from repro.core.reference import dbscan_brute
from repro.primitives.unionfind import UnionFind
from repro.spatial.quadtree import QuadTree


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


@pytest.mark.parametrize("seed", range(6))
def test_core_within_matches_full_count(seed):
    """On integer points with eps = 5, where many distances equal eps
    exactly, the flags equal a full ``count_within``'s, with the scan or a
    quadtree counting the larger neighbours, and the counts cover no more
    (point, neighbour point) pairs than the full count."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 12, (400, 2)).astype(np.float64)
    cut = np.sort(rng.choice(np.arange(1, 400), 7, replace=False))
    own, *nbrs = np.split(rng.permutation(400), cut)
    assert max(map(len, nbrs)) > cellkernel.SMALL_CELL >= min(map(len, nbrs))
    order = rng.random(len(nbrs))
    lo, side = x.min(axis=0), float(np.ptp(x, axis=0).max()) + 1.0
    trees = [QuadTree(x[r], lo, side) for r in nbrs]

    def tree_count(i, q):
        return np.array([trees[i].range_count(r, 5.0) for r in q], dtype=np.int64)

    full = count_within(x[own], x, 5.0)
    saved = []
    for min_pts in (1, 5, 20, 60, 400):
        for count in (None, tree_count):
            flags, pairs = core_within(x, own, nbrs, order.__getitem__, 5.0, min_pts, count)
            assert flags.tolist() == (full >= min_pts).tolist()
            assert pairs <= len(own) * len(x)
            saved.append(pairs < len(own) * len(x))
    assert any(saved)


def _pass(pts, eps, min_pts, use_quadtree=False):
    """Run the pass's block function on one block holding every cell, edges
    in cell order; returns (out, cells, cell, core) with brute force's core
    flags."""
    core, _ = dbscan_brute(pts, eps, min_pts)
    cells, pdf = _one_block(pts, eps)
    d = pts.shape[1]
    fn = cellgraph._cluster_block(
        mark_core._flag_cells(cells, d, eps, min_pts, use_quadtree),
        np.zeros(len(cells.pdf), dtype=np.int64), cells, d, eps, "bcp", 0.01, False, True,
    )
    return fn(0, pdf), cells, pdf["cell"].to_numpy(), core


@pytest.mark.parametrize("use_quadtree", [False, True])
def test_pass_one_count_per_sparse_cell(monkeypatch, use_quadtree):
    """The point rows carry brute force's core flags, the cell rows each
    cell's core count, and a sparse cell whose neighbours all hold at most
    ``SMALL_CELL`` points makes one distance block over its neighbourhood."""
    pts = np.random.default_rng(4).random((400, 2)) * 20.0
    eps, min_pts = 1.5, 10
    calls = []
    count = cellkernel.count_within
    monkeypatch.setattr(cellkernel, "count_within", lambda *a: calls.append(1) or count(*a))
    out, cells, cell, core = _pass(pts, eps, min_pts, use_quadtree)
    points, per_cell = out[out["kind"] == cellgraph.POINT], out[out["kind"] == cellgraph.CELL]
    assert points["id"].tolist() == list(range(len(pts)))
    assert points["is_core"].tolist() == core.tolist()
    cnt = cells.pdf["cnt"].to_numpy()
    assert per_cell["cell"].tolist() == list(range(len(cnt)))
    assert per_cell["id"].tolist() == np.bincount(cell[core], minlength=len(cnt)).tolist()
    sparse = np.flatnonzero(cnt < min_pts)
    assert cnt.max() <= cellkernel.SMALL_CELL
    assert np.isin(cells.pairs["cell"], sparse).sum() > 4 * len(sparse) > 0  # many neighbours
    assert len(calls) == len(sparse)


def test_cluster_block_edges_and_links_match_brute_force():
    """Edge rows: the candidate edges (responsible cell first: more core
    points, ties by the higher number) a walk in cell order checks,
    skipping an edge whose cells its connected edges already join, each
    with its brute-force connectivity.  Point rows of non-core points: the
    sorted set of cells that hold a core point within eps (``[]`` for
    noise)."""
    pts = np.random.default_rng(5).random((400, 2)) * 20.0
    eps = 1.5
    out, cells, cell, core = _pass(pts, eps, 8)
    near = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2) <= eps * eps
    cc = np.bincount(cell[core], minlength=len(cells.pdf))
    uf, want = UnionFind(len(cells.pdf)), []
    for a, b in zip(cells.pairs["cell"], cells.pairs["ncell"]):  # in (cell, ncell) order
        if not (cc[b] > 0 and (cc[a] > cc[b] or (cc[a] == cc[b] and a > b))):
            continue
        if uf.connected(a, b):
            want.append(None)
            continue
        want.append((a, b, bool(near[np.ix_((cell == a) & core, (cell == b) & core)].any())))
        if want[-1][2]:
            uf.union(a, b)
    edges = out[out["kind"] == cellgraph.EDGE]
    checked = [w for w in want if w is not None]
    assert list(zip(edges["cell"], edges["id"], edges["is_core"])) == checked
    assert 0 < sum(c for *_, c in checked) < len(checked) < len(want)  # some skipped, some unconnected
    links = out[(out["kind"] == cellgraph.POINT) & ~out["is_core"]]
    assert sorted(links["id"]) == np.flatnonzero(~core).tolist()
    for i, got in zip(links["id"], links["cells"]):
        assert list(got) == sorted(set(cell[core & near[i]].tolist()))
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
    out, cells, cell, core = _pass(pts, eps, min_pts)
    cluster = np.full(len(cells.pdf), -1, dtype=np.int64)
    cluster[cell[core]] = [min(labels[i]) for i in np.flatnonzero(core)]
    links = out[(out["kind"] == cellgraph.POINT) & ~out["is_core"]]
    assert dict(zip(links["id"], links["cells"].map(lambda c: cluster[c].tolist()))) == {
        80: [40, 0], 81: []
    }
    rows = spark.createDataFrame(out, cellgraph.PASS_SCHEMA)
    res = cluster_border(spark, None, cluster, rows)
    got = {r["id"]: r["clusters"] for r in res.where("not is_core").collect()}
    assert got == {80: [0, 40], 81: []}
