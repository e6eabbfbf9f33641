"""The experiment runner's measuring function and its correctness gate."""
import numpy as np
import pandas as pd

from jobs.common import DATASETS
import jobs.experiments as experiments
from jobs.experiments import BASELINES, FIGURES, MATRIX, WARM_CALLS, Row, check, measure
from repro import synth_data as sd
from repro.baselines.seq_gridbscan import dbscan_seq
from repro.core.dbscan import VARIANTS

# ss-simden at n = 400 (seed 0): 40 core points in 4 clusters, 360 border points.
ROWS = [
    Row("test", "ss-simden", 400, 2, 100.0, "our-exact", min_pts=80),
    Row("test", "ss-simden", 400, 2, 100.0, "our-approx", min_pts=80, rho=0.1),
    Row("test", "ss-simden", 400, 2, 100.0, "pdsdbscan-like", min_pts=80),
]


def test_measure_checks_rows_and_leaves_nothing_cached(spark, monkeypatch):
    """Rows of ours make a cold and WARM_CALLS warm calls, baselines a cold
    and one warm call; ``warm_s`` is the median warm call, ``warm_min_s`` the
    fastest."""
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = persistent().size()
    calls, call = [], experiments._call
    monkeypatch.setattr(
        experiments, "_call", lambda s, df, row: calls.append(row.impl) or call(s, df, row)
    )
    recs = measure(spark, ROWS)
    assert persistent().size() == before
    assert [r["check"] for r in recs] == ["ok"] * len(ROWS)
    per_row = (1 + WARM_CALLS, 1 + WARM_CALLS, 2)  # our-exact, our-approx, pdsdbscan-like
    assert calls == [r.impl for r, k in zip(ROWS, per_row) for _ in range(k)]
    assert len({tuple(r) for r in recs}) == 1  # every record has the same keys
    assert all(r["core_points"] == 40 and r["cold_s"] > 0 for r in recs)
    assert all(0 < r["warm_min_s"] <= r["warm_s"] for r in recs)
    assert recs[2]["warm_min_s"] == recs[2]["warm_s"]
    assert recs[0]["stats"]["n_clusters"] == 4 and recs[2]["stats"] is None


def test_check_reports_a_flipped_core_flag():
    pts = sd.seed_spreader(400, 2, seed=0)
    core, labels = dbscan_seq(pts, 100.0, 80)
    ids = np.arange(len(pts))
    pdf = pd.DataFrame({"id": ids, "is_core": core,
                        "clusters": [tuple(sorted(s)) for s in labels]})
    assert check(pdf, ids, core, labels, exact=True) == "ok"
    assert check(pdf, ids, core, labels, exact=False) == "ok"
    pdf.loc[int(np.flatnonzero(core)[0]), "is_core"] = False
    for exact in (True, False):
        assert check(pdf, ids, core, labels, exact) == "core flags differ at 1 points"


def test_matrix_names_known_figures_datasets_and_impls():
    assert {r.figure for r in MATRIX} == set(FIGURES)
    assert {r.dataset for r in MATRIX} <= set(DATASETS)
    assert {r.impl for r in MATRIX} <= set(VARIANTS) | set(BASELINES)
    assert len(set(MATRIX)) == len(MATRIX) - 1  # Fig. 11's n = 20k row is in both of its tables
