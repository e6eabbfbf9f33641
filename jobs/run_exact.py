"""Run one DBSCAN variant on one dataset and print timing + cluster stats.

    spark-submit jobs/run_exact.py --dataset ss-simden --n 100000 --d 3 \
        --eps 300 --minpts 100 --variant our-exact
"""
import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from jobs.common import get_spark, load_dataset  # noqa: E402  (puts src on the path)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="ss-simden")
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--eps", type=float, default=300.0)
    ap.add_argument("--minpts", type=int, default=100)
    ap.add_argument("--variant", default="our-exact")
    ap.add_argument("--rho", type=float, default=0.01)
    args = ap.parse_args()

    from repro.core.dbscan import dbscan_variant

    spark = get_spark(f"dbscan-{args.variant}")
    df = load_dataset(spark, args.dataset, args.n, args.d)
    res, stats = dbscan_variant(
        spark, df, args.eps, args.minpts, args.d, args.variant,
        rho=args.rho, return_stats=True,
    )
    print(
        f"RESULT dataset={args.dataset} n={args.n} d={args.d} eps={args.eps} "
        f"minPts={args.minpts} variant={args.variant} "
        f"time={stats['t_total']:.2f}s clusters={stats['n_clusters']} "
        f"cells={stats['n_cells']} edges={stats['n_evaluated']}/{stats['n_candidate_edges']} "
        f"range_pairs={stats['n_range_pairs']} "
        f"phases=cells:{stats['t_cells']:.2f}/mark:{stats['t_markcore']:.2f}/"
        f"graph:{stats['t_clustercore']:.2f}/border:{stats['t_border']:.2f}"
    )
    spark.stop()


if __name__ == "__main__":
    main()
