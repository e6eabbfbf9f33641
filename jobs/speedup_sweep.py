"""Figure 8/9 driver: self-relative speedup across thread counts.

Runs the same workload in fresh Spark sessions at local[1], local[2], ...,
local[P] by spawning a subprocess per thread count (one JVM cannot change
its master), plus the single-threaded numpy serial baseline.

    python jobs/speedup_sweep.py [--n 100000] [--threads 1 2 4 8 16]
"""
import argparse
import os
import subprocess
import sys
import time

sys.path.insert(0, ".")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--eps", type=float, default=300.0)
    ap.add_argument("--minpts", type=int, default=100)
    ap.add_argument("--threads", type=int, nargs="+", default=[1, 2, 4, 8, 16])
    args = ap.parse_args()

    # Serial numpy baseline (Gan&Tao-v2 stand-in).
    from repro import synth_data as sd_mod
    from repro.baselines.seq_gridbscan import dbscan_seq

    pts = sd_mod.seed_spreader(args.n, args.d, seed=2)
    t0 = time.perf_counter()
    dbscan_seq(pts, args.eps, args.minpts)
    t_serial = time.perf_counter() - t0
    print(f"FIG8 impl=seq-gridbscan threads=1 time={t_serial:.2f}s")

    for k in args.threads:
        env = dict(os.environ, SPARK_MASTER=f"local[{k}]")
        out = subprocess.run(
            [sys.executable, "jobs/run_exact.py", "--dataset", "ss-simden",
             "--n", str(args.n), "--d", str(args.d), "--eps", str(args.eps),
             "--minpts", str(args.minpts), "--variant", "our-exact"],
            env=env, capture_output=True, text=True,
        )
        line = next((l for l in out.stdout.splitlines() if l.startswith("RESULT")), out.stderr[-200:])
        print(f"FIG8 threads={k} {line}")


if __name__ == "__main__":
    main()
