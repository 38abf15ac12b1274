"""How many first-improvement passes are worth paying for.

Runs the first-improvement exchange once per dataset and (k, K) for the
largest iteration count, and reads each count m off the run's per-pass
trace: `mean_s` is the mean time to reach the end of pass m (pool build
included) and `V gain %` the mean generalized-variance gain over the
seed after m passes.  Wall time grows roughly linearly with m while the
gain saturates: most of the improvement arrives in the first few passes.
"""

from subdopt import simulate

cells = simulate.timing_study(ks=[28, 56], Ks=[20, 60],
                              iteration_counts=[1, 3, 5, 10, 20],
                              n=1000, p=7, repetitions=20, rng_seed=0)

print(f"{'k':>4} {'K':>4} {'iters':>6} {'mean_s':>9} {'V gain %':>10}")
for c in cells:
    print(f"{c.k:>4} {c.K:>4} {c.iterations:>6} {c.mean_seconds:>9.4f} "
          f"{c.mean_pct_v_gain:>10.1f}")
