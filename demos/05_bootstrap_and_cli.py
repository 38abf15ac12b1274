"""Bootstrap assessment on a fixed dataset, plus the CLI round trip.

Writes a synthetic CSV next to this script, bootstraps the subdata-fit
MSE against the full-data least-squares reference for several subdata
sizes, and then drives the command-line surface (select + hull) on the
same file.  The CLI writes a manifest that `subdopt replay` can turn
back into byte-identical reports.
"""

import os
import pathlib

import numpy as np

from subdopt import cli, simulate

# Relative paths from the repository root, so the manifests replay from
# any checkout whatever directory this script is run from.
os.chdir(pathlib.Path(__file__).resolve().parent.parent)
csv_path = pathlib.Path("demos/data/synthetic.csv")
csv_path.parent.mkdir(exist_ok=True)

rng = np.random.default_rng(7)
p = 3
x = rng.standard_normal((2_000, p))
y = 1.0 + x @ np.ones(p) + rng.standard_normal(2_000) * np.sqrt(3.0)
header = ",".join(f"x{j + 1}" for j in range(p)) + ",y"
body = "\n".join(",".join(f"{v:.8f}" for v in row) + f",{yy:.8f}"
                 for row, yy in zip(x, y))
csv_path.write_text(header + "\n" + body + "\n")
print(f"wrote {csv_path}")

# bootstrap: how stable is the subdata fit across resamples?
for k in (6 * p, 10 * p, 16 * p, 32 * p):
    report = simulate.bootstrap_mse(x, y, B=50, method="alg1", k=k, K=20,
                                    rng_seed=0, seed_method="iboss")
    agg = report.aggregates()["alg1"]
    print(f"k={k:>3}: bootstrap slope MSE mean "
          f"{agg['mse_slopes']['mean']:.5f} "
          f"(median {agg['mse_slopes']['median']:.5f})")

# the same workflow through the CLI
out = pathlib.Path("demos/output")
cli.main(["select", "--input", str(csv_path), "--response", "y",
          "--method", "valg1", "--k", "40", "--K", "10",
          "--out", str(out / "select")])
cli.main(["hull", "--input", str(csv_path), "--response", "y",
          "--selection", str(out / "select" / "indices.txt"),
          "--pairs", "x1,x2", "x2,x3", "--svg",
          "--out", str(out / "hull")])
print(f"CLI artifacts under {out}")
