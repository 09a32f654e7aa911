"""Convergence rate and noise plateau of the stochastic updates.

With a decaying step size a/(b+k) and no noise, the squared distance to
the fixed point decays like 1/k (slope -1 on a log-log plot). Fresh
input noise of scale sigma stops the decay at a plateau whose height
grows like sigma squared: doubling sigma multiplies the plateau by
roughly four.
"""

import numpy as np

from sleepshare import loglog_slope, noise_floor_run
from sleepshare.mathcore import RngStream

[res] = noise_floor_run(n=20, d=9, m=18, gamma=10.0, sigma=0.0,
                        a=0.034, b=50.0, iterations=3000,
                        rngs=[RngStream(0, (11, 0, 0))])
print(f"sigma=0: log-log slope {loglog_slope(res.dist_sq):+.3f} (expect ~ -1)")

prev = None
for sigma in (0.1, 0.2, 0.4):
    # ten seeds as one stack, each on its own stream
    plateaus = [
        r.plateau for r in noise_floor_run(
            20, 9, 18, 10.0, sigma, 16.0, 200.0, 300,
            [RngStream(0, (11, int(sigma * 1e9), s)) for s in range(10)])
    ]
    mean = float(np.mean(plateaus))
    note = "" if prev is None else f"  ratio to previous {mean / prev:.2f}"
    print(f"sigma={sigma}: plateau {mean:.4g}{note}")
    prev = mean
