"""Where does the equalization actually converge?

For a frozen input set the dynamics minimize a quadratic, so the
stationary weights solve a linear system. This script compares three
routes to the same point: the linear solve, plain full-batch descent,
and the biased (finite-alpha) variant against its own closed form.
"""

import numpy as np

from sleepshare import fixed_point, full_batch_descent

rng = np.random.default_rng(2)
n, d, m = 12, 8, 24
w_init = rng.normal(1.0, 1.0, (n, d))
x = rng.normal(1.0, 1.0, (m, d))

for gamma in (1e-1, 1e-3):
    solve = fixed_point(w_init, x, gamma)
    descent = full_batch_descent(w_init, x, gamma)
    rel = np.linalg.norm(descent - solve) / np.linalg.norm(solve)
    print(f"gamma={gamma:g}: descent vs solve relative error {rel:.2e}")

alpha = 10.0
solve_b = fixed_point(w_init, x, 1e-1, alpha=alpha)
descent_b = full_batch_descent(w_init, x, 1e-1, alpha=alpha)
rel_b = np.linalg.norm(descent_b - solve_b) / np.linalg.norm(solve_b)
print(f"biased (alpha={alpha:g}): relative error {rel_b:.2e}")

# with whitened inputs the covariance is the identity and the answer
# reduces to a hand formula
l = np.linalg.cholesky(x.T @ x / m)
xw = x @ np.linalg.inv(l).T
gamma = 0.1
got = fixed_point(w_init, xw, gamma)
mu = w_init.mean(axis=0)
hand = (mu[None, :] + gamma * w_init) / (1.0 + gamma)
print(f"whitened inputs, hand formula error {np.abs(got - hand).max():.2e}")
