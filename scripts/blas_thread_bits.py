"""Whether the pretrain step's reduction-heavy float32 products depend on BLAS threads.

Compare the sha256 prefixes that `OPENBLAS_NUM_THREADS=N python3 scripts/blas_thread_bits.py`
prints for N = 1 and N = 2.
"""
import hashlib
import numpy as np

rng = np.random.default_rng(0)
f = lambda *shape: rng.standard_normal(shape, dtype=np.float32)
a, g, g2, w, x, e = f(900, 256), f(900, 1024), f(870, 3412), f(256, 3412), f(900, 1024), f(870, 3412)
for name, v in {
    "a.T @ g, 900 rows": a.T @ g, "g @ W.T, K = 3412": g2 @ w.T,
    "[900, 1024] row sums, GEMV with ones": x @ np.ones(1024, np.float32),
    "[870, 3412] row sums, GEMV with ones": e @ np.ones(3412, np.float32),
    "[870, 3412] column sums, GEMV with ones": np.ones(870, np.float32) @ e,
    "[900, 1024] row sums, np.sum": x.sum(axis=1), "[870, 3412] column sums, np.sum": e.sum(axis=0),
}.items():
    print(hashlib.sha256(v.tobytes()).hexdigest()[:12], name)
