import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dpaccel
from dpaccel.harness import ExperimentConfig, build_objective
from dpaccel.objectives import (
    _SOFTPLUS_CAP,
    _TILE,
    _VALUES_BLOCK,
    Dataset,
    LogisticObjective,
    _sigmoid,
    generate_synthetic,
)


def small_logistic(seed=0, d=5, n=60, u_max=4.0, lam=0.05):
    return LogisticObjective(generate_synthetic(d, n, u_max, seed), lam)


def test_synthetic_row_norms():
    data = generate_synthetic(8, 500, 10.0, 3)
    norms = np.abs(data.U).sum(axis=1)
    assert norms.max() <= 10.0 * (1 + 1e-12)
    assert norms.min() >= 5.0 * (1 - 1e-12)
    assert set(np.unique(data.z)) <= {-1.0, 1.0}
    assert data.x_true.shape == (8,)


def test_synthetic_deterministic():
    a = generate_synthetic(4, 50, 2.0, 9)
    b = generate_synthetic(4, 50, 2.0, 9)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.z, b.z)
    c = generate_synthetic(4, 50, 2.0, 10)
    assert not np.array_equal(a.U, c.U)


def test_synthetic_labels_follow_model():
    # with a strong signal (large u_max), labels should mostly agree with
    # sign(U @ x_true) at the drawn x_true
    data = generate_synthetic(6, 2000, 36.0, 1)
    agree = np.mean(data.z == np.sign(data.U @ data.x_true))
    assert agree > 0.9


def test_synthetic_labels_pinned():
    # sha256 of the labels drawn through scipy.special.expit: generate_synthetic's
    # steps replayed on one np.random.Generator(np.random.Philox(key=0)), in
    # the same order, with expit(U @ x_true) as the label probabilities.  The
    # numpy sigmoid must draw every one of them the same
    z = generate_synthetic(20, 10_000, 20.0, 0).z
    digest = "fe7bbdcc0ce43b73a4f01f15636de53c4b0435516760d068f207bf7924ff4536"
    assert hashlib.sha256(z.tobytes()).hexdigest() == digest


def reference_sigmoid(v):
    """1 / (1 + e^-v) with libm's exp; 0 where e^-v overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


def test_sigmoid_matches_libm_reference():
    special = [0.0, -0.0, math.inf, -math.inf, -709.7, -709.8]
    x = np.concatenate([np.linspace(-800.0, 800.0, 160_001), special])
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        y = _sigmoid(x)
    ref = np.array([reference_sigmoid(v) for v in x])
    # both are >= 0, where the distance in ulps is the distance of the bit patterns
    assert np.abs(y.view(np.int64) - ref.view(np.int64)).max() <= 4
    assert np.all(y[x < -709.78] == 0.0)
    assert np.all(y[x > 37.0] == 1.0)
    assert 0.0 < y[-2] < 1e-307 and y[-1] == 0.0  # -709.7 and -709.8

    one = _sigmoid(np.float64(0.25))
    assert type(one) is np.float64
    assert abs(one - reference_sigmoid(0.25)) <= 4 * np.spacing(one)


def test_synthetic_validation():
    with pytest.raises(ValueError):
        generate_synthetic(0, 10, 1.0, 0)
    for u_max in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            generate_synthetic(3, 10, u_max, 0)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(U=np.ones((3, 2)), z=np.array([1.0, -1.0, 2.0]), u_max=5.0)
    with pytest.raises(ValueError):
        Dataset(U=np.ones((3, 2)), z=np.ones(3), u_max=1.0)  # rows have L1=2
    with pytest.raises(ValueError):
        Dataset(U=np.ones((3, 2)), z=np.ones(2), u_max=5.0)
    with pytest.raises(ValueError):
        Dataset(U=np.array([[1.0, np.nan]]), z=np.ones(1), u_max=5.0)
    for u_max in (np.nan, np.inf):
        with pytest.raises(ValueError):
            Dataset(U=np.ones((3, 2)), z=np.ones(3), u_max=u_max)


def test_dataset_csv_roundtrip(tmp_path):
    data = generate_synthetic(3, 20, 6.0, 5)
    path = tmp_path / "data.csv"
    data.to_csv(path)
    back = Dataset.from_csv(path)
    assert np.array_equal(back.U, data.U)
    assert np.array_equal(back.z, data.z)
    assert back.u_max == data.u_max
    assert back.seed == 5
    assert np.array_equal(back.x_true, data.x_true)
    assert (tmp_path / "data.meta.json").exists()
    # readable without the sidecar too
    (tmp_path / "data.meta.json").unlink()
    bare = Dataset.from_csv(path)
    assert np.array_equal(bare.U, data.U)
    assert bare.seed is None


def test_logistic_value_known_point():
    # two records, x = 0: F = log(2) + 0
    data = Dataset(U=np.array([[1.0, 0.0], [0.0, 1.0]]), z=np.array([1.0, -1.0]),
                   u_max=1.0)
    obj = LogisticObjective(data, lam=0.5)
    assert obj.value(np.zeros(2)) == pytest.approx(np.log(2.0))
    # and the ridge term adds lam ||x||^2
    x = np.array([1.0, 2.0])
    plain = np.mean(np.logaddexp(0.0, -data.z * (data.U @ x)))
    assert obj.value(x) == pytest.approx(plain + 0.5 * 5.0)


@pytest.mark.parametrize("n", [3000, 70_000])
def test_logistic_values_match_logaddexp_at_large_margins(n):
    # n = 3000 spreads 50 rows over several blocks; n = 70_000 makes every
    # block a single row.  Iterate scales up to 100 push |s| to about 10^3.
    data = generate_synthetic(5, n, 10.0, 1)
    obj = LogisticObjective(data, lam=0.01)
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.0, 1.0, (50, 5)) * np.logspace(-2, 2, 50)[:, None]
    s = data.z * (X @ data.U.T)
    assert np.abs(s).max() > 500.0
    ref = np.logaddexp(0.0, -s).mean(axis=1) + obj.lam * (X**2).sum(axis=1)
    got = obj.values(X)
    assert got.shape == (50,)
    np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)


def uncapped_values(obj, data, X):
    """F by the stable softplus with no cap on |s|, each row summed pairwise."""
    s = data.z * (X @ data.U.T)
    with np.errstate(under="ignore"):
        loss = np.maximum(-s, 0.0) + np.log1p(np.exp(-np.abs(s)))
    return loss.sum(axis=1) / obj.n + obj.lam * np.einsum("ij,ij->i", X, X)


def test_logistic_values_exact_at_underflowing_margins():
    # Margins of both signs reach |s| from 700 to 10^4, where exp(-|s|) is
    # subnormal or zero.  values caps |s| before exp; F must keep every bit.
    data = generate_synthetic(5, 3000, 10.0, 4)
    obj = LogisticObjective(data, lam=0.01)
    rng = np.random.default_rng(5)
    X = rng.choice([-1.0, 1.0], (40, 5)) * np.logspace(np.log10(150.0), 3.0, 40)[:, None]
    s = data.z * (X @ data.U.T)
    big = np.abs(s) >= 700.0
    assert (s[big] > 745.0).any() and (s[big] < -745.0).any()
    assert big.mean() > 0.3 and np.abs(s).max() > 9e3
    assert np.array_equal(obj.values(X), uncapped_values(obj, data, X))

    # Separable labels and a tiny ridge: every margin is positive and F is
    # 0.01 to 0.08, so a cap as low as 40 would already move F by ulps.
    data = generate_synthetic(5, 3000, 10.0, 4)
    z = np.sign(data.U @ data.x_true)
    separable = Dataset(U=data.U, z=z, u_max=10.0)
    obj = LogisticObjective(separable, lam=1e-6)
    X = np.outer(np.linspace(2.0, 40.0, 20), data.x_true)
    assert np.array_equal(obj.values(X), uncapped_values(obj, separable, X))


def test_value_is_first_row_of_values():
    rng = np.random.default_rng(2)
    obj = small_logistic(d=3)
    for _ in range(5):
        x = rng.normal(size=3) * 10.0
        got = obj.value(x)
        assert isinstance(got, float)
        assert got == obj.values(x[None])[0]


def unfolded_gradient(data, lam, x, idx):
    """The mean gradient from U and z on one zero-padded tile with x in row
    0, with the margins' signs applied as passes of their own: z * (P @ U.T)
    and -(W @ U) / m."""
    U, z = (data.U, data.z) if idx is None else (data.U[idx], data.z[idx])
    P = np.zeros((_TILE, len(x)))
    P[0] = x
    s = z * (P @ U.T)
    W = np.zeros_like(s)
    W[0] = z * _sigmoid(-s[0])
    return -(W @ U)[0] / len(z) + 2.0 * lam * x


def unfolded_values(data, lam, X):
    """values() from U and z, on the same row blocks, with S *= -z."""
    n = len(data.z)
    out = np.empty(len(X))
    rows = max(1, _VALUES_BLOCK // n)
    for lo in range(0, len(X), rows):
        S = X[lo:lo + rows] @ data.U.T
        S *= -data.z
        tail = np.log1p(np.exp(-np.minimum(np.abs(S), _SOFTPLUS_CAP)))
        out[lo:lo + rows] = (np.maximum(S, 0.0) + tail).sum(axis=1) / n
    return out + lam * np.einsum("ij,ij->i", X, X)


@pytest.mark.parametrize("n", [3000, 70_000])
def test_label_fold_is_bitwise_the_unfolded_formulas(n):
    # LogisticObjective keeps the rows -z_i u_i in place of U and z; since
    # round-to-nearest is symmetric under negation, every gradient and value
    # keeps its bits.  x = 0 puts every margin at 0; the other points put
    # record 0's margin at +-40, +-700, +-745.2 (where exp(-|s|) underflows
    # to zero) and +-1e4.
    data = generate_synthetic(5, n, 10.0, 2)
    obj = LogisticObjective(data, lam=0.01)
    u = data.U[0]
    targets = np.array([40.0, 700.0, 745.2, 1e4])
    X = np.vstack([np.zeros(5), np.outer(np.concatenate([targets, -targets]) * data.z[0],
                                         u / (u @ u))])
    s = data.z * (X @ data.U.T)
    np.testing.assert_allclose(s[1:, 0], np.concatenate([targets, -targets]), rtol=1e-12)
    assert np.all(s[0] == 0.0) and (np.abs(s) > 745.2).mean() > 0.1
    idx = np.random.default_rng(0).choice(n, n // 10, replace=False)
    for x in X:
        for rows in (None, idx):
            want = unfolded_gradient(data, obj.lam, x, rows)
            assert obj.minibatch_gradient(x, rows).tobytes() == want.tobytes()
    assert obj.values(X).tobytes() == unfolded_values(data, obj.lam, X).tobytes()


@pytest.mark.parametrize("m", [1000, 10_000])
def test_block_gradient_rows_are_one_point_calls(m):
    # the desk objective at m < n and at m = n: each row of a (k, d) block,
    # at any position in the block, has the bits of the 1-d call at that row.
    # The k cross tile boundaries and, at m = 1000, the row count where
    # OpenBLAS leaves its small-matrix kernel.
    obj = build_objective(ExperimentConfig())
    rng = np.random.default_rng(m)
    idx = rng.choice(obj.n, m, replace=False) if m < obj.n else None
    points = rng.normal(size=(56, obj.d)) * np.logspace(-2, 1, 56)[:, None]
    for shift in (0, 5, 17):
        X = np.roll(points, shift, axis=0)
        ones = np.array([obj.minibatch_gradient(x, idx) for x in X])
        for k in (1, 2, 7, 8, 9, 24, 48, 56):
            block = obj.minibatch_gradient(X[:k], idx)
            assert block.shape == (k, obj.d)
            assert block.tobytes() == ones[:k].tobytes(), (shift, k)


def test_block_gradient_and_values_bytes_ignore_blas_threads():
    # at n = 10^5 one and two BLAS threads give the same block-gradient and
    # values bytes, at m < n and at m = n (full_gradient's GEMVs, and so
    # fstar, still depend on the thread count)
    src = str(Path(dpaccel.__file__).resolve().parents[1])
    code = ("import hashlib, numpy as np\n"
            "from dpaccel.harness import ExperimentConfig, build_objective\n"
            "obj = build_objective(ExperimentConfig(n=100_000))\n"
            "rng = np.random.default_rng(0)\n"
            "X = rng.normal(size=(24, obj.d))\n"
            "h = hashlib.sha256(obj.values(X).tobytes())\n"
            "for idx in (rng.choice(obj.n, 10_000, replace=False), None):\n"
            "    for k in (1, 24):\n"
            "        h.update(obj.minibatch_gradient(X[:k], idx).tobytes())\n"
            "print(h.hexdigest())")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=300)
        digests.append(done.stdout)
    assert digests[0] == digests[1]


def test_logistic_gradient_finite_differences():
    obj = small_logistic()
    rng = np.random.default_rng(0)
    h = 1e-6
    for _ in range(100):
        x = rng.normal(size=obj.d)
        g = obj.full_gradient(x)
        for j in rng.choice(obj.d, size=2, replace=False):
            e = np.zeros(obj.d)
            e[j] = h
            fd = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
            assert abs(fd - g[j]) < 1e-6 * max(1.0, abs(g[j]))


def test_logistic_convexity_sandwich():
    # mu/2 ||x-y||^2 <= F(x) - F(y) - g(y)^T (x-y) <= L/2 ||x-y||^2
    obj = small_logistic(seed=2)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x = rng.normal(scale=2.0, size=obj.d)
        y = rng.normal(scale=2.0, size=obj.d)
        gap = obj.value(x) - obj.value(y) - obj.full_gradient(y) @ (x - y)
        sq = 0.5 * np.sum((x - y) ** 2)
        assert gap >= obj.mu * sq * (1 - 1e-9) - 1e-12
        assert gap <= obj.L * sq * (1 + 1e-9) + 1e-12


def test_logistic_minibatch_full_identity():
    obj = small_logistic(seed=3)
    x = np.linspace(-1, 1, obj.d)
    assert np.allclose(
        obj.minibatch_gradient(x, np.arange(obj.n)), obj.full_gradient(x),
        rtol=1e-12, atol=1e-14,
    )


def test_logistic_minibatch_enumeration():
    # n=4, m=2: average of all 6 subset gradients equals the full gradient
    data = generate_synthetic(3, 4, 2.0, 7)
    obj = LogisticObjective(data, lam=0.1)
    x = np.array([0.3, -0.2, 0.5])
    subsets = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    avg = np.mean([obj.minibatch_gradient(x, np.array(s)) for s in subsets], axis=0)
    assert np.allclose(avg, obj.full_gradient(x), rtol=1e-12, atol=1e-14)
    # and each subset gradient is the mean of its per-record gradients
    for s in subsets:
        per = np.mean([obj.minibatch_gradient(x, np.array([i])) for i in s], axis=0)
        assert np.allclose(per, obj.minibatch_gradient(x, np.array(s)), atol=1e-14)


def test_logistic_sensitivity_bound_holds():
    # worst-case search: grad difference of two records, ridge cancels
    obj = small_logistic(seed=4, u_max=3.0)
    S1 = obj.sensitivity_bound()
    assert S1 == 2 * 3.0
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(300):
        x = rng.normal(scale=5.0, size=obj.d)
        i, j = rng.integers(0, obj.n, size=2)
        diff = obj.minibatch_gradient(x, np.array([i])) - obj.minibatch_gradient(x, np.array([j]))
        worst = max(worst, np.abs(diff).sum())
    assert worst <= S1 * (1 + 1e-12)
    # the bound is within reach: orthogonal rows, both sigmoids saturated
    U = np.array([[3.0, 0.0], [0.0, -3.0]])
    tight = LogisticObjective(Dataset(U=U, z=np.array([1.0, 1.0]), u_max=3.0), 0.1)
    x = np.array([-20.0, 20.0])
    d01 = tight.minibatch_gradient(x, np.array([0])) - tight.minibatch_gradient(x, np.array([1]))
    assert np.abs(d01).sum() > 0.99 * S1


def test_logistic_smoothness_constant():
    data = generate_synthetic(5, 60, 4.0, 5)
    obj = LogisticObjective(data, lam=0.05)
    M = data.U.T @ data.U / obj.n + 2 * obj.lam * np.eye(obj.d)
    assert obj.L == pytest.approx(np.linalg.eigvalsh(M)[-1], rel=1e-6)
    assert obj.mu == 2 * obj.lam
    for lam in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            LogisticObjective(data, lam=lam)


def test_quadratic_basics(quadratic):
    Q = np.diag([0.5, 1.0, 2.0])
    q = np.array([1.0, -1.0, 0.5])
    obj = quadratic(Q, q)
    assert obj.mu == 0.5 and obj.L == 2.0
    assert np.allclose(obj.minimizer, -np.linalg.solve(Q, q))
    assert np.allclose(obj.full_gradient(obj.minimizer), 0.0, atol=1e-12)
    x = np.array([1.0, 2.0, 3.0])
    assert obj.value(x) == pytest.approx(0.5 * x @ Q @ x + q @ x)
    assert obj.value(x) == obj.values(x[None])[0]
    assert np.array_equal(obj.minibatch_gradient(x, np.array([0])), obj.full_gradient(x))
    # fstar is the attained minimum
    rng = np.random.default_rng(3)
    for _ in range(50):
        assert obj.value(obj.minimizer + rng.normal(size=3)) >= obj.fstar


def test_logistic_L_is_top_eigenvalue():
    rng = np.random.default_rng(5)
    for seed in range(10):
        d, n = int(rng.integers(1, 12)), int(rng.integers(2, 200))
        data = generate_synthetic(d, n, 4.0, seed)
        obj = LogisticObjective(data, lam=float(rng.uniform(1e-3, 1.0)))
        M = data.U.T @ data.U / obj.n + 2 * obj.lam * np.eye(obj.d)
        assert obj.L == np.linalg.eigvalsh(M)[-1]
        # no Rayleigh quotient of M exceeds it, and some unit vector attains it
        V = rng.normal(size=(50, d))
        V /= np.linalg.norm(V, axis=1)[:, None]
        assert np.all(np.einsum("ij,jk,ik->i", V, M, V) <= obj.L * (1 + 1e-12))
        top = np.linalg.eigh(M)[1][:, -1]
        assert top @ M @ top == pytest.approx(obj.L, rel=1e-12)
