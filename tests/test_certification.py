"""Certificate assembly, grid search, and quadratic rate reports."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dpaccel.certification import (
    Certificate,
    CertificateGrid,
    certificate_matrix,
    eval_shb_bound,
    noise_bound,
    quadratic_bound,
    quadratic_rate,
    search_certificate,
)
from dpaccel.certification import (
    _PRUNE_MARGIN,
    _amplification,
    _compact,
    _sym2_min,
    _sym3_eigvals_parts,
)

# ---------------------------------------------------------------------------
# _sym3_eigvals_parts


def test_sym3_matches_lapack_on_random():
    # the six entries, scalar or broadcast, make the matrix eigvalsh solves
    rng = np.random.default_rng(0)
    G = rng.normal(size=(300, 3, 3)) * 10.0 ** rng.integers(-6, 7, (300, 1, 1))
    M = 0.5 * (G + G.transpose(0, 2, 1))
    want = np.linalg.eigvalsh(M)
    parts = [M[:, i, j] for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))]
    for i in range(0, 300, 30):
        assert list(_sym3_eigvals_parts(*(float(v[i]) for v in parts))) == want[i].tolist()
    got = _sym3_eigvals_parts(np.stack([parts[0], parts[0]]), *parts[1:])
    for g in np.stack(got, axis=-1):
        assert np.array_equal(g, want)


def test_sym3_nearly_repeated_matches_lapack():
    # rotated diag(a, a(1 +- delta), b) with delta from 1e-16 to 1e-6: every
    # matrix gets bitwise the same eigenvalues in any batch, as the pruned
    # search's small batches and the unpruned reference's whole grid must
    rng = np.random.default_rng(7)
    k = 5000
    a, b = rng.uniform(-10.0, 10.0, (2, k))
    delta = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-16.0, -6.0, k)
    Q = np.linalg.qr(rng.normal(size=(k, 3, 3)))[0]
    M = np.einsum("kij,kj,klj->kil", Q, np.stack([a, a * (1 + delta), b], axis=1), Q)
    M = 0.5 * (M + M.transpose(0, 2, 1))
    parts = (M[:, 0, 0], M[:, 0, 1], M[:, 0, 2], M[:, 1, 1], M[:, 1, 2], M[:, 2, 2])
    whole = np.stack(_sym3_eigvals_parts(*parts), axis=1)
    assert np.array_equal(whole, np.linalg.eigvalsh(M))
    for size in (1, 3, 221):
        got = np.concatenate([
            np.stack(_sym3_eigvals_parts(*(v[i:i + size] for v in parts)), axis=1)
            for i in range(0, k, size)
        ])
        assert np.array_equal(got, whole)


# ---------------------------------------------------------------------------
# noise_bound


def test_noise_bound_full_batch():
    nb = noise_bound(40.0, 100_000, 100_000, 0.5, 20)
    assert nb.subsample_var == 0.0
    want_lap = 2.0 * 20 * 40.0**2 / (100_000 * 0.5) ** 2
    assert nb.laplace_var == pytest.approx(want_lap, rel=1e-15)
    assert nb.total == nb.laplace_var
    assert nb.b == pytest.approx(40.0 / (100_000 * 0.5), rel=1e-15)


def test_noise_bound_subsampling_oracle():
    # (S1^2/4)(1/m)(n-m)/(n-1) at S1=40, m=1e3, n=1e5 = 0.396003960039600396
    nb = noise_bound(40.0, 1_000, 100_000, 0.69568, 20)
    assert nb.subsample_var == pytest.approx(0.396003960039600396, rel=1e-13)
    want_lap = 2.0 * 20 * 1600.0 / (1_000 * 0.69568) ** 2
    assert nb.laplace_var == pytest.approx(want_lap, rel=1e-15)
    assert nb.total == pytest.approx(nb.subsample_var + nb.laplace_var, rel=1e-15)


def test_noise_bound_validation():
    with pytest.raises(ValueError):
        noise_bound(40.0, 2_000, 1_000, 0.5, 20)
    with pytest.raises(ValueError):
        noise_bound(40.0, 100, 1_000, 0.0, 20)
    with pytest.raises(ValueError):
        noise_bound(0.0, 100, 1_000, 0.5, 20)
    with pytest.raises(ValueError):
        noise_bound(40.0, 100, 1_000, 0.5, 0)
    with pytest.raises(ValueError):
        noise_bound(40.0, 0, 1_000, 0.5, 20)


# ---------------------------------------------------------------------------
# certificate_matrix


def test_certificate_matrix_zero_candidate():
    M = certificate_matrix(1.0, 0.0, 0.5, 1.0, 0.8, np.zeros((2, 2)), 0.0, 0.0)
    assert np.array_equal(M, np.zeros((3, 3)))


def test_certificate_matrix_symmetric_for_random_inputs():
    rng = np.random.default_rng(2)
    for _ in range(50):
        alpha = rng.uniform(0.05, 2.0)
        beta = rng.uniform(0.0, 0.95)
        mu = rng.uniform(0.1, 1.0)
        L = mu + rng.uniform(0.0, 5.0)
        rho = rng.uniform(0.1, 0.99)
        G = rng.normal(size=(2, 2))
        P = G @ G.T
        M = certificate_matrix(alpha, beta, mu, L, rho, P, rng.uniform(0, 3), rng.uniform(0, 3))
        assert np.array_equal(M, M.T)


def test_certificate_matrix_hand_oracle():
    # (alpha, beta, mu, L, rho, P, c0, c) = (1, 0, 0.5, 1, 0.8, I, 1, 1),
    # assembled a second time from scratch
    alpha, beta, mu, L, rho = 1.0, 0.0, 0.5, 1.0, 0.8
    A = np.array([[1.0 + beta, -beta], [1.0, 0.0]])
    B = np.array([[alpha], [0.0]])
    P = np.eye(2)
    phi = np.block([
        [A.T @ P @ A - rho**2 * P, A.T @ P @ B],
        [(A.T @ P @ B).T, B.T @ P @ B],
    ])
    X0 = np.array([[2 * mu * L, 0, -(mu + L)], [0, 0, 0], [-(mu + L), 0, 2.0]])
    X1 = 0.5 * np.array([[0.0, 0, 0], [0, 0, 0], [0, 0, alpha * (2 - L * alpha)]])
    X2 = 0.5 * np.array([[mu, 0, -1.0], [0, 0, 0], [-1.0, 0, 0]])
    want = X0 + (X1 + (1 - rho**2) * X2) - phi

    got = certificate_matrix(alpha, beta, mu, L, rho, P, 1.0, 1.0)
    np.testing.assert_allclose(got, want, atol=1e-15)
    frozen = np.array([[-0.27, 0.0, -2.68], [0.0, 0.64, 0.0], [-2.68, 0.0, 1.5]])
    np.testing.assert_allclose(got, frozen, atol=1e-12)


def test_certificate_matrix_validation():
    P = np.eye(2)
    with pytest.raises(ValueError):
        certificate_matrix(1.0, 0.0, 0.5, 1.0, 0.8, np.array([[1.0, 0.5], [0.0, 1.0]]), 1, 1)
    with pytest.raises(ValueError):
        certificate_matrix(1.0, 0.0, 2.0, 1.0, 0.8, P, 1, 1)  # mu > L
    with pytest.raises(ValueError):
        certificate_matrix(1.0, 0.0, 0.0, 1.0, 0.8, P, 1, 1)
    with pytest.raises(ValueError):
        certificate_matrix(-1.0, 0.0, 0.5, 1.0, 0.8, P, 1, 1)
    with pytest.raises(ValueError):
        certificate_matrix(1.0, 0.0, 0.5, 1.0, 0.8, P, -1, 1)
    with pytest.raises(ValueError):
        certificate_matrix(1.0, 0.0, 0.5, 1.0, 0.0, P, 1, 1)


# ---------------------------------------------------------------------------
# search_certificate


def _recheck(cert, alpha, beta, mu, L):
    M = certificate_matrix(alpha, beta, mu, L, cert.rho, cert.P, cert.c0, cert.c)
    return np.linalg.eigvalsh(0.5 * (M + M.T))[0]


def test_search_gd_regime_certifiable():
    cert = search_certificate(alpha=1.0, beta=0.0, mu=0.5, L=1.0)
    assert cert is not None
    # recorded outcome on the frozen default grid: function-gap contraction
    # by 1 - mu/L per step, i.e. rho**2 = 0.5, rounded up to the grid
    assert cert.rho == 0.71
    assert cert.c > 0.0
    assert cert.slack >= -1e-9
    assert _recheck(cert, 1.0, 0.0, 0.5, 1.0) >= -1.1e-9
    assert np.linalg.eigvalsh(cert.P)[0] >= -1e-12
    json.dumps(cert.as_dict())  # serializable report


def test_search_kappa_one_certifiable_at_grid_minimum():
    cert = search_certificate(alpha=1.0, beta=0.0, mu=1.0, L=1.0)
    assert cert is not None
    assert cert.rho == 0.5
    assert _recheck(cert, 1.0, 0.0, 1.0, 1.0) >= -1.1e-9


def test_search_degenerate_grid_returns_trivial_tuple():
    g = CertificateGrid(
        rho=np.array([0.999999]),
        p11=np.array([0.0]), p12=np.array([0.0]), p22=np.array([0.0]),
        c0=np.array([0.0]), c=np.array([0.0]),
    )
    cert = search_certificate(1.0, 0.0, 0.5, 1.0, grid=g)
    assert cert is not None
    assert cert.rho == 0.999999
    assert cert.c0 == 0.0 and cert.c == 0.0
    assert np.array_equal(cert.P, np.zeros((2, 2)))
    assert cert.slack == 0.0
    assert cert.noise_amplification == 1.0


def test_search_infeasible_returns_none():
    assert search_certificate(alpha=10.0, beta=0.999, mu=0.5, L=1.0) is None


def test_search_tiny_stepsize_warns_nothing():
    # alpha L = 1e-300: off-diagonal entries vanish against the diagonal gap,
    # which once overflowed a rotation angle and leaked RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = search_certificate(2e-300, 0.5, 0.5, 0.5)
    assert cert.rho == 0.5 and cert.c == 0.0


def test_search_skips_vacuous_tuples_on_default_grid():
    # P = 0 with c = 0 satisfies the inequality at every rho but certifies
    # nothing; the default search must never return it
    configs = [
        (1.0, 0.0, 0.5, 1.0),
        (0.5, 0.3, 0.5, 1.0),
        (0.05, 0.9, 0.5, 1.0),
        (10.0, 0.999, 0.5, 1.0),
    ]
    for alpha, beta, mu, L in configs:
        cert = search_certificate(alpha, beta, mu, L)
        if cert is None:
            continue
        assert cert.c > 0.0 or np.any(cert.P != 0.0)


def test_search_results_pass_independent_recheck():
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(8):
        mu = rng.uniform(0.2, 0.8)
        L = mu + rng.uniform(0.2, 2.0)
        alpha = rng.uniform(0.1, 1.0) / L
        beta = rng.uniform(0.0, 0.4)
        cert = search_certificate(alpha, beta, mu, L)
        if cert is None:
            continue
        found += 1
        assert 0.0 < cert.rho < 1.0
        assert cert.noise_amplification >= 1.0
        assert np.linalg.eigvalsh(cert.P)[0] >= -1e-12
        assert _recheck(cert, alpha, beta, mu, L) >= -1.1e-9
    assert found >= 4  # small-momentum regime certifies most of the time


def test_search_tie_break_prefers_small_amplification():
    # both P12 values are feasible at rho = 0.95; the off-diagonal one has
    # amplification 1.0005 and must lose
    g = CertificateGrid(
        rho=np.array([0.95]),
        p11=np.array([0.01]), p12=np.array([0.0, 0.005]), p22=np.array([0.01]),
        c0=np.array([1.0]), c=np.array([10.0]),
    )
    cert = search_certificate(1.0, 0.0, 0.5, 1.0, grid=g)
    assert cert is not None
    assert cert.P[0, 1] == 0.0
    assert cert.noise_amplification == 1.0


def test_search_validation():
    with pytest.raises(ValueError):
        search_certificate(1.0, 0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        search_certificate(1.0, 1.0, 0.5, 1.0)
    for alpha in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            search_certificate(alpha, 0.0, 0.5, 1.0)
    # unchecked, these grids gave a certificate at rho = -0.71 or with c0 = -1,
    # or None where rho = 0.9 certifies
    for field, bad in [
        ("rho", []), ("rho", [-0.71, 0.9]), ("rho", [0.0, 0.9]), ("rho", [np.nan, 0.9]),
        ("rho", [np.inf]), ("p11", [np.nan, 1.0]), ("p12", [np.inf, 0.0]),
        ("c0", [-1.0, 1.0]), ("c", [-1.0, 1.0]), ("c", [np.nan, 1.0]),
    ]:
        g = dataclasses.replace(CertificateGrid.default(), **{field: np.array(bad)})
        with pytest.raises(ValueError):
            search_certificate(1.0, 0.0, 0.5, 1.0, grid=g)


def scaled_grid(p, m):
    """The default grid with P scaled by p and the multipliers by m."""
    g = CertificateGrid.default()
    return CertificateGrid(rho=g.rho, p11=g.p11 * p, p12=g.p12 * p, p22=g.p22 * p,
                           c0=g.c0 * m, c=g.c * m)


def test_search_scale_limit():
    # The problem is homogeneous in (P, c0, c).  Scaled by 1e160 the squares
    # in the 2x2 minors and in the PSD test of P would overflow and prune
    # candidates eigvalsh admits, so the search names its limit instead.
    with pytest.raises(ValueError, match="2\\^510"):
        search_certificate(1.0, 0.0, 0.5, 1.0, scaled_grid(1e160, 1e160))
    # multipliers alone can carry the matrix entries past the limit
    with pytest.raises(ValueError, match="matrix entry"):
        search_certificate(1.0, 0.0, 0.5, 1.0, scaled_grid(1.0, 1e160))
    cert = search_certificate(1.0, 0.0, 0.5, 1.0, scaled_grid(1e150, 1e150))
    assert cert.rho == 0.71
    assert cert.rho == search_certificate(1.0, 0.0, 0.5, 1.0).rho


def grid_entries(alpha, beta, mu, L, grid, rho):
    """The PSD P candidates (p11, p12, p22) and the six entries (m11, m12,
    m13, m22, m23, m33) of every candidate at rate rho, shaped (P, c0, c),
    with the operations search_certificate uses."""
    p11, p12, p22 = (
        v.ravel() for v in np.meshgrid(grid.p11, grid.p12, grid.p22, indexing="ij")
    )
    psd = (p11 >= 0) & (p22 >= 0) & (p11 * p22 - p12**2 >= 0)
    p11, p12, p22 = p11[psd], p12[psd], p22[psd]
    a, bb = 1.0 + beta, -beta
    f11 = a * a * p11 + 2.0 * a * p12 + p22
    f12 = a * bb * p11 + bb * p12
    f22 = bb * bb * p11
    f13 = alpha * (a * p11 + p12)
    f23 = alpha * bb * p11
    f33 = alpha * alpha * p11
    g = (1.0 - L * alpha) * beta
    x11, x12, x13 = -0.5 * L * beta**2, 0.5 * L * beta**2, -0.5 * g
    x22, x23, x33 = -0.5 * L * beta**2, 0.5 * g, 0.5 * alpha * (2.0 - L * alpha)
    P3 = (len(p11), 1, 1)
    c0 = grid.c0.reshape(1, -1, 1)
    c = grid.c.reshape(1, 1, -1)
    r2 = rho * rho
    m11 = c0 * (2 * mu * L) + c * (x11 + (1 - r2) * 0.5 * mu) - (f11 - r2 * p11).reshape(P3)
    m12 = c * x12 - (f12 - r2 * p12).reshape(P3)
    m13 = c0 * (-(mu + L)) + c * (x13 + (1 - r2) * -0.5) - f13.reshape(P3)
    m22 = c * x22 - (f22 - r2 * p22).reshape(P3)
    m23 = c * x23 - f23.reshape(P3)
    m33 = c0 * 2.0 + c * x33 - f33.reshape(P3)
    return (p11, p12, p22), np.broadcast_arrays(m11, m12, m13, m22, m23, m33)


def unpruned_search(alpha, beta, mu, L, grid, tol=1e-9):
    """search_certificate as a full scan: the eigenvalues of every candidate
    at every rate, with no candidate skipped; returns as_dict() or None."""
    for rho in np.sort(grid.rho):
        (p11, p12, p22), m = grid_entries(alpha, beta, mu, L, grid, rho)
        zero_P = (p11 == 0.0) & (p12 == 0.0) & (p22 == 0.0)
        vacuous = np.broadcast_to(zero_P[:, None, None] & (grid.c == 0.0), m[0].shape)
        if vacuous.all():
            vacuous = np.zeros(m[0].shape, dtype=bool)
        lo, _, _ = _sym3_eigvals_parts(*m)
        iP, ic0, ic = np.nonzero((lo >= -tol) & ~vacuous)
        if len(iP) == 0:
            continue
        amp = _amplification(p11[iP], p12[iP], p22[iP], grid.c[ic], L)
        k = int(np.argmin(amp))
        P = np.array([[p11[iP[k]], p12[iP[k]]], [p12[iP[k]], p22[iP[k]]]])
        return Certificate(
            rho=float(rho), P=P, c0=float(grid.c0[ic0[k]]), c=float(grid.c[ic[k]]),
            slack=float(lo[iP[k], ic0[k], ic[k]]), noise_amplification=float(amp[k]),
        ).as_dict()
    return None


SMALL_GRID = CertificateGrid(
    rho=np.array([0.3, 0.6, 0.8, 0.9, 0.95, 0.99, 0.999]),
    p11=np.array([0.0, 0.1, 1.0, 10.0]), p12=np.array([0.0, 0.5, -0.5, 3.0]),
    p22=np.array([0.0, 1.0, 3.0]), c0=np.array([0.0, 1.0, 10.0]), c=np.array([0.0, 0.5, 5.0]),
)

# L, alpha*L in (0, 2), beta in [0, 0.99), mu/L in (0.005, 1]; alpha*L
# stays above 1e-4, so that alpha/L cannot underflow to 0
search_inputs = st.tuples(
    st.floats(0.5, 2.0),
    st.floats(1e-4, 2.0, exclude_max=True),
    st.floats(0.0, 0.99, exclude_max=True),
    st.floats(0.005, 1.0, exclude_min=True),
)


@pytest.mark.slow  # the reference solves every default-grid candidate at every rate
@given(search_inputs, st.sampled_from(["default", "small"]))
@example((1.0, 1.0, 0.0, 0.5), "default")  # certifies at rho = 0.71
@example((1.0, 0.5, 0.8, 0.05), "default")  # no certificate: a full scan
@example((1.0, 1.0, 0.0, 0.5), "small")
def test_search_equals_unpruned_scan(inputs, which):
    L, alpha_L, beta, ratio = inputs
    alpha, mu = alpha_L / L, ratio * L
    grid = CertificateGrid.default() if which == "default" else SMALL_GRID
    cert = search_certificate(alpha, beta, mu, L, grid)
    want = unpruned_search(alpha, beta, mu, L, grid)
    assert repr(None if cert is None else cert.as_dict()) == repr(want)


@given(search_inputs, st.sampled_from(["default", "small"]))
@example((1.0, 1.0, 0.0, 0.5), "default")
def test_compaction_keeps_every_candidate_some_rate_admits(inputs, which):
    L, alpha_L, beta, ratio = inputs
    alpha, mu = alpha_L / L, ratio * L
    grid = CertificateGrid.default() if which == "default" else SMALL_GRID
    cand = _compact(alpha, beta, mu, L, grid, 1e-9)
    # brute force: the candidates whose diagonal passes the cut at some rate
    admitted = False
    for rho in grid.rho:
        _, (m11, _, _, m22, _, m33) = grid_entries(alpha, beta, mu, L, grid, rho)
        admitted = admitted | ((m11 >= cand.cut) & (m22 >= cand.cut) & (m33 >= cand.cut))
    kept = np.zeros(admitted.shape, dtype=bool)
    kept[cand.index] = True
    assert not np.any(admitted & ~kept)
    # flattened in grid order, so ties still break toward the first candidate
    assert np.all(np.diff(np.ravel_multi_index(cand.index, admitted.shape)) > 0)


# One-candidate problems (alpha, beta, mu, L, rho, p11, p12, p22, c0, c) on
# which the 2x2 principal minor over rows (1, 2), (1, 3), (2, 3) in turn is
# below every diagonal entry and every other such minor, so that it alone
# decides whether the search prunes the candidate.
BINDING_MINOR = [
    (0.5, 0.9, 0.8, 1.0, 0.99, 1.0, -3.0, 10.0, 1.0, 0.1),
    (0.1, 0.3, 0.8, 1.0, 0.9, 1.0, 0.3, 1.0, 10.0, 0.1),
    (1.5, 0.3, 0.8, 1.0, 0.5, 0.1, 0.0, 0.1, 10.0, 10.0),
]
# The same, with that minor also within 1e-4 of the smallest eigenvalue:
# the third row (minor over rows 1, 2) or the second (the other two) is
# nearly decoupled from the rest.
TIGHT_MINOR = [
    (0.01, 0.01, 0.05, 1.0, 0.8, 0.1, -3.0, 100.0, 0.01, 0.1),
    (1.5, 0.0, 0.3, 1.0, 0.8, 1.0, 0.0, 100.0, 1.0, 0.01),
    (1.5, 0.3, 0.8, 1.0, 0.99, 0.1, 0.01, 0.01, 10.0, 10.0),
]
# (diagonal, diagonal, off-diagonal) positions in (m11, m12, m13, m22, m23, m33)
MINOR_ROWS = [(0, 3, 1), (0, 5, 2), (3, 5, 4)]


def one_candidate(case, pair):
    """The problem, its one-candidate grid, the six entries as the search
    computes them, and the chosen minor after checking that it decides."""
    alpha, beta, mu, L, rho, p11, p12, p22, c0, c = case
    grid = CertificateGrid(*(np.array([v]) for v in (rho, p11, p12, p22, c0, c)))
    _, m = grid_entries(alpha, beta, mu, L, grid, grid.rho[0])
    m = [v.ravel() for v in m]
    minors = [_sym2_min(m[i], m[j], m[k])[0] for i, j, k in MINOR_ROWS]
    others = [m[0][0], m[3][0], m[5][0], *minors[:pair], *minors[pair + 1:]]
    assert minors[pair] < min(others)
    return (alpha, beta, mu, L), grid, m, minors[pair]


@pytest.mark.parametrize("pair", range(3))
@pytest.mark.parametrize("ulps", range(-3, 4))
def test_search_minor_within_ulps_of_cut(pair, ulps):
    problem, grid, m, minor = one_candidate(BINDING_MINOR[pair], pair)
    # a tol that puts the search's cut = -tol - delta a few ulps from the minor
    delta = _PRUNE_MARGIN * max(max(abs(v[0]) for v in m), 1.0)
    ulp = np.spacing(abs(minor))
    tol = -(minor + ulps * ulp) - delta
    assert abs((-tol - delta) - minor) <= (abs(ulps) + 2) * ulp
    # the smallest eigenvalue is at most the minor, far below -tol: pruned or
    # solved, the candidate is infeasible
    assert search_certificate(*problem, grid, tol) is None
    assert unpruned_search(*problem, grid, tol) is None


@pytest.mark.parametrize("pair", range(3))
@pytest.mark.parametrize("ulps", range(-2, 3))
def test_search_feasibility_boundary_at_a_tight_minor(pair, ulps):
    problem, grid, m, minor = one_candidate(TIGHT_MINOR[pair], pair)
    lo = _sym3_eigvals_parts(*m)[0][0]
    assert abs(minor - lo) < 1e-4
    # feasible exactly when ulps >= 0; a minor test that cut too high would
    # prune the candidate anyway
    tol = -lo + ulps * np.spacing(abs(lo))
    got = search_certificate(*problem, grid, tol)
    assert repr(None if got is None else got.as_dict()) == repr(unpruned_search(*problem, grid, tol))
    assert (got is not None) == (ulps >= 0)


# ---------------------------------------------------------------------------
# eval_shb_bound


def _cert(rho=0.9, c=2.0, amp=1.25):
    return Certificate(rho=rho, P=np.eye(2), c0=1.0, c=c, slack=0.0,
                       noise_amplification=amp)


def test_eval_bound_edges():
    cert = _cert()
    assert eval_shb_bound(cert, psi0=3.0, noise_level=5.0, alpha=0.1, d=4, L=2.0, t=0) == 1.5
    t = np.arange(0, 40)
    pure = eval_shb_bound(cert, 3.0, 0.0, 0.1, 4, 2.0, t)
    np.testing.assert_allclose(pure, cert.rho ** (2 * t) * 3.0 / cert.c, rtol=1e-15)
    # t -> infinity: closed geometric limit
    limit = eval_shb_bound(cert, 3.0, 5.0, 0.1, 4, 2.0, 1e9)
    want = (2.0 * 4 * 0.1**2 / 2.0) * 5.0 * cert.noise_amplification / (1 - cert.rho**2)
    assert limit == pytest.approx(want, rel=1e-12)


def test_eval_bound_monotone_in_t_and_noise():
    cert = _cert()
    t = np.arange(0, 200)
    noise_part = eval_shb_bound(cert, 0.0, 5.0, 0.1, 4, 2.0, t)
    # strictly rising until the geometric sum saturates at its limit
    assert np.all(np.diff(noise_part) >= 0)
    assert np.all(np.diff(noise_part[:50]) > 0)
    lo = eval_shb_bound(cert, 3.0, 1.0, 0.1, 4, 2.0, 17)
    hi = eval_shb_bound(cert, 3.0, 4.0, 0.1, 4, 2.0, 17)
    assert hi > lo


def test_eval_bound_guards():
    with pytest.raises(ValueError):
        eval_shb_bound(_cert(c=0.0), 1.0, 1.0, 0.1, 4, 2.0, 1)
    with pytest.raises(ValueError):
        eval_shb_bound(_cert(rho=1.0), 1.0, 1.0, 0.1, 4, 2.0, 1)
    with pytest.raises(ValueError):
        eval_shb_bound(_cert(), -1.0, 1.0, 0.1, 4, 2.0, 1)
    with pytest.raises(ValueError):
        eval_shb_bound(_cert(), 1.0, -1.0, 0.1, 4, 2.0, 1)


# ---------------------------------------------------------------------------
# quadratic_rate / quadratic_bound


def test_quadratic_rate_tuned_heavy_ball_kappa_two():
    mu, L = 0.5, 1.0
    alpha = 4.0 / (np.sqrt(mu) + np.sqrt(L)) ** 2
    beta = ((np.sqrt(L) - np.sqrt(mu)) / (np.sqrt(L) + np.sqrt(mu))) ** 2
    rep = quadratic_rate(alpha, beta, [mu, L])
    want = (np.sqrt(2) - 1) / (np.sqrt(2) + 1)
    # both eigenvalues sit at the discriminant boundary, so the root solve
    # is sqrt-of-roundoff accurate, not 1e-15 accurate
    assert rep.rho == pytest.approx(want, abs=1e-6)
    s = 1 + beta - alpha * rep.eigenvalues
    np.testing.assert_allclose(s**2 - 4 * beta, 0.0, atol=1e-12)
    assert rep.contractive


def test_quadratic_rate_gd_spectrum():
    rep = quadratic_rate(1.0, 0.0, [0.5, 1.0])
    assert rep.rho == 0.5
    assert rep.contractive
    np.testing.assert_array_equal(rep.roots[0], [0.5, 0.0])
    np.testing.assert_array_equal(rep.roots[1], [0.0, 0.0])
    assert rep.mu == 0.5 and rep.L == 1.0


def test_quadratic_rate_divergent_flagged():
    rep = quadratic_rate(10.0, 0.999, [0.5, 1.0])
    assert rep.rho >= 1.0
    assert not rep.contractive
    assert rep.noise_gain is None  # 2 + 2*beta - alpha*lam < 0


def test_quadratic_rate_vieta_and_complex_moduli():
    rep = quadratic_rate(1.0, 0.9, [1.0])
    assert np.iscomplexobj(rep.roots)
    prod = np.abs(rep.roots[:, 0] * rep.roots[:, 1])
    np.testing.assert_allclose(prod, 0.9, rtol=1e-12)
    assert np.all(rep.moduli == np.sqrt(0.9))
    # mixed real/complex spectrum keeps the Vieta identity everywhere
    rep = quadratic_rate(1.0, 0.5, [0.05, 1.0])
    prod = np.abs(rep.roots[:, 0] * rep.roots[:, 1])
    np.testing.assert_allclose(prod, 0.5, rtol=1e-12)


def _hand_split_roots(alpha, beta, lams):
    """quadratic_rate's roots and moduli by the explicit real/complex split."""
    s = 1.0 + beta - alpha * lams
    disc = s**2 - 4.0 * beta
    roots = np.empty((len(lams), 2), dtype=complex)
    moduli = np.empty((len(lams), 2))
    real = disc >= 0
    sq = np.sqrt(np.abs(disc))
    roots[real, 0] = (s[real] + sq[real]) / 2.0
    roots[real, 1] = (s[real] - sq[real]) / 2.0
    moduli[real] = np.abs(roots[real])
    roots[~real, 0] = (s[~real] + 1j * sq[~real]) / 2.0
    roots[~real, 1] = (s[~real] - 1j * sq[~real]) / 2.0
    moduli[~real] = np.sqrt(beta)
    return roots, moduli


@given(
    st.floats(1e-3, 4.0),
    st.floats(0.0, 0.999),
    st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=20),
)
@example(1.0, 0.0, [1.0])  # disc = 0 at s = 0
@example(0.25, 0.25, [1.0, 0.5])  # disc = 0 at s = 1, then a real pair
@example(1.0, 0.9, [1.0, 0.05])  # complex pair, then a real pair
@example(3.0, 0.5, [1.0, 0.1])  # negative real roots
def test_quadratic_rate_equals_hand_split(alpha, beta, eigs):
    rep = quadratic_rate(alpha, beta, eigs)
    roots, moduli = _hand_split_roots(alpha, beta, rep.eigenvalues)
    assert rep.roots.tobytes() == roots.tobytes()  # every bit, signed zeros included
    assert rep.moduli.tobytes() == moduli.tobytes()


def test_quadratic_rate_validation():
    with pytest.raises(ValueError):
        quadratic_rate(0.0, 0.0, [1.0])
    with pytest.raises(ValueError):
        quadratic_rate(1.0, 1.0, [1.0])
    with pytest.raises(ValueError):
        quadratic_rate(1.0, 0.0, [])
    with pytest.raises(ValueError):
        quadratic_rate(1.0, 0.0, [0.0, 1.0])


def test_quadratic_bound_hand_floor():
    # d=1, lam=1, alpha=1, beta=0: noise gain = 2, floor = L*sigma2/2*2 = sigma2
    rep = quadratic_rate(1.0, 0.0, [1.0])
    assert rep.noise_gain == pytest.approx(2.0, rel=1e-15)
    assert quadratic_bound(rep, sigma2=0.3, t=0, v0_norm=0.0) == pytest.approx(0.3, rel=1e-15)


def test_quadratic_bound_zero_noise_zero_init():
    rep = quadratic_rate(0.5, 0.1, [0.5, 1.0])
    t = np.arange(0, 50)
    np.testing.assert_array_equal(quadratic_bound(rep, 0.0, t, 0.0), np.zeros_like(t, dtype=float))


def test_quadratic_bound_transient_vanishes_at_t_zero():
    # C_t = t convention: at t = 0 only the noise floor remains
    rep = quadratic_rate(0.5, 0.1, [0.5, 1.0])
    floor = rep.L * (0.2 / 2.0) * rep.noise_gain
    assert quadratic_bound(rep, 0.2, 0, 7.0) == pytest.approx(floor, rel=1e-15)


def test_quadratic_bound_cmult_scales_transient():
    rep = quadratic_rate(0.5, 0.1, [0.5, 1.0])
    floor = rep.L * (0.2 / 2.0) * rep.noise_gain
    b1 = quadratic_bound(rep, 0.2, 13, 7.0, c_mult=1.0) - floor
    b2 = quadratic_bound(rep, 0.2, 13, 7.0, c_mult=2.0) - floor
    assert b2 == pytest.approx(4.0 * b1, rel=1e-12)


def test_quadratic_bound_guards():
    bad = quadratic_rate(10.0, 0.999, [0.5, 1.0])
    with pytest.raises(ValueError):
        quadratic_bound(bad, 0.1, 1, 1.0)
    rep = quadratic_rate(0.5, 0.1, [0.5, 1.0])
    with pytest.raises(ValueError):
        quadratic_bound(rep, -0.1, 1, 1.0)
    with pytest.raises(ValueError):
        quadratic_bound(rep, 0.1, 1, -1.0)


def test_rate_momentum_sweep_shape():
    # at alpha = 1/L the rate has an interior optimum in beta while the
    # stationary noise gain only grows with beta: the accuracy/noise tradeoff
    betas = np.round(np.arange(0.0, 0.91, 0.01), 2)
    reps = [quadratic_rate(1.0, b, [0.5, 1.0]) for b in betas]
    rhos = np.array([r.rho for r in reps])
    best = betas[np.argmin(rhos)]
    assert abs(best - (1 - np.sqrt(0.5)) ** 2) < 0.02
    assert rhos[np.argmin(rhos)] < rhos[0]
    assert rhos[np.argmin(rhos)] < rhos[-1]
    gains = np.array([r.noise_gain for r in reps])
    assert np.all(np.diff(gains) > 0)
