"""Correctness checks the benchmark applies to dpaccel's outputs.

Each check returns a list of problems (empty means the output passed).  The
leak formula is written out here rather than imported from
``privacy_core``, so the re-audit does not share code with what it audits.
``self_test`` feeds every check a corrupted input and reports the checks
that failed to reject it.
"""

from __future__ import annotations

import numpy as np

# Slack allowed between a composed leak and its budget; the same value as
# dpaccel's own BUDGET_TOL, restated so that the audit stands alone.
BUDGET_TOL = 1e-9
# PSD slack for a certificate; search_certificate's default feasibility tol.
CERT_TOL = 1e-9
# Rounding slack when comparing the exact quadratic rate with the grid rho.
RATE_SLACK = 1e-12


def step_leak(S: float, b, n: int, m: int) -> np.ndarray:
    """Per-release leak of Laplace(b) noise on a mean over m of n records.

    S/(b n) for a full batch; log1p(expm1(S/(b m)) * m/n) with subsampling.
    """
    b = np.asarray(b, dtype=float)
    if m == n:
        return S / (b * n)
    return np.log1p(np.expm1(S / (b * m)) * (m / n))


def allocation_problems(b, S: float, n: int, m: int, epsilon: float, T_max: int) -> list[str]:
    """A schedule must be 1..T_max positive finite scales whose audited leak is epsilon."""
    b = np.asarray(b, dtype=float)
    if not 1 <= len(b) <= T_max:
        return [f"schedule length {len(b)} outside 1..{T_max}"]
    if not np.all(np.isfinite(b)) or np.any(b <= 0):
        return ["schedule has a non-finite or non-positive scale"]
    leak = float(np.sum(step_leak(S, b, n, m)))
    if not abs(leak - epsilon) <= BUDGET_TOL:
        return [f"audited leak {leak!r} != epsilon {epsilon!r}"]
    return []


def trace_problems(eps_cum, subopt, b, S: float, n: int, m: int, epsilon: float) -> list[str]:
    """A trace must charge exactly the planned releases and stay within budget."""
    eps_cum = np.asarray(eps_cum, dtype=float)
    subopt = np.asarray(subopt, dtype=float)
    problems = []
    if len(eps_cum) != len(b) + 1 or len(subopt) != len(eps_cum):
        return [f"trace has {len(eps_cum)} rows for {len(b)} planned steps"]
    if not np.all(np.isfinite(subopt)):
        problems.append("non-finite suboptimality")
    if eps_cum[0] != 0.0 or np.any(np.diff(eps_cum) < 0):
        problems.append("cumulative leak is not monotone from 0")
    if not eps_cum[-1] <= epsilon + BUDGET_TOL:
        problems.append(f"cumulative leak {eps_cum[-1]!r} exceeds budget {epsilon!r}")
    expected = np.cumsum(step_leak(S, b, n, m))
    gap = np.abs(eps_cum[1:] - expected)
    if not np.all(gap <= BUDGET_TOL):
        problems.append(f"cumulative leak departs from the re-audit by {np.nanmax(gap):.3g}")
    return problems


def determinism_problems(reference: dict, other: dict) -> list[str]:
    """Per-cell final errors must agree bit for bit."""
    if reference.keys() != other.keys():
        return ["different cells"]
    return [
        f"cell {key}: {reference[key]!r} != {other[key]!r}"
        for key in reference
        if np.float64(reference[key]).tobytes() != np.float64(other[key]).tobytes()
    ]


def certificate_problems(certification, req: dict, cert, envelope, rate) -> list[str]:
    """A found certificate must be PSD (by eigvalsh) and no faster than the exact rate.

    A search that finds nothing is a valid answer; only the rate report and
    envelope that were computed are checked then.
    """
    problems = []
    if not np.isfinite(rate.rho):
        problems.append("non-finite quadratic rate")
    if cert is None:
        return problems
    M = certification.certificate_matrix(
        req["alpha"], req["beta"], req["mu"], req["L"], cert.rho, cert.P, cert.c0, cert.c
    )
    lo = float(np.linalg.eigvalsh(M)[0])
    if not lo >= -CERT_TOL:
        problems.append(f"certificate matrix not PSD: min eigenvalue {lo:.3g}")
    if not rate.rho <= cert.rho + RATE_SLACK:
        problems.append(f"exact rate {rate.rho!r} exceeds certified rate {cert.rho!r}")
    if envelope is not None and (not np.all(np.isfinite(envelope)) or np.any(envelope < 0)):
        problems.append("envelope is negative or non-finite")
    return problems


def self_test(budget_allocator, certification) -> list[str]:
    """Run every check on a good and a corrupted input; name the checks that misjudge."""
    failures = []

    def expect(name, good, bad):
        if good:
            failures.append(f"{name}: rejected a valid input: {good}")
        if not bad:
            failures.append(f"{name}: accepted a corrupted input")

    S, n, m, eps = 40.0, 10_000, 1_000, 1.0
    coeffs = budget_allocator.nag_coefficients(0.02, 1.0, 1.0, 50)
    sched = budget_allocator.optimal_schedule(coeffs, S, n, eps)
    sched, _ = budget_allocator.rescale_for_subsampling(sched, S, n, m, eps)
    expect(
        "allocation audit",
        allocation_problems(sched.b, S, n, m, eps, 50),
        allocation_problems(0.99 * sched.b, S, n, m, eps, 50),
    )

    eps_cum = np.concatenate(([0.0], np.cumsum(step_leak(S, sched.b, n, m))))
    subopt = np.linspace(1.0, 0.1, len(eps_cum))
    perturbed = eps_cum.copy()
    perturbed[10] *= 1.0 + 1e-6
    expect(
        "trace audit",
        trace_problems(eps_cum, subopt, sched.b, S, n, m, eps),
        trace_problems(perturbed, subopt, sched.b, S, n, m, eps),
    )

    finals = {"cell": 0.125}
    expect(
        "determinism",
        determinism_problems(finals, dict(finals)),
        determinism_problems(finals, {"cell": np.nextafter(0.125, 1.0)}),
    )

    req = {"alpha": 1.0, "beta": 0.0, "mu": 0.5, "L": 1.0}
    cert = certification.search_certificate(req["alpha"], req["beta"], req["mu"], req["L"])
    rate = certification.quadratic_rate(req["alpha"], req["beta"], [req["mu"], req["L"]])
    bad_cert = certification.Certificate(
        rho=0.5 * cert.rho, P=cert.P, c0=cert.c0, c=cert.c, slack=cert.slack,
        noise_amplification=cert.noise_amplification,
    )
    bad = certificate_problems(certification, req, bad_cert, None, rate)
    expect(
        "certificate soundness",
        certificate_problems(certification, req, cert, None, rate),
        [p for p in bad if "not PSD" in p],
    )
    return failures
