"""Command line front end.

Subcommands mirror the library layers: gen-data, allocate, run, certify,
analyze-quadratic, summarize.  Everything prints to stdout and writes plain
CSV/JSON so results can be diffed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import certification as cert
from ._table import write_json, write_table
from .harness import ExperimentConfig, allocate, comparison_table, run_grid, summarize
from .objectives import generate_synthetic
from .optimizers import Trace
from .privacy_core import per_iteration_epsilon
from .svgplot import write_line_svg


def _add_gen_data(sub):
    p = sub.add_parser("gen-data", help="write a synthetic classification dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--d", type=int, default=20)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--u-max", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_data)


def _cmd_gen_data(args):
    data = generate_synthetic(args.d, args.n, args.u_max, args.seed)
    data.to_csv(args.out)
    print(f"wrote {args.n} records (d={args.d}, u_max={args.u_max}) to {args.out}")
    return 0


def _add_run(sub):
    p = sub.add_parser("run", help="run the experiment grid from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=None, help="threads (default: the config's)")
    p.add_argument("--seed-base", type=int, default=None)
    p.set_defaults(func=_cmd_run)


def _cmd_run(args):
    overrides = {} if args.seed_base is None else {"seed_base": args.seed_base}
    if args.workers is not None:
        overrides["workers"] = args.workers
    # replace validates the overrides like the rest of the config
    config = replace(ExperimentConfig.from_json(args.config), **overrides)
    summary = run_grid(config, args.out)
    print(comparison_table(summary))
    ref = summary["reference"]
    print(f"\nreference optimum gradient norm: {ref['grad_norm']:.3e}")
    if summary["failed"]:
        print(f"{len(summary['failed'])} cell(s) failed; see summary.json")
    print(f"summary written to {Path(args.out) / 'summary.json'}")
    return 0


def _add_allocate(sub):
    p = sub.add_parser("allocate", help="compute a per-iteration noise schedule")
    p.add_argument("--scheme", choices=("uniform", "nag-opt", "masg-opt"), required=True)
    p.add_argument("--S1", type=float, required=True, help="global gradient sensitivity")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None, help="subsample size (default n)")
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--c", type=float, default=1.0, help="stepsize scale in (0,1]: alpha = c / L")
    p.add_argument("--p", type=int, default=1, help="stage doubling exponent")
    p.add_argument("--e0", type=float, default=None,
                   help="initial error guess; enables horizon selection below T")
    p.add_argument("--d", type=int, default=1, help="dimension for horizon selection")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_allocate)


def _cmd_allocate(args):
    m = args.n if args.m is None else args.m
    if args.scheme != "uniform" and (args.mu is None or args.L is None):
        raise ValueError("nag-opt and masg-opt need --mu and --L")
    T, sched, bound, factor = allocate(args.scheme, args.S1, args.n, m, args.epsilon, args.T,
                                       mu=args.mu, L=args.L, c=args.c, p=args.p, e0=args.e0,
                                       d=args.d)
    if bound is not None:
        print(f"selected horizon T={T} (bound {bound:.6g})")
    if factor is not None:
        print(f"subsampling rescale factor: {factor:.12g}")
    sched.to_csv(args.out)
    print(f"wrote {len(sched.b)} scales to {args.out}; audited leak {sched.total_epsilon:.12g}")
    return 0


def _write_bound_csv(path, t, vals):
    write_table(path, ("t", "bound"), (t, vals))
    print(f"bound curve written to {path}")


def _add_certify(sub):
    p = sub.add_parser("certify", help="search a contraction certificate for heavy ball")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out-json", default=None)
    p.add_argument("--S1", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--psi0", type=float, default=1.0)
    p.add_argument("--out-curve", default=None,
                   help="CSV of the certified risk bound over t (needs --S1 .. --m)")
    p.set_defaults(func=_cmd_certify)


def _cmd_certify(args):
    found = cert.search_certificate(args.alpha, args.beta, args.mu, args.L, tol=args.tol)
    if found is None:
        print("no certificate found on the default grid")
        return 1
    payload = found.as_dict()
    print(json.dumps(payload, indent=2))
    if args.out_json:
        write_json(args.out_json, payload)
    if args.out_curve:
        needed = (args.S1, args.epsilon, args.T, args.n, args.m)
        if any(v is None for v in needed):
            raise ValueError("--out-curve needs --S1 --epsilon --T --n --m")
        eps0 = per_iteration_epsilon(args.epsilon, args.T, args.n, args.m)
        nb = cert.noise_bound(args.S1, args.m, args.n, eps0, args.d)
        t = np.arange(args.T + 1)
        vals = cert.eval_shb_bound(found, args.psi0, nb.total, args.alpha, args.d, args.L, t)
        _write_bound_csv(args.out_curve, t, vals)
    return 0


def _add_analyze_quadratic(sub):
    p = sub.add_parser("analyze-quadratic",
                       help="exact momentum rate and noise gain on a quadratic spectrum")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--eigs", required=True, help="comma-separated Hessian eigenvalues")
    p.add_argument("--sigma2", type=float, default=None, help="per-coordinate noise variance")
    p.add_argument("--v0", type=float, default=1.0, help="initial Lyapunov value")
    p.add_argument("--c-mult", type=float, default=1.0)
    p.add_argument("--t-max", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV of the bound over t")
    p.set_defaults(func=_cmd_analyze_quadratic)


def _cmd_analyze_quadratic(args):
    eigs = np.array([float(s) for s in args.eigs.split(",") if s.strip()])
    report = cert.quadratic_rate(args.alpha, args.beta, eigs)
    print(json.dumps(report.as_dict(), indent=2))
    if args.out:
        if args.sigma2 is None or args.t_max is None:
            raise ValueError("--out needs --sigma2 and --t-max")
        t = np.arange(args.t_max + 1)
        vals = cert.quadratic_bound(report, args.sigma2, t, args.v0, args.c_mult)
        _write_bound_csv(args.out, t, vals)
    return 0


def _add_summarize(sub):
    p = sub.add_parser("summarize", help="aggregate trace CSVs into a summary")
    p.add_argument("--traces", required=True, help="directory of trace CSVs")
    p.add_argument("--out", default=None, help="summary JSON path")
    p.add_argument("--svg", default=None, help="directory for per-cell SVG curves")
    p.set_defaults(func=_cmd_summarize)


def _cmd_summarize(args):
    paths = sorted(Path(args.traces).glob("*.csv"))
    paths = [p for p in paths if not p.name.startswith("curve_")]
    if not paths:
        raise ValueError(f"no trace CSVs under {args.traces}")
    summary = summarize(paths)
    print(comparison_table(summary))
    if args.out:
        write_json(args.out, summary)
        print(f"summary written to {args.out}")
    if args.svg:
        svg_dir = Path(args.svg)
        svg_dir.mkdir(parents=True, exist_ok=True)
        groups: dict[tuple, list] = {}
        for rec in summary["records"]:
            groups.setdefault((rec["m"], rec["c"]), []).append(rec)
        for key, recs in groups.items():
            m, c = ("-" if v is None else v for v in key)  # as comparison_table prints them
            curves = [
                (f"{r['algorithm']} T={r['T']}", np.arange(len(r["mean_log10"])),
                 r["mean_log10"])
                for r in recs  # summarize orders records by algorithm, then T
            ]
            out = svg_dir / f"curves_m{m}_c{c}.svg"
            write_line_svg(out, curves, title=f"m={m}, c={c}",
                           xlabel="iteration", ylabel="log10 suboptimality")
        print(f"SVG curves written to {args.svg}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dpaccel",
        description="Differentially private accelerated first-order methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen_data(sub)
    _add_run(sub)
    _add_allocate(sub)
    _add_certify(sub)
    _add_analyze_quadratic(sub)
    _add_summarize(sub)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # bad input: one line and exit status 2, as argparse's own
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
