"""Command line front end.

Subcommands: rays, bounds, fit, nearest, minimize, sample, theta.
Reports are JSON on stdout (or --output, written atomically); --csv adds the
delimited export where one is defined (rays: one ray per column; sample: one
draw per row).

Exit codes: 0 success or feasible, 2 infeasible target, 3 invalid input,
4 dimension cap exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from .bounds import pair_bounds
from .cone import DimensionCapError, margin_rays, moment_map
from .frechet import mu2_from_rho, rho_from_mu2, theta_from_density
from .report import (
    DEFAULT_PRECISION,
    ProblemSpec,
    SpecError,
    order_note,
    parse_density_payload,
    parse_problem_spec,
    rational_field,
    rays_csv_text,
    reorder_support,
    sample_csv_text,
    support_labels,
    vector_field,
    write_json_atomic,
    _write_atomic,
)
from .sampling import sample as draw_sample
from .solvers import (
    FitResult,
    fit_density_direct,
    fit_lambda,
    minimize_higher_moments,
    nearest_feasible_correlation,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INVALID = 3
EXIT_CAP = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; that slot is taken
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bernray", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("rays", "enumerate the extreme ray densities of the class"),
        ("bounds", "attainable pair-moment and correlation ranges"),
        ("fit", "find a member matching the target pair moments"),
        ("nearest", "project a correlation target onto the attainable set"),
        ("minimize", "feasible member minimizing the summed order>=3 moments"),
        ("sample", "fit a member, then draw from it deterministically"),
        ("theta", "interaction coefficients of a given density"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--input", required=True, help="problem spec JSON file")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--csv", help="delimited export (rays and sample only)")
        p.add_argument("--mode", choices=["rays", "direct"], help="override options.mode")
        p.add_argument("--paper-order", action="store_true",
                       help="emit support-indexed vectors in complemented order")
        p.add_argument("--seed", type=int, help="override options.seed")
        p.add_argument("--n", type=int, help="override options.n")
        p.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                       help="significant digits of decimal renderings")
        if name == "theta":
            p.add_argument("--density", help="density JSON (a fit report works)")
    return parser


def _load_json(path: str) -> object:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: not valid JSON ({exc})") from exc


def _target_mu2(spec: ProblemSpec, cls):
    """Resolve the exactly-one-of rho/mu2 contract into pair moments."""
    rho = spec.correlation()
    mu2 = spec.pair_moments()
    if (rho is None) == (mu2 is None):
        raise SpecError("rho/mu2: this command needs exactly one of them")
    if mu2 is None:
        mu2 = mu2_from_rho(cls, rho)
    return rho, mu2


def _density_payload(density, precision, paper):
    block = vector_field(reorder_support(density.values, paper), precision)
    return block


def _certificate_payload(fit: FitResult, rows_note: str) -> dict:
    return {
        "y": [str(v) for v in fit.certificate],
        "rows": rows_note,
        "meaning": "y.A >= 0 componentwise and y.b < 0 for the stated rows",
    }


def run(args) -> tuple[dict, int]:
    spec = parse_problem_spec(_load_json(args.input))
    if args.mode:
        spec.mode = args.mode
    if args.seed is not None:
        if not 0 <= args.seed < 1 << 64:
            raise SpecError("--seed: must fit in 64 bits")
        spec.seed = args.seed
    if args.n is not None:
        if args.n < 0:
            raise SpecError("--n: must be >= 0")
        spec.n = args.n
    precision = args.precision
    paper = args.paper_order
    if args.csv and args.command not in ("rays", "sample"):
        raise SpecError("--csv: delimited export is defined for rays and sample only")

    cls = spec.frechet_class()
    t0 = time.perf_counter()
    report: dict = {
        "tool": "bernray",
        "command": args.command,
        "m": spec.m,
        "p": vector_field(spec.p, precision),
        "support_order": {
            "note": order_note(paper),
            "points": support_labels(spec.m, paper),
        },
        "precision": precision,
    }
    code = EXIT_OK

    if args.command == "rays":
        rays = margin_rays(cls)
        report["status"] = "ok"
        report["kind"] = rays.kind
        report["ray_count"] = rays.n_rays
        report["rays"] = [
            _density_payload(col, precision, paper) for col in rays.columns
        ]
        if args.csv:
            _write_atomic(
                rays_csv_text([c.values for c in rays.columns], spec.m, paper), args.csv
            )
            report["csv_path"] = args.csv

    elif args.command == "bounds":
        rays = margin_rays(cls)
        pb = pair_bounds(cls, rays)
        report["status"] = "ok"
        report["ray_count"] = rays.n_rays
        report["pairs"] = [
            {
                "i": i,
                "j": j,
                "moment_lo": rational_field(ml, precision),
                "moment_hi": rational_field(mh, precision),
                "rho_lo": rational_field(rl, precision),
                "rho_hi": rational_field(rh, precision),
            }
            for (i, j), ml, mh, rl, rh in zip(
                pb.pairs, pb.moment_lo, pb.moment_hi, pb.rho_lo, pb.rho_hi
            )
        ]

    elif args.command in ("fit", "minimize"):
        rho, mu2 = _target_mu2(spec, cls)
        report["mu2_target"] = vector_field(mu2.values, precision)
        if rho is not None:
            report["rho_target"] = vector_field(rho.values, precision)
        minimize = args.command == "minimize" or spec.objective == "min-higher-moments"
        if minimize:
            fit = minimize_higher_moments(cls, mu2)
            rows_note = "margin rows 1..m, pair rows lexicographic, unit-sum row"
            report["mode"] = "direct"
        elif spec.mode == "direct":
            fit = fit_density_direct(cls, mu2)
            rows_note = "margin rows 1..m, pair rows lexicographic, unit-sum row"
            report["mode"] = "direct"
        else:
            rays = margin_rays(cls)
            fit = fit_lambda(moment_map(rays, 2), mu2)
            rows_note = "pair-moment rows lexicographic over ray columns, unit-sum row"
            report["mode"] = "rays"
            report["ray_count"] = rays.n_rays
        report["status"] = fit.status
        report["pivots"] = fit.pivots
        if fit.status == "infeasible":
            report["certificate"] = _certificate_payload(fit, rows_note)
            code = EXIT_INFEASIBLE
        else:
            if fit.lam is not None:
                report["lambda"] = vector_field(fit.lam, precision)
            report["density"] = _density_payload(fit.density, precision, paper)
            if fit.objective is not None:
                report["objective"] = rational_field(fit.objective, precision)

    elif args.command == "nearest":
        rho, mu2 = _target_mu2(spec, cls)
        if rho is None:
            rho = rho_from_mu2(cls, mu2)
        proj = nearest_feasible_correlation(cls, rho, mode=spec.mode)
        report["rho_target"] = vector_field(rho.values, precision)
        report["mu2_target"] = vector_field(mu2.values, precision)
        report["status"] = proj.status
        report["rho_star"] = vector_field(proj.rho_star.values, precision)
        report["mu2_star"] = vector_field(proj.mu2_star.values, precision)
        report["distance"] = {
            "decimal": repr(proj.distance),
            "squared_exact": str(proj.distance_sq),
        }
        report["lambda"] = vector_field(proj.lam, precision)
        report["density"] = _density_payload(proj.density, precision, paper)
        report["fw"] = {
            "iterations": proj.iterations,
            "gap_exact": str(proj.gap),
            "converged": proj.converged,
        }

    elif args.command == "sample":
        rho, mu2 = _target_mu2(spec, cls)
        if spec.n is None:
            raise SpecError("options.n or --n: required for sample")
        seed = spec.seed if spec.seed is not None else 0
        report["mu2_target"] = vector_field(mu2.values, precision)
        if spec.mode == "direct":
            fit = fit_density_direct(cls, mu2)
        else:
            fit = fit_lambda(moment_map(margin_rays(cls), 2), mu2)
        report["status"] = fit.status
        if fit.status == "infeasible":
            rows_note = (
                "pair-moment rows lexicographic over ray columns, unit-sum row"
                if spec.mode != "direct"
                else "margin rows 1..m, pair rows lexicographic, unit-sum row"
            )
            report["certificate"] = _certificate_payload(fit, rows_note)
            code = EXIT_INFEASIBLE
        else:
            batch = draw_sample(fit.density, spec.n, seed)
            report["density"] = _density_payload(fit.density, precision, paper)
            report["sample"] = {
                "n": batch.n,
                "seed": batch.seed,
                "generator_id": batch.generator_id,
                "empirical_order1": vector_field(
                    _emp(batch, 1), precision
                ),
                "empirical_order2": vector_field(
                    _emp(batch, 2), precision
                ),
            }
            if args.csv:
                _write_atomic(sample_csv_text(batch), args.csv)
                report["sample"]["csv_path"] = args.csv

    elif args.command == "theta":
        payload = None
        if getattr(args, "density", None):
            payload = _load_json(args.density)
        else:
            raw = _load_json(args.input)
            if isinstance(raw, dict) and "density" in raw:
                payload = raw["density"]
        if payload is None:
            raise SpecError("density: give --density or a density field in the spec")
        f = parse_density_payload(payload, spec.m)
        theta = theta_from_density(cls, f)
        constant = theta.constant
        linear = theta.linear()
        report["status"] = "ok"
        report["density"] = _density_payload(f, precision, paper)
        report["theta"] = vector_field(reorder_support(theta.values, paper), precision)
        report["theta_order_note"] = (
            "entries indexed by interaction subsets under the same bijection "
            "as the support order above"
        )
        report["constant_term"] = rational_field(constant, precision)
        report["linear_terms"] = vector_field(linear, precision)
        report["checks"] = {
            "constant_is_one": constant == 1,
            "linear_all_zero": all(v == 0 for v in linear),
        }

    report["diagnostics"] = {"elapsed_s": round(time.perf_counter() - t0, 6)}
    return report, code


def _emp(batch, order):
    from .sampling import empirical_moments

    return empirical_moments(batch, order)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = run(args)
    except SpecError as exc:
        print(f"bernray: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DimensionCapError as exc:
        print(f"bernray: {exc}", file=sys.stderr)
        return EXIT_CAP
    if args.output:
        write_json_atomic(report, args.output)
    else:
        json.dump(report, sys.stdout, indent=2)
        print()
    return code


if __name__ == "__main__":
    sys.exit(main())
