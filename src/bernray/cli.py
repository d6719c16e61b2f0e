"""Command line front end.

Commands:
{commands}
Reports are JSON on stdout (or --output, written atomically); --csv adds the
delimited export where one is defined (rays: one ray per column; sample: one
draw per row).

Exit codes: 0 success or feasible, 2 infeasible target, 3 invalid input,
4 too large: m past the support cap, or, in rays and ray-mode fit and sample,
more rays in one enumeration step than a rays report can hold.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from typing import Callable, NamedTuple

from .bounds import pair_bounds
from .cone import DimensionCapError, margin_rays, moment_map
from .frechet import mu2_from_rho, rho_from_mu2, theta_from_density
from .report import (
    DEFAULT_PRECISION,
    MAX_PRECISION,
    ProblemSpec,
    SpecError,
    check_draw_options,
    json_text,
    order_note,
    parse_density_payload,
    parse_problem_spec,
    rational_field,
    ray_ceiling,
    rays_csv_text,
    rays_field,
    reorder_support,
    sample_csv_text,
    spec_value,
    support_labels,
    vector_field,
    write_json_atomic,
    _write_atomic,
)
from .sampling import empirical_moments, sample as draw_sample
from .solvers import (
    FitResult,
    fit_density_direct,
    fit_lambda,
    minimize_higher_moments,
    nearest_feasible_correlation,
)
from .tensor import exact_text

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INVALID = 3
EXIT_CAP = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; that slot is taken
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _load_json(path: str) -> object:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    except RecursionError as exc:
        raise SpecError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, an integer over the digit limit
        raise SpecError(f"{path}: not valid JSON ({exc})") from exc


def _save(write: Callable[[object, str], None], payload, path: str) -> None:
    """Write through an atomic writer; a path that cannot be written is an
    input error."""
    try:
        write(payload, path)
    except OSError as exc:
        raise SpecError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _target_mu2(spec: ProblemSpec, cls):
    """Resolve the exactly-one-of rho/mu2 contract into pair moments."""
    rho = spec.correlation()
    mu2 = spec.pair_moments()
    if (rho is None) == (mu2 is None):
        raise SpecError("rho/mu2: this command needs exactly one of them")
    if mu2 is None:
        mu2 = mu2_from_rho(cls, rho)
    return rho, mu2


def _fit(spec: ProblemSpec, cls, mu2, minimize: bool) -> tuple[FitResult, str, int | None]:
    """Pose the pair moments as one LP, over the 2^m masses (direct mode and
    every minimize) or over the class's rays. Returns the fit, the rows its
    certificate refers to, and the ray count (None in direct mode)."""
    if minimize or spec.mode == "direct":
        solve = minimize_higher_moments if minimize else fit_density_direct
        return solve(cls, mu2), "margin rows 1..m, pair rows lexicographic, unit-sum row", None
    rays = margin_rays(cls, ray_ceiling(cls.m))
    fit = fit_lambda(moment_map(rays, 2), mu2)
    return fit, "pair-moment rows lexicographic over ray columns, unit-sum row", rays.n_rays


def _density_payload(density, args) -> dict:
    return vector_field(reorder_support(density.values, args.paper_order), args.precision)


def _certificate_payload(fit: FitResult, rows_note: str) -> dict:
    return {
        "y": [exact_text(v) for v in fit.certificate],
        "rows": rows_note,
        "meaning": "y.A >= 0 componentwise and y.b < 0 for the stated rows",
    }


# ---------------------------------------------------------------------------
# command handlers: each fills the report below the shared header and
# returns the exit code


def _rays(args, spec: ProblemSpec, cls, report: dict) -> int:
    rays = margin_rays(cls, ray_ceiling(cls.m))
    report["status"] = "ok"
    report["kind"] = "margins"
    report["ray_count"] = rays.n_rays
    report["rays"] = rays_field(rays, args.precision, args.paper_order)
    if args.csv is not None:
        text = rays_csv_text(rays, args.paper_order)
        _save(_write_atomic, text, args.csv)
        report["csv_path"] = args.csv
    return EXIT_OK


def _bounds(args, spec: ProblemSpec, cls, report: dict) -> int:
    pb = pair_bounds(cls)
    precision = args.precision
    report["status"] = "ok"
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
    return EXIT_OK


def _fit_command(args, spec: ProblemSpec, cls, report: dict) -> int:
    """fit and minimize; fit minimizes too under options.objective."""
    minimize = args.command == "minimize" or spec.objective == "min-higher-moments"
    rho, mu2 = _target_mu2(spec, cls)
    report["mu2_target"] = vector_field(mu2.values, args.precision)
    if rho is not None:
        report["rho_target"] = vector_field(rho.values, args.precision)
    fit, rows_note, ray_count = _fit(spec, cls, mu2, minimize)
    report["mode"] = "direct" if ray_count is None else "rays"
    if ray_count is not None:
        report["ray_count"] = ray_count
    report["status"] = fit.status
    report["pivots"] = fit.pivots
    if fit.status == "infeasible":
        report["certificate"] = _certificate_payload(fit, rows_note)
        return EXIT_INFEASIBLE
    if fit.lam is not None:
        report["lambda"] = vector_field(fit.lam, args.precision)
    report["density"] = _density_payload(fit.density, args)
    if fit.objective is not None:
        report["objective"] = rational_field(fit.objective, args.precision)
    return EXIT_OK


def _nearest(args, spec: ProblemSpec, cls, report: dict) -> int:
    rho, mu2 = _target_mu2(spec, cls)
    if rho is None:
        # projection works in correlation coordinates, so a mu2 whose
        # correlation leaves [-1, 1] is rejected like such a rho
        rho = spec_value("mu2: implied ", rho_from_mu2, cls, mu2)
    proj = nearest_feasible_correlation(cls, rho)
    precision = args.precision
    report["rho_target"] = vector_field(rho.values, precision)
    report["mu2_target"] = vector_field(mu2.values, precision)
    report["status"] = proj.status
    report["rho_star"] = vector_field(proj.rho_star.values, precision)
    report["mu2_star"] = vector_field(proj.mu2_star.values, precision)
    report["distance"] = {
        "decimal": repr(proj.distance),
        "squared_exact": exact_text(proj.distance_sq),
    }
    report["lambda"] = vector_field(proj.lam, precision)
    report["density"] = _density_payload(proj.density, args)
    report["fw"] = {
        "iterations": proj.iterations,
        "gap_exact": exact_text(proj.gap),
        "converged": proj.converged,
    }
    return EXIT_OK


def _sample(args, spec: ProblemSpec, cls, report: dict) -> int:
    _, mu2 = _target_mu2(spec, cls)
    if spec.n is None:
        raise SpecError("options.n or --n: required for sample")
    seed = spec.seed if spec.seed is not None else 0
    report["mu2_target"] = vector_field(mu2.values, args.precision)
    fit, rows_note, _ = _fit(spec, cls, mu2, False)
    report["status"] = fit.status
    if fit.status == "infeasible":
        report["certificate"] = _certificate_payload(fit, rows_note)
        return EXIT_INFEASIBLE
    batch = draw_sample(fit.density, spec.n, seed)
    report["density"] = _density_payload(fit.density, args)
    report["sample"] = {
        "n": batch.n,
        "seed": batch.seed,
        "generator_id": batch.generator_id,
        "empirical_order1": vector_field(empirical_moments(batch, 1), args.precision),
        "empirical_order2": vector_field(empirical_moments(batch, 2), args.precision),
    }
    if args.csv is not None:
        _save(_write_atomic, sample_csv_text(batch), args.csv)
        report["sample"]["csv_path"] = args.csv
    return EXIT_OK


def _theta(args, spec: ProblemSpec, cls, report: dict) -> int:
    payload = _load_json(args.density) if args.density is not None else spec.density
    if payload is None:
        raise SpecError("density: give --density or a density field in the spec")
    f = parse_density_payload(payload, spec.m)
    theta = theta_from_density(cls, f)
    constant = theta.constant
    linear = theta.linear()
    report["status"] = "ok"
    report["density"] = _density_payload(f, args)
    report["theta"] = vector_field(reorder_support(theta.values, args.paper_order), args.precision)
    report["theta_order_note"] = (
        "entries indexed by interaction subsets under the same bijection "
        "as the support order above"
    )
    report["constant_term"] = rational_field(constant, args.precision)
    report["linear_terms"] = vector_field(linear, args.precision)
    report["checks"] = {
        "constant_is_one": constant == 1,
        "linear_all_zero": all(v == 0 for v in linear),
    }
    return EXIT_OK


class Command(NamedTuple):
    help: str
    handler: Callable[..., int]
    csv: bool = False  # defines a --csv export
    density: bool = False  # takes --density


COMMANDS = {
    "rays": Command("enumerate the extreme ray densities of the class", _rays, csv=True),
    "bounds": Command("attainable pair-moment and correlation ranges", _bounds),
    "fit": Command("find a member matching the target pair moments", _fit_command),
    "nearest": Command("project a correlation target onto the attainable set", _nearest),
    "minimize": Command("feasible member minimizing the summed order>=3 moments", _fit_command),
    "sample": Command("fit a member, then draw from it deterministically", _sample, csv=True),
    "theta": Command("interaction coefficients of a given density", _theta, density=True),
}
CSV_COMMANDS = " and ".join(name for name, command in COMMANDS.items() if command.csv)
DENSITY_COMMANDS = " and ".join(name for name, command in COMMANDS.items() if command.density)

__doc__ = (__doc__ or "").format(  # no docstring under python -OO
    commands="".join(f"  {name:9}{command.help}\n" for name, command in COMMANDS.items())
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bernray", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=list(COMMANDS), help="what to compute (listed above)")
    parser.add_argument("--input", required=True, help="problem spec JSON file")
    parser.add_argument("--output", help="write the report here instead of stdout")
    parser.add_argument("--csv", help=f"delimited export ({CSV_COMMANDS} only)")
    parser.add_argument("--mode", choices=["rays", "direct"],
                        help="override options.mode, read by fit and sample "
                             "(nearest and minimize ignore it)")
    parser.add_argument("--paper-order", action="store_true",
                        help="emit support-indexed vectors in complemented order")
    parser.add_argument("--seed", type=int, help="override options.seed")
    parser.add_argument("--n", type=int, help="override options.n")
    parser.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                        help=f"significant digits of decimal renderings (1..{MAX_PRECISION})")
    parser.add_argument("--density",
                        help=f"density JSON, a fit report works ({DENSITY_COMMANDS} only)")
    return parser


def run(args) -> tuple[dict, int]:
    command = COMMANDS[args.command]
    for flag in ("input", "output", "csv", "density"):
        if getattr(args, flag) == "":
            raise SpecError(f"--{flag}: empty path")
    if args.density is not None and not command.density:
        raise SpecError(f"--density: read by {DENSITY_COMMANDS} only")
    spec = parse_problem_spec(_load_json(args.input))
    if args.mode:
        spec.mode = args.mode
    check_draw_options("--", args.seed, args.n)
    if args.seed is not None:
        spec.seed = args.seed
    if args.n is not None:
        spec.n = args.n
    precision = args.precision
    if not 1 <= precision <= MAX_PRECISION:
        raise SpecError(f"--precision: must be in 1..{MAX_PRECISION}")
    if args.csv is not None and not command.csv:
        raise SpecError(f"--csv: delimited export is defined for {CSV_COMMANDS} only")
    # a file written may not be another file of the run: it would replace it
    paths = [(flag, os.path.realpath(path)) for flag in ("csv", "output", "input", "density")
             if (path := getattr(args, flag)) is not None]
    for (written, a), (other, b) in itertools.combinations(paths, 2):
        if a == b and written != "input":
            raise SpecError(f"--{written}: names the same file as --{other}")

    cls = spec.frechet_class()
    t0 = time.perf_counter()
    report: dict = {
        "tool": "bernray",
        "command": args.command,
        "m": spec.m,
        "p": vector_field(spec.p, precision),
        "support_order": {
            "note": order_note(args.paper_order),
            "points": support_labels(spec.m, args.paper_order),
        },
        "precision": precision,
    }
    code = command.handler(args, spec, cls, report)
    report["diagnostics"] = {"elapsed_s": round(time.perf_counter() - t0, 6)}
    return report, code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = run(args)
        if args.output is not None:
            _save(write_json_atomic, report, args.output)
    except SpecError as exc:
        print(f"bernray: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DimensionCapError as exc:
        print(f"bernray: {exc}", file=sys.stderr)
        return EXIT_CAP
    if args.output is None:
        try:
            sys.stdout.write(json_text(report) + "\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone (`| head`): point stdout at devnull so the
            # flush at exit cannot fail again, and end with the command's code
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
