"""Problem specifications and result reports.

The JSON input format (one object per run):

    {
      "m": 3,
      "p": ["1/2", "1/2", "1/2"],
      "rho": ["0.2", "-0.3", "0.4"],      # or "mu2": [...], never both
      "options": {"mode": "rays", "objective": "none", "seed": 7, "n": 1000}
    }

Rationals are strings, either "a/b" or exact decimals ("0.3" means 3/10).
Pair arrays follow lexicographic pair order (1,2), (1,3), ..., (m-1,m).
Validation failures carry the JSON path of the offending field.

Reports are JSON objects with exact rational strings next to decimal
renderings; re-reading the exact fields loses nothing. All file writes are
atomic (temp file plus rename).
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterator, Sequence, TypeVar

from .cone import DimensionCapError, RayMatrix
from .frechet import CorrelationSpec, Density, FrechetClass, PairMoments
from .tensor import SUPPORT_CAP, bit_positions, exact_text, parse_rational

DEFAULT_PRECISION = 12
#: Largest --precision. Every decimal field is rendered to that many digits,
#: so an uncapped value grows reports without bound. 100 is twice the 50
#: digits the square-root policy guarantees; the exact fields carry the rest.
MAX_PRECISION = 100
#: Largest sample size. A sample keeps every draw in memory (one code per
#: draw) and its CSV holds a row per draw, so an uncapped n grows without
#: bound: 10^10 draws would run for hours toward about 80 GB.
MAX_DRAWS = 10**7
#: Most density cells (rays x 2^m points) a rays report renders. The report
#: is built whole before it is written, at about 100 bytes a cell (Python
#: 3.11): 4,000,000 cells of m=6 rays peaked at 432 MB, and symmetric m=6
#: (45 million) runs out of memory. The largest m=5 report has 573,120 cells.
MAX_REPORT_CELLS = 4 * 10**6

MODES = ("rays", "direct")
OBJECTIVES = ("none", "min-higher-moments")

T = TypeVar("T")


class SpecError(ValueError):
    """Invalid problem specification; message names the JSON path."""


@dataclass
class ProblemSpec:
    m: int
    p: tuple[Fraction, ...]
    rho: tuple[Fraction, ...] | None
    mu2: tuple[Fraction, ...] | None
    mode: str = "rays"
    objective: str = "none"
    seed: int | None = None
    n: int | None = None
    #: the unparsed "density" field, which theta reads when --density is absent
    density: Any = None

    def frechet_class(self) -> FrechetClass:
        return spec_value("p: ", FrechetClass, self.p)

    def correlation(self) -> CorrelationSpec | None:
        return None if self.rho is None else spec_value("rho: ", CorrelationSpec, self.m, self.rho)

    def pair_moments(self) -> PairMoments | None:
        return None if self.mu2 is None else spec_value("mu2: ", PairMoments, self.m, self.mu2)


def spec_value(prefix: str, make: Callable[..., T], *args: Any) -> T:
    """make(*args), with a ValueError it raises (a value type refusing its
    values) turned into a SpecError whose message starts with prefix."""
    try:
        return make(*args)
    except ValueError as exc:
        raise SpecError(f"{prefix}{exc}") from exc


def _want_int(obj: dict, key: str, path: str) -> int:
    v = obj.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise SpecError(f"{path}: expected an integer, got {v!r}")
    return v


def check_draw_options(prefix: str, seed: int | None, n: int | None) -> None:
    """Range checks of a sampler seed and a sample size given as prefix +
    "seed" and prefix + "n" (options.n, --n): the seed must fit in 64 bits
    and n must be in 1..MAX_DRAWS. None is not checked."""
    if seed is not None and not 0 <= seed < 1 << 64:
        raise SpecError(f"{prefix}seed: must fit in 64 bits, got {seed}")
    if n is not None and n < 1:
        raise SpecError(f"{prefix}n: must be >= 1, got {n}")
    if n is not None and n > MAX_DRAWS:
        raise SpecError(f"{prefix}n: must be at most {MAX_DRAWS}, got {n}")


def _rational_array(raw: Any, path: str, expected: int) -> tuple[Fraction, ...]:
    if not isinstance(raw, list):
        raise SpecError(f"{path}: expected an array of rational strings")
    if len(raw) != expected:
        raise SpecError(f"{path}: expected {expected} entries, got {len(raw)}")
    out = []
    for k, item in enumerate(raw):
        if not isinstance(item, (str, int)):
            raise SpecError(f"{path}[{k}]: expected a rational string, got {item!r}")
        try:
            out.append(parse_rational(str(item)))
        except ValueError as exc:
            raise SpecError(f"{path}[{k}]: {exc}") from exc
    return tuple(out)


def parse_problem_spec(obj: Any) -> ProblemSpec:
    if not isinstance(obj, dict):
        raise SpecError("top level: expected a JSON object")
    known = {"m", "p", "rho", "mu2", "options", "density"}
    for key in obj:
        if key not in known:
            raise SpecError(f"{key}: unknown field")
    m = _want_int(obj, "m", "m")
    if m < 1:
        raise SpecError(f"m: must be >= 1, got {m}")
    if m > SUPPORT_CAP:
        raise DimensionCapError(f"m={m} exceeds the cap of {SUPPORT_CAP} on the support size 2^m")
    if "p" not in obj:
        raise SpecError("p: required")
    p = _rational_array(obj["p"], "p", m)
    npairs = m * (m - 1) // 2

    rho = mu2 = None
    if "rho" in obj and "mu2" in obj:
        raise SpecError("rho/mu2: give exactly one, not both")
    if "rho" in obj:
        rho = _rational_array(obj["rho"], "rho", npairs)
    if "mu2" in obj:
        mu2 = _rational_array(obj["mu2"], "mu2", npairs)

    options = obj.get("options", {})
    if not isinstance(options, dict):
        raise SpecError("options: expected an object")
    for key in options:
        if key not in {"mode", "objective", "seed", "n"}:
            raise SpecError(f"options.{key}: unknown option")
    mode = options.get("mode", "rays")
    if mode not in MODES:
        raise SpecError(f"options.mode: expected one of {MODES}, got {mode!r}")
    objective = options.get("objective", "none")
    if objective not in OBJECTIVES:
        raise SpecError(f"options.objective: expected one of {OBJECTIVES}, got {objective!r}")
    seed = options.get("seed")
    if seed is not None:
        seed = _want_int(options, "seed", "options.seed")
    n = options.get("n")
    if n is not None:
        n = _want_int(options, "n", "options.n")
    check_draw_options("options.", seed, n)
    return ProblemSpec(m, p, rho, mu2, mode, objective, seed, n, obj.get("density"))


def parse_density_payload(obj: Any, m: int) -> Density:
    """Accept a bare array or {"values": [...]}, in the canonical support
    order, or a report carrying density.exact, read in the order that its
    support_order.points names: value k belongs to the point whose x1..xm
    label is points[k]."""
    raw, report = obj, False
    if isinstance(raw, dict):
        if isinstance(raw.get("density"), dict) and "exact" in raw["density"]:
            raw, report = raw["density"]["exact"], True
        elif "values" in raw:
            raw = raw["values"]
        elif "density" in raw:
            raw = raw["density"]
        else:
            raise SpecError("density: no recognizable density payload")
    vals = _rational_array(raw, "density", 1 << m)
    if report:
        order = obj.get("support_order")
        points = order.get("points") if isinstance(order, dict) else None
        labels = support_labels(m, False)
        if not (isinstance(points, list) and all(isinstance(x, str) for x in points)
                and sorted(points) == sorted(labels)):
            raise SpecError(f"density: support_order.points: expected the {len(labels)} distinct {m}-bit labels")
        by_label = dict(zip(points, vals))
        vals = tuple(by_label[x] for x in labels)
    return spec_value("density: ", Density, m, vals)


# ---------------------------------------------------------------------------
# rendering


def render_decimal(x: Fraction, precision: int = DEFAULT_PRECISION) -> str:
    with localcontext() as ctx:
        ctx.prec = precision
        d = Decimal(x.numerator) / Decimal(x.denominator)
    return str(d)


def rational_field(x: Fraction, precision: int) -> dict:
    return {"exact": exact_text(x), "decimal": render_decimal(x, precision)}


def vector_field(values: Sequence[Fraction | int], precision: int) -> dict:
    """Exact and decimal renderings of values."""
    return {
        "exact": [exact_text(x) for x in values],
        "decimal": [render_decimal(x, precision) for x in values],
    }


def _ray_columns(rays: RayMatrix, paper_order: bool, render) -> Iterator[list]:
    """Each sparse ray density as its 2^m rendered cells in the canonical or
    complemented order: a row of render(0) with render(entry / total)
    written over the support. Each distinct (entry, total) renders once;
    the rays of a report repeat a few hundred cells thousands of times."""
    n = 1 << rays.m
    zero = render(Fraction(0))
    cells: dict[tuple[int, int], Any] = {}
    for support, ray, total in zip(rays.supports, rays.entries, rays.totals):
        col = [zero] * n
        for c, v in zip(bit_positions(support), ray):
            cell = cells.get((v, total))
            if cell is None:
                cell = cells[v, total] = render(Fraction(v, total))
            col[n - 1 - c if paper_order else c] = cell
        yield col


def ray_ceiling(m: int) -> int:
    """Most rays a rays report of class dimension m may hold: the double
    description is refused in the row that passes it, before any report or
    CSV is built."""
    return MAX_REPORT_CELLS >> m


def rays_field(rays: RayMatrix, precision: int, paper_order: bool) -> list[dict]:
    """vector_field of every ray density, in the canonical or complemented
    order."""
    out = []
    for col in _ray_columns(rays, paper_order, lambda x: (exact_text(x), render_decimal(x, precision))):
        exact, decimal = zip(*col)
        out.append({"exact": exact, "decimal": decimal})
    return out


def support_labels(m: int, paper_order: bool) -> list[str]:
    """Support points as x1..xm bit strings, canonical or complemented order."""
    idx = range((1 << m) - 1, -1, -1) if paper_order else range(1 << m)
    return ["".join(str((j >> i) & 1) for i in range(m)) for j in idx]


def reorder_support(values: Sequence, paper_order: bool) -> list:
    """The complemented order is the canonical order reversed."""
    return list(reversed(values)) if paper_order else list(values)


def order_note(paper_order: bool) -> str:
    if paper_order:
        return (
            "complemented: row k is the componentwise complement of the "
            "ascending-binary point k (equivalently, canonical order reversed)"
        )
    return "canonical: row k is the point with x_i = bit (i-1) of k, k ascending"


# ---------------------------------------------------------------------------
# output


def json_text(value: Any, indent: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, for values built from
    dicts with string keys, lists, tuples, strings and scalars.

    json's C encoder serves only indent=None, and its pure-Python fallback
    took longer to write a rays report than rendering the report took; here
    only containers recurse, strings go through the C escaper and scalars
    through json."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + json_text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [
            encode_basestring_ascii(v) if type(v) is str else json_text(v, inner) for v in value
        ]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(value)


def write_json_atomic(payload: dict, path: str) -> None:
    _write_atomic(json_text(payload) + "\n", path)


def _write_atomic(text: str, path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bernray-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def rays_csv_text(rays: RayMatrix, paper_order: bool) -> str:
    """One ray density per column, exact cells, support labels in the first
    column."""
    import csv
    import io

    columns = list(_ray_columns(rays, paper_order, exact_text))
    buf = io.StringIO()
    buf.write(f"# support order: {order_note(paper_order)}\n")
    writer = csv.writer(buf)
    writer.writerow(["point"] + [f"ray_{k+1}" for k in range(rays.n_rays)])
    for label, cells in zip(support_labels(rays.m, paper_order), zip(*columns)):
        writer.writerow([label, *cells])
    return buf.getvalue()


def sample_csv_text(batch) -> str:
    import io

    buf = io.StringIO()
    batch.write_csv(buf)
    return buf.getvalue()
