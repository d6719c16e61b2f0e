"""Exact checks of bernray reports that never call bernray.

Every check reads the `exact` fields and recomputes with its own Fraction and
integer arithmetic, from the problem file the benchmark generated:

* fit, minimize, nearest, sample: the density is nonnegative, has unit mass
  and has margins p;
* fit, sample: its pair moments equal the target exactly;
* minimize: the objective equals the density's summed order-3+ moments;
* exit 2: the certificate y satisfies y.A >= 0 and y.b < 0 for rows rebuilt
  from the spec and the report's `rows` note. Direct rows are the margin,
  pair and unit-sum rows over the 2^m support points. Ray rows are the pair
  moments and unit mass of every vertex of the class polytope, which the
  verifier enumerates itself from bases (m <= 4);
* rays: every ray is a distinct vertex of the class;
* bounds: each moment range is [max(0, p_i + p_j - 1), min(p_i, p_j)];
* nearest: mu2_star equals the density's pair moments, rho_star matches
  them, gap_exact <= 1e-12 and the squared distance is exact;
* sample: a separate splitmix64 and threshold sampler redraws the sample;
  the empirical moments and, with --csv, every CSV row must match.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
from fractions import Fraction

GAP_LIMIT = Fraction(1, 10**12)
SQRT_TOLERANCE = Fraction(1, 10**25)
DIRECT_ROWS = "margin rows 1..m, pair rows lexicographic, unit-sum row"
RAY_ROWS = "pair-moment rows lexicographic over ray columns, unit-sum row"
GENERATOR_ID = "splitmix64-v1"
RAY_VERTEX_CAP = 4  # vertex enumeration by bases is cheap up to m=4


class Mismatch(Exception):
    """A report that is not an exact, correct answer to its problem file."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def q(text) -> Fraction:
    num, _, den = str(text).partition("/")
    return Fraction(int(num), int(den)) if den else Fraction(num)


def exact(field) -> list[Fraction]:
    return [q(v) for v in field["exact"]]


def pairs(m: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(m), 2))


def option(cmd: dict, flag: str, default=None):
    args = cmd["args"]
    return args[args.index(flag) + 1] if flag in args else default


# ---------------------------------------------------------------------------
# densities


def margins(f: list[Fraction], m: int) -> list[Fraction]:
    return [sum((v for k, v in enumerate(f) if k >> i & 1), Fraction(0)) for i in range(m)]


def pair_moments(f: list[Fraction], m: int) -> list[Fraction]:
    out = []
    for i, j in pairs(m):
        mask = 1 << i | 1 << j
        out.append(sum((v for k, v in enumerate(f) if k & mask == mask), Fraction(0)))
    return out


def check_member(f: list[Fraction], p: list[Fraction], what: str) -> None:
    m = len(p)
    expect(len(f) == 1 << m, f"{what}: {len(f)} entries for m={m}")
    expect(all(v >= 0 for v in f), f"{what}: negative mass")
    expect(sum(f) == 1, f"{what}: mass {sum(f)} is not 1")
    expect(margins(f, m) == p, f"{what}: margins differ from p")


def higher_moment_sum(f: list[Fraction]) -> Fraction:
    """sum over |S| >= 3 of E[prod_{i in S} X_i]: a point with k ones lies in
    2^k - 1 - k - C(k, 2) such subsets."""
    total = Fraction(0)
    for index, v in enumerate(f):
        k = bin(index).count("1")
        total += v * (2**k - 1 - k - k * (k - 1) // 2)
    return total


def sqrt_approx(x: Fraction, digits: int = 60) -> Fraction:
    scale = 10**digits
    return Fraction(math.isqrt(x.numerator * x.denominator * scale * scale), x.denominator * scale)


def correlations(mu: list[Fraction], p: list[Fraction]) -> list[Fraction]:
    out = []
    for (i, j), v in zip(pairs(len(p)), mu):
        scale = sqrt_approx(p[i] * (1 - p[i]) * p[j] * (1 - p[j]))
        out.append((v - p[i] * p[j]) / scale)
    return out


def close(a: list[Fraction], b: list[Fraction]) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= SQRT_TOLERANCE for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# vertices of the class polytope {f >= 0 : margins p, unit mass}


def _inverse(rows: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Gauss-Jordan inverse of a square matrix; None if singular."""
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == k)) for k in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                fac = aug[r][col]
                aug[r] = [a - fac * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@functools.lru_cache(maxsize=None)
def _bases(m: int) -> tuple:
    """(support, inverse) for every nonsingular basis of the class constraint
    matrix; only m is needed, p enters through the right side."""
    out = []
    for support in itertools.combinations(range(1 << m), m + 1):
        rows = [[Fraction(k >> i & 1) for k in support] for i in range(m)]
        rows.append([Fraction(1)] * (m + 1))
        inverse = _inverse(rows)
        if inverse is not None:
            out.append((support, inverse))
    return tuple(out)


def class_vertices(p: list[Fraction]) -> list[list[Fraction]]:
    m = len(p)
    expect(m <= RAY_VERTEX_CAP, f"ray-mode certificate at m={m}: vertex enumeration is capped at m={RAY_VERTEX_CAP}")
    rhs = list(p) + [Fraction(1)]
    found = set()
    for support, inverse in _bases(m):
        x = [sum(a * b for a, b in zip(row, rhs)) for row in inverse]
        if all(v >= 0 for v in x):
            f = [Fraction(0)] * (1 << m)
            for k, v in zip(support, x):
                f[k] = v
            found.add(tuple(f))
    return [list(f) for f in sorted(found)]


# ---------------------------------------------------------------------------
# per-command checks


def check_certificate(cmd, report, p, target) -> None:
    m = len(p)
    cert = report.get("certificate")
    expect(report.get("status") == "infeasible", f"status {report.get('status')!r} on exit 2")
    expect(cert is not None, "exit 2 without a certificate")
    y = [q(v) for v in cert["y"]]
    direct = cmd["command"] == "minimize" or option(cmd, "--mode", "rays") == "direct"
    note = DIRECT_ROWS if direct else RAY_ROWS
    expect(cert.get("rows") == note, f"rows note {cert.get('rows')!r}, expected {note!r}")
    if direct:
        columns = [
            [Fraction(k >> i & 1) for i in range(m)]
            + [Fraction(k >> i & k >> j & 1) for i, j in pairs(m)]
            + [Fraction(1)]
            for k in range(1 << m)
        ]
        b = list(p) + list(target) + [Fraction(1)]
    else:
        columns = [pair_moments(v, m) + [Fraction(1)] for v in class_vertices(p)]
        b = list(target) + [Fraction(1)]
    expect(all(len(col) == len(y) for col in columns), f"certificate has {len(y)} entries")
    for col in columns:
        expect(sum(a * c for a, c in zip(y, col)) >= 0, "certificate: y.A has a negative entry")
    expect(sum(a * c for a, c in zip(y, b)) < 0, "certificate: y.b is not negative")


def check_fit(cmd, report, p) -> None:
    m = len(p)
    target = [q(v) for v in cmd["spec"]["mu2"]]
    expect(exact(report["mu2_target"]) == target, "mu2_target differs from the problem file")
    if cmd["expect"] == 2:
        check_certificate(cmd, report, p, target)
        return
    expect(report.get("status") == "feasible", f"status {report.get('status')!r} on exit 0")
    f = exact(report["density"])
    check_member(f, p, "density")
    expect(pair_moments(f, m) == target, "density pair moments differ from the target")
    if "lambda" in report:
        lam = exact(report["lambda"])
        expect(all(v >= 0 for v in lam) and sum(lam) == 1, "lambda is not a simplex point")
    if cmd["command"] == "minimize":
        expect(q(report["objective"]["exact"]) == higher_moment_sum(f), "objective differs from the density's order>=3 moments")


def check_rays(cmd, report, p) -> None:
    m = len(p)
    rays = report["rays"]
    expect(report.get("status") == "ok", "status is not ok")
    expect(rays and report["ray_count"] == len(rays), "ray_count does not match the rays")
    nums = [x.numerator for x in p]
    dens = [x.denominator for x in p]
    seen = set()
    independent = {}
    for index, ray in enumerate(rays):
        texts = tuple(ray["exact"])
        expect(len(texts) == 1 << m, f"ray {index}: wrong length")
        expect(texts not in seen, f"ray {index} repeats an earlier ray")
        seen.add(texts)
        parts = [t.partition("/") for t in texts]
        scale = math.lcm(*(int(d) for _, _, d in parts if d))
        ints = [int(n) * (scale // int(d)) if d else int(n) * scale for n, _, d in parts]
        expect(min(ints) >= 0 and sum(ints) == scale, f"ray {index} is not a unit-mass density")
        for i in range(m):
            mass = sum(v for k, v in enumerate(ints) if k >> i & 1)
            expect(mass * dens[i] == nums[i] * scale, f"ray {index}: margin {i + 1} differs from p")
        support = sum(1 << k for k, v in enumerate(ints) if v)
        if support not in independent:
            independent[support] = _independent_support(support, m)
        expect(independent[support], f"ray {index} is a member but not a vertex")


def _independent_support(support: int, m: int) -> bool:
    """Columns (x, 1) of the support points are linearly independent."""
    vecs = [[k >> i & 1 for i in range(m)] + [1] for k in range(1 << m) if support >> k & 1]
    rank = 0
    for col in range(m + 1):
        piv = next((r for r in range(rank, len(vecs)) if vecs[r][col]), None)
        if piv is None:
            continue
        vecs[rank], vecs[piv] = vecs[piv], vecs[rank]
        for r in range(len(vecs)):
            if r != rank and vecs[r][col]:
                a, b = vecs[rank][col], vecs[r][col]
                vecs[r] = [a * x - b * y for x, y in zip(vecs[r], vecs[rank])]
        rank += 1
    return rank == len(vecs)


def check_bounds(cmd, report, p) -> None:
    expect(report.get("status") == "ok", "status is not ok")
    rows = report["pairs"]
    expect(len(rows) == len(pairs(len(p))), "wrong number of pairs")
    for row, (i, j) in zip(rows, pairs(len(p))):
        expect((row["i"], row["j"]) == (i + 1, j + 1), "pairs out of lexicographic order")
        lo, hi = max(Fraction(0), p[i] + p[j] - 1), min(p[i], p[j])
        expect(q(row["moment_lo"]["exact"]) == lo, f"pair ({i + 1},{j + 1}): moment_lo")
        expect(q(row["moment_hi"]["exact"]) == hi, f"pair ({i + 1},{j + 1}): moment_hi")
        scale = sqrt_approx(p[i] * (1 - p[i]) * p[j] * (1 - p[j]))
        want = [(lo - p[i] * p[j]) / scale, (hi - p[i] * p[j]) / scale]
        got = [q(row["rho_lo"]["exact"]), q(row["rho_hi"]["exact"])]
        expect(close(got, want), f"pair ({i + 1},{j + 1}): correlation range")


def check_nearest(cmd, report, p) -> None:
    m = len(p)
    rho = [q(v) for v in cmd["spec"]["rho"]]
    expect(exact(report["rho_target"]) == rho, "rho_target differs from the problem file")
    mu_t = exact(report["mu2_target"])
    expect(close(correlations(mu_t, p), rho), "mu2_target does not match rho")
    status = report.get("status")
    expect(status in ("feasible", "projected"), f"status {status!r}")
    f = exact(report["density"])
    check_member(f, p, "density")
    lam = exact(report["lambda"])
    expect(all(v >= 0 for v in lam) and sum(lam) == 1, "lambda is not a simplex point")
    mu_star = exact(report["mu2_star"])
    expect(mu_star == pair_moments(f, m), "mu2_star differs from the density's pair moments")
    expect(close(exact(report["rho_star"]), correlations(mu_star, p)), "rho_star does not match mu2_star")
    gap = q(report["fw"]["gap_exact"])
    expect(gap <= GAP_LIMIT, f"gap {float(gap):.3g} above 1e-12")
    weights = [1 / (p[i] * (1 - p[i]) * p[j] * (1 - p[j])) for i, j in pairs(m)]
    dist_sq = sum((w * (a - b) ** 2 for w, a, b in zip(weights, mu_star, mu_t)), Fraction(0))
    expect(q(report["distance"]["squared_exact"]) == dist_sq, "squared distance is not exact")
    if status == "feasible":
        expect(dist_sq == 0 and exact(report["rho_star"]) == rho, "feasible answer moved the target")


def splitmix64_codes(f: list[Fraction], n: int, seed: int) -> list[int]:
    """Inverse-CDF draws: output z of splitmix64 picks the first support
    point whose cumulative mass c satisfies z < ceil(c * 2^64)."""
    mask = (1 << 64) - 1
    cuts, acc = [], Fraction(0)
    for v in f:
        acc += v
        cuts.append(-(-(acc.numerator << 64) // acc.denominator))
    codes = []
    state = seed
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
        codes.append(bisect.bisect_right(cuts, z ^ z >> 31))
    return codes


def check_sample(cmd, report, p, csv_path=None) -> None:
    m = len(p)
    target = [q(v) for v in cmd["spec"]["mu2"]]
    expect(exact(report["mu2_target"]) == target, "mu2_target differs from the problem file")
    expect(report.get("status") == "feasible", f"status {report.get('status')!r}")
    f = exact(report["density"])
    check_member(f, p, "density")
    expect(pair_moments(f, m) == target, "density pair moments differ from the target")
    n, seed = int(option(cmd, "--n")), int(option(cmd, "--seed"))
    block = report["sample"]
    expect((block["n"], block["seed"], block["generator_id"]) == (n, seed, GENERATOR_ID), "sample header")
    codes = splitmix64_codes(f, n, seed)
    hist = [0] * (1 << m)
    for c in codes:
        hist[c] += 1
    order1 = [Fraction(sum(h for k, h in enumerate(hist) if k >> i & 1), n) for i in range(m)]
    order2 = [Fraction(sum(h for k, h in enumerate(hist) if k >> i & k >> j & 1), n) for i, j in pairs(m)]
    expect(exact(block["empirical_order1"]) == order1, "empirical order-1 moments differ from the redraw")
    expect(exact(block["empirical_order2"]) == order2, "empirical order-2 moments differ from the redraw")
    if cmd["csv"]:
        with open(csv_path) as handle:
            lines = handle.read().splitlines()
        expect(lines[:1] == [",".join(f"x{i + 1}" for i in range(m))], "CSV header")
        table = [",".join(str(k >> i & 1) for i in range(m)) for k in range(1 << m)]
        expect(len(lines) == n + 1, f"CSV has {len(lines) - 1} draws, expected {n}")
        for row, (line, c) in enumerate(zip(lines[1:], codes)):
            expect(line == table[c], f"CSV draw {row} differs from the redraw")


CHECKS = {
    "rays": check_rays,
    "bounds": check_bounds,
    "fit": check_fit,
    "minimize": check_fit,
    "nearest": check_nearest,
}


def check(cmd: dict, code, report_path: str, csv_path: str | None = None) -> None:
    """Raise Mismatch unless the command exited as expected with an exactly
    correct report."""
    expect(code == cmd["expect"], f"exit code {code}, expected {cmd['expect']}")
    with open(report_path) as handle:
        report = json.load(handle)
    spec = cmd["spec"]
    p = [q(v) for v in spec["p"]]
    expect(report.get("command") == cmd["command"] and report.get("m") == spec["m"], "report header")
    expect(exact(report["p"]) == p, "report margins differ from the problem file")
    if cmd["command"] == "sample":
        check_sample(cmd, report, p, csv_path)
    else:
        CHECKS[cmd["command"]](cmd, report, p)
