import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bernray import FrechetClass, higher_moment_objective, margin_rays, moment_map
from bernray.simplex import LpResult, solve_lp, verify_farkas

F = Fraction


def test_feasible_simple_system():
    # x1 + x2 = 1, x1 - x2 = 0 -> (1/2, 1/2)
    res = solve_lp([[F(1), F(1)], [F(1), F(-1)]], [F(1), F(0)])
    assert res.status == "optimal"
    assert res.x == (F(1, 2), F(1, 2))


def test_feasible_with_negative_rhs():
    # -x1 = -3 with x1 >= 0
    res = solve_lp([[F(-1), F(0)], [F(0), F(1)]], [F(-3), F(2)])
    assert res.status == "optimal"
    assert res.x == (F(3), F(2))


def test_objective_minimization():
    # minimize x3 over x1+x2+x3=1, all >= 0: any vertex with x3=0
    res = solve_lp([[F(1), F(1), F(1)]], [F(1)], c=[F(0), F(0), F(1)])
    assert res.status == "optimal"
    assert res.objective == 0
    assert res.x[2] == 0


def test_unbounded_detected():
    # minimize -x1 subject to x1 - x2 = 0: x1 can grow without bound
    res = solve_lp([[F(1), F(-1)]], [F(0)], c=[F(-1), F(0)])
    assert res.status == "unbounded"


def test_redundant_rows_ok():
    rows = [[F(1), F(1)], [F(2), F(2)]]
    res = solve_lp(rows, [F(1), F(2)])
    assert res.status == "optimal"
    assert sum(res.x) == 1


def test_infeasible_produces_verified_certificate():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    rows = [[F(1), F(1)], [F(1), F(1)]]
    b = [F(1), F(2)]
    res = solve_lp(rows, b)
    assert res.status == "infeasible"
    assert res.x is None
    y = res.certificate
    # y . rows >= 0 componentwise and y . b < 0: checked again here by hand
    for j in range(2):
        assert sum(y[i] * rows[i][j] for i in range(2)) >= 0
    assert sum(y[i] * b[i] for i in range(2)) < 0
    assert verify_farkas(rows, b, y)


def test_verify_farkas_rejects_bogus():
    rows = [[F(1), F(1)]]
    b = [F(1)]
    assert not verify_farkas(rows, b, [F(1)])  # y.b = 1, not negative
    assert not verify_farkas([[F(-1), F(1)]], [F(-1)], [F(1)])  # y.A has a negative entry


def test_matches_vertex_oracle_on_random_feasible():
    rng = random.Random(41)
    for _ in range(30):
        ncols = rng.randint(3, 6)
        nrows = rng.randint(1, min(3, ncols - 1))
        x0 = [F(rng.randint(0, 4)) for _ in range(ncols)]
        rows = [[F(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        b = [sum(r[j] * x0[j] for j in range(ncols)) for r in rows]
        # bound the polytope so the vertex oracle is exhaustive
        rows.append([F(1)] * ncols)
        b.append(sum(x0))
        cost = [F(rng.randint(-5, 5)) for _ in range(ncols)]
        res = solve_lp(rows, b, c=cost)
        assert res.status == "optimal"
        oracle = oracles.lp_min_by_vertices(rows, b, cost)
        assert oracle is not None
        assert res.objective == oracle[0]


def test_certificates_on_random_infeasible():
    rng = random.Random(43)
    checked = 0
    while checked < 15:
        ncols = rng.randint(2, 5)
        nrows = rng.randint(2, 4)
        rows = [[F(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        b = [F(rng.randint(-4, 4)) for _ in range(nrows)]
        res = solve_lp(rows, b)
        if res.status != "infeasible":
            continue
        assert verify_farkas(rows, b, res.certificate)
        checked += 1


def test_solution_satisfies_system_exactly():
    rng = random.Random(47)
    for _ in range(20):
        ncols = rng.randint(2, 6)
        x0 = [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(ncols)]
        rows = [[F(rng.randint(-2, 3)) for _ in range(ncols)] for _ in range(2)]
        rows.append([F(1)] * ncols)
        b = [sum(r[j] * x0[j] for j in range(ncols)) for r in rows]
        res = solve_lp(rows, b)
        assert res.status == "optimal"
        for r, bv in zip(rows, b):
            assert sum(rv * xv for rv, xv in zip(r, res.x)) == bv
        assert all(v >= 0 for v in res.x)


def test_driveout_pivots_on_negative_entry_then_drops_redundant_row():
    # -x2 - x3 = 0, 2 x1 + x3 = 1, -2 x2 - 2 x3 = 0 (twice the first row).
    # Phase 1 pivots x1 into the second row (D becomes 2). The first row
    # keeps its artificial basic at level zero, and its first nonzero real
    # entry is -2, so the drive-out pivots on a negative entry. The third
    # row is then zero on every real column and is dropped. Phase 2 makes
    # one degenerate pivot on x3. The only feasible point is (1/2, 0, 0).
    rows = [[F(0), F(-1), F(-1)], [F(2), F(0), F(1)], [F(0), F(-2), F(-2)]]
    b = [F(0), F(1), F(0)]
    res = solve_lp(rows, b, c=[F(1), F(2), F(-3)])
    assert res == LpResult("optimal", (F(1, 2), F(0), F(0)), F(1, 2), None, 3)


# Golden Bland paths, recorded with the Fraction tableau that preceded the
# integer one: status, pivot count, objective, nonzero x entries by index,
# certificate.
P4 = [F(1, 2), F(1, 3), F(1, 4), F(2, 5)]
P6 = [F(1, 2), F(1, 3), F(1, 4), F(2, 5), F(3, 5), F(2, 3)]


def _ray_fit_lp(p, mu2):
    """fit_lambda's system: pair-moment rows over the ray columns, unit sum."""
    rays = margin_rays(FrechetClass(p))
    rows = [list(r) for r in moment_map(rays, 2).entries] + [[F(1)] * rays.n_rays]
    return rows, list(mu2) + [F(1)], None


def _direct_minimize_lp(p, mu2):
    """minimize_higher_moments' system: margin rows, pair rows, unit sum."""
    m = len(p)
    n = 1 << m
    rows = [[F((k >> i) & 1) for k in range(n)] for i in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        mask = (1 << i) | (1 << j)
        rows.append([F(int(k & mask == mask)) for k in range(n)])
    rows.append([F(1)] * n)
    return rows, list(p) + list(mu2) + [F(1)], higher_moment_objective(m)


GOLDEN = [
    (
        _ray_fit_lp,
        P4,
        [F(1, 5), F(1, 6), F(1, 4), F(1, 12), F(1, 10), F(1, 20)],
        "optimal", 63, "0",
        {25: "85/396", 132: "13/144", 137: "5/18", 148: "1/15", 149: "1/60",
         150: "11/40", 151: "467/7920"},
        None,
    ),
    (
        _ray_fit_lp,
        P4,
        [F(0)] * 6,
        "infeasible", 69, None, None,
        ["89/5", "89/5", "-1", "89/5", "-1", "-1", "-1"],
    ),
    (
        _direct_minimize_lp,
        P6,
        [a * b for a, b in itertools.combinations(P6, 2)],
        "optimal", 174, "313/200",
        {0: "2/15", 17: "23/1800", 19: "41/900", 21: "1/120", 25: "47/1800",
         27: "29/900", 29: "1/24", 30: "1/30", 32: "1/150", 35: "1/40",
         37: "31/900", 39: "73/1800", 41: "23/300", 42: "7/200", 43: "7/300",
         44: "7/450", 46: "17/1800", 48: "1/225", 49: "2/15", 50: "4/45",
         52: "1/15", 56: "8/75"},
        None,
    ),
    (
        _direct_minimize_lp,
        P6,
        [max(F(0), a + b - 1) for a, b in itertools.combinations(P6, 2)],
        "infeasible", 45, None, None,
        ["-1"] * 6 + ["1"] * 16,
    ),
]


@pytest.mark.parametrize(
    "build, p, mu2, status, pivots, objective, x, cert",
    GOLDEN,
    ids=["ray4-feasible", "ray4-infeasible", "direct6-feasible", "direct6-infeasible"],
)
def test_golden_bland_paths(build, p, mu2, status, pivots, objective, x, cert):
    rows, b, c = build(p, mu2)
    res = solve_lp(rows, b, c)
    assert res.status == status
    assert res.pivots == pivots
    if status == "optimal":
        assert res.objective == F(objective)
        assert res.x == tuple(F(x.get(j, 0)) for j in range(len(rows[0])))
        assert res.certificate is None
    else:
        assert res.x is None and res.objective is None
        assert res.certificate == tuple(F(v) for v in cert)
        assert verify_farkas(rows, b, res.certificate)


_RATIONALS = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def _bounded_lps(draw):
    """A small random system plus a unit-weight row sum(x) = s, which bounds
    the polytope so that the vertex oracle is exhaustive. b is either
    attained by a random nonnegative point or drawn freely."""
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(0, 3))
    rows = [[draw(_RATIONALS) for _ in range(ncols)] for _ in range(nrows)]
    if draw(st.booleans()):
        x0 = [abs(draw(_RATIONALS)) for _ in range(ncols)]
        b = [sum(r[j] * x0[j] for j in range(ncols)) for r in rows]
        total = sum(x0)
    else:
        b = [draw(_RATIONALS) for _ in range(nrows)]
        total = abs(draw(_RATIONALS))
    rows.append([F(1)] * ncols)
    b.append(total)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(rows) - 1))
        scale = draw(_RATIONALS.filter(bool))
        rows.append([scale * v for v in rows[k]])
        b.append(scale * b[k])
    cost = [draw(_RATIONALS) for _ in range(ncols)]
    return rows, b, cost


@settings(max_examples=300, deadline=None)
@given(_bounded_lps())
def test_property_matches_vertex_oracle(lp):
    rows, b, cost = lp
    res = solve_lp(rows, b, c=cost)
    oracle = oracles.lp_min_by_vertices(rows, b, cost)
    if oracle is None:
        assert res.status == "infeasible"
        assert verify_farkas(rows, b, res.certificate)
        return
    assert res.status == "optimal"
    assert res.objective == oracle[0]
    assert all(v >= 0 for v in res.x)
    for r, bv in zip(rows, b):
        assert sum(rv * xv for rv, xv in zip(r, res.x)) == bv
