"""Exact rational linear programming in equality standard form.

Solves min c.x subject to A x = b, x >= 0 with a two-phase tableau simplex.
Pivoting is Bland's rule throughout (lowest eligible index enters, lowest
basic index breaks ratio ties), which makes every run deterministic and
cycle-free. Infeasibility comes back with a rational Farkas certificate y
(y.A >= 0 componentwise, y.b < 0) that is re-verified in exact arithmetic
against the caller's rows before it is returned. verify_farkas clears y's
denominators once, so integer rows are checked in integers.

The two phases are two functions on one path, and solve_lp is phase_one
followed by phase_two. phase_one needs no cost: it runs the artificial
phase, verifies the certificate of an infeasible system, and drives the
artificials left at level zero out of the basis, which gives a FeasibleBasis.
phase_two takes a cost and runs Bland's rule on a copy of that basis's rows,
so one phase 1 serves any number of costs over the same rows. Its
reduced-cost row is built from the final basis of phase 1; reduced costs
against a basis are unique, so the path is the one the same costs would
take had they been carried through the drive-out. A and b may hold int and
Fraction entries alike; neither is rewrapped.

The tableau is fraction-free: integer rows T and one shared positive
denominator D = |det B| of the current basis B, with the invariant
T / D = B^-1 [A' | I | b'] and the objective row held over the same D. Each
pivot is tensor.pivot on the rows followed by tensor.eliminate on the
objective row; a negative pivot, which only the artificial drive-out can
meet, negates its row first. No gcd is taken per entry.

A' and b' are the input in tensor's integer form: column j over the positive
lcm t_j of its denominators and b over the lcm L of its own, so that
x_j = t_j x'_j / L. Rows are never scaled beyond the sign flip that makes b
nonnegative. A positive column scale multiplies column j's reduced cost by
t_j and every ratio of a ratio test by the same L / t_j, so each sign and
each order Bland's rule reads is the one of the unscaled tableau, and the
artificial reduced costs (hence the certificate) are unchanged. Scaling rows
would change the phase-1 costs and with them the pivot path.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .tensor import eliminate, over_common_denominator, pivot

ZERO = Fraction(0)


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple[Fraction, ...] | None
    objective: Fraction | None
    certificate: tuple[Fraction, ...] | None
    pivots: int


class CertificateError(AssertionError):
    """Internal consistency failure: a Farkas certificate did not verify."""


def verify_farkas(
    rows: Sequence[Sequence[Fraction | int]],
    b: Sequence[Fraction | int],
    y: Sequence[Fraction | int],
) -> bool:
    """Check y.A >= 0 componentwise and y.b < 0, exactly. y is cleared of
    its denominators once; a positive multiple keeps every sign, so integer
    rows are checked in integers."""
    if len(y) != len(rows):
        return False
    y_ints = over_common_denominator(y)[0]
    sums = [0] * (len(rows[0]) if rows else 0)
    for yi, row in zip(y_ints, rows):
        if yi:
            sums = [s + yi * v for s, v in zip(sums, row)]
    return all(s >= 0 for s in sums) and sum(yi * bi for yi, bi in zip(y_ints, b)) < 0


@dataclass(frozen=True, eq=False)
class FeasibleBasis:
    """A feasible basis of A x = b, x >= 0 in tensor's integer form: the
    tableau rows over den (each row's last entry is its right-hand side),
    the basic column of each row, the column scales t_j, b's scale L and the
    pivots taken so far. Phase 2 copies the rows; it never changes them."""

    rows: list[list[int]]
    basis: list[int]
    den: int
    scale: list[int]
    b_scale: int
    pivots: int

    def point(self) -> tuple[list[int], int]:
        """The basic solution as integers over one positive denominator,
        not reduced: x_j = values[j] / denominator."""
        values = [0] * len(self.scale)
        for r, bi in zip(self.rows, self.basis):
            values[bi] = self.scale[bi] * r[-1]
        return values, self.den * self.b_scale


def phase_one(
    rows: Sequence[Sequence[Fraction | int]],
    b: Sequence[Fraction | int],
) -> FeasibleBasis | LpResult:
    """Phase 1 of the two-phase simplex, which needs no cost: minimize the
    artificial sum, then drive every artificial left at level zero out of the
    basis, dropping the rows where none can leave (redundant constraints).
    Returns that feasible basis, or the infeasible result with its verified
    Farkas certificate."""
    nrows = len(rows)
    if nrows == 0:
        raise ValueError("need at least one constraint row")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows) or len(b) != nrows:
        raise ValueError("ragged constraint system")

    columns = [over_common_denominator(col) for col in zip(*rows)]
    scale = [t for _, t in columns]
    b_ints, b_scale = over_common_denominator(b)
    # Sign-adjust so the right-hand side is nonnegative; remember the flips
    # to map the certificate back to the caller's row orientation.
    flip = [-1 if v < 0 else 1 for v in b_ints]
    tab = []
    for i, (s, bi) in enumerate(zip(flip, b_ints)):
        row = [s * col[i] for col, _ in columns] + [0] * nrows
        row.append(s * bi)
        row[ncols + i] = 1
        tab.append(row)

    total = ncols + nrows  # artificials occupy columns ncols .. total-1
    # Minimize the artificial sum. Reduced costs start as c1_j - sum of
    # column j over the rows (artificial columns start basic).
    obj = [-sum(r[j] for r in tab) for j in range(ncols)] + [0] * nrows
    obj.append(-sum(r[total] for r in tab))
    lp = _Tableau(tab, obj, list(range(ncols, total)), 1)
    pivots = lp.run(allowed=total)
    if pivots is None:
        raise ArithmeticError("phase 1 cannot be unbounded")

    if lp.obj[total] < 0:  # phase-1 optimum (the artificial sum) is positive
        # The reduced cost of artificial i is 1 - y_i at optimum.
        den = lp.den
        cert = tuple(
            Fraction(lp.obj[ncols + i] - den, den) * flip[i] for i in range(nrows)
        )
        if not verify_farkas(rows, b, cert):
            raise CertificateError("phase-1 dual certificate failed exact verification")
        return LpResult("infeasible", None, None, cert, pivots)

    # The artificial columns can never enter again, so they leave the
    # tableau. Drive any leftover artificials out of the basis; a row where
    # no real column can pivot is a redundant constraint and is dropped.
    rows_out = [r[:ncols] + [r[total]] for r in lp.rows]
    basis, den = lp.basis, lp.den
    drop: list[int] = []
    for i in range(len(rows_out)):
        if basis[i] >= ncols:
            target = next((j for j in range(ncols) if rows_out[i][j]), None)
            if target is None:
                drop.append(i)
            else:
                den = pivot(rows_out, den, i, target)
                basis[i] = target
                pivots += 1
    for i in reversed(drop):
        del rows_out[i], basis[i]
    return FeasibleBasis(rows_out, basis, den, scale, b_scale, pivots)


def phase_two(start: FeasibleBasis, c: Sequence[Fraction | int]) -> FeasibleBasis | None:
    """Phase 2 from a feasible basis: Bland's rule on a copy of its rows
    until no reduced cost of c is negative. Returns the optimal basis, its
    pivots counted on from start's, or None when c is unbounded below."""
    ncols = len(start.scale)
    if len(c) != ncols:
        raise ValueError("objective length does not match columns")
    # Costs c_j t_j, made integer by their lcm; a positive factor leaves
    # every reduced-cost sign alone. The reduced-cost row over den is
    # den * c2 minus the cost of each basic column times its row, which is
    # unique for the basis.
    c2 = over_common_denominator([ci * t for ci, t in zip(c, start.scale)])[0] + [0]
    obj = [start.den * cj for cj in c2]
    for r, bi in zip(start.rows, start.basis):
        cb = c2[bi]
        if cb:
            obj = [o - cb * v for o, v in zip(obj, r)]
    lp = _Tableau(list(start.rows), obj, list(start.basis), start.den)
    steps = lp.run(allowed=ncols)
    if steps is None:
        return None
    return FeasibleBasis(lp.rows, lp.basis, lp.den, start.scale, start.b_scale, start.pivots + steps)


def solve_lp(
    rows: Sequence[Sequence[Fraction | int]],
    b: Sequence[Fraction | int],
    c: Sequence[Fraction | int] | None = None,
) -> LpResult:
    """Two-phase exact simplex: phase_one, then phase_two. c defaults to the
    zero objective (pure feasibility); its length is checked once phase 1
    has found the system feasible."""
    start = phase_one(rows, b)
    if isinstance(start, LpResult):
        return start
    cost = c if c is not None else [0] * len(start.scale)
    end = phase_two(start, cost)
    if end is None:
        return LpResult("unbounded", None, None, None, start.pivots)
    values, den = end.point()
    x = tuple(Fraction(v, den) if v else ZERO for v in values)
    objective = sum(ci * xi for ci, xi in zip(cost, x) if xi)
    return LpResult("optimal", x, objective, None, end.pivots)


class _Tableau:
    """Integer rows and objective row over the shared denominator den; the
    last entry of every row is its right-hand side."""

    def __init__(self, rows: list[list[int]], obj: list[int], basis: list[int], den: int):
        self.rows = rows
        self.obj = obj
        self.basis = basis
        self.den = den

    def run(self, allowed: int) -> int | None:
        """Bland-rule pivoting among columns below allowed until no reduced
        cost is negative. Returns the pivot count, or None when the entering
        column has no positive entry (the objective is unbounded)."""
        rows, basis = self.rows, self.basis
        pivots = 0
        while True:
            obj = self.obj
            enter = next((j for j in range(allowed) if obj[j] < 0), None)
            if enter is None:
                return pivots
            # minimum ratio rhs / a over a > 0, compared by cross-multiplying
            leave = None
            for i, r in enumerate(rows):
                a = r[enter]
                if a > 0:
                    if leave is None:
                        leave, num, dnm = i, r[-1], a
                        continue
                    lhs, rhs = r[-1] * dnm, num * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, num, dnm = i, r[-1], a
            if leave is None:
                return None
            self.pivot(leave, enter)
            pivots += 1

    def pivot(self, row: int, col: int) -> None:
        den = self.den
        self.den = pivot(self.rows, den, row, col)
        self.obj = eliminate(self.obj, self.rows[row], self.den, den, col)
        self.basis[row] = col
