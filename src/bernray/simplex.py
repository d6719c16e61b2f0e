"""Exact rational linear programming in equality standard form.

Solves min c.x subject to A x = b, x >= 0 with a two-phase tableau simplex.
Pivoting is Bland's rule throughout (lowest eligible index enters, lowest
basic index breaks ratio ties), which makes every run deterministic and
cycle-free. Infeasibility comes back with a rational Farkas certificate y
(y.A >= 0 componentwise, y.b < 0) that is re-verified in exact arithmetic
against the caller's rows before it is returned.

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
    rows: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    y: Sequence[Fraction],
) -> bool:
    """Check y.A >= 0 componentwise and y.b < 0, exactly."""
    ncols = len(rows[0]) if rows else 0
    for j in range(ncols):
        if sum(y[i] * rows[i][j] for i in range(len(rows))) < 0:
            return False
    return sum(yi * bi for yi, bi in zip(y, b)) < 0


def solve_lp(
    rows: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction] | None = None,
) -> LpResult:
    """Two-phase exact simplex. c defaults to the zero objective
    (pure feasibility)."""
    nrows = len(rows)
    if nrows == 0:
        raise ValueError("need at least one constraint row")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows) or len(b) != nrows:
        raise ValueError("ragged constraint system")
    cost = [Fraction(v) for v in (c if c is not None else [ZERO] * ncols)]
    if len(cost) != ncols:
        raise ValueError("objective length does not match columns")

    columns = [over_common_denominator([Fraction(v) for v in col]) for col in zip(*rows)]
    scale = [t for _, t in columns]
    b_ints, b_scale = over_common_denominator([Fraction(v) for v in b])
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
    # Phase 1: minimize the artificial sum. Reduced costs start as
    # c1_j - sum of column j over the rows (artificial columns start basic).
    obj = [-sum(r[j] for r in tab) for j in range(ncols)] + [0] * nrows
    obj.append(-sum(r[total] for r in tab))
    lp = _Tableau(tab, obj, list(range(ncols, total)))
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

    # Phase 2 costs c_j t_j, made integer by their lcm; a positive factor
    # leaves every reduced-cost sign alone. The artificial columns can never
    # enter again, so they leave the tableau. The reduced-cost row is taken
    # against the current basis (artificials cost 0) and the drive-out
    # pivots below keep it current.
    c2 = over_common_denominator([ci * t for ci, t in zip(cost, scale)])[0] + [0]
    lp.rows = [r[:ncols] + [r[total]] for r in lp.rows]
    lp.obj = [lp.den * cj for cj in c2]
    for r, bi in zip(lp.rows, lp.basis):
        cb = c2[bi] if bi < ncols else 0
        if cb:
            lp.obj = [o - cb * v for o, v in zip(lp.obj, r)]

    # Drive any leftover artificials out of the basis; a row where no real
    # column can pivot is a redundant constraint and is dropped.
    drop: list[int] = []
    for i in range(len(lp.rows)):
        if lp.basis[i] >= ncols:
            target = next((j for j in range(ncols) if lp.rows[i][j]), None)
            if target is None:
                drop.append(i)
            else:
                lp.pivot(i, target)
                pivots += 1
    for i in reversed(drop):
        del lp.rows[i], lp.basis[i]

    phase2 = lp.run(allowed=ncols)
    if phase2 is None:
        return LpResult("unbounded", None, None, None, pivots)
    pivots += phase2

    x = [ZERO] * ncols
    den = lp.den * b_scale
    for r, bi in zip(lp.rows, lp.basis):
        x[bi] = Fraction(scale[bi] * r[-1], den)
    objective = sum(ci * xi for ci, xi in zip(cost, x) if xi)
    return LpResult("optimal", tuple(x), objective, None, pivots)


class _Tableau:
    """Integer rows and objective row over the shared denominator den; the
    last entry of every row is its right-hand side."""

    def __init__(self, rows: list[list[int]], obj: list[int], basis: list[int]):
        self.rows = rows
        self.obj = obj
        self.basis = basis
        self.den = 1

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
