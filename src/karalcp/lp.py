"""Exact linear programming over the rationals.

Feasibility and optimization are decided by a two-phase primal simplex
with Bland's rule (guaranteed termination, no tolerances).  The layer is
integer from row entry to witness check: each constraint row is scaled
to integers once, when it is added (`integer_row`; an all-int row is kept
as given), and the tableau is kept integral via integer pivoting: the
stored tableau equals the true tableau times the current basis
determinant `den > 0`, so sign tests and ratio comparisons run on ints
and every pivot divides exactly.  A basic solution is verified against
every row in integers, as numerators over `den`, before it becomes the
Fractions the layer returns.

Variables are free unless the system marks them nonnegative; free
variables are split internally.  Strict inequalities never appear here:
callers encode open conditions by maximizing a slack or normalizing a
support (see the class-test modules).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .matrix import Vector, integer_row, rat

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
BOUNDED = "bounded"
UNBOUNDED = "unbounded"


class LinearSystem:
    """Equalities and >= inequalities over n_vars rational variables.

    `nonneg[j]` declares x_j >= 0 structurally (equivalent to, but cheaper
    than, an inequality row).  Rows may be given as sequences of anything
    `rat` accepts; each is stored as an integer (coeffs, rhs) pair, the
    given row times a positive factor (1 for an all-int row).
    """

    __slots__ = ("n_vars", "equalities", "inequalities_ge", "nonneg")

    def __init__(self, n_vars: int, nonneg: Sequence[bool] | bool = False):
        self.n_vars = n_vars
        self.equalities: list[tuple[tuple[int, ...], int]] = []
        self.inequalities_ge: list[tuple[tuple[int, ...], int]] = []
        if isinstance(nonneg, bool):
            self.nonneg = [nonneg] * n_vars
        else:
            self.nonneg = list(nonneg)
            if len(self.nonneg) != n_vars:
                raise ValueError("nonneg marker length must equal n_vars")

    def eq(self, coeffs: Sequence, rhs=0) -> "LinearSystem":
        self.equalities.append(_int_row(coeffs, rhs))
        return self

    def ge(self, coeffs: Sequence, rhs=0) -> "LinearSystem":
        self.inequalities_ge.append(_int_row(coeffs, rhs))
        return self

    def le(self, coeffs: Sequence, rhs=0) -> "LinearSystem":
        ints, r = _int_row(coeffs, rhs)
        self.inequalities_ge.append((tuple(-c for c in ints), -r))
        return self


def _scaled(values: Sequence) -> tuple[list[int], int]:
    """`values` times a positive multiplier, as ints, and the multiplier:
    integer_row of the Fractions, or the ints themselves when all are int."""
    if all(type(x) is int for x in values):
        return list(values), 1
    return integer_row([rat(x) for x in values])


def _int_row(coeffs: Sequence, rhs) -> tuple[tuple[int, ...], int]:
    *ints, r = _scaled((*coeffs, rhs))[0]
    return tuple(ints), r


@dataclass
class LpOutcome:
    """Result of an exact LP call.

    status: feasible | infeasible | bounded | unbounded.
    witness satisfies every constraint exactly; ray strictly improves the
    objective from any feasible point.
    """

    status: str
    witness: Vector | None = None
    value: Fraction | None = None
    ray: Vector | None = None

    @property
    def is_feasible(self) -> bool:
        return self.status in (FEASIBLE, BOUNDED, UNBOUNDED)


def lp_feasible(system: LinearSystem) -> LpOutcome:
    """Exact feasibility: Feasible with witness, or Infeasible."""
    sol = _Simplex(system).feasible_point()
    if sol is None:
        return LpOutcome(INFEASIBLE)
    return LpOutcome(FEASIBLE, witness=sol)


def lp_optimize(objective: Sequence, system: LinearSystem, sense: str = "max") -> LpOutcome:
    """Exact optimum with witness, Unbounded with improving ray, or Infeasible."""
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    obj, scale = _scaled(objective)
    if len(obj) != system.n_vars:
        raise ValueError("objective length must equal n_vars")
    minimize = obj if sense == "min" else [-c for c in obj]
    status, witness, value, ray = _Simplex(system).optimize(minimize, scale)
    if status == INFEASIBLE:
        return LpOutcome(INFEASIBLE)
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED, witness=witness, ray=ray)
    if sense == "max":
        value = -value
    return LpOutcome(BOUNDED, witness=witness, value=value)


class _Simplex:
    """Two-phase simplex on an integer tableau (stored = true * den)."""

    def __init__(self, system: LinearSystem):
        self.system = system
        self.trivially_infeasible = False
        self._build()

    # -- tableau construction ------------------------------------------

    def _build(self) -> None:
        sysm = self.system
        n = sysm.n_vars
        # Column layout per original variable: one column if nonneg, else a split pair.
        self.col_of_pos: list[int] = []
        self.col_of_neg: list[int | None] = []
        c = 0
        for j in range(n):
            self.col_of_pos.append(c)
            c += 1
            if sysm.nonneg[j]:
                self.col_of_neg.append(None)
            else:
                self.col_of_neg.append(c)
                c += 1
        self.n_struct = c

        kept: list[tuple[tuple[int, ...], int, bool]] = []
        for rows, is_eq in ((sysm.equalities, True), (sysm.inequalities_ge, False)):
            for coeffs, rhs in rows:
                if len(coeffs) != n:
                    raise ValueError("constraint row length must equal n_vars")
                if not any(coeffs):
                    if (is_eq and rhs != 0) or (not is_eq and rhs > 0):
                        self.trivially_infeasible = True
                    continue
                kept.append((coeffs, rhs, is_eq))

        self.n_surplus = sum(1 for _, _, is_eq in kept if not is_eq)
        m = len(kept)
        self.m = m
        self.art_start = self.n_struct + self.n_surplus
        width = self.art_start + m + 1
        self.rhs_col = width - 1

        tableau: list[list[int]] = []
        surplus_idx = 0
        for k, (ints, rhs_i, is_eq) in enumerate(kept):
            row = [0] * width
            for j, v in enumerate(ints):
                if v:
                    row[self.col_of_pos[j]] = v
                    neg = self.col_of_neg[j]
                    if neg is not None:
                        row[neg] = -v
            if not is_eq:
                row[self.n_struct + surplus_idx] = -1
                surplus_idx += 1
            row[self.rhs_col] = rhs_i
            if rhs_i < 0:
                row = [-v for v in row]
            row[self.art_start + k] = 1
            tableau.append(row)

        self.tableau = tableau
        self.basis = [self.art_start + k for k in range(m)]
        self.den = 1

    # -- pivoting --------------------------------------------------------

    def _pivot(self, r: int, p: int) -> None:
        t = self.tableau
        den = self.den
        rowr = t[r]
        piv = rowr[p]
        for i in range(len(t)):
            if i == r:
                continue
            rowi = t[i]
            f = rowi[p]
            if f == 0:
                if piv != den:
                    t[i] = [(x * piv) // den for x in rowi]
            else:
                t[i] = [(x * piv - f * y) // den for x, y in zip(rowi, rowr)]
        self.den = piv
        self.basis[r] = p

    def _run(self, cost: list[int], allowed_end: int) -> str:
        """Bland's-rule simplex on pricing row `cost` (stored, shares den)."""
        t = self.tableau
        m = self.m
        basis = self.basis
        while True:
            enter = -1
            for j in range(allowed_end):
                if cost[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            lr_rhs = lr_piv = 0
            for i in range(m):
                a = t[i][enter]
                if a > 0:
                    b = t[i][self.rhs_col]
                    if leave < 0:
                        leave, lr_rhs, lr_piv = i, b, a
                    else:
                        d = b * lr_piv - lr_rhs * a
                        if d < 0 or (d == 0 and basis[i] < basis[leave]):
                            leave, lr_rhs, lr_piv = i, b, a
            if leave < 0:
                self._unbounded_col = enter
                return "unbounded"
            den = self.den
            rowr = t[leave]
            piv = rowr[enter]
            f = cost[enter]
            self._pivot(leave, enter)
            cost[:] = [(x * piv - f * y) // den for x, y in zip(cost, rowr)]

    # -- phase 1 ---------------------------------------------------------

    def _phase1(self) -> bool:
        if self.trivially_infeasible:
            return False
        t = self.tableau
        width = self.rhs_col + 1
        cost = [0] * width
        for j in range(width):
            if self.art_start <= j < self.art_start + self.m:
                continue
            cost[j] = -sum(t[i][j] for i in range(self.m))
        self._run(cost, self.art_start)
        if cost[self.rhs_col] != 0:
            return False
        self._drive_out_artificials()
        return True

    def _drive_out_artificials(self) -> None:
        t = self.tableau
        drop: list[int] = []
        for i in range(self.m):
            if self.basis[i] < self.art_start:
                continue
            row = t[i]
            p = next((j for j in range(self.art_start) if row[j] != 0), None)
            if p is None:
                drop.append(i)
                continue
            if row[p] < 0:
                t[i] = [-x for x in row]
            self._pivot(i, p)
        for i in reversed(drop):
            del t[i]
            del self.basis[i]
        self.m = len(t)
        # Artificial columns are dead from here on; remove them.
        lo = self.art_start
        for i in range(self.m):
            t[i] = t[i][:lo] + [t[i][self.rhs_col]]
        self.rhs_col = lo

    # -- extraction -------------------------------------------------------

    def _to_vars(self, cols: dict[int, int]) -> list[int]:
        """Column values to original variables: each positive part minus its
        split negative part."""
        return [cols.get(p, 0) - cols.get(q, 0) for p, q in zip(self.col_of_pos, self.col_of_neg)]

    def _witness(self) -> Vector:
        x = self._to_vars({self.basis[i]: self.tableau[i][self.rhs_col] for i in range(self.m)})
        check_witness(self.system, x, self.den)
        return tuple(Fraction(v, self.den) for v in x)

    def _ray(self) -> Vector:
        p = self._unbounded_col
        dy = {self.basis[i]: -self.tableau[i][p] for i in range(self.m)}
        dy[p] = self.den
        return tuple(Fraction(v, self.den) for v in self._to_vars(dy))

    # -- drivers ----------------------------------------------------------

    def feasible_point(self) -> Vector | None:
        if not self._phase1():
            return None
        return self._witness()

    def optimize(self, minimize: list[int], scale: int):
        """Minimize `minimize / scale` (the objective as integers over scale > 0)."""
        if not self._phase1():
            return INFEASIBLE, None, None, None
        width = self.rhs_col + 1
        cost_true = [0] * width
        for j, ci in enumerate(minimize):
            if ci:
                cost_true[self.col_of_pos[j]] += ci
                neg = self.col_of_neg[j]
                if neg is not None:
                    cost_true[neg] -= ci
        # Price out the current basis: stored rows are den * (B^-1 A), so the
        # reduced cost scaled by den, den * c - c_B . row, is an integer row.
        cost = [self.den * c for c in cost_true]
        for i in range(self.m):
            cb = cost_true[self.basis[i]]
            if cb:
                cost = [x - cb * y for x, y in zip(cost, self.tableau[i])]
        status = self._run(cost, self.rhs_col)
        if status == "unbounded":
            return UNBOUNDED, self._witness(), None, self._ray()
        value = Fraction(-cost[self.rhs_col], self.den) / scale
        return BOUNDED, self._witness(), value, None


def check_witness(system: LinearSystem, x: Sequence[int], den: int) -> None:
    """ArithmeticError unless the point x / den (integer numerators over
    den > 0) satisfies every row and nonnegativity marker of `system`,
    checked in integers: sum c * x = rhs * den, sum c * x >= rhs * den,
    and x_j >= 0."""
    if any(sum(map(mul, c, x)) != rhs * den for c, rhs in system.equalities):
        raise ArithmeticError("simplex produced an invalid equality witness")
    if any(sum(map(mul, c, x)) < rhs * den for c, rhs in system.inequalities_ge):
        raise ArithmeticError("simplex produced an invalid inequality witness")
    if any(flag and v < 0 for flag, v in zip(system.nonneg, x)):
        raise ArithmeticError("simplex violated a nonnegativity marker")
