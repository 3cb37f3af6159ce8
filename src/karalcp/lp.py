"""Exact linear programming over the rationals.

Feasibility and optimization are decided by a two-phase primal simplex
with Bland's rule (guaranteed termination, no tolerances).  The tableau
is kept integral via integer pivoting: the stored tableau equals the true
tableau times the current basis determinant `den > 0`, so sign tests and
ratio comparisons run on machine/big ints and every pivot divides exactly.

Variables are free unless the system marks them nonnegative; free
variables are split internally.  Strict inequalities never appear here:
callers encode open conditions by maximizing a slack or normalizing a
support (see the class-test modules).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    `rat` accepts.
    """

    __slots__ = ("n_vars", "equalities", "inequalities_ge", "nonneg")

    def __init__(self, n_vars: int, nonneg: Sequence[bool] | bool = False):
        self.n_vars = n_vars
        self.equalities: list[tuple[Vector, Fraction]] = []
        self.inequalities_ge: list[tuple[Vector, Fraction]] = []
        if isinstance(nonneg, bool):
            self.nonneg = [nonneg] * n_vars
        else:
            self.nonneg = list(nonneg)
            if len(self.nonneg) != n_vars:
                raise ValueError("nonneg marker length must equal n_vars")

    def eq(self, coeffs: Sequence, rhs=0) -> "LinearSystem":
        self.equalities.append((tuple(rat(c) for c in coeffs), rat(rhs)))
        return self

    def ge(self, coeffs: Sequence, rhs=0) -> "LinearSystem":
        self.inequalities_ge.append((tuple(rat(c) for c in coeffs), rat(rhs)))
        return self

    def le(self, coeffs: Sequence, rhs=0) -> "LinearSystem":
        return self.ge([-rat(c) for c in coeffs], -rat(rhs))


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
    obj = [rat(c) for c in objective]
    if len(obj) != system.n_vars:
        raise ValueError("objective length must equal n_vars")
    minimize = obj if sense == "min" else [-c for c in obj]
    status, witness, value, ray = _Simplex(system).optimize(minimize)
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

        raw_rows: list[tuple[Vector, Fraction, bool]] = []
        for coeffs, rhs in sysm.equalities:
            raw_rows.append((coeffs, rhs, True))
        for coeffs, rhs in sysm.inequalities_ge:
            raw_rows.append((coeffs, rhs, False))

        kept: list[tuple[list[int], int, bool]] = []
        for coeffs, rhs, is_eq in raw_rows:
            if len(coeffs) != n:
                raise ValueError("constraint row length must equal n_vars")
            if all(x == 0 for x in coeffs):
                if (is_eq and rhs != 0) or (not is_eq and rhs > 0):
                    self.trivially_infeasible = True
                continue
            ints, _ = integer_row((*coeffs, rhs))
            kept.append((ints[:-1], ints[-1], is_eq))

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

    def _witness(self) -> Vector:
        vals = {self.basis[i]: Fraction(self.tableau[i][self.rhs_col], self.den) for i in range(self.m)}
        out = []
        for j in range(self.system.n_vars):
            x = vals.get(self.col_of_pos[j], Fraction(0))
            neg = self.col_of_neg[j]
            if neg is not None:
                x -= vals.get(neg, Fraction(0))
            out.append(x)
        witness = tuple(out)
        self._check_witness(witness)
        return witness

    def _check_witness(self, x: Vector) -> None:
        sysm = self.system
        for coeffs, rhs in sysm.equalities:
            if sum(c * v for c, v in zip(coeffs, x)) != rhs:
                raise ArithmeticError("simplex produced an invalid equality witness")
        for coeffs, rhs in sysm.inequalities_ge:
            if sum(c * v for c, v in zip(coeffs, x)) < rhs:
                raise ArithmeticError("simplex produced an invalid inequality witness")
        for j, flag in enumerate(sysm.nonneg):
            if flag and x[j] < 0:
                raise ArithmeticError("simplex violated a nonnegativity marker")

    def _ray(self) -> Vector:
        p = self._unbounded_col
        dy = {p: Fraction(1)}
        for i in range(self.m):
            a = self.tableau[i][p]
            if a:
                dy[self.basis[i]] = Fraction(-a, self.den)
        out = []
        for j in range(self.system.n_vars):
            d = dy.get(self.col_of_pos[j], Fraction(0))
            neg = self.col_of_neg[j]
            if neg is not None:
                d -= dy.get(neg, Fraction(0))
            out.append(d)
        return tuple(out)

    # -- drivers ----------------------------------------------------------

    def feasible_point(self) -> Vector | None:
        if not self._phase1():
            return None
        return self._witness()

    def optimize(self, minimize: list[Fraction]):
        if not self._phase1():
            return INFEASIBLE, None, None, None
        scaled, scale = integer_row(minimize)
        width = self.rhs_col + 1
        cost_true = [0] * width
        for j, ci in enumerate(scaled):
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
