import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, seed, settings, strategies as st

from karalcp.lp import (
    BOUNDED,
    FEASIBLE,
    INFEASIBLE,
    UNBOUNDED,
    LinearSystem,
    check_witness,
    lp_feasible,
    lp_optimize,
)
from karalcp.matrix import RationalMatrix, integer_row, subspace_bases, vec
from oracles import check_witness_fraction, lp2_feasible_bruteforce


class TestFeasibility:
    def test_simplex_face(self):
        system = LinearSystem(2, nonneg=True).eq([1, 1], 1)
        out = lp_feasible(system)
        assert out.status == FEASIBLE
        check_witness_fraction(system, out.witness)

    def test_one_var_contradiction(self):
        system = LinearSystem(1).ge([1], 1).le([1], 0)
        assert lp_feasible(system).status == INFEASIBLE

    def test_trivial_cone_of_singular_irreducible_m(self):
        # normalized nonnegative range vectors of [[1,-1],[-1,1]] do not exist
        a = RationalMatrix.from_rows([[1, -1], [-1, 1]])
        left_null = subspace_bases(a).left_null.basis
        system = LinearSystem(2, nonneg=True).eq([1, 1], 1)
        for w in left_null:
            system.eq(list(w), 0)
        assert lp_feasible(system).status == INFEASIBLE

    def test_no_constraints(self):
        out = lp_feasible(LinearSystem(3))
        assert out.status == FEASIBLE
        assert out.witness == vec([0, 0, 0])

    def test_zero_row_contradiction(self):
        assert lp_feasible(LinearSystem(1).eq([0], 1)).status == INFEASIBLE
        assert lp_feasible(LinearSystem(1).ge([0], 1)).status == INFEASIBLE
        assert lp_feasible(LinearSystem(1).ge([0], -1)).status == FEASIBLE


class TestOptimize:
    def test_bounded(self):
        system = LinearSystem(1, nonneg=True).le([1], 3)
        out = lp_optimize([1], system, "max")
        assert out.status == BOUNDED and out.value == 3 and out.witness == (Fraction(3),)

    def test_unbounded_with_improving_ray(self):
        system = LinearSystem(1, nonneg=True)
        out = lp_optimize([1], system, "max")
        assert out.status == UNBOUNDED
        assert out.ray[0] > 0

    def test_min_sense(self):
        system = LinearSystem(2, nonneg=True).ge([1, 1], 4)
        out = lp_optimize([2, 3], system, "min")
        assert out.status == BOUNDED and out.value == 8

    def test_interior_dual_slack_from_null_decomposition(self):
        # max t with d - b >= t e, b in N(A^T), for the tridiagonal Z-matrix
        # and d = (3,1,-1): optimum t = 1 with a = (1,1,1)
        a = RationalMatrix.from_rows([[0, -1, 0], [-1, 0, -1], [0, -1, 0]])
        null = subspace_bases(a).left_null.basis
        assert len(null) == 1
        d = vec([3, 1, -1])
        system = LinearSystem(2)
        for i in range(3):
            system.ge([-null[0][i], -1], -d[i])
        out = lp_optimize([0, 1], system, "max")
        assert out.status == BOUNDED and out.value == 1

    def test_infeasible(self):
        system = LinearSystem(1).ge([1], 1).le([1], 0)
        assert lp_optimize([1], system, "max").status == INFEASIBLE

    def test_fractional_data(self):
        system = LinearSystem(2, nonneg=True)
        system.ge([Fraction(1, 3), Fraction(1, 2)], Fraction(5, 6))
        system.le([1, 1], 2)
        out = lp_optimize([Fraction(1, 7), 1], system, "max")
        assert out.status == BOUNDED
        check_witness_fraction(system, out.witness)


coeff = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
row = st.tuples(coeff, coeff)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(row, coeff, st.booleans()), min_size=1, max_size=5),
       st.tuples(st.booleans(), st.booleans()))
def test_two_variable_systems_match_bruteforce(rows, nonneg):
    system = LinearSystem(2, nonneg=list(nonneg))
    for coeffs, rhs, is_eq in rows:
        if is_eq:
            system.eq(list(coeffs), rhs)
        else:
            system.ge(list(coeffs), rhs)
    out = lp_feasible(system)
    assert (out.status == FEASIBLE) == lp2_feasible_bruteforce(system)
    if out.status == FEASIBLE:
        check_witness_fraction(system, out.witness)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.tuples(coeff, coeff, coeff), coeff), min_size=2, max_size=6),
       st.tuples(coeff, coeff, coeff))
def test_strong_duality_certifies_optima(ge_rows, objective):
    """max c.x over {Gx >= h} equals min(lam.h) over {G^T lam = c, lam <= 0}
    whenever the primal is bounded; exact equality is a stringent
    correctness certificate for the optimizer."""
    primal = LinearSystem(3)
    for coeffs, rhs in ge_rows:
        primal.ge(list(coeffs), rhs)
    out = lp_optimize(list(objective), primal, "max")
    if out.status != BOUNDED:
        return
    m = len(ge_rows)
    dual = LinearSystem(m)
    for j in range(3):
        dual.eq([ge_rows[i][0][j] for i in range(m)], objective[j])
    for i in range(m):
        e = [Fraction(0)] * m
        e[i] = Fraction(1)
        dual.le(e, 0)
    dual_out = lp_optimize([ge_rows[i][1] for i in range(m)], dual, "min")
    assert dual_out.status == BOUNDED
    assert dual_out.value == out.value


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(row, coeff, st.booleans()), min_size=1, max_size=5),
       st.integers(0, 10 ** 6))
def test_infeasibility_stable_under_row_permutation(rows, seed):
    def build(order):
        system = LinearSystem(2)
        for coeffs, rhs, is_eq in order:
            (system.eq if is_eq else system.ge)(list(coeffs), rhs)
        return lp_feasible(system).status

    shuffled = rows[:]
    random.Random(seed).shuffle(shuffled)
    assert build(rows) == build(shuffled)


pq_coeff = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 7]))


@seed(11)
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.lists(pq_coeff, min_size=n, max_size=n), pq_coeff,
                       st.sampled_from(["eq", "ge", "le"])), min_size=1, max_size=5),
    st.lists(st.booleans(), min_size=n, max_size=n),
    st.lists(pq_coeff, min_size=n, max_size=n))))
def test_fraction_rows_and_prescaled_int_rows_solve_identically(case):
    """Rows given as p/q Fractions and the same rows pre-scaled to ints by
    integer_row build the same tableau: status, witness, value and ray agree."""
    rows, nonneg, objective = case

    def build(prescale: bool) -> LinearSystem:
        system = LinearSystem(len(nonneg), nonneg=nonneg)
        for coeffs, rhs, kind in rows:
            if prescale:
                *coeffs, rhs = integer_row([*coeffs, rhs])[0]
            getattr(system, kind)(coeffs, rhs)
        return system

    frac, ints = build(False), build(True)
    assert frac.equalities == ints.equalities and frac.inequalities_ge == ints.inequalities_ge
    assert lp_feasible(frac) == lp_feasible(ints)
    obj_ints, scale = integer_row(objective)
    for sense in ("max", "min"):
        want = lp_optimize(objective, frac, sense)
        got = lp_optimize(obj_ints, ints, sense)
        assert (got.status, got.witness, got.ray) == (want.status, want.witness, want.ray)
        assert got.value == (None if want.value is None else want.value * scale)


def _fraction_check(system, x, den):
    check_witness_fraction(system, tuple(Fraction(v, den) for v in x))


@pytest.mark.parametrize("check", [check_witness, _fraction_check],
                         ids=["integer", "fraction_oracle"])
class TestWitnessCheck:
    """x + y = 1 and 3x >= 1 with x, y >= 0, at the vertex (1/3, 2/3): one
    unit of 1/den off in either row is caught."""

    @staticmethod
    def system() -> LinearSystem:
        return LinearSystem(2, nonneg=True).eq([1, 1], 1).ge([3, 0], 1)

    def test_vertex_passes(self, check):
        check(self.system(), [1, 2], 3)
        out = lp_feasible(self.system())
        den = lcm(*(v.denominator for v in out.witness))
        check(self.system(), [int(v * den) for v in out.witness], den)

    def test_equality_row_off_by_one_over_den(self, check):
        with pytest.raises(ArithmeticError, match="equality"):
            check(self.system(), [1, 3], 3)

    def test_inequality_row_off_by_one_over_den(self, check):
        with pytest.raises(ArithmeticError, match="inequality"):
            check(self.system(), [0, 3], 3)

    def test_nonnegativity_marker(self, check):
        with pytest.raises(ArithmeticError, match="nonnegativity"):
            check(LinearSystem(2, nonneg=True).eq([1, 1], 1), [4, -1], 3)
