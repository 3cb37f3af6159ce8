"""Exact checks on the program's outputs, written apart from the program.

Nothing here imports karalcp: the checks use their own Fraction
elimination, so a defect in the library's kernel cannot make a wrong
answer agree with its own check.  Every function returns a list of
problem strings; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

YES = "Yes"
NO = "No"
_FLIP = {YES: NO, NO: YES}

# (antecedent, status) => (consequent, status): facts of the class theory
# that hold for every square matrix.  Only a decisive contradiction counts.
IMPLICATIONS = (
    (("positive", YES), ("nonnegative", YES)),
    (("p", YES), ("p0", YES)),
    (("p", YES), ("p_hash", YES)),
    (("p", YES), ("q_matrix", YES)),
    (("p", YES), ("strictly_semimonotone", YES)),
    (("p", YES), ("semipositive", YES)),
    (("strictly_semimonotone", YES), ("semimonotone", YES)),
    (("strictly_semimonotone", YES), ("semipositive", YES)),
    (("semipositive", YES), ("weakly_semipositive", YES)),
    (("semimonotone", YES), ("weakly_semipositive", YES)),
    (("nonnegative", YES), ("semimonotone", YES)),
    (("m_matrix", YES), ("z_matrix", YES)),
    (("n_first_category", YES), ("n_matrix", YES)),
    (("has_nonpositive_row", YES), ("q_matrix", NO)),
)


def rank(rows: list[list[Fraction]]) -> int:
    a = [list(r) for r in rows]
    r = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        for i in range(r + 1, len(a)):
            if a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def _solve_unique(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """The solution of a square system, or None when it is singular."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            return None
        a[c], a[pr] = a[pr], a[c]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [a[i][n] / a[i][i] for i in range(n)]


def in_range(a: list[list[Fraction]], x) -> bool:
    """x is a combination of the columns of a."""
    cols = [list(row) for row in zip(*a)]
    return rank([*cols, list(x)]) == rank(cols)


def _supported_in(x, support) -> bool:
    return all(x[i] == 0 for i in range(len(x)) if i not in support)


def _mul(a: list[list[Fraction]], x) -> list[Fraction]:
    return [sum((aij * xj for aij, xj in zip(row, x)), Fraction(0)) for row in a]


def _columns_basis(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """Linearly independent columns of `a` spanning its range."""
    basis: list[list[Fraction]] = []
    for j in range(len(a[0])):
        col = [row[j] for row in a]
        if rank([*basis, col]) > len(basis):
            basis.append(col)
    return basis


def cone_generators(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """Vertices of {x in R(A), x >= 0, sum x = 1}; they generate K."""
    n = len(a)
    basis = _columns_basis(a)
    r = len(basis)
    if r == 0:
        return []
    rows_b = [[b[i] for b in basis] for i in range(n)]
    norm = [sum(rows_b[i][k] for i in range(n)) for k in range(r)]
    out = []
    for subset in itertools.combinations(range(n), r - 1):
        c = _solve_unique([rows_b[i] for i in subset] + [norm],
                          [Fraction(0)] * (r - 1) + [Fraction(1)])
        if c is None:
            continue
        x = [sum((rows_b[i][k] * c[k] for k in range(r)), Fraction(0)) for i in range(n)]
        if all(t >= 0 for t in x) and x not in out:
            out.append(x)
    return out


def check_lcp(a, q, solutions, degenerate) -> list[str]:
    """Substitute every solution back into x >= 0, Ax + q >= 0, x.(Ax + q) = 0."""
    problems = []
    for x in solutions:
        y = [s + t for s, t in zip(_mul(a, x), q)]
        if min(x) < 0 or min(y) < 0 or sum(s * t for s, t in zip(x, y)) != 0:
            problems.append(f"lcp: {list(map(str, x))} is not a solution")
    has_zero = any(all(t == 0 for t in x) for x in solutions)
    if has_zero != all(t >= 0 for t in q):
        problems.append("lcp: zero solution reported iff q >= 0 fails")
    for s in degenerate:
        if not any(_supported_in(x, s) for x in solutions):
            problems.append(f"lcp: degenerate support {s} has no representative")
    return problems


def check_cone_lcp(a, q, solutions, degenerate) -> list[str]:
    """x in K, y = Ax + q in K*, x.y = 0, and 0 is reported iff q in K*.

    K = R^n_+ meet R(A) and K* is tested against the generators of K.
    """
    problems = []
    gens = cone_generators(a)

    def in_dual(y) -> bool:
        return all(sum(s * t for s, t in zip(g, y)) >= 0 for g in gens)

    for x in solutions:
        y = [s + t for s, t in zip(_mul(a, x), q)]
        in_k = min(x) >= 0 and in_range(a, x)
        if not in_k or not in_dual(y) or sum(s * t for s, t in zip(x, y)) != 0:
            problems.append(f"cone lcp: {list(map(str, x))} is not a solution")
    has_zero = any(all(t == 0 for t in x) for x in solutions)
    if has_zero != in_dual(q):
        problems.append("cone lcp: zero solution reported iff q in K* fails")
    for s in degenerate:
        if not any(_supported_in(x, s) and any(x) for x in solutions):
            problems.append(f"cone lcp: degenerate support {s} has no representative")
    return problems


def isolated(solutions, degenerate) -> list:
    """Solutions whose support lies inside no degenerate support.

    A degenerate family may be represented by any of its points, so only
    these solutions are compared against a recorded reference.
    """
    return sorted(x for x in solutions if not any(_supported_in(x, s) for s in degenerate))


def check_statuses(statuses: dict[str, str], expected: dict[str, str]) -> list[str]:
    """Yes<->No flips against `expected`, and contradicted implications.

    Unknown against a decisive expectation is not a failure here; it is
    counted in the workload's unknown share.
    """
    problems = [f"{name}: {statuses[name]} where {want} was expected"
                for name, want in expected.items()
                if statuses.get(name) == _FLIP.get(want)]
    for (p, ps), (c, cs) in IMPLICATIONS:
        if statuses.get(p) == ps and statuses.get(c) == _FLIP[cs]:
            problems.append(f"{p}={ps} but {c}={statuses[c]}")
    return problems
