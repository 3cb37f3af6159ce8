"""Exact rational matrices and the elimination kernel everything else uses.

Entries are `fractions.Fraction` at the API, so ranks, determinants, and
solves are decisions rather than approximations; no tolerances exist
anywhere in the package.  Elimination itself runs on integers: each row is
scaled once by the lcm of its denominators (`integer_row`), and one
fraction-free pivot step (`_pivot`) does all of it: the Gauss-Jordan
kernel (`_eliminate`) behind the RREF, the determinant, the inverse, the
solution set of a linear system and the LCP blocks' (det, adj) pairs
(`_det_adj`), and the simplex of `lp.py`.  Fractions are built only at
the end.  Matrices are immutable by convention (nothing mutates `data`
after construction), which makes the per-instance caches below safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import BadIndexSetError, DimensionMismatchError, NonSquareError, TooLargeError

Rational = Fraction
Vector = tuple[Fraction, ...]

# The largest set whose subsets or sign orthants any scan enumerates.
ENUMERATION_CAP = 12
# The longest numerator or denominator, in bits, accepted from outside.
MAX_ENTRY_BITS = 256

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce an int, Fraction, 'p/q' string, or decimal string to a Fraction.

    Floats are rejected: exactness is a package-wide invariant, and a float
    literal is almost always a sign the caller lost it already.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to an exact Fraction")


def bounded_rat(x) -> Fraction:
    """rat(x) for a number read from outside the program: ValueError for
    anything but an exact number, TooLargeError past MAX_ENTRY_BITS (a
    decimal exponent is checked before its power of ten is built)."""
    if isinstance(x, bool):
        raise ValueError("true/false is not a number")
    if isinstance(x, str) and abs(int(x.lower().partition("e")[2] or 0)) > MAX_ENTRY_BITS:
        raise TooLargeError(f"exponent of {x[:40]!r} exceeds {MAX_ENTRY_BITS}")
    try:
        value = rat(x)
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"{str(x)[:40]!r} is not an exact number: {exc}") from exc
    if max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_ENTRY_BITS:
        raise TooLargeError(f"an entry exceeds {MAX_ENTRY_BITS} bits")
    return value


def vec(xs: Iterable) -> Vector:
    return tuple(rat(x) for x in xs)


def zeros_vec(n: int) -> Vector:
    return (_ZERO,) * n


def ones_vec(n: int) -> Vector:
    return (_ONE,) * n


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatchError(f"dot: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), _ZERO)


def is_zero_vec(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def is_unisigned(u: Sequence[Fraction]) -> bool:
    """Nonzero and either entrywise >= 0 or entrywise <= 0."""
    if is_zero_vec(u):
        return False
    return all(a >= 0 for a in u) or all(a <= 0 for a in u)


class RationalMatrix:
    """Dense matrix of Fractions; the universal carrier for the package."""

    __slots__ = ("rows", "cols", "data", "_cache")

    def __init__(self, rows: int, cols: int, data: list[list[Fraction]]):
        if rows < 0 or cols < 0:
            raise DimensionMismatchError("negative dimensions")
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatchError("data shape does not match rows x cols")
        self.rows = rows
        self.cols = cols
        self.data = data
        self._cache: dict = {}

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RationalMatrix":
        data = [[rat(x) for x in row] for row in rows]
        n = len(data)
        m = len(data[0]) if data else 0
        return cls(n, m, data)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, [[_ZERO] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Fraction]]) -> "RationalMatrix":
        n = len(columns[0])
        data = [[rat(col[i]) for col in columns] for i in range(n)]
        return cls(n, len(columns), data)

    # -- accessors ----------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def require_square(self, what: str = "operation", scan: bool = False) -> None:
        """NonSquareError unless square; with `scan`, TooLargeError past ENUMERATION_CAP."""
        if not self.is_square:
            raise NonSquareError(f"{what} needs a square matrix, got {self.rows}x{self.cols}")
        if scan and self.rows > ENUMERATION_CAP:
            raise TooLargeError(f"{what}: order {self.rows} exceeds cap {ENUMERATION_CAP}")

    def square_and_vector(self, v: Iterable, what: str, scan: bool = False) -> Vector:
        """require_square(what, scan), then v as a Vector, with
        DimensionMismatchError unless its length is the matrix order."""
        self.require_square(what, scan)
        out = vec(v)
        if len(out) != self.rows:
            raise DimensionMismatchError(
                f"{what}: vector length {len(out)} does not match matrix order {self.rows}")
        return out

    def row_vec(self, i: int) -> Vector:
        return tuple(self.data[i])

    def col_vec(self, j: int) -> Vector:
        return tuple(self.data[i][j] for i in range(self.rows))

    # -- algebra ------------------------------------------------------

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(self.cols, self.rows,
                              [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix addition shape mismatch")
        return RationalMatrix(self.rows, self.cols,
                              [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix subtraction shape mismatch")
        return RationalMatrix(self.rows, self.cols,
                              [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __neg__(self) -> "RationalMatrix":
        return self.scale(Fraction(-1))

    def scale(self, c) -> "RationalMatrix":
        c = rat(c)
        return RationalMatrix(self.rows, self.cols, [[c * x for x in row] for row in self.data])

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(f"matmul: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        # Each row of self and column of other is scaled to integers once,
        # so every entry is one integer dot product over one denominator.
        cols = [integer_row([row[j] for row in other.data]) for j in range(other.cols)]
        out = []
        for ri, mi in integer_rows(self):
            out.append([_ratio(sum(map(mul, ri, cj)), mi * mj) for cj, mj in cols])
        return RationalMatrix(self.rows, other.cols, out)

    def mul_vec(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatchError("matrix-vector length mismatch")
        return tuple(sum((row[k] * v[k] for k in range(self.cols)), _ZERO) for row in self.data)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RationalMatrix":
        return RationalMatrix(len(row_idx), len(col_idx),
                              [[self.data[i][j] for j in col_idx] for i in row_idx])

    # -- JSON wire format ----------------------------------------------

    def to_json(self) -> dict:
        """Matrix JSON: entries as ints where possible, else 'p/q' strings."""
        def enc(x: Fraction):
            return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
        return {"rows": self.rows, "cols": self.cols,
                "entries": [[enc(x) for x in row] for row in self.data]}

    @classmethod
    def from_json(cls, obj) -> "RationalMatrix":
        if not isinstance(obj, dict):
            raise ValueError("matrix JSON must be an object")
        for field in ("rows", "cols", "entries"):
            if field not in obj:
                raise ValueError(f"matrix JSON missing field '{field}'")
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
        if any(not isinstance(k, int) or isinstance(k, bool) or k < 1 for k in (rows, cols)):
            raise ValueError("matrix JSON fields 'rows'/'cols' must be positive integers")
        if not isinstance(entries, list) or len(entries) != rows:
            raise ValueError("matrix JSON field 'entries' must list one row per 'rows'")
        data = []
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != cols:
                raise ValueError(f"matrix JSON field 'entries' row {i} must have {cols} entries")
            out = []
            for j, x in enumerate(row):
                try:
                    out.append(bounded_rat(x))
                except ValueError as exc:
                    raise ValueError(f"matrix JSON field 'entries' at ({i},{j}): {exc}") from exc
            data.append(out)
        return cls(rows, cols, data)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"RationalMatrix({self.rows}x{self.cols}: [{body}])"


# -- elimination -------------------------------------------------------


@dataclass(frozen=True)
class RrefResult:
    matrix: RationalMatrix
    rank: int
    pivots: tuple[int, ...]


def integer_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """Scale a row of Fractions to integers by the lcm of its denominators.

    Returns (integers, multiplier); an empty row gives ([], 1).
    """
    mult = lcm(*(x.denominator for x in row))
    return [x.numerator * (mult // x.denominator) for x in row], mult


def integer_rows(m: RationalMatrix) -> list[tuple[list[int], int]]:
    """integer_row of every row of m, computed once per matrix."""
    cached = m._cache.get("int_rows")
    if cached is None:
        cached = m._cache["int_rows"] = [integer_row(row) for row in m.data]
    return cached


def _pivot(rows: list[list[int]], r: int, c: int, den: int) -> int:
    """One fraction-free pivot on rows[r][c], the integer update of Edmonds
    and Bareiss (Math. Comp. 22, 1968): every other row i becomes
    (row_i * piv - f * row_r) // den, with f its entry in column c.  Each
    division is exact when den is the previous pivot, because every stored
    entry is then a minor of the input.  Rows are rebound, never edited in
    place.  Returns the new den, the pivot."""
    rowr = rows[r]
    piv = rowr[c]
    for i, rowi in enumerate(rows):
        if i == r:
            continue
        f = rowi[c]
        if f:
            rows[i] = [(x * piv - f * y) // den for x, y in zip(rowi, rowr)]
        elif piv != den:
            rows[i] = [(x * piv) // den for x in rowi]
    return piv


def _eliminate(a: list[list[int]], ncols: int) -> tuple[int, tuple[int, ...], int]:
    """Fraction-free Gauss-Jordan on the integer rows `a`, in place.

    Pivots (`_pivot`) on the first nonzero entry of each of the first
    `ncols` columns (later columns, such as a right-hand side, are carried
    along).  Returns (den, pivots, sign): den is the last pivot, every row
    is the true reduced row times den, and sign is the parity of the row
    swaps, so for a square nonsingular input sign * den is its determinant.
    """
    rows = len(a)
    den, sign = 1, 1
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if a[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            sign = -sign
        den = _pivot(a, r, c, den)
        pivots.append(c)
    return den, tuple(pivots), sign


def _det_adj(rows: Sequence[Sequence[int]], idx: Sequence[int]) -> tuple[int, list[list[int]]] | None:
    """(det, adj) of the principal submatrix of the integer rows on idx, or
    None when it is singular: one elimination of [B | I] leaves den B^-1 in
    the right half, and sign den is det B, so adj B is sign times it."""
    size = len(idx)
    aug = [[rows[r][c] for c in idx] + [int(r == c) for c in idx] for r in idx]
    den, pivots, sign = _eliminate(aug, size)
    if len(pivots) < size:
        return None
    return sign * den, [[sign * t for t in row[size:]] for row in aug]


def _ratio(x: int, den: int) -> Fraction:
    return _ZERO if x == 0 else Fraction(x, den)


def rref(m: RationalMatrix) -> RrefResult:
    """Reduced row echelon form; pivoting on first nonzero entry per column."""
    cached = m._cache.get("rref")
    if cached is not None:
        return cached
    a = [integer_row(row)[0] for row in m.data]
    den, pivots, _ = _eliminate(a, m.cols)
    data = [[_ratio(x, den) for x in row] for row in a]
    result = RrefResult(RationalMatrix(m.rows, m.cols, data), len(pivots), pivots)
    m._cache["rref"] = result
    return result


def rank(m: RationalMatrix) -> int:
    return rref(m).rank


def determinant(m: RationalMatrix) -> Fraction:
    m.require_square("determinant")
    rows = integer_rows(m)
    den, pivots, sign = _eliminate([ints for ints, _ in rows], m.rows)
    if len(pivots) < m.rows:
        return _ZERO
    return Fraction(sign * den, prod(mult for _, mult in rows))


def principal_minor(m: RationalMatrix, index_set: Iterable[int]) -> Fraction:
    m.require_square("principal_minor")
    idx = sorted(set(index_set))
    if not idx or idx[0] < 0 or idx[-1] >= m.rows:
        raise BadIndexSetError(f"index set {idx} invalid for order {m.rows}")
    return determinant(m.submatrix(idx, idx))


def nonempty_subsets(n: int) -> Iterator[tuple[int, ...]]:
    """The nonempty subsets of range(n), in (size, lexicographic) order."""
    return itertools.chain.from_iterable(itertools.combinations(range(n), k)
                                         for k in range(1, n + 1))


def inverse(m: RationalMatrix) -> RationalMatrix | None:
    """Exact inverse, or None when singular."""
    m.require_square("inverse")
    cached = m._cache.get("inv", False)
    if cached is not False:
        return cached
    # R = D A with D the row multipliers, so A^-1 = R^-1 D = adj(R) D / det R
    rows = integer_rows(m)
    entry = _det_adj([ints for ints, _ in rows], range(m.rows))
    result = None
    if entry is not None:
        det, adj = entry
        mults = [mult for _, mult in rows]
        result = RationalMatrix(m.rows, m.rows, [[_ratio(t * mult, det) for t, mult in zip(row, mults)]
                                                 for row in adj])
    m._cache["inv"] = result
    return result


# -- subspaces ---------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """Exact subspace of R^ambient_dim given by a linearly independent basis.

    The empty subspace is an empty basis, never a zero vector.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[Fraction]) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError("vector length does not match ambient dimension")
        if not self.basis:
            return is_zero_vec(v)
        stacked = RationalMatrix.from_columns(list(self.basis) + [vec(v)])
        return rank(stacked) == len(self.basis)

    def equals(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        return all(other.contains(b) for b in self.basis)


@dataclass(frozen=True)
class SubspaceBases:
    range: Subspace
    null: Subspace
    row: Subspace
    left_null: Subspace


def null_space_basis(m: RationalMatrix) -> list[Vector]:
    rr = rref(m)
    rm = rr.matrix.data
    return _null_basis(m.cols, rr.pivots, lambda r, f: rm[r][f])


def _null_basis(n: int, pivots: Sequence[int], entry) -> list[Vector]:
    """N(M) from a reduced form of M with these pivot columns: one vector
    per free column f, with x_f = 1 and x_pc = -entry(r, f) for the pivot
    column pc of reduced row r."""
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        v = [_ZERO] * n
        v[f] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -entry(r, f)
        basis.append(tuple(v))
    return basis


def subspace_bases(m: RationalMatrix) -> SubspaceBases:
    """Exact bases for R(A), N(A), R(A^T), N(A^T)."""
    cached = m._cache.get("bases")
    if cached is not None:
        return cached
    rr = rref(m)
    rng = Subspace(m.rows, tuple(m.col_vec(j) for j in rr.pivots))
    row_basis = tuple(tuple(rr.matrix.data[i]) for i in range(rr.rank))
    nul = Subspace(m.cols, tuple(null_space_basis(m)))
    mt = m.transpose()
    left = Subspace(m.rows, tuple(null_space_basis(mt)))
    result = SubspaceBases(range=rng, null=nul, row=Subspace(m.cols, row_basis), left_null=left)
    m._cache["bases"] = result
    return result


def full_rank_factorization(m: RationalMatrix) -> tuple[RationalMatrix, RationalMatrix]:
    """M = F @ G with F of full column rank r and G of full row rank r.

    F takes the pivot columns of M, G the nonzero rows of rref(M); rank 0
    yields empty factors (rows x 0 and 0 x cols) whose product is the zero
    matrix.
    """
    rr = rref(m)
    f = m.submatrix(range(m.rows), rr.pivots)
    g = RationalMatrix(rr.rank, m.cols, [rr.matrix.data[i][:] for i in range(rr.rank)])
    return f, g


@dataclass(frozen=True)
class LinearSolution:
    particular: Vector
    null_basis: tuple[Vector, ...]


def solve_linear(m: RationalMatrix, b: Sequence[Fraction]) -> LinearSolution | None:
    """All exact solutions of M x = b, or None when b is outside R(M).

    One elimination of [M | b] gives the particular solution (free
    variables zero), the null basis, and the consistency test: b is
    outside R(M) exactly when a row left without a pivot keeps a nonzero
    right-hand side.
    """
    if len(b) != m.rows:
        raise DimensionMismatchError("rhs length does not match row count")
    n = m.cols
    a = [integer_row(row + [rat(x)])[0] for row, x in zip(m.data, b)]
    den, pivots, _ = _eliminate(a, n)
    if any(a[i][n] for i in range(len(pivots), m.rows)):
        return None
    x = [_ZERO] * n
    for r, pc in enumerate(pivots):
        x[pc] = _ratio(a[r][n], den)
    basis = _null_basis(n, pivots, lambda r, f: _ratio(a[r][f], den))
    return LinearSolution(tuple(x), tuple(basis))
