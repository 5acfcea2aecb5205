"""Exact linear algebra over the integers.

Hermite and Smith normal forms with their unimodular transforms, integer
linear solving, and structure computations for finitely generated abelian
groups presented as cokernels.  Everything runs on Python ints, so entries
may grow freely during elimination; nothing here is float-based.

Conventions used throughout the package: relations are rows, generators are
columns, and the abelian group presented by a relation matrix R with c
columns is Z^c / rowspace(R).  Vectors are plain tuples and act as columns.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import index, mul

from ._record import Record


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _as_int(x) -> int:
    """x as an int when it is one; TypeError for anything else.

    Floats, strings and bools are refused instead of truncated or parsed.
    """
    if isinstance(x, bool):
        raise TypeError(f"expected an integer, got {x!r}")
    return index(x)


class IntMatrix:
    """Immutable dense matrix of Python ints.

    A matrix with zero rows still needs a column count, hence the explicit
    ``cols`` argument for that case.  ``IntMatrix(data)`` checks that every
    entry is an integer (``_as_int``) and the shape; matrices built inside
    the package from rows that already hold ints go through ``_of`` instead.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data, cols: int | None = None):
        body = tuple(tuple(map(_as_int, row)) for row in data)
        if body:
            width = len(body[0])
            if any(len(row) != width for row in body):
                raise DimensionError("ragged rows")
            if cols is not None and cols != width:
                raise DimensionError("explicit column count disagrees with row data")
        else:
            if cols is None:
                raise DimensionError("a matrix with no rows needs an explicit column count")
            width = cols
        self.rows = len(body)
        self.cols = width
        self._data = body

    @classmethod
    def _of(cls, rows, cols: int) -> "IntMatrix":
        """Trusted constructor: ``rows`` are equal-length rows of ints.

        No entry is converted and no shape is checked; rows that are
        already tuples are kept as they are, not copied.
        """
        self = object.__new__(cls)
        self._data = tuple(map(tuple, rows))
        self.rows = len(self._data)
        self.cols = cols
        return self

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of(_identity_rows(n), n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._of(((0,) * cols,) * rows, cols)

    @classmethod
    def diagonal(cls, entries) -> "IntMatrix":
        entries = list(map(_as_int, entries))
        n = len(entries)
        return cls._of([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)], n)

    def __reduce__(self):
        # slots without __getstate__ would fail pickle protocols 0 and 1
        return IntMatrix._of, (self._data, self.cols)

    def __getitem__(self, key) -> int:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self._data[i]

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self._data]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.cols == other.cols and self._data == other._data

    def __hash__(self):
        return hash((self.cols, self._data))

    def __repr__(self):
        return f"IntMatrix({self.to_lists()!r})" if self.rows else f"IntMatrix([], cols={self.cols})"

    def transpose(self) -> "IntMatrix":
        # zip(*rows) sees no columns when there are no rows
        return IntMatrix._of(zip(*self._data) if self.rows else ((),) * self.cols, self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        od = other._data
        out = []
        for r in self._data:
            out.append(
                [sum(r[k] * od[k][j] for k in range(self.cols)) for j in range(other.cols)]
            )
        return IntMatrix._of(out, other.cols)

    def mat_vec(self, v) -> tuple[int, ...]:
        v = tuple(v)
        if len(v) != self.cols:
            raise DimensionError(f"vector of length {len(v)} against {self.rows}x{self.cols}")
        return tuple(sum(map(mul, r, v)) for r in self._data)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("shape mismatch in addition")
        return IntMatrix._of(
            [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(self._data, other._data)],
            self.cols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of([[-x for x in r] for r in self._data], self.cols)

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise DimensionError("column counts differ in vstack")
        return IntMatrix._of(self._data + other._data, self.cols)

    def submatrix(self, row_idx, col_idx) -> "IntMatrix":
        col_idx = tuple(col_idx)
        return IntMatrix._of(
            [[self._data[i][j] for j in col_idx] for i in row_idx],
            len(col_idx),
        )

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination; exact."""
        if self.rows != self.cols:
            raise DimensionError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                swap = next((i for i in range(k + 1, n) if a[i][k]), None)
                if swap is None:
                    return 0
                a[k], a[swap] = a[swap], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.det()) == 1


def _identity_rows(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular and U @ m == H, where H has positive
    pivots, zeros below each pivot, and entries above a pivot reduced into
    [0, pivot).  Pivot selection takes the entry of smallest absolute value
    (ties to the smallest row index), which keeps the run deterministic.
    """
    a = m.to_lists()
    u = _identity_rows(m.rows)
    pr = 0
    for j in range(m.cols):
        if pr == m.rows:
            break
        nz = [i for i in range(pr, m.rows) if a[i][j]]
        if not nz:
            continue
        i0 = min(nz, key=lambda i: (abs(a[i][j]), i))
        if i0 != pr:
            a[pr], a[i0] = a[i0], a[pr]
            u[pr], u[i0] = u[i0], u[pr]
        for i in range(pr + 1, m.rows):
            if not a[i][j]:
                continue
            p, q = a[pr][j], a[i][j]
            g, s, t = xgcd(p, q)
            # unimodular 2-row transform sending (p, q) to (g, 0)
            pa, ia = a[pr], a[i]
            a[pr] = [s * x + t * y for x, y in zip(pa, ia)]
            a[i] = [-(q // g) * x + (p // g) * y for x, y in zip(pa, ia)]
            pu, iu = u[pr], u[i]
            u[pr] = [s * x + t * y for x, y in zip(pu, iu)]
            u[i] = [-(q // g) * x + (p // g) * y for x, y in zip(pu, iu)]
        if a[pr][j] < 0:
            a[pr] = [-x for x in a[pr]]
            u[pr] = [-x for x in u[pr]]
        for i in range(pr):
            q = a[i][j] // a[pr][j]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[pr])]
                u[i] = [x - q * y for x, y in zip(u[i], u[pr])]
        pr += 1
    return IntMatrix._of(a, m.cols), IntMatrix._of(u, m.rows)


class SmithDecomposition(Record, fields="U D V"):
    """U @ M @ V == D with U, V unimodular and D diagonal.

    The diagonal entries are nonnegative and form a divisibility chain
    d1 | d2 | ..., with zeros (if any) at the end.
    """

    __slots__ = ()

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i, i] for i in range(min(self.D.rows, self.D.cols)))

    def satisfies(self, m: IntMatrix) -> bool:
        return self.U @ m @ self.V == self.D


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms.

    Pivot selection scans the working submatrix row-major and picks the
    first nonzero entry of minimal absolute value, so the computation is
    deterministic; the scan stops after the row of the first unit, and a
    unit pivot needs no divisibility sweep.  Negative pivots are
    normalized by sign flips folded into U.
    """
    u, a, v = _smith_eliminate(m, track_v=True)
    return SmithDecomposition(
        IntMatrix._of(u, m.rows), IntMatrix._of(a, m.cols), IntMatrix._of(v, m.cols)
    )


def _smith_eliminate(m: IntMatrix, track_v: bool):
    """The elimination behind ``smith_normal_form``, as lists (u, d, v).

    Without ``track_v`` the column transform is not built and v is None;
    u and d come out the same either way, as column operations never read v.
    """
    R, C = m.rows, m.cols
    a = m.to_lists()
    u = _identity_rows(R)
    v = _identity_rows(C) if track_v else None
    col_mats = (a, v) if track_v else (a,)

    def row_transform(i1, i2, p, q):
        # plain subtraction when p | q: keeps the pivot row in place, which
        # the termination argument needs (a gcd step with q = +-p would swap
        # the rows and can cycle against the column pass)
        if q % p == 0:
            k = q // p
            a[i2] = [y - k * x for x, y in zip(a[i1], a[i2])]
            u[i2] = [y - k * x for x, y in zip(u[i1], u[i2])]
            return
        g, s, t = xgcd(p, q)
        r1, r2 = a[i1], a[i2]
        a[i1] = [s * x + t * y for x, y in zip(r1, r2)]
        a[i2] = [-(q // g) * x + (p // g) * y for x, y in zip(r1, r2)]
        r1, r2 = u[i1], u[i2]
        u[i1] = [s * x + t * y for x, y in zip(r1, r2)]
        u[i2] = [-(q // g) * x + (p // g) * y for x, y in zip(r1, r2)]

    def col_transform(j1, j2, p, q):
        if q % p == 0:
            k = q // p
            for mat in col_mats:
                for r in mat:
                    r[j2] -= k * r[j1]
            return
        g, s, t = xgcd(p, q)
        for mat in col_mats:
            for r in mat:
                x, y = r[j1], r[j2]
                r[j1] = s * x + t * y
                r[j2] = -(q // g) * x + (p // g) * y

    t = 0
    while t < min(R, C):
        best = None
        for i in range(t, R):
            for j in range(t, C):
                x = a[i][j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
            # no entry is smaller than a unit, and the scan keeps the
            # first least one, so the rows below cannot change it
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
            u[t], u[bi] = u[bi], u[t]
        if bj != t:
            for mat in col_mats:
                for r in mat:
                    r[t], r[bj] = r[bj], r[t]
        while True:
            for i in range(t + 1, R):
                if a[i][t]:
                    row_transform(t, i, a[t][t], a[i][t])
            for j in range(t + 1, C):
                if a[t][j]:
                    col_transform(t, j, a[t][t], a[t][j])
            if any(a[i][t] for i in range(t + 1, R)):
                continue
            d = a[t][t]
            if d == 1 or d == -1:  # a unit divides every entry
                break
            bad = None
            for i in range(t + 1, R):
                for j in range(t + 1, C):
                    if a[i][j] % d:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
        t += 1
    for k in range(min(R, C)):
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
    return u, a, v


def solve_integer_linear(m: IntMatrix, b) -> tuple[int, ...] | None:
    """One integer solution x of m @ x = b, or None if there is none."""
    b = tuple(map(_as_int, b))
    if len(b) != m.rows:
        raise DimensionError(f"right-hand side of length {len(b)} against {m.rows} rows")
    snf = smith_normal_form(m)
    c = snf.U.mat_vec(b)
    y = [0] * m.cols
    for i in range(m.rows):
        d = snf.D[i, i] if i < min(m.rows, m.cols) else 0
        if d:
            if c[i] % d:
                return None
            y[i] = c[i] // d
        elif c[i]:
            return None
    return snf.V.mat_vec(y)


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix."""
    h, w = hermite_normal_form(m)
    if h != IntMatrix.identity(m.rows):
        raise DimensionError("matrix is not unimodular")
    return w


class AbelianStructure(Record, fields="invariant_factors free_rank to_canonical moduli "
                                      "selected transform"):
    """Canonical form of a finitely generated abelian group.

    Built from a relation matrix (relations as rows); the group is
    Z^n_generators modulo the row space.  ``to_canonical`` maps a
    generator-exponent vector to one coordinate per invariant factor
    (reduce modulo ``invariant_factors``) followed by the free coordinates.
    It has no ``__dict__``: ``lift`` inverts the transform on each call.
    """

    __slots__ = ()

    @property
    def n_generators(self) -> int:
        return self.to_canonical.cols

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if not self.is_finite:
            return None
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def exponent(self) -> int:
        """Least common multiple of element orders; requires a finite group."""
        if not self.is_finite:
            raise DimensionError("exponent of an infinite group")
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def canonical(self, v) -> tuple[int, ...]:
        w = self.to_canonical.mat_vec(v)
        return tuple(x % d if d else x for x, d in zip(w, self.moduli))

    def order_of(self, v) -> int | None:
        """Order of the class of v, or None when infinite."""
        w = self.canonical(v)
        out = 1
        for x, d in zip(w, self.moduli):
            if d == 0:
                if x:
                    return None
            elif x:
                out = lcm(out, d // gcd(d, x))
        return out

    def lift(self, coords) -> tuple[int, ...]:
        """A generator-exponent vector whose canonical form is ``coords``."""
        coords = tuple(map(_as_int, coords))
        if len(coords) != len(self.selected):
            raise DimensionError("wrong number of canonical coordinates")
        full = [0] * self.n_generators
        for pos, x in zip(self.selected, coords):
            full[pos] = x
        return unimodular_inverse(self.transform).mat_vec(full)

    def describe(self) -> str:
        parts = [f"C{d}" for d in self.invariant_factors] + ["Z"] * self.free_rank
        return " x ".join(parts) if parts else "trivial"


def cokernel_structure(relations: IntMatrix) -> AbelianStructure:
    """Structure of Z^cols / rowspace(relations).

    Only the row transform U of the Smith form of relations^T is used, so
    the column transform is not built.
    """
    u, d, _ = _smith_eliminate(relations.transpose(), track_v=False)
    c = relations.cols
    full = [d[i][i] if i < relations.rows else 0 for i in range(c)]
    selected = tuple(i for i, x in enumerate(full) if x != 1)
    moduli = tuple(full[i] for i in selected)
    factors = tuple(x for x in moduli if x > 1)
    free_rank = sum(1 for x in moduli if x == 0)
    transform = IntMatrix._of(u, c)
    to_canonical = IntMatrix._of([transform.row(i) for i in selected], c)
    return AbelianStructure(factors, free_rank, to_canonical, moduli, selected, transform)


def element_order_in_cokernel(structure: AbelianStructure, v) -> int | None:
    """Order of the class of v in the cokernel; None means infinite."""
    v = tuple(v)
    if len(v) != structure.n_generators:
        raise DimensionError("vector length disagrees with the number of generators")
    return structure.order_of(v)
