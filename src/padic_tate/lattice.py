"""Integer-matrix calculus for subgroup cosets of (multiplicative torus)^n x E^n.

Subgroups are presented by integer lattices: columns of L_mult span the
cocharacter lattice of the torus part, columns of L_ell span the lattice of
the elliptic part (endomorphisms are plain integers, so dimensions are plain
ranks).  Ranks and determinants come from one fraction-free (Bareiss)
elimination, kernels and the unimodular transforms from Smith normal form
over Z, both with exact big integers.  Translating by a coset representative
changes no dimension, so cosets carry no extra data here.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .errors import (
    DimensionMismatch,
    FullRank,
    InconsistentDimensions,
    SearchSpaceTooLarge,
)
from .field import (
    _COUNT_DIGITS,
    DEFAULT_SLACK,
    PadicElement,
    _ceil_div,
    _product_term,
    _reduce_vec,
    _shift_vec,
    _sum_terms,
    _vec_invert,
    _vec_mul,
)

Matrix = tuple[tuple[int, ...], ...]


def matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    try:
        out = tuple(tuple(operator.index(x) for x in row) for row in rows)
    except TypeError:
        raise ValueError("a matrix must be a list of rows, each a list of integers") from None
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zeros(r: int, c: int) -> Matrix:
    return tuple((0,) * c for _ in range(r))


def shape(M: Matrix) -> tuple[int, int]:
    return len(M), len(M[0]) if M else 0


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    ra, ca = shape(A)
    rb, cb = shape(B)
    if ca != rb:
        raise DimensionMismatch(f"{ra}x{ca} times {rb}x{cb}")
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(ca)) for j in range(cb))
                 for i in range(ra))


def hstack(A: Matrix, B: Matrix) -> Matrix:
    ra, _ = shape(A)
    rb, _ = shape(B)
    if ra != rb:
        raise DimensionMismatch("row counts differ")
    return tuple(A[i] + B[i] for i in range(ra))


def _bareiss(M: Matrix) -> tuple[int, int]:
    """(rank, signed last pivot) of a fraction-free row-echelon pass over M.

    A column with no pivot is skipped.  Every entry held is a minor of M, so
    each division by the previous pivot is exact, and for a square M of full
    rank the signed last pivot is the determinant (Bareiss 1968).

    It is meant for the small dense integer matrices of rank, determinant
    and the rotundity checks.
    """
    a = [list(row) for row in M]
    rows, cols = shape(M)
    sign, prev, r = 1, 1, 0
    for k in range(cols):
        j = next((j for j in range(r, rows) if a[j][k]), None)
        if j is None:
            continue
        if j != r:
            a[r], a[j] = a[j], a[r]
            sign = -sign
        pivot = a[r]
        for i in range(r + 1, rows):
            f = a[i][k]
            a[i] = [(x * pivot[k] - f * y) // prev for x, y in zip(a[i], pivot)]
        prev = pivot[k]
        r += 1
    return r, sign * prev


def determinant(M: Matrix) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    n, m = shape(M)
    if n != m:
        raise DimensionMismatch("determinant of a non-square matrix")
    rk, last = _bareiss(M)
    return last if rk == n else 0


def rank(M: Matrix) -> int:
    return _bareiss(M)[0]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(M: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """(U, D, V) with U M V = D diagonal, d1 | d2 | ..., U and V unimodular.

    It reduces B = [[M, I_r], [I_c, 0]] to [[D, U], [V, 0]]: an operation on
    the first r rows or the first c columns acts on M and on U or V at once
    (Cohen, GTM 138, section 2.4)."""
    r, c = shape(M)
    B = [list(row) + [0] * r for row in M] + [[0] * (c + r) for _ in range(c)]
    for k in range(r):
        B[k][c + k] = 1
    for k in range(c):
        B[r + k][k] = 1
    t = 0
    while t < min(r, c):
        # the first least nonzero entry of the trailing block, row by row
        pivot = min(((abs(B[i][j]), i, j) for i in range(t, r) for j in range(t, c)
                     if B[i][j]), default=None)
        if pivot is None:
            break
        _, i, j = pivot
        B[t], B[i] = B[i], B[t]
        for row in B:
            row[t], row[j] = row[j], row[t]
        if B[t][t] < 0:
            B[t] = [-a for a in B[t]]
        d, dirty = B[t][t], False
        for i in range(t + 1, r):
            if B[i][t]:
                q = B[i][t] // d
                B[i] = [a - q * b for a, b in zip(B[i], B[t])]
                dirty |= B[i][t] != 0
        for j in range(t + 1, c):
            if B[t][j]:
                q = B[t][j] // d
                for row in B:
                    row[j] -= q * row[t]
                dirty |= B[t][j] != 0
        if dirty:
            continue
        # the pivot must divide the whole trailing block for the chain
        # property; else fold the first offending row into row t and go on
        bad = next((i for i in range(t + 1, r) if any(B[i][j] % d for j in range(t + 1, c))),
                   None)
        if bad is None:
            t += 1
        else:
            B[t] = [a + b for a, b in zip(B[t], B[bad])]
    return (tuple(tuple(row[c:]) for row in B[:r]),
            tuple(tuple(row[:c]) for row in B[:r]),
            tuple(tuple(row[:c]) for row in B[r:]))


def kernel_lattice(A: Matrix) -> Matrix:
    """Columns form a saturated basis of {v : A v = 0}."""
    r, c = shape(A)
    if c == 0:
        return zeros(0, 0)
    _, D, V = smith_normal_form(A)
    diag = [D[i][i] if i < r else 0 for i in range(c)]
    cols = [j for j in range(c) if j >= min(r, c) or diag[j] == 0]
    return tuple(tuple(V[i][j] for j in cols) for i in range(c))


# ---------------------------------------------------------------------------
# subgroup lattices of torus^n x E^n
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubgroupLattice:
    """Connected subgroup (or coset) presented by its component lattices."""

    n: int
    mult: Matrix        # n x k1, columns span the torus-part lattice
    ell: Matrix         # n x k2, columns span the elliptic-part lattice

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"lattice dimension n must be >= 0, got {self.n}")
        for part in (self.mult, self.ell):
            if part and len(part) != self.n:
                raise DimensionMismatch("lattice rows must equal the ambient n")

    @property
    def dim(self) -> int:
        return rank(self.mult) + rank(self.ell)


def full_subgroup(n: int) -> SubgroupLattice:
    return SubgroupLattice(n, identity(n), identity(n))


def dim_image(M: Matrix, T: SubgroupLattice) -> int:
    """Dimension of M . T = rank(M L_mult) + rank(M L_ell)."""
    r, c = shape(M)
    if r != T.n or c != T.n:
        raise DimensionMismatch(f"M is {r}x{c}, ambient n = {T.n}")
    return sum(rank(mat_mul(M, part)) for part in (T.mult, T.ell) if part)


# the bound on the candidates of one height-box search
_MAX_CANDIDATES = 5_000_000


@dataclass(frozen=True)
class RotundVerdict:
    refuted: bool
    witness: Optional[Matrix]
    height: int

    def __str__(self) -> str:
        if self.refuted:
            return f"refuted by M = {self.witness}"
        return f"verified up to height {self.height}"


def _normalized_rows(n: int, height: int) -> list[tuple[int, ...]]:
    """Zero or primitive rows with positive leading entry; every integer row is
    a scalar multiple of exactly one of these, and scaling rows changes no rank."""
    box = _height_box(n, height)
    return [(0,) * n] + [row for row in box if _primitive_signed(row)]


def rotund_check(V: SubgroupLattice, height: int) -> RotundVerdict:
    """Search integer matrices of entry height <= H for dim(MV) < rank(M).

    A witness refutes rotundity outright; exhausting the height box only
    verifies it up to that height.

    When the parts have no common left kernel, that is when
    rank [L_mult | L_ell] = n, no M of any height is a witness, and nothing
    is walked.  Let W be the row space of M and K the left kernel of a part
    L; then dim(W L) = dim W - dim(W cap K), so M is a witness exactly when
    dim(W cap K_mult) + dim(W cap K_ell) > dim W.  That sum is at most
    dim W + dim(W cap K_mult cap K_ell), so a witness needs
    K_mult cap K_ell != 0, that is rank [L_mult | L_ell] < n.  Conversely a
    primitive integer vector of K_mult cap K_ell, as the one nonzero row of
    M, is a witness at its own height.  An empty part is skipped, as in
    dim_image, and so kills every row.

    Both dim(MV) = rank(M L_mult) + rank(M L_ell) and rank(M) depend only on
    the span of the rows of M, and the zero row rows[0] adds nothing to it,
    so each set of d = 1..n nonzero candidate rows is ranked once, on its
    own d rows, with d in the outer loop.  In ``itertools.product(rows,
    repeat=n)`` order a span is first met as its sorted set padded in front
    with n - d zero rows, and every padded set of d rows comes before every
    one of d + 1 rows, so the first deficient set, padded, is the first
    witness of the full product walk.

    Each candidate has n * n entries, so an n with n * n > _MAX_CANDIDATES
    is refused before anything of size n is built.
    """
    n = V.n
    if n * n > _MAX_CANDIDATES:
        raise SearchSpaceTooLarge(f"{n}x{n} candidate matrices exceed {_MAX_CANDIDATES} entries")
    rows = _normalized_rows(n, height)
    total = len(rows) ** n
    if total > _MAX_CANDIDATES:
        raise SearchSpaceTooLarge(f"{total} candidate matrices at height {height}")
    parts = [part for part in (V.mult, V.ell) if part]
    if rank(tuple(sum(row, ()) for row in zip(*parts))) == n:
        return RotundVerdict(False, None, height)
    images = [mat_mul(rows, part) for part in parts]
    for d in range(1, n + 1):
        for idx in itertools.combinations(range(1, len(rows)), d):
            M = tuple(rows[i] for i in idx)
            if sum(rank(tuple(image[i] for i in idx)) for image in images) < rank(M):
                return RotundVerdict(True, (rows[0],) * (n - d) + M, height)
    return RotundVerdict(False, None, height)


def lattice_intersection_rank(A: Matrix, B: Matrix) -> int:
    """rank(span A intersect span B) = rank A + rank B - rank [A | B]."""
    ra = rank(A)
    rb = rank(B)
    if ra == 0 or rb == 0:
        return 0
    return ra + rb - rank(hstack(A, B))


@dataclass(frozen=True)
class VMBound:
    r: int
    bound: int
    intersection_dim: int
    image_dim: int


def lemma_vm_bound(V: SubgroupLattice, M: Matrix) -> VMBound:
    """For rank(M) = n - r with r >= 1: the generic fibre bound dim V - n + r,
    together with dim(V intersect T) for T = {x^M = 1, M y = 0} computed from
    the kernel lattice of M."""
    n = V.n
    r_m, c_m = shape(M)
    if r_m != n or c_m != n:
        raise DimensionMismatch("M must be n x n")
    rk = rank(M)
    r = n - rk
    if r < 1:
        raise FullRank("M has full rank; the bound requires r >= 1")
    bound = V.dim - n + r
    ker = kernel_lattice(M)
    inter = (lattice_intersection_rank(V.mult, ker)
             + lattice_intersection_rank(V.ell, ker))
    return VMBound(r=r, bound=bound, intersection_dim=inter,
                   image_dim=dim_image(M, V))


def quotient_dim(L: Matrix, T: Matrix) -> int:
    """Dimension of the image of the subgroup spanned by L in the quotient by
    the subgroup spanned by T: rank[L | T] - rank T = rank L - rank(L cap T)."""
    return rank(L) - lattice_intersection_rank(L, T)


@dataclass(frozen=True)
class LikelyVerdict:
    index: int
    ok: bool
    lhs: int
    rhs: int


def persistently_likely(V: Matrix, S: Matrix, T_list: Sequence[Matrix],
                        n: int) -> list[LikelyVerdict]:
    """Check dim psi(V) + dim psi(S) >= n - dim T for each quotient lattice T.

    All lattices live in the elliptic power alone; translation by coset
    representatives is immaterial for every dimension involved.
    """
    for L in (V, S, *T_list):
        if L and len(L) != n:
            raise DimensionMismatch("lattice rows must equal the ambient n")
    out = []
    for idx, T in enumerate(T_list):
        lhs = quotient_dim(V, T) + quotient_dim(S, T)
        rhs = n - rank(T)
        out.append(LikelyVerdict(index=idx, ok=lhs >= rhs, lhs=lhs, rhs=rhs))
    return out


def atypical(dim_x: int, dim_v: int, dim_w: int, dim_z: int) -> bool:
    """Strict excess over the expected intersection dimension."""
    if not (0 <= dim_x <= min(dim_v, dim_w) <= dim_z):
        raise InconsistentDimensions(
            f"need 0 <= {dim_x} <= min({dim_v}, {dim_w}) <= {dim_z}")
    return dim_x > dim_v + dim_w - dim_z


# ---------------------------------------------------------------------------
# bounded-height relation probers
# ---------------------------------------------------------------------------


def _primitive_signed(vec: Sequence[int]) -> bool:
    return math.gcd(*vec) == 1 and next(x for x in vec if x) > 0


def _height_box(n: int, height: int) -> Iterator[tuple[int, ...]]:
    """Integer vectors of length n with |m_i| <= height, in lexicographic order.

    Refuses a negative height, and a box of more than _MAX_CANDIDATES vectors.
    A box whose size has more than _COUNT_DIGITS decimal digits is refused
    as side^n, without forming the power.
    """
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    side = 2 * height + 1
    if n * math.log10(side) > _COUNT_DIGITS:
        raise SearchSpaceTooLarge(f"{side}^{n} candidates at height {height}")
    total = side ** n
    if total > _MAX_CANDIDATES:
        raise SearchSpaceTooLarge(f"{total} candidates at height {height}")
    return itertools.product(range(-height, height + 1), repeat=n)


def relation_search(z: Sequence[PadicElement], height: int,
                    slack: int = DEFAULT_SLACK) -> list[tuple[int, ...]]:
    """All primitive integer vectors m with |m_i| <= height whose combination
    sum m_i z_i vanishes to precision minus slack.

    Exhaustive over the height box, so every planted relation within the box
    is found; an empty answer is 'no relation to precision', never a proof.
    The box is not walked vector by vector.  A vanishing sum is 0 modulo
    pi^t (t the threshold, or the least abs_prec if lower), so with z_j the
    element of least valuation s_j among those with a known unit, the other
    coordinates fix m_j modulo p^ceil((t - s_j)/e).  The search walks the
    other coordinates in integer arithmetic, solves for m_j, and confirms
    each candidate with one _sum_terms of the products m_i * z_i: the sum
    reduced once, with the digits and precision of the step-by-step sum.
    """
    n = len(z)
    _height_box(n, height)  # its guards; the walk is the same box
    if not z:
        return []
    for x in z[1:]:
        z[0]._check_same_field(x)
    field = z[0].field
    least = min(x.abs_prec for x in z)
    threshold = least - slack
    j = min(range(n), key=lambda i: (not z[i].coeffs, z[i].shift))
    # an imprecise zero has shift = abs_prec >= least, so r = 0 when no z_i
    # has a known unit: the modulus is 1 and every m_j is tried
    r = max(min(least, threshold) - z[j].shift, 0)
    modulus = field.p ** _ceil_div(r, field.e)
    # w_i = pi^(s_i - s_j) u_i / u_j mod pi^r, 0 for an imprecise zero, so
    # that the congruence reads m_j + sum_{i != j} m_i w_i = 0 mod pi^r
    weights = []
    inv = _vec_invert(field, z[j].coeffs, r) if r else None
    for i, x in enumerate(z):
        if i == j:
            continue
        if r and x.coeffs:
            shifted = _shift_vec(field, x.coeffs, x.shift - z[j].shift)
            weights.append(_reduce_vec(field, _vec_mul(field, inv, shifted), r))
        else:
            weights.append((0,) * field.coeff_len)
    cols = [tuple(w[k] for w in weights) for k in range(field.coeff_len)]
    found = []
    for others in itertools.product(range(-height, height + 1), repeat=n - 1):
        residue = _reduce_vec(field, [sum(map(operator.mul, others, col)) for col in cols], r)
        if any(residue[1:]):
            continue
        # the least m_j >= -height with m_j = -residue mod the modulus
        first = (height - residue[0]) % modulus - height
        for m_j in range(first, height + 1, modulus):
            m_vec = others[:j] + (m_j,) + others[j:]
            if not _primitive_signed(m_vec):
                continue
            if _sum_terms(field, list(map(_product_term, m_vec, z))).shift >= threshold:
                found.append(m_vec)
    found.sort()
    return found


def relation_false_positive_bound(n: int, height: int, p: int, f: int,
                                  threshold_pi: int) -> float:
    """Chance a random height-box candidate vanishes to the threshold; inf past the float range."""
    try:
        return float((2 * height + 1) ** n) * float(p) ** (-threshold_pi * f)
    except OverflowError:
        return math.inf


def mult_dependence_mod_kernel(q: PadicElement, u: Sequence[PadicElement],
                               height: int, slack: int = DEFAULT_SLACK
                               ) -> list[tuple[tuple[int, ...], int]]:
    """Primitive (m, k) with prod u_i^(m_i) = q^k to precision minus slack.

    Only one exponent k can match each m (valuations decide it), so the scan
    is exhaustive in m for every k at once.  The fields are checked before
    the walk, in a chain of products' order: u_0 against each later u_i, then
    q.  A candidate that passes the filters costs one _make: one _sum_terms of
    prod u_i^(m_i) q^(-k), folded by _product_term, and -1 at its precision.
    """
    if q.is_zero or q.shift <= 0:
        raise ValueError("q needs positive exact valuation")
    n = len(u)
    box = _height_box(n, height)
    for x in u:
        if x.is_zero:
            raise ValueError("every u_i needs a known leading digit")
    if u:
        for x in (*u[1:], q):
            u[0]._check_same_field(x)
    threshold = min([x.abs_prec for x in u] + [q.abs_prec]) - slack
    tables = [{m: x ** m for m in range(-height, height + 1)} for x in u]
    qpow = functools.cache(q.__pow__)
    minus_one = (-1,) + (0,) * (q.field.coeff_len - 1)

    found = []
    for m_vec in box:
        if all(x == 0 for x in m_vec):
            continue
        val = sum(m * x.shift for m, x in zip(m_vec, u))
        if val % q.shift:
            continue
        k = val // q.shift
        if not _primitive_signed(tuple(m_vec) + (k,)):
            continue
        term = _product_term(1, *[t[m] for t, m in zip(tables, m_vec)], qpow(-k))
        if _sum_terms(q.field, (term, (term[0], 0, minus_one))).shift >= threshold:
            found.append((m_vec, k))
    return found
