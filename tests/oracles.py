"""Test oracles: checks from the definition, and the library's former routes.

**From the definition.** Nothing here calls into the package's
computational code. Each of these works on raw coordinate tuples with its
own elimination (:func:`rref`, :func:`_solve`), or reads only the fields of
a ``Point`` and a ``Polytope``, so a defect in the library cannot hide
behind a shared code path: convex-hull membership
(:func:`caratheodory_member`), the vertices of an H-description
(:func:`hrep_vertex_set`), the hull certificate (:func:`certify_hull`,
which reads the points' integer forms and the hull's span, facets and
vertices, and checks them against the definition), the intersection of
two polytopes at the origin (:func:`intersection_is_origin`, from their
facet and equality data), a reflexive polytope's facets
(:func:`reflexive_facets`), nef-partitions by the definition
(:func:`is_nef_partition`, :func:`oracle_nef_partitions`) and the
determinant by the Leibniz formula (:func:`determinant`).

**Former routes.** The rest call the rest of the library and serve as the
reference for the routes that replaced them: the former ``Fraction``
arithmetic of ``nefdual.polytope`` (:func:`pair`, :func:`contains`,
:func:`solve_linear` and the ``Point`` comparisons, which read
``Point.coords`` and ``Point.space`` only, except that :func:`solve_linear`
hands ``Fraction`` rows to ``linalg.solve``, whose own reference is
:func:`_solve`); the former hull-based routes
(:func:`_intersection_is_origin`, :func:`assert_partition_invariants`,
:func:`dual_nef_partition`, :func:`verify_involution`); the former build of
every part by a hull (:func:`hull_build`, :func:`_delta_part`,
:func:`hull_support_polytope`); the former audit of every validated
partition on vertex sets (:func:`assert_vertex_set_invariants`); the former
Bell-number enumeration (:func:`_set_partitions`,
:func:`enumerate_nef_partitions`); the former search over set partitions
cut per cone that validated every survivor (:func:`_pruned_candidates`,
:func:`pruned_enumerate_nef_partitions`); the solve-per-cone PL extension
(:func:`pl_from_vertex_values`); the former validation by that extension
and its convexity scan (:func:`scan_decide`, :func:`scan_validate_partition`,
:func:`scan_dual_nef_partition`); the ``Fraction`` relation and dual-PL
checks (:func:`check_relations`, :func:`check_psi`, the psi check that the
former dual routes here still run); the Minkowski-sum checks by the hull
of the sum (:func:`verify_polar_is_nabla_sum`,
:func:`verify_nabla_polar_is_delta_sum`); the dual decided with a kernel on
every cone of nabla's fan (:func:`kernel_dual_nef_partition`); the pairing
route of a duality before its pairing table: the sum checks on a polar
(:func:`is_minkowski_sum`, :func:`polar_support_polar_is_nabla_sum`,
:func:`polar_support_nabla_polar_is_delta_sum`), the relation check by a
dot product per pairing (:func:`pair_min`, :func:`pair_min_check_relations`)
and the read-off that paired on its own (:func:`dot_read_off`), with the
convexity scan over every cone's functional (:func:`convexity_violation`);
the polar read off the facet-vertex incidence (:func:`incidence_polar`); a
nabla part's membership by Borisov's H-description (:func:`hrep_contains`);
and the subset search's cone entry by the ``Fraction`` solve and a pairing
per vertex (:func:`functional_cone_entry`).
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from nefdual.duality import CheckResult, _covers, _dual_parts, nabla
from nefdual.errors import (
    DimensionMismatch,
    InvariantViolation,
    NotConvex,
    NotFullDimensional,
    NotPiecewiseLinear,
    NotReflexive,
    ZeroNotInterior,
)
from nefdual.fan import FaceFan, PLFunction, face_fan, support_polytope
from nefdual.linalg import (
    Inconsistent,
    SolveFailure,
    Underdetermined,
    exact_rational,
    solve,
)
from nefdual.nefpart import (
    EMPTY_PART,
    NOT_CONVEX,
    NOT_COVERING,
    NOT_DISJOINT,
    NOT_INTEGRAL,
    NOT_PIECEWISE_LINEAR,
    NefPartition,
    Rejection,
    RelationReport,
    _build,
    _check_pairable,
    _decide,
    _pairings,
    validate_partition,
)
from nefdual.polytope import (
    Facet,
    Point,
    Polytope,
    _dot,
    dual_space,
    hull,
    minkowski_sum,
    origin,
)


def rref(rows: Sequence[Sequence[Fraction]], ncols: int | None = None):
    """Reduced row echelon form of a copy of ``rows``.

    Returns ``(matrix, pivot_columns)``. This is the library's former
    ``Fraction`` elimination, kept as the reference for the integer one.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def _solve(rows, rhs):
    """Exact Gaussian elimination on an m x n system.

    Returns ("unique", x), ("inconsistent", None), or ("underdetermined", None).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(n):
        pr = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if pr is None:
            continue
        aug[row], aug[pr] = aug[pr], aug[row]
        lead = aug[row][col]
        aug[row] = [v / lead for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if aug[r][n] != 0:
            return "inconsistent", None
    if len(pivots) < n:
        return "underdetermined", None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = aug[r][n]
    return "unique", tuple(x)


def caratheodory_member(point, vertices):
    """Convex-hull membership by exhausting small support sets.

    A point of the hull is a convex combination of at most d+1 affinely
    independent vertices, so every subset up to that size is tried with an
    exact solve for the barycentric weights.
    """
    point = tuple(Fraction(c) for c in point)
    verts = [tuple(Fraction(c) for c in v) for v in vertices]
    d = len(point)
    for k in range(1, d + 2):
        for subset in combinations(verts, k):
            rows = [[v[i] for v in subset] for i in range(d)]
            rows.append([Fraction(1)] * k)
            status, lam = _solve(rows, list(point) + [Fraction(1)])
            if status == "unique" and all(l >= 0 for l in lam):
                return True
    return False


def hrep_vertex_set(ineqs, dim):
    """Vertices of {y : <a, y> >= b for every (a, b)}, by brute force.

    The region must be bounded for the result to describe it completely.
    """
    return _hrep_vertices(ineqs, [], dim)


def _hrep_vertices(
    inequalities: list[tuple[tuple[Fraction, ...], Fraction]],
    equalities: list[tuple[tuple[Fraction, ...], Fraction]],
    dim: int,
) -> list[tuple[Fraction, ...]]:
    """Vertices of a bounded region {x : <x,a> >= b, <x,e> = c} by brute force.

    Every vertex has some d linearly independent active constraints, so all
    d-subsets of the combined system are solved as equalities and filtered
    for feasibility. Intended for small systems only.
    """
    rows = [(list(a), b) for a, b in equalities] + [(list(a), b) for a, b in inequalities]
    found: set[tuple[Fraction, ...]] = set()
    for subset in combinations(range(len(rows)), dim):
        mat = [rows[i][0] for i in subset]
        rhs = [rows[i][1] for i in subset]
        status, sol = _solve(mat, rhs)
        if status != "unique":
            continue
        if any(
            sum(a * x for a, x in zip(eq_a, sol)) != eq_b for eq_a, eq_b in equalities
        ):
            continue
        if any(
            sum(a * x for a, x in zip(in_a, sol)) < in_b for in_a, in_b in inequalities
        ):
            continue
        found.add(sol)
    return sorted(found)


def certify_hull(points, poly) -> None:
    """Check that ``poly`` is the hull of ``points`` as :func:`hull` records
    it, from the definition and with no second hull; raise AssertionError
    naming the first check that fails.

    Only ``Point.space``, ``_num`` and ``_den`` and the ``Polytope`` fields
    are read, and nothing of the library is called: the span comes from
    :func:`rref`, and every other step is ``int`` arithmetic on the points
    scaled by their common denominator L.

    1. ``space`` and ``ambient_dim`` are the points'.
    2. The equalities are the canonical basis of the span's normals: one
       primitive integer vector per free column of the rref of the
       differences, positive at that column, sorted. Every point satisfies
       every equality.
    3. Each facet normal is a primitive lattice vector orthogonal to every
       equality normal, the normals are strictly sorted, each offset is a
       ``Fraction`` and every point satisfies every facet. The points each
       facet is tight on form its mask.
    4. On the lattice L of those masks, walked down from the top (all
       points), the covers of X are the maximal sets among
       {X & m : m ⊉ X} ∪ {∅}. Every cover has rank one below X, with the
       top at k, the points' affine dimension, and ∅ at -1, so every
       maximal chain has length k + 1. The top's covers are exactly the
       facet masks, and every interval [Z, X] of length 2 has exactly two
       middles (the diamond property).
    5. The vertices are the points of the rank-0 elements, sorted, and each
       ``Facet.incidence`` lists the vertices in its facet's mask.

    Why that is the hull. By step 3 each facet is a valid inequality whose
    normal is not constant on the span, so its mask is the point set of a
    proper face of P = conv(points). Every element of L is an intersection
    of such masks, hence a face too, and a face is the hull of the points
    on it, so strict inclusion in L is strict inclusion of faces and raises
    the geometric dimension. A maximal chain takes k + 1 steps from the top
    (dimension k) to ∅ (dimension -1), so each step lowers the dimension by
    exactly one, and rank = dimension throughout L.

    By induction on the dimension, every face of an element X of L is in
    L. A vertex has only itself and ∅. For X of dimension j >= 1, its covers
    are facets of X, and it has one, Y; by induction every face of Y is in
    L, so every ridge R of X inside Y is. The middles of [R, X] are facets
    of X through R, and R lies in exactly two of them; the diamond check
    finds two middles, so both are in L. The facet-ridge graph of X is
    connected, so stepping across ridges puts every facet of X in L, and
    with it every face of X, each lying in some facet. At the top this
    means that the covers of the top, the facet masks, are every facet of
    P, one record each, so no facet is missing; and the rank-0 elements are
    every vertex of P. A facet's primitive normal in the direction space
    and its offset are fixed by its face, so the record is the hull's.
    """
    pts = list(points)
    space, d = pts[0].space, len(pts[0]._num)
    assert (poly.space, poly.ambient_dim) == (space, d), "space or ambient dimension"
    scale = lcm(*[p._den for p in pts])
    own = {tuple([x * (scale // p._den) for x in p._num]): (p._num, p._den) for p in pts}
    forms = sorted(own)

    x0 = forms[0]
    mat, pivots = rref([[a - b for a, b in zip(x, x0)] for x in forms[1:]], d)
    k = len(pivots)
    basis = []
    for f in range(d):
        if f not in pivots:
            v = [Fraction(int(c == f)) for c in range(d)]
            for row, c in zip(mat, pivots):
                v[c] = -row[f]
            m = lcm(*[x.denominator for x in v])
            v = [int(x * m) for x in v]
            g = gcd(*v)
            basis.append(tuple([x // g for x in v]))
    eqs = poly.affine_span
    assert [(e.normal._num, e.normal._den) for e in eqs] == [(v, 1) for v in sorted(basis)], "span"
    for e in eqs:
        a, b = e.value.numerator, e.value.denominator
        assert type(e.value) is Fraction and e.normal.space != space, "equality record"
        assert all(sum(map(mul, x, e.normal._num)) * b == a * scale for x in forms), "off the span"

    masks = []
    for f in poly.facets:
        n, off = f.normal._num, f.offset
        assert f.normal._den == 1 and gcd(*n) == 1 and f.normal.space != space, "normal"
        assert not any(sum(map(mul, n, e.normal._num)) for e in eqs), "normal off the span"
        assert type(off) is Fraction, "offset"
        mask = 0
        for i, x in enumerate(forms):
            s = sum(map(mul, x, n)) * off.denominator + off.numerator * scale
            assert s >= 0, "a point violates a facet"
            mask |= (s == 0) << i
        masks.append(mask)
    normals = [f.normal._num for f in poly.facets]
    assert normals == sorted(set(normals)), "facet order"

    def covers(x):
        kept = []
        for y in sorted({x & m for m in masks if x & m != x} | {0}, key=int.bit_count, reverse=True):
            if all(y & z != y for z in kept):
                kept.append(y)
        return kept

    top = (1 << len(forms)) - 1
    rank = {top: k}
    down = {}
    level = {top}
    for r in range(k, -1, -1):
        below = set()
        for x in level:
            down[x] = covers(x)
            for y in down[x]:
                assert bool(y) == (r > 0) and rank.setdefault(y, r - 1) == r - 1, "not graded"
                below.add(y)
        level = below - {0}
    assert sorted(y for y in down[top] if y) == sorted(masks), "facets"
    for x, ys in down.items():
        if rank[x] > 0:
            middles = Counter(z for y in ys for z in down[y])
            assert set(middles.values()) == {2}, "diamond"

    points_at = sorted(x for x, r in rank.items() if r == 0)
    assert all(x & (x - 1) == 0 for x in points_at), "a rank-0 element is not one point"
    bits = [x.bit_length() - 1 for x in points_at]
    assert [(v._num, v._den, v.space) for v in poly.vertices] == [
        (*own[forms[i]], space) for i in bits
    ], "vertices"
    for f, m in zip(poly.facets, masks):
        assert f.incidence == tuple([pos for pos, i in enumerate(bits) if m >> i & 1]), "incidence"


def intersection_is_origin(p, q):
    """Exact check that two polytopes containing the origin meet only there.

    The library's former audit routine: every vertex of the intersection is
    found by :func:`_hrep_vertices` over both facet systems, and a nonzero
    one is the witness. Kept as the reference for the dual-cone test.
    """
    d = p.ambient_dim
    ineqs = []
    eqs = []
    for poly in (p, q):
        for f in poly.facets:
            ineqs.append((f.normal.coords, -f.offset))
        for eq in poly.affine_span:
            eqs.append((eq.normal.coords, eq.value))
    verts = _hrep_vertices(ineqs, eqs, d)
    zero = tuple(Fraction(0) for _ in range(d))
    if not verts:
        raise InvariantViolation("intersection of parts lost the origin")
    witnesses = [v for v in verts if v != zero]
    if witnesses:
        return False, witnesses[0]
    return True, None


def reflexive_facets(vertices, dim):
    """Facets of a reflexive polytope straight from its vertex list.

    Every facet spans a hyperplane {x : <x, u> = -1}, so u is recovered by
    solving on dim-subsets of vertices and keeping solutions that no vertex
    violates. Returns (u, incidence) pairs with incidence sorted.
    """
    verts = [tuple(Fraction(c) for c in v) for v in vertices]
    facets = {}
    for subset in combinations(range(len(verts)), dim):
        rows = [list(verts[i]) for i in subset]
        status, u = _solve(rows, [Fraction(-1)] * dim)
        if status != "unique":
            continue
        values = [sum(a * c for a, c in zip(v, u)) for v in verts]
        if any(val < -1 for val in values):
            continue
        incidence = tuple(i for i, val in enumerate(values) if val == -1)
        facets[u] = incidence
    return sorted(facets.items())


def is_nef_partition(vertices, parts, dim):
    """Direct definition check: on every facet cone the indicator values of
    each part must extend to a single linear functional that is integral,
    and no functional may exceed the prescribed value at any vertex."""
    verts = [tuple(Fraction(c) for c in v) for v in vertices]
    facets = reflexive_facets(verts, dim)
    for part in parts:
        values = [Fraction(1 if i in part else 0) for i in range(len(verts))]
        functionals = []
        for _, incidence in facets:
            rows = [list(verts[i]) for i in incidence]
            rhs = [values[i] for i in incidence]
            status, w = _solve(rows, rhs)
            if status == "inconsistent":
                return False
            if status == "underdetermined":
                raise AssertionError("facet vertices failed to span the space")
            functionals.append(w)
        for w in functionals:
            if any(c.denominator != 1 for c in w):
                return False
            for v, val in zip(verts, values):
                if sum(a * c for a, c in zip(v, w)) > val:
                    return False
    return True


def oracle_nef_partitions(vertices, dim, r):
    """All valid r-part partitions as a set of frozen unlabeled partitions."""
    from sympy.utilities.iterables import multiset_partitions

    n = len(vertices)
    valid = set()
    for cand in multiset_partitions(list(range(n)), r):
        parts = [frozenset(block) for block in cand]
        if is_nef_partition(vertices, parts, dim):
            valid.add(frozenset(parts))
    return valid


# The former Fraction arithmetic of nefdual.polytope, verbatim: the pairing,
# Polytope.contains (as a function of the polytope), solve_linear, and the
# Point comparisons (as functions of two points). The library now runs them
# on each Point's integer form; these are the reference for that route.


def pair(x: Point, y: Point) -> Fraction:
    """Canonical pairing between a point of M and a point of N."""
    if x.space == y.space:
        raise DimensionMismatch(
            f"pairing needs one point from each space, got two from {x.space}"
        )
    if x.dim != y.dim:
        raise DimensionMismatch(f"pairing dimension mismatch: {x.dim} vs {y.dim}")
    return sum(map(mul, x.coords, y.coords), Fraction(0))


def contains(self, point: Point) -> bool:
    if point.space != self.space or point.dim != self.ambient_dim:
        raise DimensionMismatch(
            f"point in {point.space}^{point.dim} against polytope "
            f"in {self.space}^{self.ambient_dim}"
        )
    for eq in self.affine_span:
        if pair(point, eq.normal) != eq.value:
            return False
    for f in self.facets:
        if pair(point, f.normal) < -f.offset:
            return False
    return True


def solve_linear(system: Iterable[tuple[Point, object]]):
    """Solve ``<p, u> = value`` for ``u`` in the dual space of the points.

    ``system`` is an iterable of (point, value) pairs. Returns the unique
    solution Point, or ``Inconsistent`` / ``Underdetermined``.
    """
    items = list(system)
    if not items:
        raise ValueError("empty linear system")
    space = items[0][0].space
    d = items[0][0].dim
    for p, _ in items:
        if p.space != space or p.dim != d:
            raise DimensionMismatch("linear system points disagree on space or dimension")
    res = solve([list(p.coords) for p, _ in items], [Fraction(v) for _, v in items])
    if isinstance(res, SolveFailure):
        return res
    return Point(res, dual_space(space))


def point_eq(self, other) -> bool:
    return (
        isinstance(other, Point)
        and self.space == other.space
        and self.coords == other.coords
    )


def point_hash(self) -> int:
    return hash((self.space, self.coords))


def point_lt(self, other: "Point") -> bool:
    self._check_compatible(other)
    return self.coords < other.coords


def point_le(self, other: "Point") -> bool:
    self._check_compatible(other)
    return self.coords <= other.coords


# The former hull-based routes of the library, verbatim apart from their
# names: the partition audit that decides its two hull identities with hulls and
# Δᵢ ∩ Δⱼ = {0} with one hull per pair of parts (the library now compares
# vertex sets and tests each part's vertices), the dual partition that is
# validated on nabla from scratch and whose psi is cross-checked against the
# source's delta parts (the library reads the dual's functionals off the
# delta parts, takes its nabla from the source when the cover test allows,
# and checks psi against the delta parts only in
# ``verify_delta_parts_from_dual``), and the involution check that always
# rebuilds the double dual (the library now reuses the source when the
# double dual's base and labeled parts equal it). These call the
# library's other code; they are the reference for the routes that
# replaced them. In :func:`_intersection_is_origin`, ``pair`` is this
# file's Fraction version above, which gives the same values. The psi
# cross-check is :func:`check_psi` below, the Fraction version of the
# library's former ``duality._check_psi``, with the same outcomes.


def _intersection_is_origin(p: Polytope, q: Polytope):
    """Exact check that two polytopes containing the origin meet only there.

    Both are convex and contain 0, so ``p`` and ``q`` meet only at 0 exactly
    when their tangent cones at 0 do. The intersection T of those cones is
    cut out by the facets through 0 (offset 0) and by the affine-span
    equalities. By Farkas' lemma its dual cone is generated by G, the normals
    of those facets together with plus and minus every equality normal, so
    T = {0} iff cone(G) is the whole space iff the origin is interior to
    conv(G): one small hull decides it.

    Returns ``(True, None)``, or ``(False, witness)`` with a nonzero point of
    both polytopes: a normal u of conv(G) that does not have the origin
    strictly inside pairs nonnegatively with all of G, so u lies in T, and
    it is scaled out to the boundary of the intersection.
    """
    zero = origin(p.ambient_dim, p.space)
    if not (p.contains(zero) and q.contains(zero)):
        raise InvariantViolation("intersection of parts lost the origin")
    gens = []
    for poly in (p, q):
        gens += [f.normal for f in poly.facets if f.offset == 0]
        for eq in poly.affine_span:
            gens += [eq.normal, -eq.normal]
    if not gens:
        # the origin is interior to both: T is the whole space
        u = Point([1] + [0] * (p.ambient_dim - 1), p.space)
    else:
        g = hull(gens)
        if g.has_zero_interior:
            return True, None
        if g.affine_span:
            eq = g.affine_span[0]
            u = eq.normal if eq.value >= 0 else -eq.normal
        else:
            u = next(f.normal for f in g.facets if f.offset <= 0)
    t = min(
        f.offset / -s
        for poly in (p, q)
        for f in poly.facets
        if (s := pair(u, f.normal)) < 0
    )
    return False, u.scale(t)


def assert_partition_invariants(np: NefPartition) -> None:
    """Identities every valid nef-partition satisfies; failure is a library bug."""
    delta = np.delta
    zero = origin(delta.ambient_dim, delta.space)
    polar = delta.polar_dual()
    total = reduce(lambda a, b: a + b, np.phi)
    if any(v != 1 for v in total.vertex_values):
        raise InvariantViolation(
            "indicator functions do not sum to 1 on the vertices",
            witness=total.vertex_values,
        )
    if support_polytope(total) != polar:
        raise InvariantViolation("sum of the phi functions does not support the polar")

    covered = hull([v for part_poly in np.delta_parts for v in part_poly.vertices])
    if covered != delta:
        raise InvariantViolation("hull of the delta parts is not the base polytope")
    for i, dp in enumerate(np.delta_parts):
        if not dp.contains(zero):
            raise InvariantViolation(f"delta part {i} misses the origin")
    for i, j in itertools.combinations(range(np.r), 2):
        ok, witness = _intersection_is_origin(np.delta_parts[i], np.delta_parts[j])
        if not ok:
            raise InvariantViolation(
                f"delta parts {i} and {j} overlap beyond the origin", witness=witness
            )

    dual_zero = origin(delta.ambient_dim, polar.space)
    for i, nb in enumerate(np.nabla_parts):
        if not nb.is_lattice():
            raise InvariantViolation(f"nabla part {i} is not a lattice polytope")
        if not nb.contains(dual_zero):
            raise InvariantViolation(f"nabla part {i} misses the origin")
        for v in nb.vertices:
            if not polar.contains(v):
                raise InvariantViolation(
                    f"nabla part {i} leaves the polar polytope", witness=v
                )


# The library's former audit of every validated partition, verbatim apart
# from the name: it decides the two hull identities on vertex sets and
# Δᵢ ∩ Δⱼ = {0} by a set test. The library no longer audits, because
# every test follows from ``_decide`` and ``_build`` (the ``nefdual.nefpart``
# docstring gives the argument); ``assert_partition_invariants`` above is
# its hull-based reference.


def assert_vertex_set_invariants(np: NefPartition) -> None:
    """Identities every valid nef-partition satisfies; failure is a library bug.

    No hull is built. Σφ is summed from the vertex values and the cone
    functionals of the φ_k; the hull identities are decided on vertex sets.

    Δᵢ ∩ Δⱼ = {0} for i ≠ j follows from a set test: every nonzero vertex of
    ``delta_parts[i]`` is a vertex of part i. Each φ_k is sublinear (its
    convexity was decided before the audit) and is 0 on the vertices of
    every other part, so φ_k ≤ 0 on Δᵢ for k ≠ i. Σφ_k is linear on each
    cone and 1 on the facet's vertices, so Σφ_k(x) > 0 for x ≠ 0. A nonzero
    x in Δᵢ ∩ Δⱼ would have φ_k(x) ≤ 0 for every k, as k ≠ i or k ≠ j,
    hence Σφ_k(x) ≤ 0: a contradiction.
    """
    delta = np.delta
    zero = origin(delta.ambient_dim, delta.space)
    polar = delta.polar_dual()
    values = tuple(map(sum, zip(*(f.vertex_values for f in np.phi))))
    if any(v != 1 for v in values):
        raise InvariantViolation(
            "indicator functions do not sum to 1 on the vertices", witness=values
        )
    for i, f in enumerate(np.phi):
        indicator = tuple(int(vi in np.parts[i]) for vi in range(len(delta.vertices)))
        if not (f.is_convex and f.is_integral) or f.vertex_values != indicator:
            raise InvariantViolation(f"phi {i} is not the convex indicator of part {i}")
    # support(Σφ) == polar. The sum is 1 on every vertex, so on the cone
    # over a facet (normal n, offset 1) its functional is -n, and the
    # polar's vertices are exactly those normals. Negated functionals equal
    # to the polar's vertex set give the hull equality, and they make the
    # sum convex: <v, -y> <= 1 = Σφ(v) for every vertex v of delta and y of
    # the polar, which is the condition support_polytope needs. Every
    # functional is integral, so the sum is taken on their ``int`` forms and
    # compared with the polar's integer forms.
    negated = {
        (tuple([-sum(c) for c in zip(*[u._num for u in us])]), 1)
        for us in zip(*(f.functionals for f in np.phi))
    }
    if negated != {(v._num, v._den) for v in polar.vertices}:
        raise InvariantViolation("sum of the phi functions does not support the polar")

    # hull(union of delta parts) == delta
    if not _covers(delta, np.delta_parts):
        raise InvariantViolation("hull of the delta parts is not the base polytope")
    for i, dp in enumerate(np.delta_parts):
        if not dp.contains(zero):
            raise InvariantViolation(f"delta part {i} misses the origin")
        own = set(np.part_vertices(i))
        for v in dp.vertices:
            if not v.is_zero() and v not in own:
                raise InvariantViolation(
                    f"delta part {i} has a vertex outside part {i}", witness=v
                )

    dual_zero = origin(delta.ambient_dim, polar.space)
    for i, nb in enumerate(np.nabla_parts):
        if not nb.is_lattice():
            raise InvariantViolation(f"nabla part {i} is not a lattice polytope")
        if not nb.contains(dual_zero):
            raise InvariantViolation(f"nabla part {i} misses the origin")
        for v in nb.vertices:
            if not polar.contains(v):
                raise InvariantViolation(
                    f"nabla part {i} leaves the polar polytope", witness=v
                )


# The library's former build of the parts, verbatim apart from the names:
# ``nefpart._build``, ``nefpart._delta_part`` and ``fan.support_polytope``,
# which made every delta part and every nabla part by a hull (the library
# now builds each part from its vertices, and a part's span and facets by
# a hull only when they are first read). :func:`kernel_dual_nef_partition`
# below builds its fallback delta parts with this ``_delta_part``.


def hull_build(delta: Polytope, parts, phis):
    """The delta parts and the nabla parts, the support polytopes of the
    ``phis``, each by a hull."""
    return (
        tuple(_delta_part(delta, part) for part in parts),
        tuple(hull_support_polytope(f) for f in phis),
    )


def _delta_part(delta: Polytope, part) -> Polytope:
    """conv(0, part): the hull of the origin and the part's vertices."""
    zero = origin(delta.ambient_dim, delta.space)
    return hull([zero] + [delta.vertices[i] for i in sorted(part)])


def hull_support_polytope(f: PLFunction) -> Polytope:
    """Hull of the negated cone functionals of a convex PL function.

    This is the polytope whose support function recovers ``f``:
    ``{y : <x, y> >= -f(x) for all x}``.
    """
    if not f.is_convex:
        raise NotConvex("support polytope needs a convex PL function")
    # Each generator g = -u already satisfies every vertex constraint:
    # <v, g> >= -f(v) is <v, u> <= f(v), which is what is_convex checked
    # for every functional u and vertex v.
    return hull([-u for u in f.functionals])


def dual_nef_partition(np: NefPartition) -> NefPartition:
    """The mirror nef-partition on the nabla polytope.

    Part i of the dual collects the nonzero vertices of nabla part i; the
    origin, which can be a genuine vertex of a nabla part, carries no
    indicator weight and is excluded. The resulting partition is validated
    on nabla from scratch, and each dual PL function is cross-checked
    against the pairing formula: psi_i at a vertex y equals the negated
    minimum of <x, y> over delta part i, and every cone functional of
    psi_i is the negative of a vertex of delta part i.

    :func:`run_full_duality` calls this once; :func:`verify_involution`
    calls it on the dual only when the double dual cannot be the source.
    """
    nb = nabla(np)
    result = validate_partition(nb, _dual_parts(np, nb))
    if isinstance(result, Rejection):
        raise InvariantViolation(
            "dual partition failed validation", witness=str(result)
        )
    check_psi(np, result)
    return result


def verify_involution(np: NefPartition, dual: NefPartition | None = None) -> CheckResult:
    """Applying the construction twice returns the original datum.

    The base polytopes must agree exactly and the part families must agree
    as unlabeled families of vertex-index sets.
    """
    if dual is None:
        dual = dual_nef_partition(np)
    double = dual_nef_partition(dual)
    if double.delta != np.delta:
        return CheckResult(
            "involution",
            False,
            witness={
                "original_vertices": [v.coords for v in np.delta.vertices],
                "double_dual_vertices": [v.coords for v in double.delta.vertices],
            },
        )
    if double.unlabeled() != np.unlabeled():
        return CheckResult(
            "involution",
            False,
            witness={
                "original_parts": sorted(sorted(p) for p in np.parts),
                "double_dual_parts": sorted(sorted(p) for p in double.parts),
            },
        )
    return CheckResult("involution", True)


# The former enumeration and PL extension of the library, verbatim: every
# set partition validated in turn (the library now decides each vertex
# subset once and searches the covers by nef subsets), and one fresh solve
# per cone for every PL function (the library now reads each cone's
# functional off the cone's integer table, kept on the fan).
# Here ``solve_linear`` is this file's Fraction version above.


def _set_partitions(n: int, r: int):
    """All partitions of range(n) into exactly r nonempty unlabeled blocks.

    Restricted-growth strings; blocks come out ordered by smallest member.
    """
    if r < 1 or r > n:
        return
    code = [0] * n

    def rec(i: int, nblocks: int):
        if i == n:
            if nblocks == r:
                blocks: list[list[int]] = [[] for _ in range(r)]
                for idx, b in enumerate(code):
                    blocks[b].append(idx)
                yield [tuple(b) for b in blocks]
            return
        # cannot finish if even opening a new block at every remaining slot is too few
        for b in range(min(nblocks + 1, r)):
            new_blocks = nblocks if b < nblocks else nblocks + 1
            if new_blocks + (n - i - 1) >= r:
                code[i] = b
                yield from rec(i + 1, new_blocks)

    yield from rec(1, 1)


def enumerate_nef_partitions(delta: Polytope, r: int) -> list[NefPartition]:
    """All nef-partitions of ``delta`` into exactly ``r`` unlabeled parts.

    Candidates are every set partition of the vertex indices, each checked
    by :func:`validate_partition`; no symmetry reduction is applied. All
    candidates share the face fan and polar cached on ``delta``. The result
    is sorted by canonical part lists.
    """
    if not delta.is_reflexive():
        raise NotReflexive("nef-partitions are defined on reflexive polytopes")
    found = []
    for cand in _set_partitions(len(delta.vertices), r):
        res = validate_partition(delta, cand)
        if isinstance(res, NefPartition):
            found.append(res)
    found.sort(key=lambda np: np.canonical_parts())
    return found


def pl_from_vertex_values(fan: FaceFan, values: Sequence) -> PLFunction:
    """Extend prescribed vertex values linearly on every maximal cone.

    ``values`` aligns with the canonical vertex order of ``fan.base``. On
    each cone the facet's vertices pin down a unique linear functional
    because they span the ambient space; if the (overdetermined) system of a
    non-simplicial facet is unsolvable, raises NotPiecewiseLinear naming the
    cone. Values are exact rationals; a ``float`` is a ``TypeError``. The
    function's convexity verdict is that of :func:`convexity_violation`,
    the scan over every cone's functional.
    """
    verts = fan.base.vertices
    if len(values) != len(verts):
        raise DimensionMismatch(
            f"{len(verts)} vertices but {len(values)} prescribed values"
        )
    vals = tuple(v if type(v) is Fraction else exact_rational(v) for v in values)
    functionals = []
    for cone in fan.cones:
        system = [(verts[i], vals[i]) for i in cone.vertex_indices]
        u = solve_linear(system)
        if u is Inconsistent:
            raise NotPiecewiseLinear(cone.index)
        if u is Underdetermined:
            raise InvariantViolation(
                "facet vertices failed to span the ambient space",
                witness=cone.index,
            )
        functionals.append(u)
    return PLFunction(fan, vals, tuple(functionals), convexity_violation(fan, vals, functionals))


# The library's former validation, verbatim apart from the names and the
# extension: each part decided by the PL extension of its indicator, here
# this file's :func:`pl_from_vertex_values`, then ``first_nonintegral_cone``
# and the convexity verdict of :func:`convexity_violation`, the scan the
# library ran when this route was its own (the library now decides each
# part on the fan's (cone, pattern) entries, the ones its enumeration reads,
# and takes its witness from those entries' masks). So no part of the
# decision is the library's extension or its masks. A test compares the
# library's ``pl_from_vertex_values`` verdict with the scan on every
# function this route builds on the corpus. And the former dual, validated
# on nabla with it and given no entry read off the delta parts.


def scan_decide(delta: Polytope, parts):
    """The former ``nefpart._decide``: the first :class:`Rejection`, or
    ``(parts, fan, phis)``."""
    if not delta.is_reflexive():
        raise NotReflexive("nef-partitions are defined on reflexive polytopes")
    nverts = len(delta.vertices)
    norm_parts = tuple(frozenset(operator.index(i) for i in part) for part in parts)
    for part in norm_parts:
        for i in part:
            if i < 0 or i >= nverts:
                raise IndexError(f"vertex index {i} out of range 0..{nverts - 1}")

    for pi, part in enumerate(norm_parts):
        if not part:
            return Rejection(EMPTY_PART, part=pi)
    seen: dict[int, int] = {}
    for pi, part in enumerate(norm_parts):
        for i in sorted(part):
            if i in seen:
                return Rejection(
                    NOT_DISJOINT,
                    part=pi,
                    vertex=i,
                    detail=f"also in part {seen[i]}",
                )
            seen[i] = pi
    missing = [i for i in range(nverts) if i not in seen]
    if missing:
        return Rejection(NOT_COVERING, vertex=missing[0])

    fan = face_fan(delta)
    phis: list[PLFunction] = []
    for pi, part in enumerate(norm_parts):
        values = [Fraction(1) if i in part else Fraction(0) for i in range(nverts)]
        try:
            f = pl_from_vertex_values(fan, values)
        except NotPiecewiseLinear as exc:
            return Rejection(NOT_PIECEWISE_LINEAR, part=pi, cone=exc.cone_index)
        bad_cone = f.first_nonintegral_cone()
        if bad_cone is not None:
            return Rejection(NOT_INTEGRAL, part=pi, cone=bad_cone)
        if not f.is_convex:
            vi, ci = f.first_convexity_violation()
            return Rejection(NOT_CONVEX, part=pi, vertex=vi, cone=ci)
        phis.append(f)
    return norm_parts, fan, tuple(phis)


def scan_validate_partition(delta: Polytope, parts):
    """The former ``validate_partition``: :func:`scan_decide`, then the
    library's build of the parts."""
    decided = scan_decide(delta, parts)
    if isinstance(decided, Rejection):
        return decided
    norm_parts, fan, phis = decided
    return NefPartition(delta, norm_parts, fan, phis, *_build(delta, norm_parts, phis))


def scan_dual_nef_partition(np: NefPartition) -> NefPartition:
    """The library's ``dual_nef_partition`` with the dual validated by
    :func:`scan_validate_partition`, and nothing read off the delta parts."""
    nb = nabla(np)
    dual = scan_validate_partition(nb, _dual_parts(np, nb))
    if isinstance(dual, Rejection):
        raise InvariantViolation("dual partition failed validation", witness=str(dual))
    if _covers(np.delta, dual.nabla_parts):
        object.__setattr__(dual, "_nabla", np.delta)
    object.__setattr__(dual, "_pairings", _pairings(np))
    return dual


# The former enumeration of the library, verbatim apart from the name: a
# search over the set partitions that cuts a branch at the first cone where
# some part's pattern has no lattice functional, and validates every
# survivor in full (the library now decides each nef subset once and
# searches the covers of the vertex set by them).


def _pruned_candidates(delta: Polytope, r: int):
    """Set partitions of delta's vertices into r blocks, less those that cannot be nef.

    Vertices 0..n-1 are labelled by restricted-growth strings, in the order
    and with the r-feasibility bound of a plain set-partition generator, so
    the candidates come out in that generator's order with blocks ordered by
    smallest member. The bound (a label is tried only if opening a new block
    at every later vertex would still reach r) makes every complete
    labelling use exactly r labels.

    A cone's vertex values are all known once its largest vertex index is
    labelled. At that point each opened label's 0/1 pattern on the cone
    must extend to a lattice functional; a label opened later is 0 on the
    whole cone, whose functional 0 passes. If some pattern fails, the
    subtree below is cut: every completion has a part that is not
    piecewise linear or not integral on that cone.
    """
    n = len(delta.vertices)
    if r < 1 or r > n:
        return
    fan = face_fan(delta)
    closing: list[list] = [[] for _ in range(n)]
    for cone in fan.cones:
        closing[max(cone.vertex_indices)].append(cone)
    code = [0] * n

    def cones_pass(i: int, nblocks: int) -> bool:
        for cone in closing[i]:
            labels = [code[v] for v in cone.vertex_indices]
            for b in range(nblocks):
                u = fan.cone_functional(cone.index, tuple([int(c == b) for c in labels]))
                if u is Inconsistent or not u.is_lattice():
                    return False
        return True

    def rec(i: int, nblocks: int):
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(r)]
            for idx, b in enumerate(code):
                blocks[b].append(idx)
            yield [tuple(b) for b in blocks]
            return
        for b in range(min(nblocks + 1, r)):
            new_blocks = nblocks if b < nblocks else nblocks + 1
            if new_blocks + (n - i - 1) >= r:
                code[i] = b
                if cones_pass(i, new_blocks):
                    yield from rec(i + 1, new_blocks)

    yield from rec(0, 0)


def pruned_enumerate_nef_partitions(delta: Polytope, r: int) -> list[NefPartition]:
    """All nef-partitions of ``delta`` into exactly ``r`` unlabeled parts.

    A backtracking search over the set partitions of the vertex indices
    (:func:`_pruned_candidates`) cuts every subtree in which some part's
    indicator fails to extend to a lattice functional on some cone; each
    survivor is checked in full by :func:`validate_partition`. No symmetry
    reduction is applied. All candidates share the face fan cached on
    ``delta`` and its cone tables. The result is sorted by canonical part
    lists.

    The result equals that of validating every set partition.
    ``validate_partition`` checks each part's 0/1 values cone by cone and
    rejects with ``NotPiecewiseLinear`` or ``NotIntegral`` when on some cone
    they have no solution or a non-lattice one (unless an earlier part has
    already failed). That is the condition the search tests, and it is
    final once the cone's vertices are all labelled, so every cut candidate
    would have been rejected. Every other candidate is still validated in
    full, decided and built, in the same order. The accepted partitions,
    their order and the labels of their parts are therefore unchanged.
    """
    if not delta.is_reflexive():
        raise NotReflexive("nef-partitions are defined on reflexive polytopes")
    found = []
    for cand in _pruned_candidates(delta, r):
        res = validate_partition(delta, cand)
        if isinstance(res, NefPartition):
            found.append(res)
    found.sort(key=lambda np: np.canonical_parts())
    return found


# The former Fraction checks of the pairing relations and of the dual PL
# functions, verbatim apart from the names: ``nefpart.check_relations``
# and ``duality._check_psi``, which built a ``Fraction`` per pairing and
# compared those (the library now finds and compares the minima on
# ``int``, and has no psi cross-check: ``verify_delta_parts_from_dual`` is
# the one check of psi against the delta parts). :func:`check_psi` is the
# psi cross-check of the former dual routes in this file. ``pair`` is this
# file's Fraction pairing, which gives the same values as the library's.


def check_relations(np: NefPartition) -> RelationReport:
    """Verify the pairing relations between the delta and nabla parts.

    Also re-derives every ``phi_i`` vertex value as the negated minimum of
    the pairing against nabla part i, confirming the two descriptions agree.
    """
    r = np.r
    matrix = []
    violations = []
    for j in range(r):
        row = []
        for i in range(r):
            pairs = [
                pair(x, y)
                for x in np.delta_parts[j].vertices
                for y in np.nabla_parts[i].vertices
            ]
            m = min(pairs)
            row.append(m)
            expected = Fraction(-1 if i == j else 0)
            if m != expected or any(p < expected for p in pairs):
                violations.append((j, i, m))
        matrix.append(tuple(row))
    phi_ok = True
    for i, f in enumerate(np.phi):
        for vi, x in enumerate(np.delta.vertices):
            derived = -min(pair(x, y) for y in np.nabla_parts[i].vertices)
            if derived != f.vertex_values[vi]:
                phi_ok = False
    return RelationReport(
        matrix=tuple(matrix),
        passed=not violations,
        violations=tuple(violations),
        phi_consistent=phi_ok,
    )


def check_psi(np: NefPartition, dual: NefPartition) -> None:
    """Cross-check each PL function of ``dual`` against the delta parts of
    ``np``: psi_i at a vertex y equals the negated minimum of <x, y> over
    delta part i, and every cone functional of psi_i is the negative of a
    vertex of delta part i."""
    for i, psi in enumerate(dual.phi):
        delta_part_verts = np.delta_parts[i].vertices
        for vi, y in enumerate(dual.delta.vertices):
            derived = -min(pair(x, y) for x in delta_part_verts)
            if psi.vertex_values[vi] != derived:
                raise InvariantViolation(
                    "dual PL value disagrees with the pairing formula",
                    witness=(i, y, psi.vertex_values[vi], derived),
                )
        vert_set = set(delta_part_verts)
        for u in psi.functionals:
            if -u not in vert_set:
                raise InvariantViolation(
                    "dual cone functional is not the negative of a delta part vertex",
                    witness=(i, u),
                )


# The former Minkowski-sum checks, verbatim apart from the names:
# ``duality.verify_polar_is_nabla_sum`` and
# ``duality.verify_nabla_polar_is_delta_sum``, which compared the polar
# with the hull of every pairwise vertex sum (the library now decides both
# by support functions and builds the sum only for a failure's witness).
# The polar they compare is the library's, which is again the hull of the
# facet normals divided by the offsets, its former route before the
# incidence reversal (:func:`incidence_polar` below).


def verify_polar_is_nabla_sum(np: NefPartition) -> CheckResult:
    """Polar of the base polytope equals the Minkowski sum of the nabla parts."""
    polar = np.delta.polar_dual()
    total = reduce(minkowski_sum, np.nabla_parts)
    if polar == total:
        return CheckResult("polar_is_nabla_sum", True)
    return CheckResult(
        "polar_is_nabla_sum",
        False,
        witness={
            "polar_vertices": [v.coords for v in polar.vertices],
            "sum_vertices": [v.coords for v in total.vertices],
        },
    )


def verify_nabla_polar_is_delta_sum(np: NefPartition) -> CheckResult:
    """Polar of nabla equals the Minkowski sum of the delta parts, and is lattice."""
    nb = nabla(np)
    polar = nb.polar_dual()
    total = reduce(minkowski_sum, np.delta_parts)
    detail = "nabla polar is a lattice polytope" if polar.is_lattice() else ""
    if polar == total and polar.is_lattice():
        return CheckResult("nabla_polar_is_delta_sum", True, detail=detail)
    return CheckResult(
        "nabla_polar_is_delta_sum",
        False,
        witness={
            "nabla_polar_vertices": [v.coords for v in polar.vertices],
            "sum_vertices": [v.coords for v in total.vertices],
        },
    )


# The former dual_nef_partition, verbatim apart from the name and its psi
# cross-check, which is this file's :func:`check_psi`: it decides the dual
# on nabla with a kernel for every cone of nabla's fan (the library now
# reads each psi_j functional off delta part j and leaves to the kernel
# only the cones where that fails), takes each part from the source where
# that is exact (the library builds every part from its vertices), audits
# the dual it has decided and cross-checks psi against the delta parts
# (the library does neither). Its calls into ``verify_involution`` go
# through ``nefdual.duality.dual_nef_partition``, which a test may replace
# by this.


def kernel_dual_nef_partition(np: NefPartition) -> NefPartition:
    """The mirror nef-partition on the nabla polytope.

    Part i of the dual collects the nonzero vertices of nabla part i; the
    origin, which can be a genuine vertex of a nabla part, carries no
    indicator weight and is excluded. The partition is decided on nabla and
    its parts are taken from the source wherever that is exact (see the
    module docstring): the dual's delta part i is ``np.nabla_parts[i]``,
    its nabla part i is ``np.delta_parts[i]``, and its own nabla is
    ``np.delta``; any other part is built by a hull. The result is audited
    like every validated partition, and each dual PL function is
    cross-checked against the pairing formula: psi_i at a vertex y equals
    the negated minimum of <x, y> over delta part i, and every cone
    functional of psi_i is the negative of a vertex of delta part i.

    :func:`run_full_duality` calls this once; :func:`verify_involution`
    calls it on the dual only when the double dual cannot be the source.
    """
    nb = nabla(np)
    decided = _decide(nb, _dual_parts(np, nb))
    if isinstance(decided, Rejection):
        raise InvariantViolation(
            "dual partition failed validation", witness=str(decided)
        )
    parts, fan, psis = decided
    # The source's own object wherever the hull would return it.
    zero = origin(nb.ambient_dim, nb.space)
    dparts = tuple(
        nabla_part if nabla_part.contains(zero) else _delta_part(nb, part)
        for nabla_part, part in zip(np.nabla_parts, parts)
    )
    nparts = tuple(
        delta_part
        if {-u for u in psi.functionals} == set(delta_part.vertices)
        else support_polytope(psi)
        for delta_part, psi in zip(np.delta_parts, psis)
    )
    dual = NefPartition(nb, parts, fan, psis, dparts, nparts)
    assert_vertex_set_invariants(dual)
    check_psi(np, dual)
    if _covers(np.delta, nparts):
        object.__setattr__(dual, "_nabla", np.delta)
    return dual


# The former pairing route of a duality, verbatim apart from the names:
# ``polytope._is_minkowski_sum`` and the sum checks that called it on a polar
# (the library now decides both identities on the base's own vertices and
# facets, with no polar), ``nefpart._pair_min`` and the relation check and
# the phi check that paired with it, and ``duality._read_off``, which paired
# each delta part vertex with every vertex of nabla by its own dot product
# (the library reads every one of these pairings from one table per
# duality, computed once). :func:`convexity_violation` pairs every vertex
# with every cone's functional: the library's former convexity scan, which
# paired it once per distinct functional (the library now decides
# convexity on one vertex bitmask per cone). A test puts these in place
# of the library's to run the former route whole.


def is_minkowski_sum(p: Polytope, summands: Sequence[Polytope]) -> bool:
    """Whether the full-dimensional ``p`` equals the Minkowski sum of ``summands``.

    No hull of the sum is built. The sum Q's support function is the sum of
    the summands', ``min_Q <x, u> = Σ_j min_{q ∈ vert Q_j} <q, u>``, taken on
    the summands' integer forms over their common denominator L. Then:

    - Q ⊆ p iff ``min_Q <x, n> >= -e`` for every facet ``(n, e)`` of p, as
      the full-dimensional p is the intersection of its facet half-spaces;
    - given that, Q ⊇ p iff ``min_Q <x, ℓ_y> = <y, ℓ_y>`` for every vertex
      y of p, where ℓ_y is the sum of the normals of the facets through y.
      ℓ_y lies in the interior of y's normal cone, so y is the only point
      of p where ``<·, ℓ_y>`` is that small, and a point of Q ⊆ p attains
      it iff it is y; a convex Q holding every vertex of p holds p.

    A summand in another space or dimension makes the answer ``False``.
    """
    if any(q.space != p.space or q.ambient_dim != p.ambient_dim for q in summands):
        return False
    scale = lcm(*[x._den for q in summands for x in q.vertices])
    forms = [
        [x._num if x._den == scale else tuple([a * (scale // x._den) for a in x._num])
         for x in q.vertices]
        for q in summands
    ]

    def support(u) -> int:
        """L times the minimum of ``<x, u>`` over the sum."""
        return sum([min([_dot(x, u) for x in xs]) for xs in forms])

    for f in p.facets:
        off = f.offset
        if support(f.normal._num) * off.denominator < -off.numerator * scale:
            return False
    through: list[list[tuple[int, ...]]] = [[] for _ in p.vertices]
    for f in p.facets:
        for i in f.incidence:
            through[i].append(f.normal._num)
    for y, normals in zip(p.vertices, through):
        ell = [sum(c) for c in zip(*normals)]
        if support(ell) * y._den != _dot(y._num, ell) * scale:
            return False
    return True


def polar_support_polar_is_nabla_sum(np: NefPartition) -> CheckResult:
    """Polar of the base polytope equals the Minkowski sum of the nabla parts.

    Decided by support functions, with no hull of the sum
    (:func:`is_minkowski_sum`); the sum is built only for a failure's
    witness.
    """
    polar = np.delta.polar_dual()
    if is_minkowski_sum(polar, np.nabla_parts):
        return CheckResult("polar_is_nabla_sum", True)
    total = reduce(minkowski_sum, np.nabla_parts)
    return CheckResult(
        "polar_is_nabla_sum",
        False,
        witness={
            "polar_vertices": [v.coords for v in polar.vertices],
            "sum_vertices": [v.coords for v in total.vertices],
        },
    )


def polar_support_nabla_polar_is_delta_sum(np: NefPartition) -> CheckResult:
    """Polar of nabla equals the Minkowski sum of the delta parts, and is lattice.

    Decided like :func:`polar_support_polar_is_nabla_sum`.
    """
    polar = nabla(np).polar_dual()
    if polar.is_lattice() and is_minkowski_sum(polar, np.delta_parts):
        return CheckResult(
            "nabla_polar_is_delta_sum", True, detail="nabla polar is a lattice polytope"
        )
    total = reduce(minkowski_sum, np.delta_parts)
    return CheckResult(
        "nabla_polar_is_delta_sum",
        False,
        witness={
            "nabla_polar_vertices": [v.coords for v in polar.vertices],
            "sum_vertices": [v.coords for v in total.vertices],
        },
    )


def pair_min(xs, ys) -> tuple[int, int]:
    """The minimum of ``<x, y>`` over ``xs`` x ``ys``, as ``(num, den)``, den > 0.

    Each pairing is an ``int`` dot product of integer forms over the
    product of the denominators; ``n1/d1 < n2/d2`` is ``n1 * d2 < n2 * d1``.
    """
    best_n, best_d = None, 1
    for x in xs:
        xn, xd = x._num, x._den
        for y in ys:
            n = _dot(xn, y._num)
            d = xd * y._den
            if best_n is None or n * best_d < best_n * d:
                best_n, best_d = n, d
    return best_n, best_d


def pair_min_pairing_mismatch(f: PLFunction, base: Polytope, part: Polytope) -> int | None:
    """The index of the first vertex v of ``base`` with f(v) != -min <v, part>,
    or ``None``; ``base`` and ``part`` must pair. It is ``None``, with no
    pairing, when ``f`` is convex on the fan of ``base`` and its negated
    functionals are exactly the vertices of ``part``."""
    forms = {(x._num, x._den) for x in part.vertices}
    if f.is_convex and f.fan.base == base and forms == {
        (tuple([-a for a in u._num]), u._den) for u in f.functionals
    }:
        return None
    for vi, v in enumerate(base.vertices):
        n, d = pair_min((v,), part.vertices)
        if -n * f.vertex_values[vi].denominator != f.vertex_values[vi].numerator * d:
            return vi
    return None


def pair_min_check_relations(np: NefPartition) -> RelationReport:
    """Verify the pairing relations between the delta and nabla parts, with
    a dot product per pairing (:func:`pair_min`)."""
    r = np.r
    matrix = []
    violations = []
    for j in range(r):
        row = []
        for i in range(r):
            _check_pairable(np.delta_parts[j], np.nabla_parts[i])
            n, d = pair_min(np.delta_parts[j].vertices, np.nabla_parts[i].vertices)
            m = Fraction(n, d)
            row.append(m)
            if n != (-d if i == j else 0):
                violations.append((j, i, m))
        matrix.append(tuple(row))
    phi_ok = True
    for i, f in enumerate(np.phi):
        part = np.nabla_parts[i]
        _check_pairable(np.delta, part)
        phi_ok = phi_ok and pair_min_pairing_mismatch(f, np.delta, part) is None
    return RelationReport(
        matrix=tuple(matrix),
        passed=not violations,
        violations=tuple(violations),
        phi_consistent=phi_ok,
    )


def dot_read_off(np: NefPartition, nb: Polytope, parts) -> None:
    """Put the entry of each psi_j cone pattern that reads off Δ_j into the
    memo of ``face_fan(nb)``, leaving the other cones to the kernel, pairing
    each vertex of a delta part with every vertex of ``nb`` by a dot
    product. The entry is the one :meth:`FaceFan.entry` describes, with
    its masks read off the minimiser's pairings, so only its format is the
    library's; the former read-off put the functional alone into the
    former memo of functionals."""
    fan = face_fan(nb)
    verts = [v._num for v in nb.vertices]
    space = dual_space(nb.space)
    for part, dp in zip(parts, np.delta_parts):
        # <x, y> * x._den for each vertex x of the part and y of nabla;
        # <x, ℓ_F> * x._den is the sum of a row over F's vertices.
        rows = [
            (x._num, x._den, [_dot(x._num, y) for y in verts])
            for x in (dp.vertices if dp.ambient_dim == nb.ambient_dim else ())
        ]
        for cone in fan.cones:
            vids = cone.vertex_indices
            best = None
            for num, den, row in rows:
                n = sum([row[i] for i in vids])
                if best is None or n * best_den < best_n * den:
                    best, best_n, best_den, best_row, tie = num, n, den, row, False
                elif n * best_den == best_n * den:
                    tie = True
            values = tuple([int(i in part) for i in vids])
            if best is not None and not tie and all(
                best_row[i] == -v * best_den for i, v in zip(vids, values)
            ):
                pattern = sum(1 << i for i, v in zip(vids, values) if v)
                u = Point._from_form(tuple([-a for a in best]), best_den, space)
                if not u.is_lattice():
                    fan._entries[cone.index, pattern] = False
                    continue
                # <v, u> = -best_row[v] / best_den, with best_den = 1 here
                gt0 = sum(1 << v for v, x in enumerate(best_row) if -x > 0)
                gt1 = sum(1 << v for v, x in enumerate(best_row) if -x > 1)
                fan._entries[cone.index, pattern] = (u, gt0, gt1)


def convexity_violation(fan: FaceFan, vertex_values, functionals):
    """First (vertex_index, cone_index) with ``<vertex, functional> > value``,
    pairing every vertex with every cone's functional."""
    forms = [(u._num, u._den) for u in functionals]
    for vi, v in enumerate(fan.base.vertices):
        val = vertex_values[vi]
        num = v._num
        b = val.denominator
        a = val.numerator * v._den
        for ci, (un, ud) in enumerate(forms):
            if _dot(num, un) * b > a * ud:
                return (vi, ci)
    return None


# The library's former polar and the former membership test of a nabla
# part, verbatim apart from the names, the polar's cache and the point
# check: ``Polytope.polar_dual``, which read the polar's facets off the
# facet-vertex incidence, and ``fan._SupportPolytope.contains``, which
# decided membership in a support polytope by Borisov's H-description (the
# library now builds the polar from its vertices, with its span and facets
# from one hull on first read, and a nabla part decides membership by its
# facets like any polytope).


def incidence_polar(self: Polytope) -> Polytope:
    """The polar polytope ``{y : <x, y> >= -1 for all x here}``.

    Read off the facet-vertex incidence, with no hull. Each facet
    ``(n, a/b)`` gives the polar vertex ``n * b / a``: its normal divided
    by its offset. Each vertex ``v = num/den`` gives the polar facet
    ``<v, y> >= -1``, with primitive normal ``num/g`` and offset ``den/g``
    for ``g = gcd(num)``, through the polar vertices of the facets
    through ``v``. Vertices and facets are sorted as :func:`hull` sorts
    them.
    """
    if not self.is_full_dimensional:
        raise NotFullDimensional("polar dual needs a full-dimensional polytope")
    if not self.has_zero_interior:
        raise ZeroNotInterior("polar dual needs the origin strictly inside")
    target = dual_space(self.space)
    # normal / offset, with offset = a/b > 0: the form (b * _num, a * _den).
    gens = [
        Point._from_form(
            tuple([f.offset.denominator * x for x in f.normal._num]),
            f.offset.numerator * f.normal._den,
            target,
        )
        for f in self.facets
    ]
    order = sorted(range(len(gens)), key=gens.__getitem__)
    position = [0] * len(gens)
    for pos, j in enumerate(order):
        position[j] = pos
    through: list[list[int]] = [[] for _ in self.vertices]
    for j, f in enumerate(self.facets):
        for i in f.incidence:
            through[i].append(position[j])
    # The origin is interior, so no vertex is 0 and no two share a
    # direction: the normals are distinct and sort the facets alone.
    planes = []
    for v, on in zip(self.vertices, through):
        g = gcd(*v._num)
        planes.append((tuple([x // g for x in v._num]), Fraction(v._den, g), sorted(on)))
    planes.sort(key=lambda plane: plane[0])
    facets = tuple(
        Facet(Point._from_form(nv, 1, self.space), offset, tuple(on))
        for nv, offset, on in planes
    )
    return Polytope(self.ambient_dim, target, tuple([gens[j] for j in order]), (), facets)


def hrep_contains(f: PLFunction, point: Point) -> bool:
    """Membership of ``point`` in the support polytope of ``f``, decided by
    Borisov's H-description, ``<v, y> >= -f(v)`` at every vertex v of the
    fan's base, on ``int``: with f(v) = a/b, ``<v, y> >= -a/b`` is
    ``<v._num, y._num> * b >= -a * v._den * y._den``."""
    num = point._num
    den = point._den
    for v, val in zip(f.fan.base.vertices, f.vertex_values):
        if _dot(v._num, num) * val.denominator < -val.numerator * v._den * den:
            return False
    return True


def functional_cone_entry(fan: FaceFan, c: int, s: int):
    """The fan's entry for S's 0/1 pattern on cone ``c``
    (:meth:`FaceFan.entry`) by the former route, with no memo and no cone
    table: the functional by the ``Fraction`` solve (:func:`solve_linear`),
    and gt0 and gt1 by one ``Fraction`` pairing (:func:`pair`) per vertex.
    ``None`` when the pattern has no functional, ``False`` when it is not a
    lattice point."""
    pattern = s & fan.bits[c]
    verts = fan.base.vertices
    u = solve_linear([(verts[v], pattern >> v & 1) for v in fan.cones[c].vertex_indices])
    if u is Inconsistent:
        return None
    if not u.is_lattice():
        return False
    gt0 = gt1 = 0
    for v, vertex in enumerate(verts):
        x = pair(vertex, u)
        if x > 0:
            gt0 |= 1 << v
            if x > 1:
                gt1 |= 1 << v
    return (u, gt0, gt1)


def determinant(rows) -> int:
    """The determinant of a square matrix by the Leibniz formula: the sum
    over permutations p of sign(p) times the product of ``rows[i][p(i)]``."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total += (-1) ** inversions * reduce(mul, [rows[i][perm[i]] for i in range(n)], 1)
    return total
