"""Test oracles: checks from the definition, and the library's former routes.

**From the definition.** Nothing here calls into the package's
computational code but ``hull``, whose every result here is certified.
Each of these works on raw coordinate tuples with its own elimination
(:func:`rref`, :func:`_solve`, :func:`_gauss_jordan`), or reads only the
fields of a ``Point``, a ``Polytope`` and a nef-partition, so a defect in
the library cannot hide behind a shared code path: convex-hull membership
(:func:`caratheodory_member`), the vertices of an H-description
(:func:`hrep_vertex_set`), the hull certificate (:func:`certify_hull`,
which reads the points' integer forms and the hull's span, facets and
vertices, and checks them against the definition), Borisov's duality as
the duality of reflexive Gorenstein cones (:func:`cayley_duality`: the
nabla parts read off one certified hull of the Cayley polytope
(:func:`cayley_read_off`), nabla, the dual's labels, every part's
functional on every cone and the double dual), one decider per check of
``run_full_duality`` (:func:`polar_sum_check`, :func:`relation_report`
and :func:`relations_check`, :func:`delta_parts_check`,
:func:`involution_check`, all six at once by :func:`duality_checks`, and
:func:`failure_reasons` for a source on which no duality can be run), a
reflexive polytope's facets (:func:`reflexive_facets`), nef-partitions by
the definition (:func:`is_nef_partition`, :func:`oracle_nef_partitions`)
and the determinant by the Leibniz formula (:func:`determinant`).

**Former routes.** The rest call the rest of the library and serve as the
reference for the routes that replaced them: the former ``Fraction``
arithmetic of ``nefdual.polytope`` (:func:`pair`, :func:`contains`,
:func:`solve_linear` and the ``Point`` comparisons, which read
``Point.coords`` and ``Point.space`` only, except that :func:`solve_linear`
hands ``Fraction`` rows to ``linalg.solve``, whose own reference is
:func:`_solve`); the former Bell-number enumeration (:func:`_set_partitions`,
:func:`enumerate_nef_partitions`); the former search over set partitions
cut per cone that validated every survivor (:func:`_pruned_candidates`,
:func:`pruned_enumerate_nef_partitions`); the solve-per-cone PL extension
(:func:`pl_from_vertex_values`); the former validation by that extension
and its convexity scan (:func:`scan_decide`, :func:`scan_validate_partition`,
:func:`scan_dual_nef_partition`), with the scan over every cone's
functional (:func:`convexity_violation`); the polar read off the
facet-vertex incidence (:func:`incidence_polar`); a nabla part's membership
by Borisov's H-description (:func:`hrep_contains`); and the subset
search's cone entry by the ``Fraction`` solve and a pairing per vertex
(:func:`functional_cone_entry`).
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from nefdual.duality import CheckResult, _covers, _dual_parts, nabla
from nefdual.errors import (
    DimensionMismatch,
    InvariantViolation,
    NotFullDimensional,
    NotPiecewiseLinear,
    NotReflexive,
    ZeroNotInterior,
)
from nefdual.fan import FaceFan, PLFunction, face_fan
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


def _gauss_jordan(rows, ncols: int):
    """Fraction-free Gauss–Jordan elimination (Bareiss) of ``int`` rows on
    their first ``ncols`` columns, on a copy.

    Returns ``(matrix, pivot_columns, den)``: each step puts
    (p·row - row[c]·pivot_row) / prev in every other row, p the new pivot
    and prev the last, an exact division (every entry is a minor of the
    input, by Sylvester's identity). Pivot row r then holds ``den`` at its
    pivot column and 0 at the others, the rows below the pivots are 0 in
    the first ``ncols`` columns, and ``matrix / den`` is :func:`rref`'s
    result.
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    den = 1
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        pivot = mat[r]
        for i, row in enumerate(mat):
            if i != r:
                a = row[c]
                mat[i] = [(pivot[c] * x - a * y) // den for x, y in zip(row, pivot)]
        den = pivot[c]
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    return mat, pivots, den


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
    are read, and nothing of the library is called: every step is ``int``
    arithmetic on the points scaled by their common denominator L, the span
    by :func:`_gauss_jordan`.

    1. ``space`` and ``ambient_dim`` are the points'.
    2. The equalities are the canonical basis of the span's normals: one
       primitive integer vector per free column of the reduced row
       echelon form of the differences, positive at that column, sorted.
       Every point satisfies every equality.
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
    mat, pivots, den = _gauss_jordan([[a - b for a, b in zip(x, x0)] for x in forms[1:]], d)
    k = len(pivots)
    basis = []
    for f in range(d):
        if f not in pivots:
            # den times the rref's vector: den at f, minus row r's entry at f at pivot r
            v = [den * (c == f) for c in range(d)]
            for row, c in zip(mat, pivots):
                v[c] = -row[f]
            g = gcd(*v) if den > 0 else -gcd(*v)
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
        for y in sorted({x & m for m in masks} - {x} | {0}, key=int.bit_count, reverse=True):
            for z in kept:
                if y & z == y:
                    break
            else:
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


def _certified_hull(points) -> Polytope:
    """``hull(points)``, passed through :func:`certify_hull`. The last few
    are kept by their point sets, as a duality and its checks hull the same
    points more than once; the hull is a function of the set alone, so
    what is kept changes no result."""
    return _certified_hull_of(frozenset(points))


@lru_cache(maxsize=16)
def _certified_hull_of(points: frozenset) -> Polytope:
    poly = hull(points)
    certify_hull(points, poly)
    return poly


def _pairs(p: Polytope, q: Polytope) -> bool:
    """Whether the points of ``p`` pair with those of ``q``: other spaces, one dimension."""
    return p.space != q.space and p.ambient_dim == q.ambient_dim


def _sides_pair(np: NefPartition) -> bool:
    """Whether delta and every delta part pair with every nabla part."""
    return all(_pairs(p, q) for p in (np.delta, *np.delta_parts) for q in np.nabla_parts)


def _low(xs, ys) -> Fraction:
    """The minimum of <x, y> over ``xs`` x ``ys``: ``int`` dot products of
    the integer forms, each scaled to the common denominator L."""
    scale = lcm(*[x._den for x in xs]) * lcm(*[y._den for y in ys])
    low = min([sum(map(mul, x._num, y._num)) * (scale // (x._den * y._den)) for x in xs for y in ys])
    return Fraction(low, scale)


def _is_reflexive(poly: Polytope) -> bool:
    """Reflexivity by the facets: full-dimensional, lattice, every offset 1."""
    return not poly.affine_span and all(v._den == 1 for v in poly.vertices) and all(
        f.offset == 1 for f in poly.facets
    )


def _labels(base: Polytope, vertex_sets) -> tuple[frozenset[int], ...]:
    """The index in ``base`` of each nonzero point of each of ``vertex_sets``,
    each of which must be a vertex of ``base``."""
    index = {(v._num, v._den): i for i, v in enumerate(base.vertices)}
    labels = tuple(frozenset([index.get((w._num, w._den)) for w in ws if any(w._num)]) for ws in vertex_sets)
    assert all(None not in part for part in labels), "a nonzero vertex of a part is no vertex of the hull"
    return labels


def cayley_read_off(base: Polytope, parts) -> tuple[tuple[Point, ...], ...]:
    """The vertices of the dual parts of a nef-partition, read off one hull.

    ``base`` is a reflexive polytope and ``parts`` the vertex index sets
    E_1, …, E_r of a nef-partition of it. The Cayley points (x, e_j), x in
    {0} ∪ E_j, of R^(d+r) are hulled once and certified
    (:func:`certify_hull`). Each facet ``<z, n> >= -e`` is homogenized to
    m = (n_x, n_t + e·1). Its t-part has exactly one nonzero entry, at some
    k, which is positive; scaled to 1 there, the x-part is a vertex w of
    ∇_k = {y : <v, y> >= -φ_k(v) at every vertex v of base}, φ_k the PL
    extension of E_k's indicator, and every vertex of every ∇_k comes so
    from one facet. Returns each ∇_k's vertices, sorted as :func:`hull`
    sorts them.

    Why. Let C be the cone over the Cayley points and C^∨ its dual cone.
    They lie in the plane Σt = 1, which misses the origin, and span it: the
    E_j hold every vertex of the full-dimensional base, and the (0, e_j)
    give the t-directions. So C is full-dimensional and pointed, and its
    facets are the cones over the hull's facets, which are all of the
    hull's facets by the certificate. On the plane, e = e·Σt, so m is ``>= 0``
    on C and 0 on the facet's points: it is the inward normal of the facet
    of C over it, and the rays of C^∨ are exactly these normals, one per
    facet. (Another normal n + λ(0; 1, …, 1) of the same facet, offset
    e - λ, gives the same m.)

    (y, s) lies in C^∨ iff s >= 0 (the points (0, e_j)) and
    <x, y> >= -s_j at every x in E_j: <v, y> >= -φ_s(v) at every vertex v,
    φ_s = Σ s_k φ_k. The parts are nef, so each φ_k is convex and linear on
    every cone over a facet of ``base``, and so is φ_s. The condition at the
    vertices then holds at every x, and the y meeting it form the polytope
    whose minimum of <x, ·> is -φ_s(x) = Σ s_k·(-φ_k(x)), the support
    function of Σ s_k ∇_k. Equal support functions make equal polytopes, so
    C^∨ = {(y, s) : s >= 0, y in Σ s_k ∇_k}, the cone over the (w, e_k),
    w in ∇_k. A ray of C^∨ is therefore some (w, e_k) up to a positive
    factor, with exactly one nonzero t-entry. It has w a vertex of ∇_k: if
    w = (a + b)/2 in ∇_k, (w, e_k) is the midpoint of (a, e_k) and (b, e_k)
    in C^∨, and extremality gives a = b. Conversely, for a vertex w of ∇_k,
    split (w, e_k) = p + q in C^∨. The t-parts are λe_k and (1 - λ)e_k, so
    p = λ(a, e_k) and q = (1 - λ)(b, e_k) with a, b in ∇_k, and
    w = λa + (1 - λ)b gives a = b = w: a ray. (At λ = 0, p = (y, 0) has
    <v, y> >= 0 at every vertex v of ``base``, which holds the origin
    inside, so y = 0.)

    Run on ∇ = conv(∪ ∇_k) with the labels of the ∇_k's nonzero vertices,
    the same read-off gives the rays of the dual of C^∨, which is C. C at
    t = s is Σ s_j Δ_j, Δ_j = conv({0} ∪ E_j), so by the same extremality
    argument its rays are the (x, e_j) with x a vertex of Δ_j: the read-off
    gives the Δ_j.
    """
    return _read_off(base.vertices, tuple(map(frozenset, parts)))


@lru_cache(maxsize=16)
def _read_off(vertices: tuple[Point, ...], parts: tuple[frozenset[int], ...]):
    """:func:`cayley_read_off` of the polytope with ``vertices``, kept by
    its arguments as :func:`_certified_hull` keeps a hull."""
    d, r, space = vertices[0].dim, len(parts), vertices[0].space
    zero = Point((0,) * d, space)
    points = [
        Point(x.coords + tuple([int(k == j) for k in range(r)]), space)
        for j, part in enumerate(parts)
        for x in [zero] + [vertices[i] for i in sorted(part)]
    ]
    found = [set() for _ in range(r)]
    for f in _certified_hull(points).facets:
        # m = (n_x, n_t + a/b) for the offset a/b, times b: ints
        a, b = f.offset.numerator, f.offset.denominator
        n = f.normal._num
        t = [c * b + a for c in n[d:]]
        ks = [k for k, c in enumerate(t) if c]
        assert len(ks) == 1 and t[ks[0]] > 0, "a homogenized facet has no single positive t-entry"
        k = ks[0]
        found[k].add(Point([Fraction(c * b, t[k]) for c in n[:d]], dual_space(space)))
    return tuple(tuple(sorted(ws)) for ws in found)


def _functionals(base: Polytope, parts) -> tuple[tuple[Point, ...], ...]:
    """For each part, the functional of its indicator's PL extension on the
    cone over each facet of ``base``, in facet order: the one u with
    <v, u> = 1 on the part and 0 off it at every vertex v of the facet.

    Each facet's system, <v._num, u> = v._den times the value, is solved
    for every part at once by one :func:`_gauss_jordan` on ``int`` rows,
    which must find d pivots: the facet's vertices span the space, so u is
    unique. Every candidate is then checked on every row, so a slip of the
    elimination fails here and cannot pass a wrong functional.
    """
    d, space = base.ambient_dim, dual_space(base.space)
    per_facet = []
    for f in base.facets:
        verts = [base.vertices[i] for i in f.incidence]
        rows = [[*v._num, *[v._den * (i in part) for part in parts]] for i, v in zip(f.incidence, verts)]
        mat, pivots, den = _gauss_jordan(rows, d)
        assert len(pivots) == d, "the facet's vertices do not span the space"
        us = [[mat[j][d + k] for j in range(d)] for k in range(len(parts))]
        assert all(
            sum(map(mul, row[:d], u)) == row[d + k] * den for row in rows for k, u in enumerate(us)
        ), "a part's indicator has no functional on a cone"
        per_facet.append([Point([Fraction(x, den) for x in u], space) for u in us])
    return tuple(zip(*per_facet))


class CayleyDuality(NamedTuple):
    """The duality of a nef-partition built from the definition
    (:func:`cayley_duality`): each ∇_k's and Δ_j's vertices, ∇ (a
    certified hull), the dual's labels, and each φ_j's and ψ_k's functional
    on each cone of Δ's and ∇'s face fan."""

    nabla_parts: tuple[tuple[Point, ...], ...]
    nabla: Polytope
    labels: tuple[frozenset[int], ...]
    phi: tuple[tuple[Point, ...], ...]
    psi: tuple[tuple[Point, ...], ...]
    delta_parts: tuple[tuple[Point, ...], ...]


def cayley_duality(delta: Polytope, parts) -> CayleyDuality:
    """Borisov's duality of the nef-partition ``parts`` of the reflexive
    ``delta``, as the duality of reflexive Gorenstein cones (Batyrev–Borisov,
    alg-geom/9412017; Batyrev–Nill, math/0703456), with no fan, PL function,
    pairing table, polar, Minkowski sum or validation of the library.

    The ∇_k are read off one Cayley hull (:func:`cayley_read_off`); ∇ is
    the certified hull of their union and must be reflexive by its facets;
    the dual's labels are the indices in ∇ of each ∇_k's nonzero vertices;
    φ_j and ψ_k are solved on each cone (:func:`_functionals`); and the same
    read-off on (∇, labels) must give each Δ_j = conv({0} ∪ E_j) as the
    certified hull of those points.
    """
    nabla_parts = cayley_read_off(delta, parts)
    nb = _certified_hull([w for ws in nabla_parts for w in ws])
    assert _is_reflexive(nb), "nabla is not reflexive"
    labels = _labels(nb, nabla_parts)
    delta_parts = cayley_read_off(nb, labels)
    zero = Point((0,) * delta.ambient_dim, delta.space)
    for part, vertices in zip(parts, delta_parts):
        own = _certified_hull([zero] + [delta.vertices[i] for i in part])
        assert vertices == own.vertices, "the double dual's part is not conv(0, E_j)"
    return CayleyDuality(
        nabla_parts, nb, labels, _functionals(delta, parts), _functionals(nb, labels), delta_parts
    )


# One decider per check of ``duality.run_full_duality``, from the
# definition. Each reads only the fields it is given, so a tampered source
# is judged too, and gives the result the library's check returns: the same
# name, verdict and detail, and on a failure the same witness, from the
# certified hull of the few points involved. The sources on which no
# duality can be run are named by :func:`failure_reasons`.


def polar_sum_check(
    name: str, key: str, base: Polytope, summands, lattice: bool = False
) -> CheckResult | None:
    """Whether Q = Σ Q_j, for the polytopes ``summands``, is the polar
    P* = {y : <v, y> >= -1 at every vertex v of P} of ``base`` = P, and,
    when ``lattice``, whether P* is a lattice polytope; ``None`` when P has
    no polar (the origin is not inside) or Q is not defined (the summands
    do not share a space and a dimension). P's facets are read as they are,
    and no hull of the sum is built.

    The vertices of Q are sums of one vertex per summand. Q ⊆ P* iff every
    such sum q has <v, q> >= -1 at every vertex v of P: the least of
    <v, q> over those sums is the sum over j of the least over Q_j's
    vertices. Given that, Q ⊇ P* iff every vertex of P* is such a sum: a
    point of Q that is a vertex of P* ⊇ Q is a vertex of Q. The vertices of
    P* are n_F / e_F, one per facet (n_F, e_F) of P. Summands in the space
    of P fail the check. It runs on the summands' integer forms over their
    common denominator L.
    """
    if base.affine_span or any(f.offset <= 0 for f in base.facets):
        return None
    if len({(q.space, q.ambient_dim) for q in summands}) != 1:
        return None
    polar = [
        Point([Fraction(x * f.offset.denominator, f.offset.numerator) for x in f.normal._num], f.normal.space)
        for f in base.facets
    ]
    scale = lcm(*[q._den for s in summands for q in s.vertices])
    forms = [[tuple([x * (scale // q._den) for x in q._num]) for q in s.vertices] for s in summands]
    sums = {tuple(map(sum, zip(*choice))) for choice in itertools.product(*forms)}
    if (
        _pairs(base, summands[0])
        and (not lattice or all(y._den == 1 for y in polar))
        and all(
            sum([min([sum(map(mul, v._num, q)) for q in qs]) for qs in forms]) >= -scale * v._den
            for v in base.vertices
        )
        and all(scale % y._den == 0 and tuple([x * (scale // y._den) for x in y._num]) in sums for y in polar)
    ):
        return CheckResult(name, True, detail="nabla polar is a lattice polytope" if lattice else "")
    space = summands[0].space
    total = _certified_hull([Point([Fraction(x, scale) for x in s], space) for s in sums])
    return CheckResult(name, False, witness={
        key: [v.coords for v in _certified_hull(polar).vertices],
        "sum_vertices": [v.coords for v in total.vertices],
    })


def relation_report(np: NefPartition) -> RelationReport | None:
    """The pairing relations of ``np``: the minimum of <x, y> over delta
    part j and nabla part i for each (j, i), a violation where it is not -1
    on the diagonal and 0 off it, and whether each φ_i(v) is -min <v, y>
    over nabla part i at every vertex v of delta; ``None`` when delta or a
    delta part does not pair with a nabla part."""
    if not _sides_pair(np):
        return None
    matrix = tuple(tuple(_low(p.vertices, q.vertices) for q in np.nabla_parts) for p in np.delta_parts)
    violations = tuple(
        (j, i, m) for j, row in enumerate(matrix) for i, m in enumerate(row) if m != -(i == j)
    )
    phi_ok = all(
        f.vertex_values[vi] == -_low([v], q.vertices)
        for f, q in zip(np.phi, np.nabla_parts)
        for vi, v in enumerate(np.delta.vertices)
    )
    return RelationReport(matrix, not violations, violations, phi_ok)


def relations_check(np: NefPartition, dual: NefPartition) -> CheckResult:
    """``pairing_relations``: :func:`relation_report` holds on both sides."""
    reports = (relation_report(np), relation_report(dual))
    passed = all(reports)
    witness = None if passed else {
        side: [[str(x) for x in row] for row in report.matrix]
        for side, report in zip(("source_matrix", "dual_matrix"), reports)
    }
    return CheckResult("pairing_relations", passed, witness, "pairing minima on both sides")


def delta_parts_check(np: NefPartition, dual: NefPartition) -> CheckResult:
    """``delta_parts_from_dual``: the support polytopes of the dual's ψ_k,
    read off the dual's own Cayley hull (:func:`cayley_read_off`; the dual
    must be a nef-partition), are the delta parts."""
    if dual.r != np.r:
        return CheckResult("delta_parts_from_dual", False, witness={"parts": np.r, "dual_parts": dual.r})
    recovered = cayley_read_off(dual.delta, dual.parts)
    for i, (ws, part) in enumerate(zip(recovered, np.delta_parts)):
        if ws != part.vertices:
            return CheckResult("delta_parts_from_dual", False, witness={
                "part": i, "recovered": [v.coords for v in ws], "expected": [v.coords for v in part.vertices],
            })
    return CheckResult("delta_parts_from_dual", True)


def involution_check(np: NefPartition, dual: NefPartition) -> CheckResult:
    """``involution``: the double dual, the certified hull of the dual's
    nabla parts read off its Cayley hull with the labels of their nonzero
    vertices, is delta with its parts, unlabeled."""
    recovered = cayley_read_off(dual.delta, dual.parts)
    double = _certified_hull([v for ws in recovered for v in ws])
    if (double.space, double.vertices) != (np.delta.space, np.delta.vertices):
        return CheckResult("involution", False, witness={
            "original_vertices": [v.coords for v in np.delta.vertices],
            "double_dual_vertices": [v.coords for v in double.vertices],
        })
    labels = _labels(double, recovered)
    if frozenset(labels) != frozenset(np.parts):
        return CheckResult("involution", False, witness={
            "original_parts": sorted(sorted(p) for p in np.parts),
            "double_dual_parts": sorted(sorted(p) for p in labels),
        })
    return CheckResult("involution", True)


def _nabla(np: NefPartition) -> Polytope | None:
    """The certified hull of the nabla parts' vertices, or ``None`` when
    they share no space and dimension."""
    if len({(q.space, q.ambient_dim) for q in np.nabla_parts}) != 1:
        return None
    return _certified_hull([v for q in np.nabla_parts for v in q.vertices])


def sum_checks(np: NefPartition) -> dict[str, CheckResult | None]:
    """The two Minkowski identities of ``np`` (:func:`polar_sum_check`), on
    the certified hulls of delta's vertices and of the nabla parts'
    vertices (∇); the second is ``None`` when there is no ∇."""
    nb = _nabla(np)
    return {
        "polar_is_nabla_sum": polar_sum_check(
            "polar_is_nabla_sum", "polar_vertices", _certified_hull(np.delta.vertices), np.nabla_parts
        ),
        "nabla_polar_is_delta_sum": nb and polar_sum_check(
            "nabla_polar_is_delta_sum", "nabla_polar_vertices", nb, np.delta_parts, lattice=True
        ),
    }


def duality_checks(np: NefPartition, dual: NefPartition) -> dict[str, CheckResult]:
    """The six checks of ``run_full_duality`` on ``np`` and the ``dual`` it
    built, each decided from the definition: the two Minkowski identities
    (:func:`sum_checks`), ∇'s reflexivity by its facets, the pairing
    relations, the delta parts from the dual and the involution."""
    nb = _nabla(np)
    reflexive = CheckResult("nabla_reflexive", True) if _is_reflexive(nb) else CheckResult(
        "nabla_reflexive", False, witness=[v.coords for v in nb.vertices]
    )
    return {
        **sum_checks(np),
        "nabla_reflexive": reflexive,
        "pairing_relations": relations_check(np, dual),
        "delta_parts_from_dual": delta_parts_check(np, dual),
        "involution": involution_check(np, dual),
    }


def failure_reasons(np: NefPartition) -> set[str]:
    """Why no duality of ``np``'s fields can be run: ``"parts that do not
    pair"`` when delta or a delta part does not pair with a nabla part
    (other spaces, one dimension), and ``"nabla is not reflexive"`` when
    the nabla parts share a space and a dimension and the certified hull of
    their vertices is not reflexive by its facets."""
    reasons = set()
    if not _sides_pair(np):
        reasons.add("parts that do not pair")
    nb = _nabla(np)
    if nb is not None and not _is_reflexive(nb):
        reasons.add("nabla is not reflexive")
    return reasons


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


# The library's former convexity scan, verbatim apart from the name: it
# paired every vertex with every cone's functional (the library now decides
# convexity on one vertex bitmask per cone). :func:`pl_from_vertex_values`
# above takes its verdict from it.


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
