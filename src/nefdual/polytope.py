"""Lattice polytopes over exact rationals: hulls, polars, Minkowski sums.

Points and polytopes are tagged with one of two mutually dual spaces, "M"
and "N"; the pairing is only defined between a point of each. Polytopes are
immutable, canonically ordered (vertices sorted lexicographically), and
carry an irredundant facet system with primitive integer normals. A facet
stores the inequality ``<x, normal> >= -offset``. Lower-dimensional
polytopes are first class: their affine span is recorded as a list of
equality constraints and facets are facets within that span. A polytope
whose vertices are known in advance is built from them, and its span and
facets are built by :func:`hull` when first read.

Two polytopes are equal exactly when they live in the same space and have
the same canonical vertex list.

Public values are exact ``Fraction``s: point coordinates, the value of
:func:`pair`, facet offsets, equality values and the solutions of
:func:`solve_linear`. The arithmetic behind them runs on ``int``: every
``Point`` also keeps its canonical integer form (``_num`` over the common
denominator ``_den``), and equality, hashing, order, :func:`pair`,
:meth:`Polytope.contains` and the rows :func:`solve_linear` hands to
:func:`nefdual.linalg.solve` are computed from it. Inside :func:`hull` the
points are scaled to ``int`` coordinates by their common denominator, and
the hull is computed on ``int`` tuples: one integer elimination of
:mod:`nefdual.linalg` finds the affine span and an initial simplex, and
gives that simplex's facets too when the points span the space (a lower
dimensional simplex's facets take one k x (k + d) elimination more). A
simplex is returned from there, with no insertion. Otherwise the other
points are inserted one at a time as in the double description method
(Motzkin et al. 1953; Fukuda and Prodon 1996): each facet is kept whole with
the bitmask of the inserted points on it, and every later facet is an
integer combination of two existing ones that meet in a ridge. Those
bitmasks are the hull's incidences, kept during the insertion and read
once: the vertex test and each ``Facet.incidence`` come from them, and no
point is paired with a facet again except to check that it satisfies it.
Normals are primitive integer vectors, and only the offsets are divided
back.

The bitmasks are exact. A facet the new point lies on gets its bit when
the point is inserted. A facet made through a ridge is s2 * l1 - s1 * l2
for the ridge's two facet inequalities l1, l2 and s1 < 0 < s2, both
``>= 0`` on the hull so far; a point inserted earlier lies on it exactly
when it lies on both, so its bit is already in the AND of their bitmasks.

Two facets meet in a ridge exactly when no third facet holds every point on
both. The hull so far is the hull of the points inserted so far, so each
face is the hull of the inserted points on it, and the AND of two facets'
bitmasks names the points of the face they meet in. A ridge lies in exactly
two facets; a face of dimension j <= k - 3 of a k-dimensional hull lies in
at least k - j >= 3, the empty face in all of them. A ridge holds at least
k - 1 points, which rules out most pairs before the other bitmasks are read.

Both routes to the simplex's facet normals rest on one argument. With x0
and the k directions u_s = x_s - x0 (s = 1..k), a tag t_r with
``<u_s, t_r> = den * [r = s]`` that lies in the direction space is, signed
by ``den``, the inward normal of the facet opposite x_r: it vanishes on the
other directions and is positive towards x_r. Minus the sum of the t_r
pairs to ``-den`` with every direction, so it is the inward normal of the
facet opposite x0. When the points span the space, the reduced ``[B | I]``
that found the span holds these tags: pivot row r has ``den`` at pivot
column r of B and 0 at the others, and B's pivot columns are the u_s. In a
lower dimensional span those tags need not lie in the direction space, so
the rows ``den * (D D^T)^-1 D`` of the reduced ``[D D^T | D]``, D with the
u_s as rows, are taken instead; they pair alike and are combinations of the
u_s. A primitive normal in the direction space is unique, so either route
gives the normals a per-facet solve would.

A polar is built from its vertices like any polytope whose vertices are
known. For a full-dimensional polytope with the origin inside and an
irredundant facet system, polarity swaps facets and vertices and reverses
their incidence (Batyrev, alg-geom/9310003): facet ``(n, e)`` gives the polar
vertex ``n / e``, so :meth:`Polytope.polar_dual` reads the vertices off the
facets, with no hull, and the polar's span and facets come from one hull of
those vertices on first read. The same correspondence lets
:mod:`nefdual.duality` decide whether a Minkowski sum is a polar from the
base's own vertices and facets, with no polar built.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from math import ceil, floor, gcd, lcm
from operator import and_, attrgetter, itemgetter, mul
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NotFullDimensional,
    ZeroNotInterior,
)
from .linalg import SolveFailure, eliminate, exact_rational, solve

SPACE_M = "M"
SPACE_N = "N"

_NUM = attrgetter("_num")


def dual_space(space: str) -> str:
    return SPACE_N if space == SPACE_M else SPACE_M


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _check_space(space: str) -> None:
    if space not in (SPACE_M, SPACE_N):
        raise ValueError(f"unknown space tag {space!r}")


class Point:
    """An exact rational point in M or N.

    Coordinates are exposed as ``Fraction``s in ``coords``; a ``float``
    coordinate is a ``TypeError``. Alongside, every point keeps its canonical
    integer form: ``_den``, the LCM of the coordinates' denominators, and
    ``_num``, the ``int`` numerators over it, so ``coords[i] == _num[i] /
    _den``. Equal points have equal forms, and equality, hashing, order,
    the pairing and polytope membership run on them. A point made from its
    form builds ``coords`` on first read. Immutable by convention;
    arithmetic stays within one space, the pairing crosses between the two.
    """

    __slots__ = ("_coords", "space", "_num", "_den")

    def __init__(self, coords: Iterable, space: str = SPACE_M):
        _check_space(space)
        coords = tuple(c if type(c) is Fraction else exact_rational(c) for c in coords)
        den = lcm(*[c.denominator for c in coords])
        self._coords = coords
        self.space = space
        self._den = den
        if den == 1:
            self._num = tuple([c.numerator for c in coords])
        else:
            self._num = tuple([c.numerator * (den // c.denominator) for c in coords])

    @classmethod
    def _from_form(cls, num: tuple[int, ...], den: int, space: str) -> "Point":
        """The point ``num / den`` for ``int`` entries and ``den > 0``.

        The form is reduced by the gcd of ``den`` and the entries, which
        makes it the canonical one ``__init__`` would compute.
        """
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                den //= g
                num = tuple([x // g for x in num])
        p = cls.__new__(cls)
        p._coords = None
        p.space = space
        p._num = num
        p._den = den
        return p

    @property
    def coords(self) -> tuple[Fraction, ...]:
        coords = self._coords
        if coords is None:
            den = self._den
            if den == 1:
                coords = tuple(map(Fraction, self._num))
            else:
                coords = tuple([Fraction(x, den) for x in self._num])
            self._coords = coords
        return coords

    @property
    def dim(self) -> int:
        return len(self._num)

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_lattice(self) -> bool:
        return self._den == 1

    def _check_compatible(self, other: "Point") -> None:
        if not isinstance(other, Point):
            raise TypeError(f"expected Point, got {type(other).__name__}")
        if other.space != self.space or other.dim != self.dim:
            raise DimensionMismatch(
                f"cannot combine point in {self.space}^{self.dim} "
                f"with point in {other.space}^{other.dim}"
            )

    def __add__(self, other: "Point") -> "Point":
        self._check_compatible(other)
        return Point._from_form(*_add_forms(self, other, 1), self.space)

    def __sub__(self, other: "Point") -> "Point":
        self._check_compatible(other)
        return Point._from_form(*_add_forms(self, other, -1), self.space)

    def __neg__(self) -> "Point":
        return Point._from_form(tuple([-x for x in self._num]), self._den, self.space)

    def scale(self, factor) -> "Point":
        f = exact_rational(factor)
        a = f.numerator
        return Point._from_form(
            tuple([a * x for x in self._num]), self._den * f.denominator, self.space
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Point)
            and self.space == other.space
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return hash((self.space, self._den, self._num))

    def __lt__(self, other: "Point") -> bool:
        self._check_compatible(other)
        if self._den == other._den:
            return self._num < other._num
        return self.coords < other.coords

    def __le__(self, other: "Point") -> bool:
        self._check_compatible(other)
        if self._den == other._den:
            return self._num <= other._num
        return self.coords <= other.coords

    def __repr__(self) -> str:
        return f"Point(({', '.join(str(c) for c in self.coords)}), {self.space})"


def _add_forms(x: Point, y: Point, sign: int) -> tuple[tuple[int, ...], int]:
    """The integer form of ``x + sign * y``, not yet reduced."""
    if x._den == y._den:
        return tuple([a + sign * b for a, b in zip(x._num, y._num)]), x._den
    den = lcm(x._den, y._den)
    fx = den // x._den
    fy = sign * (den // y._den)
    return tuple([fx * a + fy * b for a, b in zip(x._num, y._num)]), den


def origin(dim: int, space: str = SPACE_M) -> Point:
    _check_space(space)
    return Point._from_form((0,) * dim, 1, space)


def pair(x: Point, y: Point) -> Fraction:
    """Canonical pairing between a point of M and a point of N.

    An ``int`` dot product of the two integer forms, over the product of
    their denominators.
    """
    if x.space == y.space:
        raise DimensionMismatch(
            f"pairing needs one point from each space, got two from {x.space}"
        )
    if len(x._num) != len(y._num):
        raise DimensionMismatch(f"pairing dimension mismatch: {x.dim} vs {y.dim}")
    den = x._den * y._den
    if den == 1:
        return Fraction(_dot(x._num, y._num))
    return Fraction(_dot(x._num, y._num), den)


class Facet(NamedTuple):
    """One facet inequality ``<x, normal> >= -offset``.

    The normal is a primitive integer vector in the dual space; incidence
    lists the indices of the vertices lying on the facet.
    """

    normal: Point
    offset: Fraction
    incidence: tuple[int, ...]


class LinearEquality(NamedTuple):
    """One affine-span constraint ``<x, normal> = value``."""

    normal: Point
    value: Fraction


class Polytope:
    """Bounded convex hull of finitely many rational points.

    Built by :func:`hull` or from vertices already known
    (:meth:`_from_vertices`), as a polar and a support polytope are; the
    constructor trusts its arguments.

    A polytope built from its vertices keeps the points it is the hull of
    and leaves its affine span and facets unbuilt. The first read of
    ``affine_span``, ``facets`` or anything derived from them (``dim``,
    :meth:`contains`, ...) fills both from the hull of those points, and
    raises :class:`InvariantViolation` instead if that hull's vertices are
    not the polytope's own.

    A polytope never changes, so three derived values are computed on first
    use and kept: :meth:`polar_dual` (the same ``Polytope`` object on every
    call), :meth:`is_reflexive`, and the face fan that
    :func:`nefdual.fan.face_fan` builds on it. A polar's own polar is not
    preset to its source; it is computed like any other.

    A polytope owns its face fan, and with it the fan's memo and tables:
    ``_fan`` is the one strong link between them. The fan keeps the
    vertices and facets it reads and refers back to the polytope weakly
    (hence ``__weakref__``), so a polytope is freed by reference counting,
    its fan with it, when its last user drops it.
    """

    __slots__ = (
        "ambient_dim", "space", "vertices", "_affine_span", "_facets", "_points",
        "_polar", "_reflexive", "_fan", "__weakref__",
    )

    def __init__(
        self,
        ambient_dim: int,
        space: str,
        vertices: tuple[Point, ...],
        affine_span: tuple[LinearEquality, ...] | None,
        facets: tuple[Facet, ...] | None,
    ):
        self.ambient_dim = ambient_dim
        self.space = space
        self.vertices = vertices
        self._affine_span = affine_span
        self._facets = facets
        self._points = None
        self._polar = None
        self._reflexive = None
        self._fan = None

    @classmethod
    def _from_vertices(cls, vertices: Sequence[Point], points: Sequence[Point]):
        """The hull of ``points``, whose extreme points are ``vertices``.

        ``vertices`` are distinct points of one space, in any order; they are
        sorted here as :func:`hull` sorts them: by ``_num`` when all are
        lattice points, which is the order of :func:`_scaled_sorted` at
        ``L = 1``, and by that otherwise. No hull is built until the span or
        the facets are first read.
        """
        lattice = all([q._den == 1 for q in vertices])
        vertices = sorted(vertices, key=_NUM) if lattice else [q for _, q in _scaled_sorted(vertices)[1]]
        poly = cls(vertices[0].dim, vertices[0].space, tuple(vertices), None, None)
        poly._points = points
        return poly

    def _build_facets(self) -> None:
        built = hull(self._points)
        if built.vertices != self.vertices:
            raise InvariantViolation(
                "vertices are not the extreme points of the polytope's points",
                witness=(self.vertices, built.vertices),
            )
        self._affine_span = built.affine_span
        self._facets = built.facets

    @property
    def affine_span(self) -> tuple[LinearEquality, ...]:
        if self._affine_span is None:
            self._build_facets()
        return self._affine_span

    @property
    def facets(self) -> tuple[Facet, ...]:
        if self._facets is None:
            self._build_facets()
        return self._facets

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.affine_span)

    @property
    def is_full_dimensional(self) -> bool:
        return not self.affine_span

    @property
    def has_zero_interior(self) -> bool:
        """Whether the origin lies strictly inside (forces full dimension).

        A polytope already found reflexive answers at once, with no pass
        over its facets: offsets all 1 put the origin strictly inside
        (:meth:`is_reflexive`).
        """
        return self._reflexive or (
            self.is_full_dimensional and all(f.offset > 0 for f in self.facets)
        )

    def contains(self, point: Point) -> bool:
        """Membership, decided by cross-multiplied ``int`` comparisons.

        For a facet with offset ``a/b``, ``<point, normal> >= -a/b`` is
        ``<point._num, normal._num> * b >= -a * point._den * normal._den``,
        as every denominator is positive; equalities likewise.
        """
        self._check_point(point)
        num = point._num
        den = point._den
        for eq in self.affine_span:
            n = eq.normal
            v = eq.value
            if _dot(num, n._num) * v.denominator != v.numerator * den * n._den:
                return False
        for f in self.facets:
            n = f.normal
            off = f.offset
            if _dot(num, n._num) * off.denominator < -off.numerator * den * n._den:
                return False
        return True

    def _check_point(self, point: Point) -> None:
        if point.space != self.space or len(point._num) != self.ambient_dim:
            raise DimensionMismatch(
                f"point in {point.space}^{point.dim} against polytope "
                f"in {self.space}^{self.ambient_dim}"
            )

    def __contains__(self, point: Point) -> bool:
        return self.contains(point)

    def is_lattice(self) -> bool:
        return all(v.is_lattice() for v in self.vertices)

    def is_reflexive(self) -> bool:
        """Lattice, full-dimensional, all facets at lattice distance 1.

        The origin is then strictly inside, with no second pass over the
        facets: on a full-dimensional polytope a point is strictly inside
        exactly when it meets every facet inequality strictly, and the
        origin meets ``0 >= -offset`` strictly when the offset is 1.
        """
        if self._reflexive is None:
            self._reflexive = (
                self.is_full_dimensional
                and self.is_lattice()
                and all(f.offset == 1 for f in self.facets)
            )
        return self._reflexive

    def polar_dual(self) -> "Polytope":
        """The polar polytope ``{y : <x, y> >= -1 for all x here}``.

        Its vertices are read off the facets, with no hull: each facet
        ``(n, a/b)`` gives the polar vertex ``n * b / a``, its normal divided
        by its offset. The polar is built from them
        (:meth:`_from_vertices`), so its span and facets come from one
        :func:`hull` when first read. It is built on the first call and the
        same object is returned afterwards.
        """
        if self._polar is None:
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
            self._polar = Polytope._from_vertices(gens, gens)
        return self._polar

    def lattice_points(self) -> list[Point]:
        """All lattice points, in lexicographic order."""
        if not self.is_lattice():
            raise ValueError("lattice point enumeration needs a lattice polytope")
        los = []
        his = []
        for j in range(self.ambient_dim):
            vals = [v.coords[j] for v in self.vertices]
            los.append(ceil(min(vals)))
            his.append(floor(max(vals)))
        found = []
        for tup in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
            p = Point._from_form(tup, 1, self.space)
            if self.contains(p):
                found.append(p)
        return found

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polytope)
            and self.space == other.space
            and self.ambient_dim == other.ambient_dim
            and self.vertices == other.vertices
        )

    def __hash__(self) -> int:
        return hash((self.space, self.ambient_dim, self.vertices))

    def __repr__(self) -> str:
        return (
            f"Polytope({self.space}, dim {self.dim} in R^{self.ambient_dim}, "
            f"{len(self.vertices)} vertices)"
        )


def _plane_across(p, ridge_plus_p, visible, hidden, interior, weight: int):
    """The plane through a horizon ridge and the new point ``p``.

    ``visible`` is the facet ``(n1, c1, on)`` that ``p`` lies beyond and
    ``hidden`` its neighbour ``(n2, c2, on)`` across the ridge, which ``p``
    lies strictly beneath. With ``s_i = <p, n_i> - c_i`` (so ``s1 < 0 <
    s2``), the plane ``s2 * (n1, c1) - s1 * (n2, c2)`` holds both planes'
    common points, hence the ridge, and ``p``; as a nonnegative combination
    of two facet inequalities of the current hull it is oriented with the
    hull on its nonnegative side, and it lies in the direction space with
    them. ``ridge_plus_p`` names the points on the new plane, as a bitmask
    (bit i for point i), as :func:`_insert_points` gives it; it becomes the
    plane's third entry, and its indices, in order, are the witness if the
    interior point lies on the plane.
    """
    n1, c1, _ = visible
    n2, c2, _ = hidden
    s1 = _dot(p, n1) - c1
    s2 = _dot(p, n2) - c2
    nv = [s2 * a - s1 * b for a, b in zip(n1, n2)]
    c = s2 * c1 - s1 * c2
    assert _dot(p, nv) == c
    if _dot(interior, nv) <= weight * c:
        on = [i for i in range(ridge_plus_p.bit_length()) if ridge_plus_p >> i & 1]
        raise InvariantViolation("interior point on facet plane", witness=on)
    g = gcd(*nv)
    return (tuple([x // g for x in nv]), c // g, ridge_plus_p)


def _insert_points(pts, simplex, planes, interior):
    """Facet planes of the hull of distinct integer points, with their
    incidences.

    ``simplex`` indexes k+1 affinely independent points of ``pts``, where k
    is the dimension of their hull, ``planes`` are that simplex's facets as
    :func:`hull` finds them, ``(normal, c, mask)`` with the simplex on the
    side ``<x, normal> >= c`` and bit i of ``mask`` set when point i of the
    simplex lies on it, and ``interior`` is the sum of the simplex's
    points. Returns the hull's facets as ``(normal, c, mask)``, with the
    hull satisfying ``<x, normal> >= c`` and bit i of ``mask`` set exactly
    when ``pts[i]`` lies on the facet (the module docstring gives the
    argument); each normal is primitive and lies in the direction space of
    the points.

    The other points are inserted one at a time, each facet kept whole with
    its mask. A facet the new point p lies on sets p's bit, and the facets
    p lies beyond are dropped. Across each ridge (the module docstring gives
    the test) between a facet p lies beyond and one it lies strictly
    beneath, the facet through the ridge and p is combined from the two
    (:func:`_plane_across`) in O(d) integer operations.
    """
    weight = len(simplex)
    least = weight - 2  # a ridge holds at least k - 1 points
    facets = planes
    in_simplex = set(simplex)
    for i, p in enumerate(pts):
        if i in in_simplex:
            continue
        bit = 1 << i
        visible = []
        hidden = []
        kept = []
        for facet in facets:
            nv, c, mask = facet
            s = _dot(p, nv) - c
            if s < 0:
                visible.append(facet)
            elif s:
                hidden.append(facet)
                kept.append(facet)
            else:
                kept.append((nv, c, mask | bit))
        if visible:
            masks = [facet[2] for facet in facets]
            for v in visible:
                for h in hidden:
                    z = v[2] & h[2]
                    if z.bit_count() < least or len([m for m in masks if m & z == z]) > 2:
                        continue
                    kept.append(_plane_across(p, z | bit, v, h, interior, weight))
        facets = kept
    return facets


def _span_basis(rows, d: int) -> list[tuple[int, ...]]:
    """The canonical basis of the row space of ``rows``, an ``int`` basis
    of the normals of an affine span: the vectors ``integer_nullspace``
    gives for the span's differences, sorted.

    ``integer_nullspace`` gives one primitive vector per free column f of
    the differences, positive at f and 0 at the other free columns. The
    free columns are a basis of the dual matroid, the column matroid of
    ``rows``, and the complement of the first basis in column order, so they
    are the last basis in column order: the pivot columns of ``rows`` with
    its columns reversed. Reduced that way, each row is 0 at the other free
    columns, and made primitive and positive at its own it is that vector.
    """
    rev = [row[::-1] for row in rows]
    pivots, _ = eliminate(rev, d)
    basis = []
    for row, c in zip(rev, pivots):
        g = gcd(*row)
        if row[c] < 0:
            g = -g
        basis.append(tuple([x // g for x in reversed(row)]))
    return sorted(basis)


def _scaled_sorted(points: Iterable[Point]):
    """``(L, pairs)``: the common denominator ``L`` of distinct ``points``,
    and each point's numerators over ``L`` paired with the point, sorted.

    Scaling by L > 0 keeps the order of the points, and distinct points
    have distinct scaled numerators, so no two Points are ever compared.
    """
    points = list(points)
    scale = lcm(*[q._den for q in points])
    return scale, sorted(
        (q._num if q._den == scale else tuple(x * (scale // q._den) for x in q._num), q)
        for q in points
    )


def hull(points: Iterable[Point]) -> Polytope:
    """Convex hull with irredundant canonical vertex and facet data.

    Accepts any finite nonempty collection of points of one space; duplicates
    and non-extreme points are dropped. Lower-dimensional input is fine: the
    affine span becomes equality constraints and the facet system lives
    within the span, with normals canonicalized along the span's direction
    space.

    The points are scaled once by the common denominator ``L`` of their
    coordinates, and everything up to the returned ``Facet`` offsets and
    equality values (which are divided by ``L``) runs on ``int`` tuples.

    One elimination of the point differences, with the rows tracked, gives
    the affine span, an initial simplex and, when the points span the space,
    that simplex's facets. A lower-dimensional simplex's facets come from one
    more elimination, of its k edge directions against their Gram matrix. A
    simplex is returned as it stands: every point is a vertex and each facet
    holds all points but one. Otherwise the other points are inserted from
    the simplex's facets, each facet kept whole and never split into
    simplices (:func:`_insert_points`), which returns each facet with the
    bitmask of the input points on it. A point is a vertex iff it is the
    only input point on every facet through it: the AND of those facets'
    bitmasks is its own bit alone. The bitmasks also give each
    ``Facet.incidence``; a last pass over the points only checks that every
    point satisfies every facet. No elimination is spent on the vertex test.
    """
    pts = list(points)
    if not pts:
        raise ValueError("hull needs at least one point")
    space = pts[0].space
    d = pts[0].dim
    for p in pts[1:]:
        if p.space != space or p.dim != d:
            raise DimensionMismatch("hull input points disagree on space or dimension")
    scale, pairs = _scaled_sorted(set(pts))
    ipts, uniq = zip(*pairs)
    x0 = ipts[0]

    # One elimination of [B | I], B with the differences x - x0 as columns.
    # Its pivot columns are the first differences independent of the ones
    # before them: an initial simplex. Its zero rows tag vectors orthogonal
    # to every difference, the normals of the affine span.
    n = len(ipts)
    mat = [
        [x[j] - x0[j] for x in ipts[1:]] + [int(i == j) for i in range(d)]
        for j in range(d)
    ]
    pivots, den = eliminate(mat, n - 1)
    k = len(pivots)
    simplex = [0] + [c + 1 for c in pivots]
    eq_vecs = _span_basis([row[n - 1:] for row in mat[k:]], d) if k < d else []
    target = dual_space(space)
    equalities = tuple(
        LinearEquality(Point._from_form(v, 1, target), Fraction(_dot(v, x0), scale))
        for v in eq_vecs
    )

    if k == 0:
        return Polytope(d, space, (uniq[0],), equalities, ())

    # The simplex's facets, from tags t_r with <x_s - x0, t_r> = den * [r = s]
    # in the direction space (the module docstring gives the argument).
    if k == d:
        tags = [row[n - 1:] for row in mat]
    else:
        dirs = [[a - b for a, b in zip(ipts[i], x0)] for i in simplex[1:]]
        mat = [[_dot(u, v) for v in dirs] + u for u in dirs]
        _, den = eliminate(mat, k)
        tags = [row[k:] for row in mat]
    sign = 1 if den > 0 else -1
    interior = tuple(map(sum, zip(*[ipts[i] for i in simplex])))
    verts = sum([1 << i for i in simplex])
    planes = []
    for excl, nv in enumerate([[-sum(col) for col in zip(*tags)]] + tags):
        g = sign * gcd(*nv)
        nv = tuple([x // g for x in nv])
        c = _dot(ipts[simplex[1 if excl == 0 else 0]], nv)
        if _dot(interior, nv) <= (k + 1) * c:
            raise InvariantViolation("interior point on facet plane", witness=sorted(simplex))
        planes.append((nv, c, verts ^ 1 << simplex[excl]))

    if n == k + 1:
        # A simplex: simplex[j] = j, and every point is a vertex.
        vertex_ids = range(n)
    else:
        planes = _insert_points(ipts, simplex, planes, interior)
        for q, x in zip(uniq, ipts):
            for nv, c, _ in planes:
                if _dot(x, nv) < c:
                    # Fail fast on any algorithmic slip: every input point satisfies every facet.
                    raise InvariantViolation(
                        "hull facet violated by an input point",
                        witness=(q, nv, Fraction(-c, scale)),
                    )
        # Bit i of a facet's mask says that input point i lies on it. A point
        # is a vertex iff it is the only input point on every facet through
        # it: those facets meet in the smallest face holding the point, and a
        # face of dimension >= 1 is the hull of the (at least two) input
        # points on it (an AND over no facets is -1, all bits set).
        vertex_ids = [
            i for i in range(n)
            if reduce(and_, [m for _, _, m in planes if m >> i & 1], -1) == 1 << i
        ]

    # Normals are distinct, so sorting on them alone orders the facets.
    planes.sort(key=itemgetter(0))
    facets = tuple(
        Facet(
            Point._from_form(nv, 1, target),
            Fraction(-c, scale),
            tuple([pos for pos, i in enumerate(vertex_ids) if m >> i & 1]),
        )
        for nv, c, m in planes
    )
    return Polytope(d, space, tuple([uniq[i] for i in vertex_ids]), equalities, facets)


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    """Minkowski sum, as the hull of pairwise vertex sums."""
    if p.space != q.space or p.ambient_dim != q.ambient_dim:
        raise DimensionMismatch(
            f"cannot add polytope in {p.space}^{p.ambient_dim} "
            f"to polytope in {q.space}^{q.ambient_dim}"
        )
    return hull([a + b for a in p.vertices for b in q.vertices])


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
    # <p, u> = a/b with p = _num/_den becomes the int row b*_num = a*_den.
    rows = []
    rhs = []
    for p, value in items:
        if type(value) is not int and type(value) is not Fraction:
            value = Fraction(value)
        b = value.denominator
        rows.append([x * b for x in p._num] if b != 1 else list(p._num))
        rhs.append(value.numerator * p._den)
    res = solve(rows, rhs)
    if isinstance(res, SolveFailure):
        return res
    return Point(res, dual_space(space))
