"""Nef-partitions of reflexive polytopes: validation, enumeration, relations.

A partition of the vertex set of a reflexive polytope is a nef-partition
when the indicator values of every part extend to an integral convex
piecewise-linear function on the face fan. Validation either returns the
fully populated :class:`NefPartition` or a :class:`Rejection` that names the
first reason and an exact witness; re-validating the same input always
yields the identical rejection. Enumeration searches the set partitions
with pruning: a labelling is abandoned at the first cone on which some
part's indicator has no lattice linear extension, and only the survivors
are validated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

from .errors import (
    InvariantViolation,
    NotPiecewiseLinear,
    NotReflexive,
)
from .fan import FaceFan, PLFunction, face_fan, pl_from_vertex_values, support_polytope
from .linalg import Inconsistent
from .polytope import Point, Polytope, hull, origin, pair

NOT_DISJOINT = "NotDisjoint"
NOT_COVERING = "NotCovering"
EMPTY_PART = "EmptyPart"
NOT_PIECEWISE_LINEAR = "NotPiecewiseLinear"
NOT_CONVEX = "NotConvex"
NOT_INTEGRAL = "NotIntegral"


@dataclass(frozen=True)
class Rejection:
    """Why a candidate partition is not a nef-partition.

    ``reason`` is one of the module constants; the optional fields pin down
    the first offending part / cone / vertex in canonical order.
    """

    reason: str
    part: int | None = None
    cone: int | None = None
    vertex: int | None = None
    detail: str = ""

    def __str__(self) -> str:
        bits = [self.reason]
        if self.part is not None:
            bits.append(f"part {self.part}")
        if self.vertex is not None:
            bits.append(f"vertex {self.vertex}")
        if self.cone is not None:
            bits.append(f"cone {self.cone}")
        if self.detail:
            bits.append(self.detail)
        return ": ".join([bits[0], ", ".join(bits[1:])]) if len(bits) > 1 else bits[0]


@dataclass(frozen=True)
class NefPartition:
    """A validated nef-partition with its cached geometric data.

    ``parts`` holds vertex-index sets in the order given at validation time
    (labels are preserved for I/O); ``phi[i]`` is the integral convex PL
    function extending the indicator of part i, ``delta_parts[i]`` the hull
    of the origin with part i, and ``nabla_parts[i]`` the support polytope
    of ``phi[i]``. ``_nabla`` holds the hull of the nabla parts once
    :func:`nefdual.duality.nabla` has built it.
    """

    delta: Polytope
    parts: tuple[frozenset[int], ...]
    fan: FaceFan
    phi: tuple[PLFunction, ...]
    delta_parts: tuple[Polytope, ...]
    nabla_parts: tuple[Polytope, ...]
    _nabla: Polytope | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def r(self) -> int:
        return len(self.parts)

    def canonical_parts(self) -> tuple[tuple[int, ...], ...]:
        """Parts as sorted index tuples, ordered by smallest member."""
        return tuple(sorted(tuple(sorted(p)) for p in self.parts))

    def unlabeled(self) -> frozenset[frozenset[int]]:
        return frozenset(self.parts)

    def part_vertices(self, i: int) -> list[Point]:
        return [self.delta.vertices[j] for j in sorted(self.parts[i])]

    def __repr__(self) -> str:
        return (
            f"NefPartition(r={self.r}, parts={[sorted(p) for p in self.parts]}, "
            f"delta={self.delta!r})"
        )


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


def validate_partition(delta: Polytope, parts: Iterable[Iterable[int]]):
    """Check a vertex partition of a reflexive polytope for nef-ness.

    Returns a fully populated :class:`NefPartition`, or a :class:`Rejection`
    with the first failure in part order: structural problems first, then
    per part no-linear-extension, non-integral functional, or a convexity
    violation. Raises :class:`NotReflexive` if ``delta`` is not reflexive
    and ``IndexError`` on out-of-range vertex indices.
    """
    if not delta.is_reflexive():
        raise NotReflexive("nef-partitions are defined on reflexive polytopes")
    nverts = len(delta.vertices)
    norm_parts = [frozenset(int(i) for i in part) for part in parts]
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
        values = [Fraction(1 if i in part else 0) for i in range(nverts)]
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

    zero = origin(delta.ambient_dim, delta.space)
    dparts = tuple(
        hull([zero] + [delta.vertices[i] for i in sorted(part)]) for part in norm_parts
    )
    nparts = tuple(support_polytope(f) for f in phis)
    np = NefPartition(delta, tuple(norm_parts), fan, tuple(phis), dparts, nparts)
    _assert_partition_invariants(np)
    return np


def _assert_partition_invariants(np: NefPartition) -> None:
    """Identities every valid nef-partition satisfies; failure is a library bug.

    The two hull identities are decided on vertex sets, with no hull built.
    """
    delta = np.delta
    zero = origin(delta.ambient_dim, delta.space)
    polar = delta.polar_dual()
    total = reduce(lambda a, b: a + b, np.phi)
    if any(v != 1 for v in total.vertex_values):
        raise InvariantViolation(
            "indicator functions do not sum to 1 on the vertices",
            witness=total.vertex_values,
        )
    # support_polytope(total) == polar. The sum is 1 on every vertex, so on
    # the cone over a facet (normal n, offset 1) its functional is -n, and
    # the polar's vertices are exactly those normals. Negated functionals
    # equal to the polar's vertex set give the hull equality; the sum must
    # also be convex, as support_polytope requires.
    if not total.is_convex or {-u for u in total.functionals} != set(polar.vertices):
        raise InvariantViolation("sum of the phi functions does not support the polar")

    # hull(union of delta parts) == delta. Each part is the hull of 0 and
    # some vertices of delta, and 0 lies in delta, so the union's hull is
    # delta exactly when the parts' nonzero vertices are delta's vertices.
    covered = {v for part_poly in np.delta_parts for v in part_poly.vertices if not v.is_zero()}
    if covered != set(delta.vertices) or not delta.contains(zero):
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


def enumerate_nef_partitions(delta: Polytope, r: int) -> list[NefPartition]:
    """All nef-partitions of ``delta`` into exactly ``r`` unlabeled parts.

    A backtracking search over the set partitions of the vertex indices
    (:func:`_pruned_candidates`) cuts every subtree in which some part's
    indicator fails to extend to a lattice functional on some cone; each
    survivor is checked in full by :func:`validate_partition`. No symmetry
    reduction is applied. All candidates share the face fan and polar cached
    on ``delta``, and the fan's memo of per-cone solves, so validating a
    survivor reuses the search's solves. The result is sorted by canonical
    part lists.

    The result equals that of validating every set partition.
    ``validate_partition`` checks each part's 0/1 values cone by cone and
    rejects with ``NotPiecewiseLinear`` or ``NotIntegral`` when on some cone
    they have no solution or a non-lattice one (unless an earlier part has
    already failed). That is the condition the search tests, and it is
    final once the cone's vertices are all labelled, so every cut candidate
    would have been rejected. Every other candidate is still validated in
    full, the audit included, in the same order. The accepted partitions,
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


@dataclass(frozen=True)
class RelationReport:
    """Pairing minima between delta part vertices and nabla part vertices.

    ``matrix[j][i]`` is the minimum of ``<x, y>`` over vertices x of delta
    part j and vertices y of nabla part i; a valid nef-partition gives -1 on
    the diagonal and 0 off it, with no pairing below that bound.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    passed: bool
    violations: tuple[tuple[int, int, Fraction], ...]
    phi_consistent: bool

    def __bool__(self) -> bool:
        return self.passed and self.phi_consistent


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
