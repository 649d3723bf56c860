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

Validation decides (:func:`_decide`) and then builds the parts
(:func:`_build`), and audits nothing afterwards: once ``_decide`` accepts a
partition of parts Eᵢ of a reflexive Δ and ``_build`` has run, every
identity of a nef-partition holds by construction.

- Sum and indicators. The values sum to 1, and each φᵢ is the convex
  integral indicator of part i: ``_decide`` built them from a disjoint,
  covering partition and decided exactly that.
- Σφ supports Δ*. Σφ is 1 on every vertex, so on the cone over a facet
  with normal n and offset 1 its functional is −n, and the polar's vertices
  are exactly those n.
- Δ parts. Δᵢ = conv(0, Eᵢ) holds 0. Every vertex of Δ is extreme in
  Δᵢ ⊆ Δ, so Δᵢ's nonzero vertices are exactly Eᵢ: the parts cover Δ and
  no Δᵢ has a vertex outside part i. They meet only at the origin: each
  φ_k is convex and positively homogeneous and 0 on the other parts'
  vertices, so φ_k ≤ 0 on Δᵢ for k ≠ i, while Σφ_k is linear on each cone
  and 1 on the facet's vertices, so Σφ_k > 0 away from 0. A nonzero point
  of Δᵢ ∩ Δⱼ, i ≠ j, would give φ_k ≤ 0 for every k and so Σφ_k ≤ 0.
- ∇ parts. Each ∇ᵢ is a lattice polytope, because the functionals are
  integral. It holds 0, because φᵢ ≥ 0. Each vertex −u lies in Δ*, because
  ⟨v, −u⟩ ≥ −φᵢ(v) ≥ −1 at every vertex v of Δ, which is the convexity
  that ``_decide`` checked.

``_build`` makes no hull: each part is built from its vertices, which are
exact once ``_decide`` accepts, and its span and facets are built by a
hull only when first read (:meth:`nefdual.polytope.Polytope._from_vertices`).

- ∇ᵢ = {y : ⟨v, y⟩ ≥ −φᵢ(v) at every vertex v of Δ}. Its vertices are
  the distinct negated cone functionals of φᵢ: the convex φᵢ is the
  maximum of its functionals, and for a generic x inside a cone, −u of
  that cone is the unique minimiser of ⟨x, ·⟩ over them
  (:func:`nefdual.fan.support_polytope`).
- Δᵢ = conv(0, Eᵢ). Its vertices are Eᵢ, each a vertex of Δ ⊇ Δᵢ, and 0
  exactly when every e ∈ Eᵢ has ⟨e, u⟩ < 0 for some functional u of some
  φₖ with k ≠ i. If that holds, let s be the sum of those −u. Every −u is
  a point of some ∇ₖ, k ≠ i, so ⟨e′, −u⟩ ≥ −φₖ(e′) = 0 for every e′ ∈ Eᵢ,
  and each e′ has a term > 0 of its own: ⟨e′, s⟩ > 0 = ⟨0, s⟩ separates
  conv(Eᵢ) strictly from 0. If it fails for some e, then
  φₖ(−e) = max ⟨−e, u⟩ ≤ 0, so φₖ(−e) = 0 for every k ≠ i, as φₖ ≥ 0.
  On a cone holding −e, −e is a nonnegative combination of the facet's
  vertices, and φₖ is linear there and 1 on Eₖ, so only vertices of Eᵢ
  have weight: −e ∈ cone(Eᵢ), and 0 ∈ conv(Eᵢ).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import index
from typing import Iterable

from .errors import NotPiecewiseLinear, NotReflexive
from .fan import FaceFan, PLFunction, face_fan, pl_from_vertex_values, support_polytope
from .linalg import Inconsistent
from .polytope import Point, Polytope, _dot, origin, pair

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


def validate_partition(delta: Polytope, parts: Iterable[Iterable[int]]):
    """Check a vertex partition of a reflexive polytope for nef-ness.

    Returns a fully populated :class:`NefPartition`, or a :class:`Rejection`
    with the first failure in part order: structural problems first, then
    per part no-linear-extension, non-integral functional, or a convexity
    violation. Raises :class:`NotReflexive` if ``delta`` is not reflexive,
    ``IndexError`` on out-of-range vertex indices and ``TypeError`` on an
    index that is not an integer (a ``float``, ``Fraction`` or ``str`` is
    not truncated or parsed into one).

    Two steps: :func:`_decide` and :func:`_build`. Nothing is audited
    afterwards; the module docstring shows why every identity then holds.
    """
    decided = _decide(delta, parts)
    if isinstance(decided, Rejection):
        return decided
    norm_parts, fan, phis = decided
    return NefPartition(delta, norm_parts, fan, phis, *_build(delta, norm_parts, phis))


def _decide(delta: Polytope, parts: Iterable[Iterable[int]]):
    """The decision of :func:`validate_partition`, with its errors.

    Returns the first :class:`Rejection`, or ``(parts, fan, phis)``: the
    parts as a tuple of frozensets, the face fan of ``delta`` and the
    integral convex PL extension of each part's indicator.
    """
    if not delta.is_reflexive():
        raise NotReflexive("nef-partitions are defined on reflexive polytopes")
    nverts = len(delta.vertices)
    norm_parts = tuple(frozenset(index(i) for i in part) for part in parts)
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
    return norm_parts, fan, tuple(phis)


def _build(delta: Polytope, parts, phis):
    """The delta parts and the nabla parts, each built from its vertices
    (the module docstring gives both vertex sets), with no hull: a part's
    span and facets are built on their first read."""
    nabla_parts = tuple(support_polytope(f) for f in phis)
    return tuple(_delta_part(delta, parts, nabla_parts, i) for i in range(len(parts))), nabla_parts


def _delta_part(delta: Polytope, parts, nabla_parts, i: int) -> Polytope:
    """Δᵢ = conv(0, Eᵢ), Eᵢ the vertices of ``parts[i]``, from its vertices:
    Eᵢ, and 0 exactly when every e in Eᵢ pairs positively with a vertex -u
    of some ``nabla_parts[k]``, k ≠ i."""
    verts = [delta.vertices[j] for j in sorted(parts[i])]
    points = [origin(delta.ambient_dim, delta.space)] + verts
    # Every denominator is positive, so the sign of <e, y> is that of the
    # dot product of the numerators.
    others = [y._num for k, nb in enumerate(nabla_parts) if k != i for y in nb.vertices]
    if all(any(_dot(e._num, y) > 0 for y in others) for e in verts):
        return Polytope._from_vertices(points, points)
    return Polytope._from_vertices(verts, points)


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
    reduction is applied. All candidates share the face fan cached on
    ``delta`` and the fan's memo of per-cone functionals, so validating a
    survivor reuses the search's functionals. The result is sorted by
    canonical part lists.

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


def _pair_min(xs, ys) -> tuple[int, int]:
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


def _check_pairable(xs: Polytope, ys: Polytope) -> None:
    """Raise what ``pair`` raises on a vertex of each, unless they pair."""
    if xs.space == ys.space or xs.ambient_dim != ys.ambient_dim:
        pair(xs.vertices[0], ys.vertices[0])


def _pairing_mismatch(f: PLFunction, base: Polytope, part: Polytope):
    """``(vi, ci)``: the first vertex v of ``base`` with f(v) != -min <v, part>
    and the first cone whose negated functional is not a vertex of ``part``
    (``None`` if none); ``base`` and ``part`` must pair. Both are ``None``,
    with no pairing, when ``f`` is convex on the fan of ``base`` and its
    negated functionals are exactly the vertices of ``part``: each functional
    takes f's values on its cone (as with ``pl_from_vertex_values`` and
    ``PLFunction.__add__``), so f(v) = max <v, u> = -min <v, part>."""
    forms = {(x._num, x._den) for x in part.vertices}
    negated = [(tuple([-a for a in u._num]), u._den) for u in f.functionals]
    if f.is_convex and f.fan.base == base and set(negated) == forms:
        return None, None
    for vi, v in enumerate(base.vertices):
        n, d = _pair_min((v,), part.vertices)
        if -n * f.vertex_values[vi].denominator != f.vertex_values[vi].numerator * d:
            break
    else:
        vi = None
    return vi, next((ci for ci, u in enumerate(negated) if u not in forms), None)


def check_relations(np: NefPartition) -> RelationReport:
    """Verify the pairing relations between the delta and nabla parts.

    Also re-derives every ``phi_i`` vertex value as the negated minimum of
    the pairing against nabla part i (:func:`_pairing_mismatch`: no pairing
    when phi_i is convex and its negated functionals, each taking phi_i's
    values on its cone, are exactly the vertices of nabla part i). Minima
    are found on ``int``; a ``Fraction`` is built only for the reported
    matrix entries. Parts that do not pair raise ``DimensionMismatch``.
    """
    r = np.r
    matrix = []
    violations = []
    for j in range(r):
        row = []
        for i in range(r):
            _check_pairable(np.delta_parts[j], np.nabla_parts[i])
            n, d = _pair_min(np.delta_parts[j].vertices, np.nabla_parts[i].vertices)
            m = Fraction(n, d)
            row.append(m)
            if n != (-d if i == j else 0):
                violations.append((j, i, m))
        matrix.append(tuple(row))
    phi_ok = True
    for i, f in enumerate(np.phi):
        part = np.nabla_parts[i]
        _check_pairable(np.delta, part)
        phi_ok = phi_ok and _pairing_mismatch(f, np.delta, part)[0] is None
    return RelationReport(
        matrix=tuple(matrix),
        passed=not violations,
        violations=tuple(violations),
        phi_consistent=phi_ok,
    )
