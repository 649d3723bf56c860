"""Nef-partitions of reflexive polytopes: validation, enumeration, relations.

A partition of the vertex set of a reflexive polytope is a nef-partition
when the indicator values of every part extend to an integral convex
piecewise-linear function on the face fan. Validation either returns the
fully populated :class:`NefPartition` or a :class:`Rejection` that names the
first reason and an exact witness; re-validating the same input always
yields the identical rejection.

Enumeration (:func:`enumerate_nef_partitions`) decides vertex subsets, not
partitions, and then searches the covers of the vertex set by the nef ones.
Call a nonempty set S of vertices nef when its 0/1 indicator extends to an
integral convex PL function φ_S on the face fan.

- Nef-partitions are the covers by nef subsets, and these are closed under
  complements. ``_decide`` decides each part on its own, by exactly that,
  once the parts are nonempty, disjoint and covering, so the nef-partitions
  into r parts are the covers of the vertices by r disjoint nef subsets. At
  r ≥ 2 the complement of a part is the union of the others, and its
  indicator is the sum of their φs, again integral and convex. So every
  part is S or Sᶜ for some S that holds vertex 0 with S and Sᶜ both nef,
  and the search keeps exactly those. At r = 1 the one part is the whole
  vertex set.
- The cone cut holds for the complement. On the cone over a facet
  ⟨x, n⟩ = −1 the all-ones pattern has the functional −n, a lattice point
  as Δ is reflexive. When S's pattern has the functional u, Sᶜ's has
  −n − u, which is consistent and lattice exactly when u is. So a branch
  is cut on S's pattern alone, and at a leaf Sᶜ has a lattice functional
  on every cone.
- Two masks per cone decide convexity. φ_S is convex exactly when
  ⟨v, u⟩ ≤ φ_S(v) for every vertex v and every cone functional u. φ_S(v)
  is 1 on S and 0 off it, so the inequality fails exactly at a v in
  gt1 = {v : ⟨v, u⟩ > 1}, or at a v outside S in gt0 = {v : ⟨v, u⟩ > 0}.
  Both sets depend only on the cone and S's pattern on it, so the fan
  keeps them once per (cone, pattern) (:meth:`nefdual.fan.FaceFan.entry`),
  and a subset costs O(cones) mask operations instead of
  O(vertices × cones) pairings.
- Each (cone, pattern) is read off the rows of the cone's integer table
  that the pattern picks. The table (:class:`nefdual.fan._ConeKernel`,
  one exchange from the fan's last table in the usual case) has, for each
  of d basis vertices b_r of its facet, a row holding D λ_r(v) at every
  vertex v of Δ, where v = Σ λ_r(v) b_r, and D times column r of B⁻¹ in
  its last d entries, B the matrix of the basis rows. A functional u with
  u's values p_r = ⟨b_r, u⟩ on the basis is B⁻¹p, and ⟨v, u⟩ = Σ λ_r(v) p_r.
  S's pattern puts p_r = 1 on the basis vertices in S and 0 on the others,
  so the sum T of the rows of the basis vertices in S holds D ⟨v, u⟩ at
  every vertex v and D u in its last d entries. Hence the pattern has a
  functional iff T is D times the pattern at the cone's other vertices
  (the basis spans, so u is the only candidate), which is checked first,
  summing those columns alone, so a pattern with no functional costs no
  full-width sum. Then u is a lattice point iff D divides T's last d
  entries, and gt0 and gt1 are the v with T at v above 0 and above D. No
  functional is paired with a vertex, and a ``Point`` is made only for a
  pattern that passes.

Validation decides each part on the same entries (:func:`_failure`),
with the part as a vertex bitmask s: the first cone with no functional
gives ``NotPiecewiseLinear``; failing that, the first cone whose functional
is not a lattice point gives ``NotIntegral``; failing that, a nonzero mask
bad_c = gt1 | (gt0 & ~s) gives ``NotConvex`` at the lowest vertex v in any
bad_c and the first cone c whose bad_c holds v. That is the first
(vertex, cone) where a cone's functional exceeds φ_S, and the one witness
rule of the library (:func:`nefdual.fan._first_violation`), which
:func:`nefdual.fan.pl_from_vertex_values` applies to the masks of its
weighted read for the same values. So the validator, the enumeration and
the dual read one memo per fan, and every PL function is decided on
per-cone masks.

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
- Δᵢ = conv(0, Eᵢ), built from Eᵢ and φᵢ alone. Its vertices are Eᵢ,
  each a vertex of Δ ⊇ Δᵢ, and 0 exactly when ⟨e, yᵢ⟩ > 0 for every
  e ∈ Eᵢ, where yᵢ = Σ_F (n_F + u_{i,F}) is summed over the cones of Δ's
  fan, n_F the facet normal and u_{i,F} φᵢ's functional on F's cone.
  Σₖφₖ has the functional −n_F on F's cone, so
  yᵢ = Σ_F Σ_{k≠i} (−u_{k,F}), and yᵢ = 0 at r = 1. Each
  ⟨e, u_{k,F}⟩ ≤ φₖ(e) = 0 for e ∈ Eᵢ and k ≠ i, by convexity, so
  ⟨e, yᵢ⟩ > 0 exactly when ⟨e, u_{k,F}⟩ < 0 for some k ≠ i and some F.
  If every e ∈ Eᵢ has ⟨e, yᵢ⟩ > 0 = ⟨0, yᵢ⟩, then yᵢ separates conv(Eᵢ)
  strictly from 0. If some e has ⟨e, yᵢ⟩ = 0, then every ⟨e, u_{k,F}⟩,
  k ≠ i, is 0, so φₖ(−e) = max_F ⟨−e, u_{k,F}⟩ = 0 for every k ≠ i. On a
  cone holding −e, −e is a nonnegative combination of the facet's
  vertices, and φₖ is linear there and 1 on Eₖ, so only vertices of Eᵢ
  have weight: −e ∈ cone(Eᵢ), and 0 ∈ conv(Eᵢ). Σ_F n_F is formed once per
  call; no other part's ∇ₖ is read.

The pairings of a duality live in one table (:class:`_Pairings`), made on
first read by :func:`_pairings`, kept on the source and shared by its dual.
Its one interface is the exact minimum of <z, y> over the points y of a
vertex tuple, for each point z of another vertex tuple or each facet sum
ℓ_F of a polytope, the latter with the one point reaching it; each minimum
is computed once per duality. :func:`check_relations` reads it on each
side, and :mod:`nefdual.duality` for the read-off and both sum checks.
Validation never does.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Iterable, NamedTuple

from .errors import NotReflexive
from .fan import FaceFan, PLFunction, _first_violation, face_fan, support_polytope
from .polytope import SPACE_M, SPACE_N, Point, Polytope, _dot, dual_space, origin, pair

NOT_DISJOINT = "NotDisjoint"
NOT_COVERING = "NotCovering"
EMPTY_PART = "EmptyPart"
NOT_PIECEWISE_LINEAR = "NotPiecewiseLinear"
NOT_CONVEX = "NotConvex"
NOT_INTEGRAL = "NotIntegral"

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Rejection(NamedTuple):
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


class NefPartition:
    """A validated nef-partition with its cached geometric data.

    ``parts`` holds vertex-index sets in the order given at validation time
    (labels are preserved for I/O); ``phi[i]`` is the integral convex PL
    function extending the indicator of part i, ``delta_parts[i]`` the hull
    of the origin with part i, and ``nabla_parts[i]`` the support polytope
    of ``phi[i]``. ``_nabla`` holds the hull of the nabla parts once
    :func:`nefdual.duality.nabla` has built it, and ``_pairings`` the
    pairing table of its duality once a check has read it (:func:`_pairings`).

    Immutable: assigning an attribute raises ``AttributeError``, and the
    caches are set with ``object.__setattr__``. Equality and the hash take
    the six public fields, not the caches. It is not a tuple, so ``len()``
    and iteration raise ``TypeError``.
    """

    _fields = ("delta", "parts", "fan", "phi", "delta_parts", "nabla_parts")
    __slots__ = _fields + ("_nabla", "_pairings")

    delta: Polytope
    parts: tuple[frozenset[int], ...]
    fan: FaceFan
    phi: tuple[PLFunction, ...]
    delta_parts: tuple[Polytope, ...]
    nabla_parts: tuple[Polytope, ...]
    _nabla: Polytope | None
    _pairings: _Pairings | None

    def __init__(self, delta, parts, fan, phi, delta_parts, nabla_parts):
        init = object.__setattr__
        init(self, "delta", delta)
        init(self, "parts", parts)
        init(self, "fan", fan)
        init(self, "phi", phi)
        init(self, "delta_parts", delta_parts)
        init(self, "nabla_parts", nabla_parts)
        init(self, "_nabla", None)
        init(self, "_pairings", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return (self.delta, self.parts, self.fan, self.phi, self.delta_parts, self.nabla_parts)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _replace(self, **changes) -> NefPartition:
        """A copy with ``changes`` in place of those fields; its caches are empty."""
        return NefPartition(**dict(zip(self._fields, self._key()), **changes))

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
    integral convex PL extension of each part's indicator. Each part is
    decided on the fan's entries (:func:`_failure`), and φ is built from
    them (:func:`_phi`).
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
        s = sum([1 << i for i in part])
        failure = _failure(fan, s)
        if failure is not None:
            reason, vertex, cone = failure
            return Rejection(reason, part=pi, cone=cone, vertex=vertex)
        phis.append(_phi(fan, s))
    return norm_parts, fan, tuple(phis)


def _build(delta: Polytope, parts, phis):
    """The delta parts and the nabla parts, each built from its vertices
    (the module docstring gives both vertex sets), with no hull: a part's
    span and facets are built on their first read. Δᵢ is built from Eᵢ
    and φᵢ alone (:func:`_delta_part`): 0 is a vertex exactly when
    ⟨e, yᵢ⟩ > 0 for every e ∈ Eᵢ, yᵢ = Σ_F (n_F + u_{i,F}), with Σ_F n_F
    formed once."""
    normals = _normal_sum(phis[0].fan)
    delta_parts = tuple([_delta_part(delta, sorted(part), f, normals) for part, f in zip(parts, phis)])
    return delta_parts, tuple([support_polytope(f) for f in phis])


def _normal_sum(fan: FaceFan) -> tuple:
    """Σ_F n_F over the cones of ``fan``, as ``int``s: the facet normals of
    a reflexive polytope are lattice points."""
    return tuple(map(sum, zip(*[c.normal._num for c in fan.cones])))


def _delta_part(delta: Polytope, members, phi: PLFunction, normals: tuple) -> Polytope:
    """Δᵢ = conv(0, Eᵢ), Eᵢ the vertices ``members`` (sorted indices) of
    part i, from its vertices: Eᵢ, and 0 exactly when ⟨e, yᵢ⟩ > 0 for every
    e in Eᵢ, yᵢ = Σ_F (n_F + u_F) = ``normals`` plus the sum of ``phi``'s
    cone functionals (the module docstring gives the argument). No other
    part is read."""
    verts = [delta.vertices[j] for j in members]
    points = [origin(delta.ambient_dim, delta.space)] + verts
    y = list(map(sum, zip(normals, *[u._num for u in phi.functionals])))
    # Every point here is a lattice point, so <e, y> is the dot product of
    # the numerators.
    if all([_dot(e._num, y) > 0 for e in verts]):
        return Polytope._from_vertices(points, points)
    return Polytope._from_vertices(verts, points)


def _is_nef(fan: FaceFan, s: int) -> bool:
    """Whether the vertex set S, bit v of ``s`` set for v in S, is nef: every
    cone has an entry ``(u, gt0, gt1)`` (:meth:`nefdual.fan.FaceFan.entry`)
    with gt1 empty and gt0 inside S (the module docstring gives the
    argument). It stops at the first cone that fails."""
    entry = fan.entry
    for c in range(len(fan.cones)):
        e = entry(c, s)
        if not e or e[2] or e[1] & ~s:
            return False
    return True


def _failure(fan: FaceFan, s: int):
    """``None`` when S is nef, and otherwise ``(reason, vertex, cone)``: the
    first cone with no functional (``NotPiecewiseLinear``), else the first
    with a functional off the lattice (``NotIntegral``), vertex ``None`` for
    both, else the witness of the masks gt1 | (gt0 & ~s)
    (:func:`nefdual.fan._first_violation`, ``NotConvex``)."""
    entries = [fan.entry(c, s) for c in range(len(fan.cones))]
    if None in entries:
        return NOT_PIECEWISE_LINEAR, None, entries.index(None)
    if False in entries:
        return NOT_INTEGRAL, None, entries.index(False)
    violation = _first_violation([gt1 | gt0 & ~s for _, gt0, gt1 in entries])
    return None if violation is None else (NOT_CONVEX, *violation)


def _lattice_subsets(fan: FaceFan):
    """Every S other than the full set that holds vertex 0 and whose
    pattern on every cone has a lattice functional: vertices are labelled
    in order, in or out of S (in first), and a branch is cut at the first
    cone that closes (its largest vertex is labelled) with no lattice
    functional for S's pattern. Depth first, on an explicit stack of (last
    labelled vertex, S)."""
    n = len(fan.vertices)
    full = (1 << n) - 1
    closing: list[list[int]] = [[] for _ in range(n)]
    for c, cone in enumerate(fan.cones):
        closing[max(cone.vertex_indices)].append(c)
    stack = [(0, 1)]
    entry = fan.entry
    while stack:
        i, s = stack.pop()
        for c in closing[i]:
            if not entry(c, s):
                break
        else:
            if i == n - 1:
                yield s
                continue
            stack.append((i + 1, s))
            t = s | 1 << (i + 1)
            if t != full:
                stack.append((i + 1, t))


def _phi(fan: FaceFan, s: int) -> PLFunction:
    """φ_S for a nef S, its functionals read off the fan's entries and its
    verdict convex, as the entries decided."""
    values = tuple([_ONE if s >> v & 1 else _ZERO for v in range(len(fan.vertices))])
    return PLFunction(fan, values, tuple([fan.entry(c, s)[0] for c in range(len(fan.cones))]), None)


def _exact_covers(blocks: list[int], full: int, r: int):
    """Every way to cover ``full`` by r disjoint ``blocks``, as lists of
    blocks ordered by lowest vertex: the next block is one that holds the
    lowest vertex not yet covered (Knuth's Algorithm X), and the last is
    whatever is left, if it is a block. Depth first, on an explicit stack
    of (vertices left, blocks chosen), the blocks tried in list order."""
    by_low: dict[int, list[int]] = {}
    for b in blocks:
        by_low.setdefault(b & -b, []).append(b)
    allowed = set(blocks)
    stack = [(full, [])]
    while stack:
        rest, chosen = stack.pop()
        if len(chosen) == r - 1:
            if rest in allowed:
                yield chosen + [rest]
            continue
        fits = [b for b in by_low.get(rest & -rest, ()) if b & rest == b]
        stack += [(rest ^ b, chosen + [b]) for b in reversed(fits)]


def enumerate_nef_partitions(delta: Polytope, r: int) -> list[NefPartition]:
    """All nef-partitions of ``delta`` into exactly ``r`` unlabeled parts.

    Two searches read the fan's entries (:meth:`~nefdual.fan.FaceFan.entry`),
    kept on the fan, so a later call or validation on the same base reads
    them again. The subset search (:func:`_lattice_subsets`) labels the
    vertices in or out of a subset S holding vertex 0, cuts a branch at the
    first cone where S's pattern has no lattice functional, and keeps S and
    its complement when both are nef (:func:`_is_nef`; at r = 1, the full
    vertex set when it is nef). The cover search then
    builds every cover of the vertices by r disjoint kept subsets, taking
    each time one that holds the lowest vertex not yet covered, so the
    parts come in the order of smallest member. The module docstring shows
    that the covers are exactly the nef-partitions. Both searches run depth
    first on an explicit stack.

    The subset search makes no weighted read
    (:meth:`~nefdual.fan.FaceFan._weighted_read`): each (cone, pattern) is
    read off the rows of the cone's integer table that the pattern picks,
    the table built once per cone, by exchange from the fan's last one, and
    kept on the fan (the module docstring gives the argument). Each subset
    is decided once and each part of the result is built once per call,
    next to its φ, however many partitions share it: φ by :func:`_phi`,
    its verdict the masks', ∇ᵢ from φ, and Δᵢ by :func:`_delta_part` from
    Eᵢ and φᵢ alone, 0 a vertex exactly when ⟨e, yᵢ⟩ > 0 for every e ∈ Eᵢ,
    yᵢ = Σ_F (n_F + u_{i,F}); Σ_F n_F is formed once, when the first cover
    is found. No symmetry reduction is applied. The result is sorted by
    each cover's member tuples, which is the order of canonical part
    lists, as the cover lists its parts by smallest member, and equals
    that of validating every set partition into r parts, labels included.
    An ``r`` that is not an integer (a ``float`` such as 2.0 included)
    raises ``TypeError``.
    """
    r = index(r)
    if not delta.is_reflexive():
        raise NotReflexive("nef-partitions are defined on reflexive polytopes")
    n = len(delta.vertices)
    if r < 1 or r > n:
        return []
    fan = face_fan(delta)
    full = (1 << n) - 1
    if r == 1:
        blocks = [full] if _is_nef(fan, full) else []
    else:
        blocks = []
        for s in _lattice_subsets(fan):
            if _is_nef(fan, s) and _is_nef(fan, full ^ s):
                blocks += (s, full ^ s)
    built: dict[int, tuple] = {}  # subset -> (members, part, φ, ∇ᵢ, Δᵢ)
    normals = None
    found: dict[tuple, NefPartition] = {}
    for cover in _exact_covers(blocks, full, r):
        if normals is None:
            normals = _normal_sum(fan)
        for s in cover:
            if s not in built:
                members = tuple([v for v in range(n) if s >> v & 1])
                phi = _phi(fan, s)
                delta_part = _delta_part(delta, members, phi, normals)
                built[s] = (members, frozenset(members), phi, support_polytope(phi), delta_part)
        key, parts, phis, nabla_parts, delta_parts = zip(*[built[s] for s in cover])
        found[key] = NefPartition(delta, parts, fan, phis, delta_parts, nabla_parts)
    return [found[key] for key in sorted(found)]


class RelationReport(NamedTuple):
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


class _Pairings:
    """The exact pairings between the vertices of a duality's two sides, and
    their minima.

    Its one interface answers exact minima of <z, y> over the points y of
    a vertex tuple: :meth:`lows` for each point z of a vertex tuple of the
    other space, :meth:`facet_lows` for each facet sum z = ℓ_F of a
    polytope, the sum of facet F's vertices, with the one point reaching
    the minimum and that point's pairings with the polytope's vertices. A
    minimum is an ``int`` when both vertex tuples are lattice, as on every
    duality of a reflexive polytope, and a ``Fraction`` otherwise. Each
    answer is computed once per pair of vertex contents and kept, so every
    check that reads a minimum shares it, and no reader sees positions or
    rows.

    Storage: each point gets a position among the points of its space the
    first time it is seen, ``index[space]`` mapping its integer form
    ``(_num, _den)`` to it, and ``rows[space][k]`` holds the ``int`` dot
    products of the k-th numerator with those of every point of the other
    space, in the order of their positions. The pairing of x and y is that
    entry over ``x._den * y._den``, as :func:`nefdual.polytope.pair`
    computes it. Each entry is computed once, when the later of its two
    points is added, and kept in both rows. A vertex tuple is set up once
    per content (:meth:`_set`), and the entries of two tuples are gathered
    once into an exact block (:meth:`_block`), from which both kinds of
    minima are read. An entry of two points that do not pair (of other
    dimensions) is never read: every reader pairs only polytopes it has
    checked to pair (:func:`_pairable`).
    """

    __slots__ = ("index", "rows", "_ids", "_sets", "_blocks")

    def __init__(self):
        self.index: dict[str, dict] = {SPACE_M: {}, SPACE_N: {}}
        self.rows: dict[str, list[list[int]]] = {SPACE_M: [], SPACE_N: []}
        self._ids: dict[int, tuple] = {}
        self._sets: dict[tuple, tuple] = {}
        self._blocks: dict[tuple, list] = {}

    def _add(self, p: Point) -> int:
        other = dual_space(p.space)
        row = [_dot(p._num, num) for num, _ in self.index[other]]
        for entries, e in zip(self.rows[other], row):
            entries.append(e)
        k = self.index[p.space][p._num, p._den] = len(self.rows[p.space])
        self.rows[p.space].append(row)
        return k

    def _set(self, points: tuple[Point, ...]) -> tuple:
        """``(number, positions, lattice)`` of a vertex tuple: its number
        among the contents set up, each point's position, added if not yet
        seen, and whether every point is a lattice point. Set up once per
        content, kept under the space and the positions, so equal vertex
        tuples of different polytopes share it, and found by the tuple's
        ``id`` first; the tuple is kept with it, so the ``id`` stays its
        own."""
        hit = self._ids.get(id(points))
        if hit is None:
            get = self.index[points[0].space].get
            ks = tuple([self._add(p) if (k := get((p._num, p._den))) is None else k for p in points])
            key = (points[0].space, ks)
            lattice = all([p._den == 1 for p in points])
            entry = self._sets.setdefault(key, (len(self._sets), ks, lattice))
            hit = self._ids[id(points)] = (points, entry)
        return hit[1]

    def _block(self, xs: tuple[Point, ...], ys: tuple[Point, ...]) -> list:
        """``[block, lows, facet lows]`` of two vertex tuples of the two
        spaces, made once per pair of contents: ``block[i][j]`` is the exact
        <xs[i], ys[j]>, an ``int`` when both tuples are lattice and the
        ``Fraction`` of the entry over ``xs[i]._den * ys[j]._den``
        otherwise, and the answers of :meth:`lows` and :meth:`facet_lows`
        are kept there once asked for."""
        nx, kx, x_lattice = self._set(xs)
        ny, ky, y_lattice = self._set(ys)
        entry = self._blocks.get((nx, ny))
        if entry is None:
            rows = self.rows[xs[0].space]
            block = [list(map(rows[k].__getitem__, ky)) for k in kx]
            if not (x_lattice and y_lattice):
                block = [[Fraction(e, x._den * y._den) for e, y in zip(row, ys)] for row, x in zip(block, xs)]
            entry = self._blocks[nx, ny] = [block, None, None]
        return entry

    def lows(self, xs: tuple[Point, ...], ys: tuple[Point, ...]) -> tuple:
        """For each point x of ``xs``, the exact minimum of <x, y> over the
        points y of ``ys``, a vertex tuple of the other space."""
        entry = self._block(xs, ys)
        if entry[1] is None:
            entry[1] = tuple(map(min, entry[0]))
        return entry[1]

    def facet_lows(self, base: Polytope, ys: tuple[Point, ...]) -> tuple:
        """For each facet F of ``base``, in order, ``(m, q, pairings)``: m
        the exact minimum of <ℓ_F, y> over the points y of ``ys``, ℓ_F the
        sum of F's vertices, q the one point of ``ys`` where it is reached
        and ``pairings`` the exact <v, q> at each vertex v of ``base``; or
        ``(m, None, None)`` when more points reach it
        (:func:`_facet_lows`)."""
        entry = self._block(base.vertices, ys)
        if entry[2] is None:
            entry[2] = _facet_lows(entry[0], base.facets, ys)
        return entry[2]


def _facet_lows(block, facets, ys: tuple[Point, ...]) -> tuple:
    """The answer of :meth:`_Pairings.facet_lows` from the ``block`` of a
    polytope's vertices with ``ys`` and the polytope's ``facets``: ℓ_F's
    pairings with ``ys`` are the sums of the block's rows over F, formed
    here once per facet and vertex tuple."""
    ells = [list(map(sum, zip(*map(block.__getitem__, f.incidence)))) for f in facets]
    at = list(zip(*block))
    return tuple([
        (low, ys[e.index(low)], at[e.index(low)]) if e.count(low) == 1 else (low, None, None)
        for e, low in zip(ells, map(min, ells))
    ])


def _pairings(np: NefPartition) -> _Pairings:
    """The pairing table of ``np``, made empty on first read and kept on
    ``np``; :func:`nefdual.duality.dual_nef_partition` gives the dual its
    source's table."""
    if np._pairings is None:
        object.__setattr__(np, "_pairings", _Pairings())
    return np._pairings


def _pairable(xs: Polytope, ys: Polytope) -> bool:
    """Whether the points of ``xs`` pair with those of ``ys``: the two lie
    in the two spaces and have one ambient dimension. The one test of it:
    :func:`check_relations` raises on its failure (:func:`_check_pairable`),
    :func:`nefdual.duality._is_polar_sum` answers ``False`` and
    :func:`nefdual.duality._read_off` skips the part."""
    return xs.space != ys.space and xs.ambient_dim == ys.ambient_dim


def _check_pairable(xs: Polytope, ys: Polytope) -> None:
    """Raise what ``pair`` raises on a vertex of each, unless they pair."""
    if not _pairable(xs, ys):
        pair(xs.vertices[0], ys.vertices[0])


def _pairing_mismatch(f: PLFunction, base: Polytope, part: Polytope, table) -> int | None:
    """The index of the first vertex v of ``base`` with f(v) != -min <v, part>,
    or ``None``; ``base`` and ``part`` must pair, and the minima are read
    from ``table``, a :class:`_Pairings`."""
    lows = table.lows(base.vertices, part.vertices)
    return next((vi for vi, m in enumerate(lows) if -m != f.vertex_values[vi]), None)


def check_relations(np: NefPartition) -> RelationReport:
    """Verify the pairing relations between the delta and nabla parts.

    Also re-derives every ``phi_i`` vertex value as the negated minimum of
    the pairing against nabla part i (:func:`_pairing_mismatch`). Every
    minimum is read from the table of ``np``'s duality (:func:`_pairings`),
    which a dual shares with its source, so a minimum that a sum check or
    the other side also reads is computed once. A ``Fraction`` is built
    for the reported matrix entries. Parts that do not pair raise
    ``DimensionMismatch``.

    This is the one check of each phi_i against its nabla part. On a dual
    built by :func:`nefdual.duality.dual_nef_partition` it checks psi_i
    against the dual's nabla part i; psi_i against the source's delta part
    i is :func:`nefdual.duality.verify_delta_parts_from_dual`.
    """
    table = _pairings(np)
    matrix = []
    violations = []
    for j, dp in enumerate(np.delta_parts):
        row = []
        for i, q in enumerate(np.nabla_parts):
            _check_pairable(dp, q)
            m = Fraction(min(table.lows(dp.vertices, q.vertices)))
            row.append(m)
            if m != (-1 if i == j else 0):
                violations.append((j, i, m))
        matrix.append(tuple(row))
    phi_ok = True
    for i, f in enumerate(np.phi):
        part = np.nabla_parts[i]
        _check_pairable(np.delta, part)
        phi_ok = phi_ok and _pairing_mismatch(f, np.delta, part, table) is None
    return RelationReport(
        matrix=tuple(matrix),
        passed=not violations,
        violations=tuple(violations),
        phi_consistent=phi_ok,
    )
