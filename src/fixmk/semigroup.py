"""Structure trees of affine semigroups and their validation.

A tree is either a :class:`Leaf` (a list of pairwise-commuting generators)
or a :class:`Product` of a normal factor N with a quotient Q, where every
quotient generator maps Fix(N), the common fixed set of N, into itself.
That is the one use the layered Markov–Kakutani proof makes of the normal
relation h.g = g.h': N has a fixed point in any invariant compact convex
polytope K, so Fix(N) meets K in a non-empty compact convex set that Q
keeps, and Q has a fixed point there.  Trees built this way always admit
a common fixed point on K, which is what :mod:`fixmk.solver` computes.

Validation is entirely numerical and searches no words: commutation is
checked entrywise, the normal relation on Fix(N) = p + span(Z) from one
SVD of the stacked fixed-point equations (:func:`common_fixed_subspace`),
and invariance by hull membership of mapped vertices.  Each generator maps
all vertices at once, and the images go through the membership ladder of
:func:`~fixmk.geometry.hull_gaps`: a vertex match in bounded chunks
settles permutations and isometries of K, nonnegative least-squares
convex weights settle images inside K, and only the images left over,
outside K or within round-off of its boundary, get a hull LP, which
gives a failure its residual.  A stacked product that
overflows raises :class:`NumericalError` naming the step and generator.
:func:`validate_relations` runs the first two alone, for callers that
know invariance by other means.  Reports carry the offending generator
labels and the worst residual so failures are actionable.  Words of the
generators (:func:`_words`) serve fip sampling alone.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DimensionMismatchError, EnumerationCapError, NumericalError
from . import geometry
from .geometry import AffineMap, Polytope, _apply, _finite

DEFAULT_ABELIAN_TOL = 1e-12
DEFAULT_RELATION_TOL = 1e-9
DEFAULT_WORD_BUDGET = 6
DEFAULT_ELEMENT_CAP = 10_000
_DEDUP_TOL = 1e-10
# singular values of G - I below this share of the largest count as zero: a
# stochastic matrix whose rows sum to 1 - 1e-16 leaves one near 1e-15 * s_max
_RANK_RTOL = 1e-10

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Leaf:
    """Generators of an abelian semigroup."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("a leaf needs at least one generator")
        d = gens[0].dim
        for g in gens:
            if g.dim != d:
                raise DimensionMismatchError("leaf generators have mixed dims")
        object.__setattr__(self, "generators", gens)

    @property
    def dim(self) -> int:
        return self.generators[0].dim


@dataclass(frozen=True, eq=False)
class Product:
    """A semigroup presented as (normal factor) composed after (quotient)."""

    normal: "SemigroupNode"
    quotient: "SemigroupNode"

    def __post_init__(self):
        if self.normal.dim != self.quotient.dim:
            raise DimensionMismatchError("product children have mixed dims")

    @property
    def dim(self) -> int:
        return self.normal.dim


SemigroupNode = Union[Leaf, Product]


def flatten(node: SemigroupNode, first: int = 0) -> list[tuple[str, AffineMap]]:
    """All generators of the tree, normal-first, labeled g<first>, g<first+1>, ..."""
    maps: list[AffineMap] = []

    def walk(n):
        if isinstance(n, Leaf):
            maps.extend(n.generators)
        else:
            walk(n.normal)
            walk(n.quotient)

    walk(node)
    return [(f"g{first + i}", m) for i, m in enumerate(maps)]


@dataclass
class Failure:
    kind: str
    witness: tuple[str, ...]
    residual: float


@dataclass
class ValidationReport:
    ok: bool
    depth: int
    failures: list[Failure] = field(default_factory=list)


@dataclass(frozen=True)
class AffineSubspace:
    """point + span(basis columns); basis may have zero columns."""

    point: np.ndarray
    basis: np.ndarray

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


def _report(depth: int, failures: list[Failure]) -> ValidationReport:
    return ValidationReport(ok=not failures, depth=depth, failures=failures)


def _abelian_failures(labeled) -> list[Failure]:
    failures = []
    for i, (la, a) in enumerate(labeled):
        for lb, b in labeled[i + 1 :]:
            ab = geometry._compose(a.matrix, a.offset, b.matrix, b.offset)
            ba = geometry._compose(b.matrix, b.offset, a.matrix, a.offset)
            _finite(f"abelian check: composing {la} and {lb}", *ab, *ba)
            dev = max(float(np.abs(x - y).max()) for x, y in zip(ab, ba))
            if dev > DEFAULT_ABELIAN_TOL:
                failures.append(Failure("non-commuting-pair", (la, lb), dev))
    return failures


def _invariance_failures(labeled, K: Polytope, tol: float) -> list[Failure]:
    failures, steps = [], []
    for label, g in labeled:
        if g.dim != K.dim:
            raise DimensionMismatchError("generator and polytope dims differ")
        images = _apply(g.matrix, g.offset, K.vertices)
        if not np.isfinite(images).all():
            raise NumericalError(f"invariance check: {label} maps a vertex of K out of float range")
        gaps, settled = geometry.hull_gaps(K, images, tol)  # on the module, as spies see it
        steps += settled.tolist()
        worst = float(gaps.max())
        if worst > tol:
            failures.append(Failure("not-invariant", (label,), worst))
    logger.debug(
        "invariance pass: %d vertex-generator pairs: %d by vertex match, %d by weights, %d by LP",
        len(steps), *(steps.count(i) for i in range(len(geometry.LADDER))),
    )
    return failures


@np.errstate(over="ignore", invalid="ignore")  # an overflowing difference is just not close
def _words(node: SemigroupNode, budget: int, first: int = 0):
    """Distinct products of generators up to the word length, identity included, as stacks
    (matrices (N, d, d), offsets (N, d)).

    Breadth first, each length's candidates (word, then generator) formed as
    one stack of flat rows in one buffer; a candidate is dropped when a word
    kept before it is within 1e-10 entrywise, far below round-off growth at
    this scale.  That test runs only on words whose keys, fixed weighted sums
    of their entries, lie in a window that covers the tolerance and round-off
    in both sums.  Raises :class:`EnumerationCapError` past
    ``DEFAULT_ELEMENT_CAP`` words; ``first`` offsets an overflow's generator
    label as in :func:`flatten`.
    """
    if budget < 1:
        raise ValueError("max_word_length must be >= 1")
    labels, gens = zip(*flatten(node, first))
    gm, go = np.array([g.matrix for g in gens]), np.array([g.offset for g in gens])
    d, n = node.dim, node.dim * (node.dim + 1)
    weights = np.array([1.0 + math.sqrt(e) % 1.0 for e in range(2, n + 2)])  # fixed, generic
    words = np.append(np.eye(d).ravel(), np.zeros(d))[None]
    keys, size, start = words @ weights, 1, 0
    spread, ulp = weights.sum() * _DEDUP_TOL, (n + 2) * np.finfo(float).eps
    for length in range(1, budget + 1):
        front = words[start:size, None]
        m, o = geometry._compose(front[..., : d * d].reshape(-1, 1, d, d), front[..., d * d :], gm, go)
        cand = np.concatenate([m.reshape(-1, d * d), o.reshape(-1, d)], axis=1)
        if not np.isfinite(cand).all():
            bad = labels[int(np.argmin(np.isfinite(cand).all(axis=1))) % len(gens)]
            raise NumericalError(f"word enumeration: composing a word with {bad} overflows")
        end = size + len(cand)
        if end > len(words):  # grow the buffer, to twice what this length needs
            words, keys = (np.resize(a, (2 * end,) + a.shape[1:]) for a in (words, keys))
        words[size:end], keys[size:end] = cand, cand @ weights
        # keys of words within _DEDUP_TOL differ by spread, plus round-off growing with |entries|
        win = 2.0 * (spread + ulp * (2.0 * (np.abs(cand) @ weights) + spread))
        _finite(f"word enumeration: keying the words of length {length}", keys[size:end], win)
        order = np.argsort(keys[:end], kind="stable")
        lo = np.searchsorted(keys[order], keys[size:end] - win, "left")
        width = np.searchsorted(keys[order], keys[size:end] + win, "right") - lo
        c = np.repeat(np.arange(len(cand)), width)  # candidate c, each word j in its window
        j = order[np.arange(width.sum()) + np.repeat(lo - np.cumsum(width) + width, width)]
        c, j = c[j < size + c], j[j < size + c]
        close = np.abs(words[size + c] - words[j]).max(axis=1) <= _DEDUP_TOL
        c, j = c[close], j[close]
        keep = np.ones(len(cand), dtype=bool)
        keep[c[j < size]] = False
        for a, b in sorted(zip(c[j >= size].tolist(), (j[j >= size] - size).tolist())):
            keep[a] &= not keep[b]  # an earlier candidate b drops a only if b was kept
        fresh = size + np.flatnonzero(keep)
        if size + len(fresh) > DEFAULT_ELEMENT_CAP:
            raise EnumerationCapError(DEFAULT_ELEMENT_CAP)
        words[size : size + len(fresh)], keys[size : size + len(fresh)] = words[fresh], keys[fresh]
        start, size = size, size + len(fresh)
        if not len(fresh):
            break
    return words[:size, : d * d].reshape(size, d, d).copy(), words[:size, d * d :].copy()


def _rank(s: np.ndarray) -> int:
    """Numerical rank from descending singular values (see ``_RANK_RTOL``)."""
    return int(np.sum(s > _RANK_RTOL * s[0])) if s.size else 0


def _affine_solution_set(M: np.ndarray, rhs: np.ndarray) -> AffineSubspace | None:
    """Solution set of M x = rhs as point + nullspace, or None if inconsistent."""
    U, s, Vt = np.linalg.svd(M)
    _finite("solving the stacked fixed-point equations", s)
    rank = _rank(s)
    coeffs = (U[:, :rank].T @ rhs) / s[:rank] if rank else np.zeros(0)
    point = Vt[:rank].T @ coeffs if rank else np.zeros(M.shape[1])
    if np.max(np.abs(M @ point - rhs), initial=0.0) > 1e-9 * (1.0 + np.abs(rhs).max(initial=0.0)):
        return None
    return AffineSubspace(point, Vt[rank:].T.copy())


def common_fixed_subspace(node: SemigroupNode) -> AffineSubspace | None:
    """Solutions of g(x) = x for every generator g via one stacked system, or None."""
    gens = [g for _, g in flatten(node)]
    d = node.dim
    M = np.vstack([g.matrix - np.eye(d) for g in gens])
    rhs = np.concatenate([-g.offset for g in gens])
    return _affine_solution_set(M, rhs)


def check_normal_factor(
    normal: SemigroupNode,
    quotient: SemigroupNode,
    tol: float = DEFAULT_RELATION_TOL,
    first: int = 0,
) -> ValidationReport:
    """Every quotient generator g must map Fix(N), the normal factor's fixed set, into itself.

    With Fix(N) = p + span(Z) from :func:`common_fixed_subspace`, g maps it
    into Fix(h) iff h(g p) = g p and (A_h - I) A_g Z = 0, so the residual of
    a pair is the larger max-abs entry of the two.  An empty Fix(N) passes, as
    an N with no fixed point keeps no polytope and fails invariance instead.
    Witnesses are labeled as :func:`flatten` labels ``Product(normal,
    quotient)``, prefixed ``normal:`` or ``quotient:``:
    the normal generators are g<first>, ..., and the quotient's follow
    them.  ``first`` is the index of the normal factor's first generator in
    an enclosing tree (0 for a tree of its own).
    """
    h_gens = [(f"normal:{l}", m) for l, m in flatten(normal, first)]
    g_gens = [(f"quotient:{l}", m) for l, m in flatten(quotient, first + len(h_gens))]
    fixed = common_fixed_subspace(normal)
    if fixed is None:
        return _report(1, [])
    eye, failures = np.eye(normal.dim), []
    for hl, h in h_gens:
        for gl, g in g_gens:
            gz, gp = geometry._compose(g.matrix, g.offset, fixed.basis, fixed.point)
            moved = geometry._compose(h.matrix - eye, h.offset, gz, gp)
            _finite(f"normal relation: {hl} after {gl} on Fix(normal)", gz, gp, *moved)
            worst = max(float(np.abs(a).max(initial=0.0)) for a in moved)
            if worst > tol:
                failures.append(Failure("normal-relation", (hl, gl), worst))
    return _report(1, failures)


def _relation_failures(node, tol, first):
    """Height of the tree and its abelian and normal-relation failures.

    ``first`` is the tree-wide index of the subtree's first generator, so
    abelian and normal-relation witnesses carry the labels of :func:`flatten`.
    """
    if isinstance(node, Leaf):
        return 1, _abelian_failures(flatten(node, first))
    left_depth, left = _relation_failures(node.normal, tol, first)
    right_depth, right = _relation_failures(node.quotient, tol, first + len(flatten(node.normal)))
    normal = check_normal_factor(node.normal, node.quotient, tol, first).failures
    return 1 + max(left_depth, right_depth), left + right + normal


def validate_relations(node: SemigroupNode, tol: float = DEFAULT_RELATION_TOL) -> ValidationReport:
    """Check the tree's algebra alone: abelian leaves and normal relations.

    Leaves must be abelian and products need the normal relation between
    their children, checked recursively.  Abelian and normal-relation
    witnesses are labeled as :func:`flatten` does; the depth field records the height of the tree
    (1 for leaves, 1 + max child depth for products).
    """
    depth, failures = _relation_failures(node, tol, 0)
    return _report(depth, failures)


def validate_structure(
    node: SemigroupNode, K: Polytope, tol: float = DEFAULT_RELATION_TOL
) -> ValidationReport:
    """Validate a structure tree against the polytope K.

    The relation checks of :func:`validate_relations`, then invariance of
    K, checked once for all generators of the tree and labeled as
    :func:`flatten` does.  Purely deterministic: identical inputs give
    identical reports.
    """
    relations = validate_relations(node, tol)
    invariance = _invariance_failures(flatten(node), K, tol)
    return _report(relations.depth, relations.failures + invariance)

