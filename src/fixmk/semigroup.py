"""Structure trees of affine semigroups and their validation.

A tree is either a :class:`Leaf` (a list of pairwise-commuting generators)
or a :class:`Product` whose normal child commutes past the quotient child:
for every normal generator h and quotient generator g there is a word h'
in the normal generators with h.g = g.h'.  Trees built this way always
admit a common fixed point on any invariant compact convex polytope, which
is what :mod:`fixmk.solver` computes.

Validation is entirely numerical: commutation is checked entrywise, the
normal relation by searching words up to a budget, and invariance by hull
membership of mapped vertices.  Each mapped vertex is first matched
against the vertex list, which settles permutations and isometries of K
with no LP; only the images left unmatched get a hull LP.
:func:`validate_relations` runs the first two alone, for callers that
know invariance by other means.  Reports carry the offending generator
labels and the worst residual so failures are actionable.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DimensionMismatchError, EnumerationCapError
from .geometry import (
    AffineMap,
    Polytope,
    affine_compose,
    convex_combination,
    flatten_map,
    hull_fit,
    hull_gap,
    map_deviation,
)

DEFAULT_ABELIAN_TOL = 1e-12
DEFAULT_RELATION_TOL = 1e-9
DEFAULT_WORD_BUDGET = 6
DEFAULT_ELEMENT_CAP = 10_000
_DEDUP_TOL = 1e-10

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


def _report(depth: int, failures: list[Failure]) -> ValidationReport:
    return ValidationReport(ok=not failures, depth=depth, failures=failures)


def _abelian_failures(labeled) -> list[Failure]:
    failures = []
    for i in range(len(labeled)):
        for j in range(i + 1, len(labeled)):
            (la, a), (lb, b) = labeled[i], labeled[j]
            dev = map_deviation(affine_compose(a, b), affine_compose(b, a))
            if dev > DEFAULT_ABELIAN_TOL:
                failures.append(Failure("non-commuting-pair", (la, lb), dev))
    return failures


def _invariance_failures(labeled, K: Polytope, tol: float) -> list[Failure]:
    failures = []
    matched = 0
    for label, g in labeled:
        if g.dim != K.dim:
            raise DimensionMismatchError("generator and polytope dims differ")
        worst = 0.0
        for v in K.vertices:
            gap, hit = hull_gap(K, g(v), tol)
            worst = max(worst, gap)
            matched += hit
        if worst > tol:
            failures.append(Failure("not-invariant", (label,), worst))
    pairs = len(labeled) * K.n_vertices
    logger.debug(
        "invariance pass: %d vertex-generator pairs, %d settled by vertex match, %d by LP",
        pairs, matched, pairs - matched,
    )
    return failures


def check_invariance(generators, K: Polytope, tol: float) -> ValidationReport:
    """Every generator must map every vertex of K back into K within tol.

    Each image is matched against the vertex list first; only images with
    no vertex within tol get a hull LP.  A matched image is within tol of K,
    so a reported residual is always the hull distance of an unmatched one.
    """
    labeled = [(f"g{i}", g) for i, g in enumerate(generators)]
    return _report(1, _invariance_failures(labeled, K, tol))


def enumerate_elements(node: SemigroupNode, max_word_length: int) -> list[AffineMap]:
    """Distinct products of generators up to the word length, identity included.

    Deduplication is entrywise within 1e-10, far below round-off growth at
    this scale.  Raises :class:`EnumerationCapError` past
    ``DEFAULT_ELEMENT_CAP`` elements, which guards against free semigroups
    that never close up.
    """
    if max_word_length < 1:
        raise ValueError("max_word_length must be >= 1")
    gens = [m for _, m in flatten(node)]
    identity = AffineMap.identity(node.dim)
    elements = [identity]
    flat = [flatten_map(identity)]
    frontier = [identity]
    for _ in range(max_word_length):
        fresh = []
        for w in frontier:
            for g in gens:
                cand = affine_compose(w, g)
                fc = flatten_map(cand)
                known = np.abs(np.asarray(flat) - fc).max(axis=1).min()
                if known <= _DEDUP_TOL:
                    continue
                if len(elements) >= DEFAULT_ELEMENT_CAP:
                    raise EnumerationCapError(DEFAULT_ELEMENT_CAP)
                elements.append(cand)
                flat.append(fc)
                fresh.append(cand)
        if not fresh:
            break
        frontier = fresh
    return elements


def check_normal_factor(
    normal: SemigroupNode,
    quotient: SemigroupNode,
    word_budget: int = DEFAULT_WORD_BUDGET,
    tol: float = DEFAULT_RELATION_TOL,
    first: int = 0,
) -> ValidationReport:
    """Resolve h.g = g.h' with h' a word in the normal generators.

    For each generator pair the enumerated words are scanned for the word
    w nearest to the relation h.g = g.w; its deviation is the residual a
    failure reports.  Witnesses are labeled as :func:`flatten` labels
    ``Product(normal, quotient)``, prefixed ``normal:`` or ``quotient:``:
    the normal generators are g<first>, ..., and the quotient's follow
    them.  ``first`` is the index of the normal factor's first generator in
    an enclosing tree (0 for a tree of its own).
    """
    if word_budget < 1:
        raise ValueError("word_budget must be >= 1")
    words = enumerate_elements(normal, word_budget)
    h_gens = [(f"normal:{l}", m) for l, m in flatten(normal, first)]
    g_gens = [(f"quotient:{l}", m) for l, m in flatten(quotient, first + len(h_gens))]
    failures = []
    for hl, h in h_gens:
        for gl, g in g_gens:
            target = affine_compose(h, g)
            best = min(map_deviation(target, affine_compose(g, w)) for w in words)
            if best > tol:
                failures.append(Failure("normal-relation", (hl, gl), best))
    return _report(1, failures)


def _relation_failures(node, word_budget, tol, first):
    """Height of the tree and its abelian and normal-relation failures.

    ``first`` is the tree-wide index of the subtree's first generator, so
    abelian and normal-relation witnesses carry the labels of :func:`flatten`.
    """
    if isinstance(node, Leaf):
        return 1, _abelian_failures(flatten(node, first))
    left_depth, left = _relation_failures(node.normal, word_budget, tol, first)
    right_depth, right = _relation_failures(
        node.quotient, word_budget, tol, first + len(flatten(node.normal))
    )
    normal = check_normal_factor(node.normal, node.quotient, word_budget, tol, first).failures
    return 1 + max(left_depth, right_depth), left + right + normal


def validate_relations(
    node: SemigroupNode,
    word_budget: int = DEFAULT_WORD_BUDGET,
    tol: float = DEFAULT_RELATION_TOL,
) -> ValidationReport:
    """Check the tree's algebra alone: abelian leaves and normal relations.

    Leaves must be abelian and products need the normal relation between
    their children, checked recursively.  Abelian and normal-relation
    witnesses are labeled as :func:`flatten` does; the depth field records the height of the tree
    (1 for leaves, 1 + max child depth for products).
    """
    depth, failures = _relation_failures(node, word_budget, tol, 0)
    return _report(depth, failures)


def validate_structure(
    node: SemigroupNode,
    K: Polytope,
    word_budget: int = DEFAULT_WORD_BUDGET,
    tol: float = DEFAULT_RELATION_TOL,
) -> ValidationReport:
    """Validate a structure tree against the polytope K.

    The relation checks of :func:`validate_relations`, then invariance of
    K, checked once for all generators of the tree and labeled as
    :func:`flatten` does.  Purely deterministic: identical inputs give
    identical reports.
    """
    relations = validate_relations(node, word_budget, tol)
    invariance = _invariance_failures(flatten(node), K, tol)
    return _report(relations.depth, relations.failures + invariance)


def commuting_combination(
    h: AffineMap,
    g: AffineMap,
    normal_words,
    tol: float = 1e-8,
) -> AffineMap | None:
    """Convex combination h'' of normal words with h.g = g.h'', or None.

    Works at the level of convex hulls rather than single words: flattening
    maps to vectors turns the search into hull membership of h.g among
    {g.w : w word}, solved by the same feasibility core as everything else.
    """
    words = list(normal_words)
    target = flatten_map(affine_compose(h, g))
    columns = np.array([flatten_map(affine_compose(g, w)) for w in words])
    deviation, weights = hull_fit(Polytope(columns), target)
    if deviation > tol:
        return None
    return convex_combination(words, weights / weights.sum())
