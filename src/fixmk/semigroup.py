"""Structure trees of affine semigroups and their validation.

A tree is either a :class:`Leaf` (a list of pairwise-commuting generators)
or a :class:`Product` whose normal child commutes past the quotient child:
for every normal generator h and quotient generator g there is a word h'
in the normal generators with h.g = g.h'.  Trees built this way always
admit a common fixed point on any invariant compact convex polytope, which
is what :mod:`fixmk.solver` computes.

Validation is entirely numerical: commutation is checked entrywise, the
normal relation against the stacked words up to a budget, and invariance
by hull membership of mapped vertices.  Each generator maps all vertices
at once, and the images are matched against the vertex list in bounded
chunks, which settles permutations and isometries of K with no LP; only
the images left unmatched get a hull LP.  A stacked product that
overflows raises :class:`NumericalError` naming the step and generator.
:func:`validate_relations` runs the first two alone, for callers that
know invariance by other means.  Reports carry the offending generator
labels and the worst residual so failures are actionable.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DimensionMismatchError, EnumerationCapError, NumericalError
from . import geometry
from .geometry import AffineMap, Polytope, _apply, _finite, convex_combination, hull_fit

DEFAULT_ABELIAN_TOL = 1e-12
DEFAULT_RELATION_TOL = 1e-9
DEFAULT_WORD_BUDGET = 6
DEFAULT_ELEMENT_CAP = 10_000
_DEDUP_TOL = 1e-10
_CHUNK_BYTES = 64 * 1024  # bound on the temporaries of one chunk of the vertex match

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


def _compose(f, fo, g, go):
    """Stacked f.g from :func:`~fixmk.geometry._compose`, flattened as flatten_map flattens it."""
    m, o = geometry._compose(f, fo, g, go)
    return np.concatenate([m.reshape(m.shape[:-2] + (-1,)), o], axis=-1)


def _abelian_failures(labeled) -> list[Failure]:
    failures = []
    for i, (la, a) in enumerate(labeled):
        for lb, b in labeled[i + 1 :]:
            ab = _compose(a.matrix, a.offset, b.matrix, b.offset)
            ba = _compose(b.matrix, b.offset, a.matrix, a.offset)
            _finite(f"abelian check: composing {la} and {lb}", ab, ba)
            dev = float(np.abs(ab - ba).max())
            if dev > DEFAULT_ABELIAN_TOL:
                failures.append(Failure("non-commuting-pair", (la, lb), dev))
    return failures


def _matched(images, V, tol: float) -> np.ndarray:
    """:func:`~fixmk.geometry.hull_gap`'s vertex match within tol, for chunks of images whose
    difference array and numpy's operand buffers for it stay within _CHUNK_BYTES."""
    step = max(1, _CHUNK_BYTES // (3 * V.nbytes))
    hits = np.empty(len(images), dtype=bool)
    for s in range(0, len(images), step):
        diff = images[s : s + step, None] - V
        hits[s : s + step] = np.abs(diff, out=diff).max(axis=2).min(axis=1) <= tol
    return hits


def _invariance_failures(labeled, K: Polytope, tol: float) -> list[Failure]:
    failures, matched = [], 0
    for label, g in labeled:
        if g.dim != K.dim:
            raise DimensionMismatchError("generator and polytope dims differ")
        images = _apply(g.matrix, g.offset, K.vertices)
        if not np.isfinite(images).all():
            raise NumericalError(f"invariance check: {label} maps a vertex of K out of float range")
        hits = _matched(images, K.vertices, tol)
        matched += int(hits.sum())
        gaps = [geometry.hull_fit(K, x)[0] for x in images[~hits]]  # on the module, as spies see it
        if max(gaps, default=0.0) > tol:
            failures.append(Failure("not-invariant", (label,), max(gaps)))
    pairs = len(labeled) * K.n_vertices
    logger.debug(
        "invariance pass: %d vertex-generator pairs, %d settled by vertex match, %d by LP",
        pairs, matched, pairs - matched,
    )
    return failures


def check_invariance(generators, K: Polytope, tol: float) -> ValidationReport:
    """Every generator must map every vertex of K back into K within tol.

    Images are matched against the vertices in chunks of at most 64 KiB of
    temporaries; only those with no vertex within tol get an LP (:func:`hull_fit`).  A
    matched image is within tol of K, so a residual is the hull distance of an unmatched one.
    """
    labeled = [(f"g{i}", g) for i, g in enumerate(generators)]
    return _report(1, _invariance_failures(labeled, K, tol))


def _words(node: SemigroupNode, budget: int, first: int = 0):
    """:func:`enumerate_elements` as stacks (matrices (N, d, d), offsets (N, d)), built as
    flat rows of one buffer; ``first`` offsets an overflow's generator label as in :func:`flatten`."""
    if budget < 1:
        raise ValueError("max_word_length must be >= 1")
    labels, gens = zip(*flatten(node, first))
    gm, go = np.array([g.matrix for g in gens]), np.array([g.offset for g in gens])
    d, n = node.dim, node.dim * (node.dim + 1)
    weights = np.array([1.0 + math.sqrt(e) % 1.0 for e in range(2, n + 2)])  # fixed, generic
    words = np.append(np.eye(d).ravel(), np.zeros(d))[None]
    keys, size, start = words @ weights, 1, 0
    spread, ulp = weights.sum() * _DEDUP_TOL, (n + 2) * np.finfo(float).eps
    for _ in range(budget):
        front = words[start:size, None]
        cand = _compose(front[..., : d * d].reshape(-1, 1, d, d), front[..., d * d :], gm, go)
        cand = cand.reshape(-1, n)
        if not np.isfinite(cand).all():
            bad = labels[int(np.argmin(np.isfinite(cand).all(axis=1))) % len(gens)]
            raise NumericalError(f"word enumeration: composing a word with {bad} overflows")
        end = size + len(cand)
        if end > len(words):  # grow the buffer, to twice what this length needs
            words, keys = (np.resize(a, (2 * end,) + a.shape[1:]) for a in (words, keys))
        words[size:end], keys[size:end] = cand, cand @ weights
        # keys of words within _DEDUP_TOL differ by spread, plus round-off growing with |entries|
        win = 2.0 * (spread + ulp * (2.0 * (np.abs(cand) @ weights) + spread))
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


def enumerate_elements(node: SemigroupNode, max_word_length: int) -> list[AffineMap]:
    """Distinct products of generators up to the word length, identity included.

    Breadth first, each length's candidates (word, then generator) formed as
    one stack; a candidate is dropped when a word kept before it is within
    1e-10 entrywise, far below round-off growth at this scale.  That test runs
    only on words whose keys, fixed weighted sums of their entries, lie in a
    window that covers the tolerance and round-off in both sums.  Raises
    :class:`EnumerationCapError` past ``DEFAULT_ELEMENT_CAP`` elements.
    """
    return [AffineMap(m, o) for m, o in zip(*_words(node, max_word_length))]


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
    words = _words(normal, word_budget, first)
    h_gens = [(f"normal:{l}", m) for l, m in flatten(normal, first)]
    g_gens = [(f"quotient:{l}", m) for l, m in flatten(quotient, first + len(h_gens))]
    failures = []
    for hl, h in h_gens:
        for gl, g in g_gens:
            target = _compose(h.matrix, h.offset, g.matrix, g.offset)
            gw = _compose(g.matrix, g.offset, *words)
            _finite(f"normal relation: composing {hl}, {gl} and the words", target, gw)
            best = float(np.abs(gw - target).max(axis=1).min())
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
    target = _compose(h.matrix, h.offset, g.matrix, g.offset)
    stack = np.array([w.matrix for w in words]), np.array([w.offset for w in words])
    deviation, weights = hull_fit(Polytope(_compose(g.matrix, g.offset, *stack)), target)
    if deviation > tol:
        return None
    return convex_combination(words, weights / weights.sum())
