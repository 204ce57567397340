"""Shared builders for test geometry, the CLI runner and the tool loader."""
import importlib.util
import os
import pathlib
import subprocess
import sys

import numpy as np

import fixmk
from fixmk import AffineMap, Leaf, Polytope, Product, convex_combination, geometry, semigroup

# the child process imports the same fixmk as the tests, however it was found
_SRC = str(pathlib.Path(fixmk.__file__).resolve().parent.parent)
TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def run_cli(*args):
    """Run ``python -m fixmk`` with args; returns (exit code, stdout, stderr)."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fixmk", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout, proc.stderr


def load_tool(name):
    """Import tools/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_calls(monkeypatch, module, name):
    """Wrap module.name so each call appends to the returned list."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(1) or original(*a))
    return calls


def ladder_entries(monkeypatch):
    """Wrap geometry._weighed, the ladder's step past the vertex match, so each point that enters
    it appends (point as a tuple, name of the step that settled it: weights, else LP) to the
    returned list."""
    entries = []
    original = geometry._weighed

    def weighed(K, point, tol):
        gap = original(K, point, tol)
        entries.append((tuple(point.tolist()), "LP" if gap is None else "weights"))
        return gap

    monkeypatch.setattr(geometry, "_weighed", weighed)
    return entries


def enumerate_elements(node, max_word_length):
    """The words of the tree's generators up to the length, identity included, as maps."""
    return [AffineMap(m, o) for m, o in zip(*semigroup._words(node, max_word_length))]


def polytope_image(m, K):
    """The hull of K's vertices under one map."""
    return geometry.polytope_images(m.matrix[None], m.offset[None], K)[0]


def _flat(matrices, offsets):
    return np.concatenate([matrices.reshape(matrices.shape[:-2] + (-1,)), offsets], axis=-1)


def commuting_combination(h, g, words, tol=1e-8):
    """A convex combination h'' of the words with h.g = g.h'' within tol, or None.

    Flattening maps to vectors makes this hull membership of h.g among
    {g.w : w a word}, one hull fit; the fit's weights mix the words.
    """
    words = list(words)
    target = _flat(*geometry._compose(h.matrix, h.offset, g.matrix, g.offset))
    stack = np.array([w.matrix for w in words]), np.array([w.offset for w in words])
    images = Polytope(_flat(*geometry._compose(g.matrix, g.offset, *stack)))
    deviation, weights = geometry.hull_fit(images, target)
    if deviation > tol:
        return None
    return convex_combination(words, weights / weights.sum())


def rot90():
    return AffineMap.linear([[0.0, -1.0], [1.0, 0.0]])


def rot180():
    return AffineMap.linear([[-1.0, 0.0], [0.0, -1.0]])


def reflect_x():
    return AffineMap.linear([[1.0, 0.0], [0.0, -1.0]])


def square():
    return Polytope.box([-1.0, -1.0], [1.0, 1.0])


def unit_square():
    return Polytope.box([0.0, 0.0], [1.0, 1.0])


def dihedral_node():
    return Product(Leaf((rot90(),)), Leaf((reflect_x(),)))


def markov_node():
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    return Leaf((AffineMap.linear(P.T),))


def cycle3():
    return AffineMap.linear([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def swap12_3d():
    return AffineMap.linear([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def polygon_dihedral(m):
    """D_m on the regular m-gon: the rotation by 2 pi / m normal under the reflection in the x-axis."""
    t = 2 * np.pi / m
    rotation = AffineMap.linear([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    angles = t * np.arange(m)
    K = Polytope(np.column_stack([np.cos(angles), np.sin(angles)]))
    return Product(Leaf((rotation,)), Leaf((reflect_x(),))), K


def cube(d):
    return Polytope.box(-np.ones(d), np.ones(d))


def signed_permutations(perm, scaled=None):
    """Product(sign flip of each coordinate, permutation perm) on R^d.

    The flips are a normal leaf: under the permutation a flip becomes
    another flip.  ``scaled`` (a flatten index) has its matrix scaled by
    1 + 1e-3, which takes [-1,1]^d outside itself.
    """
    d = len(perm)
    maps = [np.diag(np.where(np.arange(d) == i, -1.0, 1.0)) for i in range(d)]
    maps.append(np.eye(d)[list(perm)])
    if scaled is not None:
        maps[scaled] = (1.0 + 1e-3) * maps[scaled]
    gens = [AffineMap.linear(m) for m in maps]
    return Product(Leaf(tuple(gens[:d])), Leaf((gens[d],)))


def commuting_contractions(lo, width, scales, stretched=None):
    """Leaf of diagonal scalings by ``scales`` about the centre of the box lo + [0, width]^d.

    Scalings about one point commute.  ``stretched`` (a generator index)
    scales coordinate 0 by 1.001 instead, which leaves the box.
    """
    scales = np.array(scales, dtype=float)
    if stretched is not None:
        scales[stretched, 0] = 1.001
    centre = np.full(scales.shape[1], lo + width / 2)
    K = Polytope.box(centre - width / 2, centre + width / 2)
    return Leaf(tuple(AffineMap(np.diag(a), centre - a * centre) for a in scales)), K
