"""Shared builders for test geometry, and the CLI runner."""
import os
import pathlib
import subprocess
import sys

import numpy as np

import fixmk
from fixmk import AffineMap, Leaf, Polytope, Product

# the child process imports the same fixmk as the tests, however it was found
_SRC = str(pathlib.Path(fixmk.__file__).resolve().parent.parent)


def run_cli(*args):
    """Run ``python -m fixmk`` with args; returns (exit code, stdout, stderr)."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fixmk", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout, proc.stderr


def count_calls(monkeypatch, module, name):
    """Wrap module.name so each call appends to the returned list."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(1) or original(*a))
    return calls


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
