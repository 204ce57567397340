#!/usr/bin/env python3
"""Regenerate the fixture corpus under fixtures/ in canonical JSON.

Run from the repository root:  python tools/gen_fixtures.py
"""
from __future__ import annotations

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fixmk import AffineMap, ExtensionProblem, Leaf, NormKind, NormSpec, Polytope, Product
from fixmk.schema import (
    CheckPayload,
    ExtensionPayload,
    FipPayload,
    Options,
    ProblemFile,
    SolvePayload,
    serialize_problem,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

DEEP = 2**40  # slow 1/n decay needs depth ~1e8 for tol 1e-8; doubling gets there in 40 stages

R90 = AffineMap.linear([[0.0, -1.0], [1.0, 0.0]])
R180 = AffineMap.linear([[-1.0, 0.0], [0.0, -1.0]])
REFLECT_X = AffineMap.linear([[1.0, 0.0], [0.0, -1.0]])
SQUARE = Polytope.box([-1.0, -1.0], [1.0, 1.0])

C3 = AffineMap.linear([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
T12 = AffineMap.linear([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

P2 = np.array([[0.9, 0.1], [0.2, 0.8]])
P4 = np.array(
    [[0.5, 0.5, 0.0, 0.0],
     [0.25, 0.5, 0.25, 0.0],
     [0.0, 0.25, 0.5, 0.25],
     [0.0, 0.0, 0.5, 0.5]]
)
C5 = AffineMap.linear(np.roll(np.eye(5), 1, axis=0))


def solve_file(node, polytope, start=None, **options):
    return ProblemFile("fixed-point", SolvePayload(node, polytope, np.array(start, dtype=float) if start is not None else None), Options(**options))


def write(relpath: str, pf: ProblemFile):
    path = ROOT / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(serialize_problem(pf), encoding="utf-8")
    print(f"wrote {path}")


def main():
    interval = Polytope(np.array([[0.0], [1.0]]))
    contraction = AffineMap(np.array([[0.5]]), np.array([0.25]))
    contraction2 = AffineMap(np.array([[0.25]]), np.array([0.375]))

    write("solve/contraction_interval.json",
          solve_file(Leaf((contraction,)), interval, [0.0], n_max=DEEP))
    write("solve/commuting_pair_interval.json",
          solve_file(Leaf((contraction, contraction2)), interval, [0.0], n_max=DEEP))
    write("solve/rotation_square.json",
          solve_file(Leaf((R90,)), SQUARE, [1.0, 1.0]))
    write("solve/markov_two_state.json",
          solve_file(Leaf((AffineMap.linear(P2.T),)), Polytope(np.eye(2)), [1.0, 0.0], n_max=DEEP))
    write("solve/dihedral_square.json",
          solve_file(Product(Leaf((R90,)), Leaf((REFLECT_X,))), SQUARE, [1.0, 1.0]))
    write("solve/layered_square.json",
          solve_file(Product(Product(Leaf((R180,)), Leaf((R90,))), Leaf((REFLECT_X,))), SQUARE, [1.0, 1.0]))
    write("solve/cyclic_shift_triangle.json",
          solve_file(Leaf((C3,)), Polytope(np.eye(3)), [1.0, 0.0, 0.0], n_max=DEEP))
    write("solve/symmetric_triangle.json",
          solve_file(Product(Leaf((C3,)), Leaf((T12,))), Polytope(np.eye(3)), [1.0, 0.0, 0.0], n_max=DEEP))
    write("solve/birth_death_chain.json",
          solve_file(Leaf((AffineMap.linear(P4.T), AffineMap.linear((P4 @ P4).T))),
                     Polytope(np.eye(4)), [1.0, 0.0, 0.0, 0.0], n_max=DEEP))
    write("solve/uniform_shift_pentatope.json",
          solve_file(Leaf((C5,)), Polytope(np.eye(5)), [1.0, 0.0, 0.0, 0.0, 0.0], n_max=DEEP))
    center = np.full(6, 0.5)
    write("solve/centered_box_contraction.json",
          solve_file(Leaf((AffineMap(0.5 * np.eye(6), 0.5 * center),)),
                     Polytope.box(np.zeros(6), np.ones(6)), np.zeros(6), n_max=DEEP))

    # extension problems
    swap = AffineMap.linear([[0.0, 1.0], [1.0, 0.0]])
    write("extension/swap_extension.json",
          ProblemFile("extension", ExtensionPayload(ExtensionProblem(
              2, NormSpec(NormKind.MAX_ABS, 2), [[1.0, 1.0]], [1.0], Leaf((swap,))))))
    write("extension/s3_extension.json",
          ProblemFile("extension", ExtensionPayload(ExtensionProblem(
              3, NormSpec(NormKind.MAX_ABS, 3), [[1.0, 1.0, 1.0]], [1.0],
              Product(Leaf((C3,)), Leaf((T12,)))))))
    write("extension/identity_extension.json",
          ProblemFile("extension", ExtensionPayload(ExtensionProblem(
              2, NormSpec(NormKind.MAX_ABS, 2), [[1.0, 1.0]], [1.0],
              Leaf((AffineMap.identity(2),))))))
    write("extension/scaling_l1_extension.json",
          ProblemFile("extension", ExtensionPayload(ExtensionProblem(
              2, NormSpec(NormKind.SUM_ABS, 2), [[1.0, 0.0]], [3.0],
              Leaf((AffineMap.linear([[1.0, 0.0], [0.0, 0.5]]),))))))

    # fip sampling
    write("fip/rotation_square_fip.json",
          ProblemFile("fip-check", FipPayload(Leaf((R90,)), SQUARE, "cof", 5)))
    write("fip/dihedral_square_fip.json",
          ProblemFile("fip-check", FipPayload(Product(Leaf((R90,)), Leaf((REFLECT_X,))), SQUARE, "coh-coq", 5)))

    # negative controls
    write("negative/non_commuting_leaf.json",
          ProblemFile("structure-check", CheckPayload(Leaf((R90, REFLECT_X)), SQUARE)))
    write("negative/norm_violating_operator.json",
          ProblemFile("extension", ExtensionPayload(ExtensionProblem(
              2, NormSpec(NormKind.MAX_ABS, 2), [[1.0, 0.0]], [1.0],
              Leaf((AffineMap.linear([[1.0, 0.0], [0.0, 1.5]]),))))))
    # loose tol lets the (vacuous) invariance check pass so the run reaches
    # the empty-fixed-set diagnostic in the exact solver
    write("negative/drifting_translation.json",
          solve_file(Leaf((AffineMap.translation([2.0, 0.0]),)),
                     Polytope.box([0.0, 0.0], [1.0, 1.0]), [0.0, 0.0],
                     tol=4.0, mode="exact"))
    # K is invariant and the exact route is ok, but in the coordinate K does not span the
    # averages grow as 2^n / n, past float range at depth 1024 before tol is reached
    write("negative/overflowing_average.json",
          solve_file(Leaf((AffineMap.linear([[0.5, 0.0], [0.0, 2.0]]),)),
                     Polytope(np.array([[0.0, 0.0], [1.0, 0.0]])), [1.0, 0.0], n_max=DEEP, tol=1e-8))

    (ROOT / "negative" / "malformed.json").write_text(
        '{"kind": "fixed-point", "payload": {\n', encoding="utf-8")
    print(f"wrote {ROOT / 'negative' / 'malformed.json'}")
    (ROOT / "negative" / "unknown_field.json").write_text(
        '{\n  "kind": "fixed-point",\n  "payload": {\n    "semigroup": {"leaf": '
        '[{"matrix": [[1.0]], "offset": [0.0]}]},\n    "polytope": {"vertices": [[0.0], [1.0]]},\n'
        '    "surprise": true\n  }\n}\n', encoding="utf-8")
    print(f"wrote {ROOT / 'negative' / 'unknown_field.json'}")


if __name__ == "__main__":
    main()
