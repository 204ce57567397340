"""Seeded problem generators for the four benchmark workloads.

Each generator returns a list of :class:`Problem`.  A problem is a CLI
subcommand plus the JSON problem file it reads, written here by hand in
the documented schema so the program under test sees nothing but files.
The same workload seed always gives the same files.

Why each workload exists (the same lines sit in BENCHMARK.json):

* ``check-cube`` -- per-vertex invariance LPs dominate (semigroup ->
  geometry.hull_fit -> lp); solver and extension do no work.
* ``solve-simplex`` -- the exact route's 2d canonical probe LPs dominate;
  validation is about a third of the LPs and Cesaro about 2% of the time.
* ``extend-ball`` -- facet-combination enumeration in
  ``build_constraint_set`` dominates; it is numpy rank/lstsq work, not LP.
* ``fip-simplex`` -- the only workload that runs
  ``geometry.feasible_point``, one large stacked LP, and where the known
  simplex defect shows (at the parent commit, a few wrong answers in a
  hundred at d = 4 and 5, rising to about half at d = 8).
"""
from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

import numpy as np

TOL = 1e-8
DEEP = 2**40  # the 1/n residual law needs depth ~1e8 for tol 1e-8

CUBE_DIMS = (5, 6, 7, 8)
SIMPLEX_DIMS = (8, 16, 24, 32, 40)
LINF_DIMS = (2, 3, 4, 5)  # n=6 would enumerate ~7.6 M facet combinations
L1_DIMS = (2, 3, 4, 5, 6, 7, 8, 9)
FIP_COUNTS = {4: 40, 5: 40, 6: 40, 7: 40, 8: 40}  # problems per dimension
FIP_SAMPLES = 5
FIP_WORD_BUDGET = 2
# From d = 6 the known simplex defect makes 5-60% of the sampled problems
# fail, and one or two in a hundred run to the iteration limit
# (1-2 s each, against 5-30 ms for the rest).  Their sample seeds therefore
# come from a fixed stream per dimension, so every run times the same
# failures: with seeds drawn from the workload seed, the count of those
# slow runs alone moved the time of d = 6..8 by 27% (IQR over median, 10
# seeds).  Below d = 6 no problem ran that long, and the sample seeds
# follow the workload seed.
FIP_FIXED_DIM = 6
FIP_FIXED_STREAM = 20040218


@dataclass
class Problem:
    id: str
    command: str  # CLI subcommand: check, solve, fip or extend
    data: dict  # problem file contents
    largest: bool = False  # part of the workload's largest size
    known_defect: bool = False  # may fail by the known simplex defect (the fip samples)
    path: str = ""

    @property
    def argv(self) -> list[str]:
        return [self.command, self.path]


def _affine(matrix, offset=None) -> dict:
    matrix = np.asarray(matrix, dtype=float)
    if offset is None:
        offset = np.zeros(matrix.shape[0])
    return {"matrix": matrix.tolist(), "offset": [float(x) for x in offset]}


def _leaf(*maps) -> dict:
    return {"leaf": list(maps)}


def _product(normal: dict, quotient: dict) -> dict:
    return {"product": {"normal": normal, "quotient": quotient}}


def _cyclic_shift(d: int) -> dict:
    return _affine(np.roll(np.eye(d), 1, axis=0))


def _options(**overrides) -> dict:
    opts = {"tol": TOL, "n_max": DEEP, "word_budget": 6, "seed": 0, "mode": "cross-check"}
    opts.update(overrides)
    return opts


def _cube_vertices(d: int) -> list:
    corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * d, indexing="ij")).reshape(d, -1).T
    return corners.tolist()


def check_cube(seed: int, root: pathlib.Path) -> list[Problem]:
    """Hyperoctahedral trees over [-1,1]^d: a coordinate permutation and -I."""
    rng = np.random.default_rng(seed)
    problems = []
    for d in CUBE_DIMS:
        sigma = _affine(np.eye(d)[rng.permutation(d)])
        negate = _affine(-np.eye(d))
        K = {"vertices": _cube_vertices(d)}
        trees = {"leaf": _leaf(sigma, negate), "product": _product(_leaf(negate), _leaf(sigma))}
        for shape, tree in trees.items():
            data = {
                "kind": "structure-check",
                "options": _options(),
                "payload": {"semigroup": tree, "polytope": K},
            }
            problems.append(Problem(f"cube-d{d}-{shape}", "check", data, d == CUBE_DIMS[-1]))
    return problems


def solve_simplex(seed: int, root: pathlib.Path) -> list[Problem]:
    """Cyclic shift on the standard simplex from a seeded vertex, plus the corpus."""
    rng = np.random.default_rng(seed)
    problems = []
    for d in SIMPLEX_DIMS:
        start = np.eye(d)[rng.integers(d)]
        data = {
            "kind": "fixed-point",
            "options": _options(),
            "payload": {
                "semigroup": _leaf(_cyclic_shift(d)),
                "polytope": {"vertices": np.eye(d).tolist()},
                "start": start.tolist(),
            },
        }
        problems.append(Problem(f"simplex-d{d}", "solve", data, d == SIMPLEX_DIMS[-1]))
    return problems + _corpus(root, "solve", "solve")


def extend_ball(seed: int, root: pathlib.Path) -> list[Problem]:
    """Extend g from span(1) invariantly under C_n, for l-infinity and l1 norms."""
    rng = np.random.default_rng(seed)
    problems = []
    for norm, dims in (("max-abs", LINF_DIMS), ("sum-abs", L1_DIMS)):
        for n in dims:
            g1 = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))
            data = {
                "kind": "extension",
                "options": _options(),
                "payload": {
                    "dim": n,
                    "norm": norm,
                    "subspace_basis": [[1.0] * n],
                    "functional_on_subspace": [g1],
                    "operators": _leaf(_cyclic_shift(n)),
                },
            }
            problems.append(Problem(f"{norm}-n{n}", "extend", data, n == dims[-1]))
    return problems + _corpus(root, "extension", "extend")


def fip_simplex(seed: int, root: pathlib.Path) -> list[Problem]:
    """Sampled image intersection for C_d on the simplex (see FIP_FIXED_STREAM)."""
    seeded = np.random.default_rng(seed)
    problems = []
    for d, count in FIP_COUNTS.items():
        rng = np.random.default_rng([FIP_FIXED_STREAM, d]) if d >= FIP_FIXED_DIM else seeded
        for i in range(count):
            data = {
                "kind": "fip-check",
                "options": _options(word_budget=FIP_WORD_BUDGET, seed=int(rng.integers(2**31))),
                "payload": {
                    "semigroup": _leaf(_cyclic_shift(d)),
                    "polytope": {"vertices": np.eye(d).tolist()},
                    "family": "cof",
                    "sample_count": FIP_SAMPLES,
                },
            }
            problems.append(Problem(f"fip-d{d}-{i}", "fip", data, d == max(FIP_COUNTS), True))
    return problems + _corpus(root, "fip", "fip")


def _corpus(root: pathlib.Path, folder: str, command: str) -> list[Problem]:
    files = sorted((root / "fixtures" / folder).glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no corpus fixtures under {root / 'fixtures' / folder}")
    return [
        Problem(f"corpus-{f.stem}", command, json.loads(f.read_text(encoding="utf-8")))
        for f in files
    ]


WORKLOADS = {
    "check-cube": check_cube,
    "solve-simplex": solve_simplex,
    "extend-ball": extend_ball,
    "fip-simplex": fip_simplex,
}


def generate(name: str, seed: int, root: pathlib.Path, workdir: pathlib.Path) -> list[Problem]:
    """Build the workload's problems and write one file per problem into workdir."""
    problems = WORKLOADS[name](seed, root)
    workdir.mkdir(parents=True, exist_ok=True)
    for p in problems:
        path = workdir / f"{p.id}.json"
        path.write_text(json.dumps(p.data), encoding="utf-8")
        p.path = str(path)
    return problems
