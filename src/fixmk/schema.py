"""Strict JSON schema for problem files and machine-readable reports.

One schema for everything: vectors are flat arrays, matrices are row-major
arrays of rows, semigroup trees are nested ``{"leaf": [...]}`` /
``{"product": {"normal": ..., "quotient": ...}}`` objects.  Unknown fields
are rejected so typos fail loudly.  Serialization is canonical (sorted
keys, two-space indent, trailing newline): parsing a canonical file and
serializing it back is byte-identical, which keeps fixtures diffable.

There is one encoding rule.  A report is the library's result dataclass
through :func:`dataclasses.asdict`, so its keys are the field names, and
:func:`dumps_canonical` writes numpy arrays as nested lists and numpy
scalars as plain numbers.  Problem files follow the same rule for
``Options``, ``Polytope`` and ``AffineMap``; only the tree encoding and the
payload key names are written by hand.

Parsing also checks that the fields agree in shape (matrices, offsets,
leaves, products, polytope, start, functional values, operators), and a
mismatch is a :class:`SchemaError` naming the field.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import DimensionMismatchError, SchemaError
from .extension import ExtensionProblem
from .geometry import AffineMap, NormKind, NormSpec, Polytope, as_matrix, as_vector
from .semigroup import DEFAULT_WORD_BUDGET, Leaf, Product, SemigroupNode
from .solver import DEFAULT_N_MAX, DEFAULT_TOL

KIND_FIXED_POINT = "fixed-point"
KIND_STRUCTURE_CHECK = "structure-check"
KIND_FIP_CHECK = "fip-check"
KIND_EXTENSION = "extension"
KINDS = (KIND_FIXED_POINT, KIND_STRUCTURE_CHECK, KIND_FIP_CHECK, KIND_EXTENSION)

MODES = ("exact", "cesaro", "cross-check")
FAMILIES = ("cof", "coh-coq")

_NORM_NAMES = {"max-abs": NormKind.MAX_ABS, "sum-abs": NormKind.SUM_ABS}


@dataclass
class Options:
    tol: float = DEFAULT_TOL
    n_max: int = DEFAULT_N_MAX
    word_budget: int = DEFAULT_WORD_BUDGET
    seed: int = 0
    mode: str = "cross-check"


OPTION_NAMES = tuple(f.name for f in fields(Options))


@dataclass
class SolvePayload:
    node: SemigroupNode
    polytope: Polytope
    start: np.ndarray | None = None


@dataclass
class CheckPayload:
    node: SemigroupNode
    polytope: Polytope


@dataclass
class FipPayload:
    node: SemigroupNode
    polytope: Polytope
    family: str
    sample_count: int


@dataclass
class ExtensionPayload:
    problem: ExtensionProblem


@dataclass
class ProblemFile:
    kind: str
    payload: SolvePayload | CheckPayload | FipPayload | ExtensionPayload
    options: Options = field(default_factory=Options)


# ---------------------------------------------------------------------------
# parsing


def _check_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"{path}: unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}: missing field {key!r}")


def _number(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):  # also JSON NaN, Infinity and -Infinity
        raise SchemaError(f"{path}: expected a finite number")
    return number


def _integer(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer")
    return value


def _vector(value, path) -> np.ndarray:
    """A nonempty JSON array of finite numbers, as a float array.

    The entry types are checked in one pass (``type`` is exact, so ``bool``
    fails it) and the list is converted in one call.  Only a list that this
    rejects, by a wrong type, an integer beyond the float range or a
    non-finite number, is walked with :func:`_number`, which names the
    first bad entry.
    """
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{path}: expected a nonempty array of numbers")
    if all(type(x) is int or type(x) is float for x in value):
        try:
            array = np.array(value, dtype=float)
        except OverflowError:
            pass
        else:
            if np.isfinite(array).all():
                return array
    return np.array([_number(x, f"{path}[{i}]") for i, x in enumerate(value)])


def _matrix(value, path) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{path}: expected a nonempty array of rows")
    rows = [_vector(row, f"{path}[{i}]") for i, row in enumerate(value)]
    width = rows[0].shape[0]
    if any(r.shape[0] != width for r in rows):
        raise SchemaError(f"{path}: ragged rows")
    return np.array(rows)


def _shaped(path, build, *args, **kwargs):
    """build(...), with its DimensionMismatchError as a SchemaError naming path."""
    try:
        return build(*args, **kwargs)
    except DimensionMismatchError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _affine_map(value, path) -> AffineMap:
    _check_keys(value, path, required=("matrix", "offset"))
    matrix = _shaped(f"{path}.matrix", as_matrix, _matrix(value["matrix"], f"{path}.matrix"))
    return _shaped(f"{path}.offset", AffineMap, matrix, _vector(value["offset"], f"{path}.offset"))


def _tree(value, path) -> SemigroupNode:
    if not isinstance(value, dict) or len(value) != 1:
        raise SchemaError(f"{path}: expected exactly one of 'leaf' or 'product'")
    if "leaf" in value:
        gens = value["leaf"]
        if not isinstance(gens, list) or not gens:
            raise SchemaError(f"{path}.leaf: expected a nonempty array of maps")
        maps = tuple(_affine_map(g, f"{path}.leaf[{i}]") for i, g in enumerate(gens))
        return _shaped(f"{path}.leaf", Leaf, maps)
    if "product" in value:
        inner = value["product"]
        _check_keys(inner, f"{path}.product", required=("normal", "quotient"))
        return _shaped(
            f"{path}.product", Product,
            _tree(inner["normal"], f"{path}.product.normal"),
            _tree(inner["quotient"], f"{path}.product.quotient"),
        )
    raise SchemaError(f"{path}: expected exactly one of 'leaf' or 'product'")


def _polytope(value, path, dim) -> Polytope:
    _check_keys(value, path, required=("vertices",))
    K = Polytope(_matrix(value["vertices"], f"{path}.vertices"))
    if K.dim != dim:
        raise SchemaError(f"{path}.vertices: expected rows of length {dim}")
    return K


def _norm(value, path, dim) -> NormSpec:
    if value not in _NORM_NAMES:
        raise SchemaError(f"{path}: expected one of {sorted(_NORM_NAMES)}")
    return NormSpec(_NORM_NAMES[value], dim)


def _at_least(value, low, path) -> int:
    if _integer(value, path) < low:
        raise SchemaError(f"{path}: expected an integer >= {low}")
    return value


def option_value(name: str, value, path: str):
    """Type- and range-check one option; problem files and CLI flags share it.

    tol is a finite number > 0, n_max and word_budget are integers >= 1, the
    seed is an integer >= 0 (numpy's seeding needs that) and mode one of
    MODES.  Raises :class:`SchemaError` naming path.
    """
    if name == "tol":
        tol = _number(value, path)
        if not tol > 0:
            raise SchemaError(f"{path}: expected a finite number > 0")
        return tol
    if name == "mode":
        if value not in MODES:
            raise SchemaError(f"{path}: expected one of {MODES}")
        return value
    return _at_least(value, 0 if name == "seed" else 1, path)


def _options(value, path) -> Options:
    opts = Options()
    if value is None:
        return opts
    _check_keys(value, path, required=(), optional=OPTION_NAMES)
    for name in OPTION_NAMES:
        if name in value:
            setattr(opts, name, option_value(name, value[name], f"{path}.{name}"))
    return opts


def parse_problem(data) -> ProblemFile:
    _check_keys(data, "$", required=("kind", "payload"), optional=("options",))
    kind = data["kind"]
    if kind not in KINDS:
        raise SchemaError(f"$.kind: expected one of {KINDS}")
    options = _options(data.get("options"), "$.options")
    payload = data["payload"]

    if kind == KIND_FIXED_POINT:
        _check_keys(payload, "$.payload", required=("semigroup", "polytope"), optional=("start",))
        node = _tree(payload["semigroup"], "$.payload.semigroup")
        K = _polytope(payload["polytope"], "$.payload.polytope", node.dim)
        start = _vector(payload["start"], "$.payload.start") if "start" in payload else None
        if start is not None:
            _shaped("$.payload.start", as_vector, start, node.dim)  # the length check
        parsed = SolvePayload(node, K, start)
    elif kind == KIND_STRUCTURE_CHECK:
        _check_keys(payload, "$.payload", required=("semigroup", "polytope"))
        node = _tree(payload["semigroup"], "$.payload.semigroup")
        parsed = CheckPayload(node, _polytope(payload["polytope"], "$.payload.polytope", node.dim))
    elif kind == KIND_FIP_CHECK:
        _check_keys(
            payload, "$.payload",
            required=("semigroup", "polytope", "family", "sample_count"),
        )
        family = payload["family"]
        if family not in FAMILIES:
            raise SchemaError(f"$.payload.family: expected one of {FAMILIES}")
        node = _tree(payload["semigroup"], "$.payload.semigroup")
        if family == "coh-coq" and isinstance(node, Leaf):
            raise SchemaError("$.payload.family: 'coh-coq' needs a product semigroup")
        parsed = FipPayload(
            node,
            _polytope(payload["polytope"], "$.payload.polytope", node.dim),
            family,
            _at_least(payload["sample_count"], 2, "$.payload.sample_count"),
        )
    else:
        _check_keys(
            payload, "$.payload",
            required=("dim", "norm", "subspace_basis", "functional_on_subspace", "operators"),
        )
        dim = _at_least(payload["dim"], 1, "$.payload.dim")
        norm = _norm(payload["norm"], "$.payload.norm", dim)
        basis = _matrix(payload["subspace_basis"], "$.payload.subspace_basis")
        if basis.shape[1] != dim:
            raise SchemaError(f"$.payload.subspace_basis: expected rows of length {dim}")
        problem = _shaped(
            "$.payload", ExtensionProblem,
            dim=dim,
            norm=norm,
            subspace_basis=basis,
            functional_on_subspace=_vector(
                payload["functional_on_subspace"], "$.payload.functional_on_subspace"
            ),
            operators=_tree(payload["operators"], "$.payload.operators"),
        )
        parsed = ExtensionPayload(problem)
    return ProblemFile(kind, parsed, options)


def load_problem(path) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    try:
        return parse_problem(data)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# serialization


def _tree_out(node: SemigroupNode) -> dict:
    if isinstance(node, Leaf):
        return {"leaf": [asdict(g) for g in node.generators]}
    return {"product": {"normal": _tree_out(node.normal), "quotient": _tree_out(node.quotient)}}


def problem_to_dict(pf: ProblemFile) -> dict:
    p = pf.payload
    if isinstance(p, ExtensionPayload):
        prob = p.problem
        payload = {
            "dim": prob.dim,
            "norm": prob.norm.kind.value,
            "subspace_basis": prob.subspace_basis,
            "functional_on_subspace": prob.functional_on_subspace,
            "operators": _tree_out(prob.operators),
        }
    else:
        payload = {"semigroup": _tree_out(p.node), "polytope": asdict(p.polytope)}
        if isinstance(p, FipPayload):
            payload.update(family=p.family, sample_count=p.sample_count)
        elif isinstance(p, SolvePayload) and p.start is not None:
            payload["start"] = p.start
    return {"kind": pf.kind, "payload": payload, "options": asdict(pf.options)}


def _plain(obj):
    """JSON form of the numpy values that dataclass fields hold."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps_canonical(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True, default=_plain) + "\n"


def serialize_problem(pf: ProblemFile) -> str:
    return dumps_canonical(problem_to_dict(pf))
