"""Independent checks of CLI reports, using numpy and scipy's HiGHS only.

Nothing here imports fixmk: every quantity is recomputed from the problem
file the benchmark wrote and the JSON report the CLI printed.  Each check
returns ``None`` when the report is right, or a one-line reason.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _generators(tree: dict) -> list[tuple[np.ndarray, np.ndarray]]:
    """All maps of a tree, normal factor first, as the CLI labels them."""
    if "leaf" in tree:
        return [(np.array(g["matrix"]), np.array(g["offset"])) for g in tree["leaf"]]
    inner = tree["product"]
    return _generators(inner["normal"]) + _generators(inner["quotient"])


def hull_gaps(Vs: list[np.ndarray], x: np.ndarray) -> list[float]:
    """Max-abs distance from x to conv(rows of V) for each V, certified by HiGHS weights.

    One HiGHS program minimizes t over convex weights lam_j per hull with
    |V_j^T lam_j - x| <= t; each gap is then recomputed in numpy from the
    returned weights, so a loose solve can only overstate it.
    """
    sizes = [V.shape[0] for V in Vs]
    d, n = x.shape[0], sum(sizes)
    A_ub = np.zeros((2 * d * len(Vs), n + 1))
    A_eq = np.zeros((len(Vs), n + 1))
    A_ub[:, -1] = -1.0
    col = 0
    for j, V in enumerate(Vs):
        rows = slice(2 * d * j, 2 * d * (j + 1))
        A_ub[rows, col : col + V.shape[0]] = np.vstack([V.T, -V.T])
        A_eq[j, col : col + V.shape[0]] = 1.0
        col += V.shape[0]
    b_ub = np.tile(np.concatenate([x, -x]), len(Vs))
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=np.ones(len(Vs)),
                  bounds=(0, None), method="highs", options=_HIGHS)
    if res.status != 0:
        return [np.inf] * len(Vs)
    gaps, col = [], 0
    for V in Vs:
        lam = np.clip(res.x[col : col + V.shape[0]], 0.0, None)
        col += V.shape[0]
        gaps.append(float(np.max(np.abs(V.T @ (lam / lam.sum()) - x))))
    return gaps


def _check_status(report: dict) -> str | None:
    if report.get("status") != "ok":
        return f"status {report.get('status')!r} on a valid input"
    return None


def check_check(data: dict, report: dict) -> str | None:
    if not report["result"]["validation"]["ok"]:
        return "validation failed on a valid tree"
    return None


def check_solve(data: dict, report: dict) -> str | None:
    tol = data["options"]["tol"]
    payload = data["payload"]
    p = np.array(report["result"]["point"])
    for i, (M, b) in enumerate(_generators(payload["semigroup"])):
        r = float(np.max(np.abs(M @ p + b - p)))
        if r > tol:
            return f"generator g{i} residual {r:.3e} > tol {tol:.1e}"
    (gap,) = hull_gaps([np.array(payload["polytope"]["vertices"])], p)
    if gap > tol:
        return f"point lies {gap:.3e} outside K"
    return None


def _words(gens, budget: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Distinct products w.g up to the word length, breadth first, identity first.

    Mirrors the documented enumeration order, which fixes how the sampled
    Dirichlet weights pair with words.
    """
    d = gens[0][0].shape[0]
    words = [(np.eye(d), np.zeros(d))]
    frontier = list(words)
    for _ in range(budget):
        fresh = []
        for W, w in frontier:
            for G, g in gens:
                cand = (W @ G, W @ g + w)
                if any(max(np.abs(cand[0] - A).max(), np.abs(cand[1] - a).max()) <= 1e-10
                       for A, a in words):
                    continue
                words.append(cand)
                fresh.append(cand)
        if not fresh:
            break
        frontier = fresh
    return words


def _mix(words, weights):
    return (sum(w * W for w, (W, _) in zip(weights, words)),
            sum(w * b for w, (_, b) in zip(weights, words)))


def sampled_maps(tree: dict, family: str, count: int, seed: int, budget: int):
    """The random convex combinations a fip check with this seed draws."""
    rng = np.random.default_rng(seed)
    if family == "cof":
        words = _words(_generators(tree), budget)
        return [_mix(words, rng.dirichlet(np.ones(len(words)))) for _ in range(count)]
    hw = _words(_generators(tree["product"]["normal"]), budget)
    qw = _words(_generators(tree["product"]["quotient"]), budget)
    out = []
    for _ in range(count):
        H, h = _mix(hw, rng.dirichlet(np.ones(len(hw))))
        Q, q = _mix(qw, rng.dirichlet(np.ones(len(qw))))
        out.append((H @ Q, H @ q + h))
    return out


def check_fip(data: dict, report: dict) -> str | None:
    opts, payload = data["options"], data["payload"]
    fip = report["result"]["fip"]
    if not fip["feasible"] or fip["witness"] is None:
        return "no witness on a valid tree"
    x = np.array(fip["witness"])
    V = np.array(payload["polytope"]["vertices"])
    maps = sampled_maps(payload["semigroup"], payload["family"], payload["sample_count"],
                        opts["seed"], opts["word_budget"])
    gaps = hull_gaps([V @ M.T + b for M, b in maps], x)
    for j, gap in enumerate(gaps):
        if gap > opts["tol"]:
            return f"witness lies {gap:.3e} outside sampled image {j}"
    return None


def subspace_norm(Y: np.ndarray, g: np.ndarray, norm: str) -> float:
    """max g.t over t with ||Y^T t|| <= 1, solved by HiGHS."""
    k, n = Y.shape
    if norm == "max-abs":
        c = -g
        A_ub = np.vstack([Y.T, -Y.T])
        b_ub = np.ones(2 * n)
        bounds = [(None, None)] * k
    else:  # u >= |Y^T t|, sum u <= 1
        c = np.concatenate([-g, np.zeros(n)])
        eye = np.eye(n)
        A_ub = np.vstack([
            np.hstack([Y.T, -eye]),
            np.hstack([-Y.T, -eye]),
            np.concatenate([np.zeros(k), np.ones(n)])[None, :],
        ])
        b_ub = np.concatenate([np.zeros(2 * n), [1.0]])
        bounds = [(None, None)] * k + [(0, None)] * n
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs", options=_HIGHS)
    if res.status != 0:
        return np.nan
    return float(-res.fun)


def check_extend(data: dict, report: dict) -> str | None:
    tol = data["options"]["tol"]
    payload = data["payload"]
    G = np.array(report["result"]["functional"])
    Y = np.array(payload["subspace_basis"])
    g = np.array(payload["functional_on_subspace"])
    restriction = float(np.max(np.abs(Y @ G - g)))
    if restriction > tol:
        return f"restriction residual {restriction:.3e} > tol {tol:.1e}"
    for i, (M, _) in enumerate(_generators(payload["operators"])):
        r = float(np.max(np.abs(M.T @ G - G)))
        if r > tol:
            return f"operator g{i} moves the extension by {r:.3e}"
    dual = float(np.sum(np.abs(G)) if payload["norm"] == "max-abs" else np.max(np.abs(G)))
    reference = subspace_norm(Y, g, payload["norm"])
    if not abs(dual - reference) <= tol:
        return f"dual norm {dual:.12f} differs from subspace norm {reference:.12f}"
    return None


_BY_COMMAND = {"check": check_check, "solve": check_solve, "fip": check_fip, "extend": check_extend}


def check(command: str, data: dict, report: dict) -> str | None:
    """Reason the report is wrong for this problem, or None when it is right."""
    return _check_status(report) or _BY_COMMAND[command](data, report)
