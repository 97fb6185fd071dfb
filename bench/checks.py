"""Correctness checks for CLI reports, recomputed from the input files.

Only plain numpy is used here (no qstrassen checker), so a defect in the
package's own verification cannot hide a wrong answer. Each check returns
None when the report is correct, an ``Uncertified`` reason when a decision
is left open by the report's own bounds, otherwise a one-line reason.
"""

from __future__ import annotations

import json

import numpy as np

PSD_TOL = 1e-9
LEAK_TOL = 1e-7
MEMBER_TOL = 1e-8
LADDER_MONO_TOL = 2e-6
# A `check` verdict as a bool; the strings are the three-valued form.
VERDICTS = {True: True, False: False, "coupling": True, "no_coupling": False, "undecided": None}


class Uncertified(str):
    """Reason for a no-coupling or undecided answer whose dual bound is >= 1 - eps.

    Nothing in such a report refutes a coupling, so the answer is not a
    correct no-coupling answer; it is counted on its own, not as a failure.
    """


def mat(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def load_input(path: str) -> dict:
    """Matrices of a problem file as numpy arrays, plus its metadata."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    out = {"dims": tuple(obj["dims"]), "meta": obj.get("metadata", {})}
    for key in ("rho1", "rho2", "beta", "rho1_b", "rho2_b"):
        if key in obj:
            out[key] = mat(obj[key])
    if "basis" in obj:
        out["basis"] = mat(obj["basis"]).T
    return out


def ptrace2(m, d1, d2):
    return np.trace(m.reshape(d1, d2, d1, d2), axis1=1, axis2=3)


def ptrace1(m, d1, d2):
    return np.trace(m.reshape(d1, d2, d1, d2), axis1=0, axis2=2)


def herm(m):
    return 0.5 * (m + m.conj().T)


def tnorm(m) -> float:
    return float(np.abs(np.linalg.eigvalsh(herm(m))).sum())


def marginal_error(m, inp) -> float:
    d1, d2 = inp["dims"]
    return tnorm(ptrace2(m, d1, d2) - inp["rho1"]) + tnorm(ptrace1(m, d1, d2) - inp["rho2"])


def min_eig(m) -> float:
    return float(np.linalg.eigvalsh(herm(m))[0])


def _check(rep: dict, inp: dict) -> str | None:
    eps = rep["config"]["eps_decision"]
    sol = rep["solution"]
    if sol["status"] != "optimal":
        return f"status {sol['status']}"
    verdict = VERDICTS[rep["verdict"]]
    if verdict is not True and not sol["dual_value"] < 1.0 - eps:
        return Uncertified(f"verdict {rep['verdict']} with dual bound {sol['dual_value']!r} >= 1 - eps")
    feasible = bool(inp["meta"]["feasible"])
    if verdict != feasible:
        return f"verdict {rep['verdict']} but the instance is generated feasible={feasible}"
    if not verdict:
        return None
    cert = mat(rep["certificate"])
    if min_eig(cert) < -PSD_TOL:
        return f"certificate not PSD: min eigenvalue {min_eig(cert):.3e}"
    b = inp["basis"]
    off = np.eye(b.shape[0]) - b @ b.conj().T
    leak = tnorm(off @ cert @ off)
    if leak > LEAK_TOL:
        return f"certificate leaks {leak:.3e} outside span(basis)"
    err = marginal_error(cert, inp)
    if err > 10.0 * eps:
        return f"certificate marginal error {err:.3e} > 10 eps"
    return None


def _mu(rep: dict, inp: dict) -> str | None:
    sol = rep["solution"]
    eps = rep["config"]["eps_decision"]
    if sol["status"] != "optimal":
        return f"status {sol['status']}"
    lo, hi = sol["primal_value"], sol["dual_value"]
    if not lo <= rep["value"] <= hi:
        return f"value {rep['value']!r} outside [{lo!r}, {hi!r}]"
    if not rep["duality"]["passed"]:
        return "duality report did not pass"
    if inp["meta"]["feasible"] and rep["value"] < 1.0 - eps:
        return f"feasible instance with mu {rep['value']!r} < 1 - eps"
    if not inp["meta"]["feasible"] and hi >= 1.0 - eps:
        return f"infeasible instance with dual bound {hi!r} >= 1 - eps"
    return None


def _ladder_f(rep: dict, inp: dict) -> str | None:
    if rep["verdict"] != "coupling_exists":
        return f"verdict {rep['verdict']}"
    values = [lv["value"] for lv in rep["levels"]]
    for a, b in zip(values, values[1:]):
        if b > a + LADDER_MONO_TOL:
            return f"f-levels increase: {a!r} -> {b!r}"
    for lv in rep["levels"]:
        if lv["lower_bound"] > lv["value"] + 1e-12:
            return f"level {lv['level']}: lower bound above value"
    return None


def _ladder_sdp(rep: dict, inp: dict) -> str | None:
    if rep["verdict"] != "coupling_exists":
        return f"verdict {rep['verdict']}"
    top = rep["levels"][-1]
    if top["value"] < 1.0 - rep["eps_decision"]:
        return f"top level value {top['value']!r} < 1 - eps"
    for lv in rep["levels"]:
        if lv["value"] > lv["dual_value"] + 1e-9:
            return f"level {lv['level']}: value above dual bound"
    return None


def _fiber_dist(rep: dict, inp: dict) -> str | None:
    if rep["mode"] == "semidistance":
        floor = 0.5 * (tnorm(inp["rho1"] - inp["rho1_b"]) + tnorm(inp["rho2"] - inp["rho2_b"]))
        if abs(floor - rep["marginal_floor"]) > 1e-9:
            return f"marginal floor {rep['marginal_floor']!r}, recomputed {floor!r}"
        if rep["bound"] < rep["marginal_floor"]:
            return "semidistance bound below the marginal floor"
        if len(rep["sample_bounds"]) != rep["samples"]:
            return "sample count mismatch"
        return None
    if rep["status"] != "optimal":
        return f"status {rep['status']}"
    gap_tol = rep["config"]["gap_tol"]
    if rep["lower_bound"] > rep["distance"]:
        return "lower bound above distance"
    if rep["gap"] > gap_tol:
        return f"gap {rep['gap']:.3e} > gap_tol"
    member = mat(rep["nearest_member"])
    if min_eig(member) < -PSD_TOL:
        return "nearest member not PSD"
    if marginal_error(member, inp) > MEMBER_TOL:
        return f"nearest member marginal error {marginal_error(member, inp):.3e}"
    dist = float(np.abs(np.linalg.eigvalsh(herm(inp["beta"] - member))).sum())
    if abs(dist - rep["distance"]) > MEMBER_TOL:
        return f"distance {rep['distance']!r}, recomputed {dist!r}"
    return None


_CHECKS = {
    "check": _check,
    "mu": _mu,
    "ladder-f": _ladder_f,
    "ladder-sdp": _ladder_sdp,
    "fiber-dist": _fiber_dist,
}


def check_op(command: str, files: list, inputs: list, code, text: str, error=None) -> str | None:
    """Reason the operation failed (or is uncertified), or None.

    ``code`` is the CLI exit code and ``error`` an exception the call raised.
    Exit code 2 (undecided) is accepted only when a report in the output is
    an uncertified answer.
    """
    if error:
        return error
    if code not in (0, 2):
        return f"exit code {code}"
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"unparsable output: {exc}"
    reports = [rep] if len(files) == 1 else [rep.get(path) for path in files]
    open_answer = None
    for path, one, inp in zip(files, reports, inputs):
        if one is None:
            return f"no report for {path}"
        try:
            reason = _CHECKS[command](one, inp)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"{path}: report of unexpected shape ({type(exc).__name__}: {exc})"
        if isinstance(reason, Uncertified):
            open_answer = open_answer or Uncertified(f"{path}: {reason}")
        elif reason is not None:
            return f"{path}: {reason}"
    if open_answer is None and code != 0:
        return f"exit code {code}"
    return open_answer


def signature(text: str) -> str:
    """Verdicts, statuses and iteration counts of a report, for trace integrity."""
    try:
        rep = json.loads(text)
    except json.JSONDecodeError:
        return text

    def pick(r):
        if "solution" in r:
            return [r.get("verdict"), r["solution"]["status"], r["solution"]["iterations"]]
        if "levels" in r:
            return [r["verdict"], [lv["status"] for lv in r["levels"]]]
        if r["mode"] == "distance":
            return [r["status"], r["iterations"]]
        return [r["bound"], r["sample_bounds"]]

    try:
        if "command" in rep:
            return json.dumps(pick(rep))
        return json.dumps({path: pick(r) for path, r in sorted(rep.items())})
    except (KeyError, TypeError, AttributeError):
        return text  # not a report of a known shape; check_op reports why
