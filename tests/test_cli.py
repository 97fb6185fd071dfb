"""End-to-end tests of the command-line layer.

Covers the canonical JSON encoding (bitwise round trips), the problem-file
codecs and their rejection messages, generator determinism, every runner
through ``main`` with its exit-code contract, and the output plumbing
(json/csv, --out, multi-file batch runs).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qstrassen
from qstrassen import cli
from qstrassen.cli import (
    CliError,
    FORMAT_VERSION,
    canonical_dumps,
    config_to_dict,
    generate_instance,
    load_problem,
    main,
    mat_to_pairs,
    pairs_to_mat,
    pairs_to_vec,
    problem_from_dict,
    report_to_csv,
    save_problem,
    vec_to_pairs,
    _parse_dims,
)
from qstrassen.linalg import EigendecompositionError
from qstrassen.sdp import DEFAULT_CONFIG


def bell_pairs():
    s = 1.0 / math.sqrt(2.0)
    return [[s, 0.0], [0.0, 0.0], [0.0, 0.0], [s, 0.0]]


def eye_pairs(d, scale=1.0):
    return mat_to_pairs(np.eye(d) * scale)


def coupling_file(**overrides):
    obj = {
        "version": FORMAT_VERSION,
        "kind": "coupling",
        "dims": [2, 2],
        "config": config_to_dict(DEFAULT_CONFIG),
        "seed": 0,
        "metadata": {},
        "rho1": eye_pairs(2, 0.5),
        "rho2": eye_pairs(2, 0.5),
        "basis": [bell_pairs()],
    }
    obj.update(overrides)
    return obj


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(canonical_dumps(obj) + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# canonical JSON


def test_canonical_dumps_round_trip_is_bitwise_stable():
    obj = {
        "b": [1.0, 0.1, -2.5e-17, 3],
        "a": {"nested": True, "x": None, "s": "text"},
        "z": -0.0,
    }
    text = canonical_dumps(obj)
    assert canonical_dumps(json.loads(text)) == text


def test_canonical_dumps_formatting():
    assert canonical_dumps(-0.0) == "0"
    assert canonical_dumps(0.1) == "0.10000000000000001"
    assert canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    assert canonical_dumps([True, False, None]) == "[true,false,null]"
    assert canonical_dumps(np.float64(0.5)) == "0.5"
    assert canonical_dumps(np.int64(7)) == "7"


def test_canonical_dumps_rejects_bad_values():
    with pytest.raises(CliError, match="non-finite"):
        canonical_dumps(float("nan"))
    with pytest.raises(CliError, match="non-finite"):
        canonical_dumps(float("inf"))
    with pytest.raises(CliError, match="non-string key"):
        canonical_dumps({1: "x"})
    with pytest.raises(CliError, match="cannot serialize"):
        canonical_dumps({"a": object()})


# ---------------------------------------------------------------------------
# matrix codecs


def test_matrix_codec_round_trip_is_exact():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert np.array_equal(pairs_to_mat(mat_to_pairs(m), 3, 4, "m"), m)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert np.array_equal(pairs_to_vec(vec_to_pairs(v), 5, "v"), v)


def test_codec_rejections():
    with pytest.raises(CliError, match=r"\[re, im\] pair"):
        pairs_to_vec([[1.0, 2.0, 3.0]], 1, "v")
    with pytest.raises(CliError, match=r"\[re, im\] pair"):
        pairs_to_vec([[1.0, True]], 1, "v")
    for cell in ([float("nan"), 0.0], [0.0, float("-inf")]):
        with pytest.raises(CliError, match="non-finite entry"):
            pairs_to_vec([cell], 1, "v")
    with pytest.raises(CliError, match="expected a vector of length 2"):
        pairs_to_vec([[1.0, 0.0]], 2, "v")
    with pytest.raises(CliError, match="expected 2 rows"):
        pairs_to_mat([[[1.0, 0.0]]], 2, 1, "m")
    with pytest.raises(CliError, match="row 0 must have 2 entries"):
        pairs_to_mat([[[1.0, 0.0]], [[1.0, 0.0]]], 2, 2, "m")


# ---------------------------------------------------------------------------
# problem files


def test_problem_round_trip_through_disk(tmp_path):
    obj = coupling_file()
    path = write_json(tmp_path, "prob.json", obj)
    prob = load_problem(path)
    assert prob.kind == "coupling"
    assert prob.d1 == 2 and prob.d2 == 2
    assert np.allclose(prob.rho1, np.eye(2) / 2)
    assert prob.basis.shape == (4, 1)
    # rewriting the parsed file must reproduce it bitwise
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    assert canonical_dumps(json.loads(text)) + "\n" == text


def test_problem_rejects_version_and_kind():
    with pytest.raises(CliError, match="version mismatch"):
        problem_from_dict(coupling_file(version="qstrassen/0"))
    with pytest.raises(CliError, match="unknown kind"):
        problem_from_dict(coupling_file(kind="banana"))
    with pytest.raises(CliError, match="top level"):
        problem_from_dict([1, 2, 3])


def test_problem_rejects_invariant_violations():
    bad_herm = coupling_file()
    bad_herm["rho1"][0][1] = [0.3, 0.0]
    with pytest.raises(CliError, match="not Hermitian"):
        problem_from_dict(bad_herm)
    with pytest.raises(CliError, match="not PSD"):
        problem_from_dict(coupling_file(rho1=mat_to_pairs(np.diag([0.8, -0.3])), rho2=eye_pairs(2, 0.25)))
    with pytest.raises(CliError, match="Sigma membership violated"):
        problem_from_dict(coupling_file(rho2=eye_pairs(2, 0.3)))
    with pytest.raises(CliError, match="not orthonormal"):
        problem_from_dict(coupling_file(basis=[[[0.9, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]))
    # Gram deviation 5e-10: above the Subspace tolerance 1e-10, so the loader
    # must reject it rather than hand a basis to a solver that will.
    with pytest.raises(CliError, match="not orthonormal within 1e-10"):
        problem_from_dict(coupling_file(basis=[[[math.sqrt(1.0 + 5e-10), 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]))
    with pytest.raises(CliError, match="dims must be a pair"):
        problem_from_dict(coupling_file(dims=[2]))
    with pytest.raises(CliError, match="missing required field"):
        problem_from_dict({k: v for k, v in coupling_file().items() if k != "rho1"})
    classical = {"version": FORMAT_VERSION, "kind": "classical", "dims": [2, 0],
                 "mu1": [0.5, 0.5], "mu2": [1.0], "edges": [[0, 0]]}
    with pytest.raises(CliError, match="dims must be a pair"):
        problem_from_dict(classical)
    fiber = coupling_file(kind="fiber_dist", rho1_b=eye_pairs(2, 0.5), rho2_b=eye_pairs(2, 0.3))
    with pytest.raises(CliError, match=r"\|tr rho1_b - tr rho2_b\|"):
        problem_from_dict(fiber)


def test_problem_config_and_seed_validation():
    with pytest.raises(CliError, match="unknown fields"):
        problem_from_dict(coupling_file(config={"gap_tol": 1e-6, "bogus": 1}))
    with pytest.raises(CliError, match="seed must be an integer"):
        problem_from_dict(coupling_file(seed="zero"))
    with pytest.raises(CliError, match="metadata must be an object"):
        problem_from_dict(coupling_file(metadata=[1]))
    with pytest.raises(CliError, match="config"):
        problem_from_dict(coupling_file(config={"gap_tol": -1.0}))


def test_ladder_problem_needs_n_max():
    obj = coupling_file(kind="f_ladder")
    obj.pop("n_max", None)
    with pytest.raises(CliError, match="positive integer n_max"):
        problem_from_dict(obj)


def test_fiber_problem_needs_target():
    obj = coupling_file(kind="fiber_dist")
    del obj["basis"]
    with pytest.raises(CliError, match="needs either beta or a second fiber"):
        problem_from_dict(obj)


def test_classical_problem_validation():
    obj = {
        "version": FORMAT_VERSION,
        "kind": "classical",
        "dims": [2, 2],
        "mu1": [0.5, 0.5],
        "mu2": [0.5, 0.5],
        "edges": [[0, 0], [1, 1]],
    }
    prob = problem_from_dict(obj)
    assert prob.kind == "classical"
    assert prob.instance.edges == {(0, 0), (1, 1)}
    bad = dict(obj)
    bad["edges"] = [[0, 0, 0]]
    with pytest.raises(CliError, match="integer pairs"):
        problem_from_dict(bad)
    for mu1 in ([0.4, 0.4], [float("nan"), 0.5]):
        bad = dict(obj)
        bad["mu1"] = mu1
        with pytest.raises(CliError, match="does not sum to 1"):
            problem_from_dict(bad)


# ---------------------------------------------------------------------------
# generators


def test_generators_are_deterministic_per_seed():
    for kind in ("coupling", "f_ladder", "sdp_ladder", "fiber_dist", "classical"):
        a = generate_instance({"kind": kind, "dims": (2, 2), "seed": 5})
        b = generate_instance({"kind": kind, "dims": (2, 2), "seed": 5})
        assert canonical_dumps(a) == canonical_dumps(b), kind
        c = generate_instance({"kind": kind, "dims": (2, 2), "seed": 6})
        assert canonical_dumps(a) != canonical_dumps(c), kind


def test_generated_instances_load_cleanly(tmp_path):
    for kind in ("coupling", "f_ladder", "sdp_ladder", "fiber_dist", "classical"):
        obj = generate_instance({"kind": kind, "dims": (2, 2), "seed": 1})
        path = write_json(tmp_path, f"{kind}.json", obj)
        prob = load_problem(path)
        assert prob.kind == kind


def test_generator_rejects_bad_specs():
    with pytest.raises(CliError, match="unknown generator kind"):
        generate_instance({"kind": "nope"})
    with pytest.raises(CliError, match="mixing weight"):
        generate_instance({"kind": "coupling", "dims": (2, 2), "mix": 1.5})
    with pytest.raises(CliError, match="decay"):
        generate_instance({"kind": "sdp_ladder", "dims": (2, 2), "decay": 1.0})
    with pytest.raises(CliError, match="needs n >= 2"):
        generate_instance({"kind": "classical", "dims": (3, 1), "feasible": False})


def test_infeasible_generator_marks_metadata():
    obj = generate_instance({"kind": "coupling", "dims": (2, 2), "seed": 2, "feasible": False})
    assert obj["metadata"]["feasible"] is False
    assert obj["metadata"]["mixing_weight"] == 0.2


# ---------------------------------------------------------------------------
# main: gen and run commands


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_gen_writes_deterministic_file(tmp_path, capsys):
    p1 = str(tmp_path / "a.json")
    p2 = str(tmp_path / "b.json")
    code1, _, _ = run_main(capsys, ["gen", "--kind", "coupling", "--dims", "2x2", "--seed", "3", "--out", p1])
    code2, _, _ = run_main(capsys, ["gen", "--kind", "coupling", "--dims", "2x2", "--seed", "3", "--out", p2])
    assert code1 == 0 and code2 == 0
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_main_gen_stdout(capsys):
    code, out, _ = run_main(capsys, ["gen", "--kind", "classical", "--dims", "2x3", "--seed", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "classical"
    assert obj["dims"] == [2, 3]


def test_main_check_feasible_handcrafted(tmp_path, capsys):
    path = write_json(tmp_path, "bell.json", coupling_file())
    code, out, _ = run_main(capsys, ["check", path])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "coupling"
    assert report["mu_value"] >= 1.0 - 1e-4
    assert report["certificate_marginal_error"] <= 1e-3
    assert report["kind"] == "coupling"
    assert "wall_time" in report["timings"]
    supported = report["supported"]
    threshold = 1.0 - report["config"]["eps_decision"]
    assert supported["status"] in ("optimal", "decided")
    assert supported["iterations"] >= 1
    assert supported["gap"] >= 0.0
    assert supported["dual"] < threshold or (
        supported["dual"] - supported["gap"] >= threshold
    )


def test_main_check_infeasible_generated(tmp_path, capsys):
    obj = generate_instance(
        {"kind": "coupling", "dims": (2, 2), "seed": 4, "feasible": False, "subspace_dim": 2}
    )
    path = write_json(tmp_path, "bad.json", obj)
    code, out, _ = run_main(capsys, ["check", path])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "no_coupling"
    assert "certificate" not in report
    # mu's dual bound already falls short of 1 - eps, so the supported solve
    # never runs
    assert report["solution"]["dual_value"] < 1.0 - report["config"]["eps_decision"]
    assert report["supported"] is None


def test_main_check_undecided_at_max_iters(tmp_path, capsys):
    # 7 Newton steps leave the mu bracket around 1 - eps: nothing refutes a
    # coupling and no certificate passes, so the run is undecided (exit 2),
    # not a no_coupling answer.
    path = str(tmp_path / "g.json")
    run_main(capsys, ["gen", "--kind", "coupling", "--dims", "3x3", "--seed", "7", "--out", path])
    code, out, _ = run_main(capsys, ["check", path, "--max-iters", "7"])
    report = json.loads(out)
    threshold = 1.0 - report["config"]["eps_decision"]
    assert report["solution"]["status"] == "max_iters"
    assert report["solution"]["dual_value"] >= threshold
    assert report["supported"]["dual"] >= threshold
    assert report["verdict"] == "undecided"
    assert "certificate" not in report
    assert code == 2


def test_main_check_supported_refutation_carries_its_dual_pair(tmp_path, capsys):
    # mu's dual (0.99996) does not refute a coupling here; the supported
    # solve's dual does, and the report carries that pair as a witness
    path = str(tmp_path / "g.json")
    run_main(capsys, ["gen", "--kind", "coupling", "--dims", "2x4", "--seed", "15",
                      "--infeasible", "--out", path])
    code, out, _ = run_main(capsys, ["check", path])
    report = json.loads(out)
    threshold = 1.0 - report["config"]["eps_decision"]
    assert code == 0
    assert report["verdict"] == "no_coupling"
    assert report["solution"]["dual_value"] >= threshold
    supported = report["supported"]
    assert supported["dual"] < threshold
    prob = load_problem(path)
    y1, y2 = (pairs_to_mat(y, d, d, "Y") for y, d in zip(supported["dual_pair"], (2, 4)))
    assert min(np.linalg.eigvalsh(y1)[0], np.linalg.eigvalsh(y2)[0]) >= -1e-9
    v = prob.basis
    adjoint = v.conj().T @ (np.kron(y1, np.eye(4)) + np.kron(np.eye(2), y2)) @ v
    assert np.linalg.eigvalsh(adjoint - np.eye(v.shape[1]))[0] >= -1e-9
    value = np.vdot(prob.rho1, y1).real + np.vdot(prob.rho2, y2).real
    assert abs(value - supported["dual"]) <= 1e-12


def test_main_closed_stdout_exits_one_without_traceback(tmp_path):
    # The reader closes the pipe before the child writes its report.
    path = write_json(tmp_path, "bell.json", coupling_file())
    src = str(Path(qstrassen.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "qstrassen.cli", "mu", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"Traceback" not in err


def test_main_mu_reports_duality_block(tmp_path, capsys):
    path = write_json(tmp_path, "bell.json", coupling_file())
    code, out, _ = run_main(capsys, ["mu", path])
    assert code == 0
    report = json.loads(out)
    assert report["duality"]["passed"] is True
    assert report["duality"]["trivial_feasible"] is True
    assert abs(report["value"] - 1.0) < 1e-4


def test_main_mu_exit_two_when_not_converged(tmp_path, capsys):
    obj = generate_instance({"kind": "coupling", "dims": (3, 3), "seed": 7, "subspace_dim": 4})
    path = write_json(tmp_path, "slow.json", obj)
    code, out, _ = run_main(capsys, ["mu", path, "--max-iters", "15"])
    assert code == 2
    report = json.loads(out)
    assert report["solution"]["status"] == "max_iters"


def test_main_ladder_f(tmp_path, capsys):
    obj = generate_instance({"kind": "f_ladder", "dims": (2, 2), "seed": 8})
    path = write_json(tmp_path, "lf.json", obj)
    code, out, _ = run_main(capsys, ["ladder-f", path])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "coupling_exists"
    values = [row["value"] for row in report["levels"]]
    assert all(values[i + 1] <= values[i] + 2e-6 for i in range(len(values) - 1))
    statuses = [row["status"] for row in report["levels"]]
    assert set(statuses) <= {"optimal", "decided"}
    assert "decided" in statuses  # levels below eps_decision stop there
    code, out, _ = run_main(capsys, ["ladder-f", path, "--format", "csv"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    status = rows[0].index("status")
    assert [row[status] for row in rows[1:]] == statuses


def test_main_ladder_f_truncated_chain_exits_undecided(tmp_path, capsys):
    e = np.eye(9)
    chain = [e[0], e[1], e[2], (e[4] + e[8]) / np.sqrt(2.0)]
    obj = coupling_file(
        kind="f_ladder",
        dims=[3, 3],
        rho1=eye_pairs(3, 1.0 / 3.0),
        rho2=eye_pairs(3, 1.0 / 3.0),
        basis=[vec_to_pairs(v) for v in chain],
        n_max=4,
    )
    path = write_json(tmp_path, "chain.json", obj)
    code, out, _ = run_main(capsys, ["ladder-f", path, "--levels", "3"])
    assert code == 2
    assert json.loads(out)["verdict"] == "undecided"
    code, out, _ = run_main(capsys, ["ladder-f", path])
    assert code == 0
    assert json.loads(out)["verdict"] == "coupling_exists"


def test_main_ladder_f_one_newton_step_per_level_exits_undecided(tmp_path, capsys):
    # A budget of one Newton step certifies each level at its first point.
    obj = generate_instance({"kind": "f_ladder", "dims": (2, 2), "seed": 8})
    path = write_json(tmp_path, "lf.json", obj)
    code, out, _ = run_main(capsys, ["ladder-f", path, "--max-iters", "1"])
    report = json.loads(out)
    assert (code, report["verdict"]) == (2, "undecided")
    assert len(report["levels"]) == obj["n_max"]
    for row in report["levels"]:
        assert (row["status"], row["iterations"]) == ("max_iters", 1)
        assert row["lower_bound"] <= row["value"]


def test_main_ladder_sdp(tmp_path, capsys):
    obj = generate_instance({"kind": "sdp_ladder", "dims": (3, 3), "seed": 9})
    path = write_json(tmp_path, "ls.json", obj)
    code, out, _ = run_main(capsys, ["ladder-sdp", path])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "coupling_exists"
    assert report["levels"][-1]["value"] > 1.0 - 1e-4


def test_main_fiber_dist_distance_mode(tmp_path, capsys):
    obj = generate_instance({"kind": "fiber_dist", "dims": (2, 2), "seed": 10})
    path = write_json(tmp_path, "fd.json", obj)
    code, out, _ = run_main(capsys, ["fiber-dist", path])
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "distance"
    assert report["status"] == "optimal"
    assert report["distance"] >= report["lower_bound"] - 1e-12
    assert report["gap"] <= 1e-6
    # --max-iters counts Newton steps; a solve that runs out exits 2 with the
    # bracket certified at its last point.
    code, out, _ = run_main(capsys, ["fiber-dist", path, "--max-iters", "5"])
    short = json.loads(out)
    assert (code, short["status"], short["iterations"]) == (2, "max_iters", 5)
    assert short["lower_bound"] <= report["lower_bound"] + 1e-12
    assert short["distance"] >= report["distance"] - 1e-12


def test_main_fiber_dist_semidistance_mode(tmp_path, capsys):
    obj = {
        "version": FORMAT_VERSION,
        "kind": "fiber_dist",
        "dims": [2, 2],
        "rho1": mat_to_pairs(np.diag([1.0, 0.0])),
        "rho2": mat_to_pairs(np.diag([1.0, 0.0])),
        "rho1_b": mat_to_pairs(np.diag([0.0, 1.0])),
        "rho2_b": mat_to_pairs(np.diag([0.0, 1.0])),
    }
    path = write_json(tmp_path, "semi.json", obj)
    code, out, _ = run_main(capsys, ["fiber-dist", path, "--samples", "0"])
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "semidistance"
    assert abs(report["bound"] - 2.0) < 1e-12
    assert report["sample_bounds"] == []


def test_main_classical_both_verdicts(tmp_path, capsys):
    good = generate_instance({"kind": "classical", "dims": (3, 3), "seed": 11})
    bad = generate_instance({"kind": "classical", "dims": (3, 3), "seed": 11, "feasible": False})
    pg = write_json(tmp_path, "good.json", good)
    pb = write_json(tmp_path, "bad.json", bad)
    code, out, _ = run_main(capsys, ["classical", pg])
    assert code == 0
    assert json.loads(out)["feasible"] is True
    code, out, _ = run_main(capsys, ["classical", pb])
    assert code == 0
    report = json.loads(out)
    assert report["feasible"] is False
    assert report["coupling"] is None


def test_main_selftest(capsys):
    code, out, _ = run_main(capsys, ["selftest", "--trials", "5", "--seed", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    expected = {"sv_product", "trace_inequality", "hs_product", "partial_trace", "shifting_state"}
    assert set(report["suites"]) == expected
    assert all(s["failures"] == 0 for s in report["suites"].values())


# ---------------------------------------------------------------------------
# main: errors and exit codes


def test_main_missing_file_exits_one(capsys):
    code, _, err = run_main(capsys, ["check", "/nonexistent/file.json"])
    assert code == 1
    assert "file.json" in err


def test_main_parse_error_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_main(capsys, ["check", str(path)])
    assert code == 1
    assert "parse error" in err


def test_main_invariant_violation_exits_one(tmp_path, capsys):
    path = write_json(tmp_path, "sigma.json", coupling_file(rho2=eye_pairs(2, 0.3)))
    code, _, err = run_main(capsys, ["check", path])
    assert code == 1
    assert "Sigma membership violated" in err


def test_main_kind_mismatch_exits_one(tmp_path, capsys):
    path = write_json(tmp_path, "bell.json", coupling_file())
    code, _, err = run_main(capsys, ["classical", path])
    assert code == 1
    assert "needs a 'classical' problem" in err


def test_main_value_error_after_load_exits_one(tmp_path, capsys):
    # The file loads cleanly; f_ladder then rejects the level count.
    path = write_json(tmp_path, "f.json", generate_instance({"kind": "f_ladder", "dims": (2, 2)}))
    code, out, err = run_main(capsys, ["ladder-f", path, "--levels", "99"])
    assert code == 1
    assert out == ""
    assert f"{path}: n_max = 99 out of range for basis of 4" in err


# Each run command's flags besides files, --out and --format. The solver
# flags form the config block every report echoes.
RUN_FLAGS = {
    "check": {"--gap-tol", "--eps-decision", "--max-iters"},
    "mu": {"--gap-tol", "--eps-decision", "--max-iters"},
    "ladder-f": {"--gap-tol", "--eps-decision", "--max-iters", "--levels"},
    "ladder-sdp": {"--gap-tol", "--eps-decision", "--max-iters", "--levels"},
    "fiber-dist": {"--gap-tol", "--eps-decision", "--max-iters", "--samples"},
    "classical": set(),
}
ALL_RUN_FLAGS = set().union(*RUN_FLAGS.values())


def test_each_run_command_offers_exactly_its_flags():
    commands = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    for name, flags in RUN_FLAGS.items():
        options = {s for a in commands[name]._actions for s in a.option_strings}
        assert options == flags | {"-h", "--help", "--out", "--format"}, name


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in RUN_FLAGS for f in sorted(ALL_RUN_FLAGS - RUN_FLAGS[c])],
)
def test_flag_a_command_does_not_read_is_a_usage_error(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "f.json", flag, "3"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"unrecognized arguments: {flag} 3" in err


def test_usage_errors_exit_one_and_help_exits_zero(capsys):
    for argv in (["check", "--bogus", "p.json"], ["check", "p.json", "--max-iters", "abc"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert "usage:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert "--gap-tol" in capsys.readouterr().out


def test_non_finite_input_is_rejected_at_load(tmp_path, capsys):
    nan_basis = coupling_file()
    nan_basis["basis"][0][1] = [float("nan"), 0.0]
    inf_rho = coupling_file()
    inf_rho["rho1"][0][0] = [float("inf"), 0.0]
    nan_config = coupling_file(config={"gap_tol": float("nan")})
    for name, obj, message in (
        ("basis.json", nan_basis, "basis[0]: non-finite entry"),
        ("rho.json", inf_rho, "rho1: non-finite entry"),
        ("config.json", nan_config, "gap_tol must be finite and positive"),
    ):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")  # writes NaN / Infinity tokens
        with pytest.raises(CliError, match=re.escape(message)):
            load_problem(str(path))
        code, out, err = run_main(capsys, ["check", str(path)])
        assert (code, out) == (1, ""), name
        assert message in err
    big_int = coupling_file()
    big_int["rho1"][0][0] = [10**400, 0]  # finite in JSON, beyond the float range
    path = write_json(tmp_path, "int.json", big_int)
    code, out, err = run_main(capsys, ["check", path])
    assert (code, out) == (1, "")
    assert f"{path}: int too large to convert to float" in err


def test_solver_breakdown_keeps_the_other_reports(tmp_path, capsys, monkeypatch):
    # An eigensolver breakdown inside one file's solve is reported under that
    # file's name, and the other reports are still written. No finite input
    # within the magnitude guard is known to break the solver, so the solve
    # of the file marked by max_iters 7 raises the breakdown itself.
    obj = generate_instance({"kind": "fiber_dist", "dims": (2, 2), "seed": 0})
    good = write_json(tmp_path, "good.json", obj)
    obj["config"]["max_iters"] = 7
    broken = write_json(tmp_path, "broken.json", obj)
    real = cli._dist_solve

    def dist_solve(beta, fiber, cfg):
        if cfg.max_iters == 7:
            raise EigendecompositionError("eigendecomposition did not converge")
        return real(beta, fiber, cfg)

    monkeypatch.setattr(cli, "_dist_solve", dist_solve)
    code, out, err = run_main(capsys, ["fiber-dist", good, broken])
    assert code == 1
    assert set(json.loads(out)) == {good}
    assert f"{broken}: eigendecomposition did not converge" in err
    assert "Traceback" not in err


def test_marginals_beyond_the_magnitude_guard_fail_at_load(tmp_path, capsys):
    # At 1e300 the product member rho1 (x) rho2 would overflow; the fiber
    # rejects the marginals with the guard's message, before any warning
    # (warnings are errors in this suite).
    obj = generate_instance({"kind": "fiber_dist", "dims": (2, 2), "seed": 0})
    good = write_json(tmp_path, "good.json", obj)
    for key in ("rho1", "rho2"):
        obj[key] = [[[t * 1e300 for t in cell] for cell in row] for row in obj[key]]
    huge = write_json(tmp_path, "huge.json", obj)
    code, out, err = run_main(capsys, ["fiber-dist", good, huge])
    assert code == 1
    assert set(json.loads(out)) == {good}
    assert f"{huge}: rho1 has entries above the magnitude guard 1e+150" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fiber-dist", "fd.json", "--samples"],
        ["ladder-f", "f.json", "--levels"],
        ["selftest", "--trials"],
        ["gen", "--kind", "coupling", "--subspace-dim"],
        ["gen", "--kind", "f_ladder", "--levels"],
    ],
    ids=["samples", "ladder-levels", "trials", "subspace-dim", "gen-levels"],
)
def test_negative_count_is_a_usage_error(argv, capsys):
    # Counts are parsed before any file is read, so the files need not exist.
    for value in ("-3", "x"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, value])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"argument {argv[-1]}: expected a count of at least 0, got '{value}'" in err


def test_each_per_file_error_line_starts_with_its_path(tmp_path, capsys):
    good = write_json(tmp_path, "good.json", coupling_file())
    bad = {
        "badtrace.json": (coupling_file(rho2=eye_pairs(2, 0.3)), "Sigma membership violated"),
        "badbasis.json": (
            coupling_file(basis=[[[0.9, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]),
            "basis is not orthonormal",
        ),
        "badcfg.json": (coupling_file(config={"gap_tol": -1.0}), "config: gap_tol"),
        "badkind.json": (
            generate_instance({"kind": "classical", "dims": (2, 2), "seed": 1}),
            "mu needs a 'coupling' problem",
        ),
    }
    paths = [write_json(tmp_path, name, obj) for name, (obj, _) in bad.items()]
    missing = str(tmp_path / "missing.json")
    code, out, err = run_main(capsys, ["mu", good, *paths, missing])
    assert code == 1
    assert set(json.loads(out)) == {good}
    expected = [f"{p}: {message}" for p, (_, message) in zip(paths, bad.values())]
    expected.append(f"{missing}: No such file or directory")
    lines = err.splitlines()
    assert len(lines) == len(expected)
    for line, start in zip(lines, expected):
        assert line.startswith(start), line


def test_penalty_init_in_old_config_files_is_accepted_and_ignored(tmp_path, capsys):
    # Files written while the fiber solves ran ADMM carry its penalty
    # penalty_init. They still load, whatever its value, and solve exactly
    # as the same file without the key; reports no longer carry it.
    obj = generate_instance({"kind": "fiber_dist", "dims": (2, 2), "seed": 10})
    assert "penalty_init" not in obj["config"]
    new = write_json(tmp_path, "new.json", obj)
    reports = []
    for value in (1.0, 1e-200):
        old = write_json(tmp_path, "old.json", {**obj, "config": {**obj["config"], "penalty_init": value}})
        assert load_problem(old).config == load_problem(new).config
        for path in (old, new):
            code, out, _ = run_main(capsys, ["fiber-dist", path])
            assert code == 0
            reports.append(json.loads(out))
    for report in reports:
        assert "penalty_init" not in report["config"]
        assert {k: report[k] for k in ("distance", "lower_bound", "iterations")} == {
            k: reports[0][k] for k in ("distance", "lower_bound", "iterations")
        }


def test_main_batch_combines_reports(tmp_path, capsys):
    p1 = write_json(tmp_path, "c1.json", generate_instance({"kind": "classical", "dims": (2, 2), "seed": 1}))
    p2 = write_json(tmp_path, "c2.json", generate_instance({"kind": "classical", "dims": (3, 3), "seed": 2}))
    code, out, _ = run_main(capsys, ["classical", p1, p2])
    assert code == 0
    combined = json.loads(out)
    assert set(combined) == {p1, p2}
    assert combined[p1]["command"] == "classical"


def test_main_batch_error_precedence(tmp_path, capsys):
    good = write_json(tmp_path, "ok.json", generate_instance({"kind": "classical", "dims": (2, 2), "seed": 1}))
    code, out, err = run_main(capsys, ["classical", good, "/nonexistent/x.json"])
    assert code == 1
    assert "x.json" in err
    combined = json.loads(out)
    assert good in combined


def test_main_batch_value_error_keeps_other_reports(tmp_path, capsys):
    good = write_json(tmp_path, "good.json", generate_instance({"kind": "f_ladder", "dims": (2, 2)}))
    short = write_json(
        tmp_path, "short.json", generate_instance({"kind": "f_ladder", "dims": (2, 2), "n_max": 2})
    )
    code, out, err = run_main(capsys, ["ladder-f", good, short, "--levels", "4"])
    assert code == 1
    assert f"{short}: n_max = 4 out of range for basis of 2" in err
    combined = json.loads(out)
    assert set(combined) == {good}
    assert combined[good]["command"] == "ladder-f"


def test_main_batch_undecided_precedence(tmp_path, capsys):
    obj = generate_instance({"kind": "coupling", "dims": (3, 3), "seed": 7, "subspace_dim": 4})
    slow = write_json(tmp_path, "slow.json", obj)
    fast = write_json(tmp_path, "fast.json", coupling_file())
    code, out, _ = run_main(capsys, ["mu", fast, slow, "--max-iters", "15"])
    assert code == 2
    assert set(json.loads(out)) == {fast, slow}


def test_main_respects_out_flag(tmp_path, capsys):
    path = write_json(tmp_path, "c.json", generate_instance({"kind": "classical", "dims": (2, 2), "seed": 3}))
    out_path = tmp_path / "report.json"
    code, out, _ = run_main(capsys, ["classical", path, "--out", str(out_path)])
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["command"] == "classical"


# ---------------------------------------------------------------------------
# csv output


def test_csv_for_ladder_is_level_table(tmp_path, capsys):
    obj = generate_instance({"kind": "f_ladder", "dims": (2, 2), "seed": 8})
    path = write_json(tmp_path, "lf.json", obj)
    code, out, _ = run_main(capsys, ["ladder-f", path, "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,dim,value,dual_value,lower_bound,gap,status,iterations,wall_time"
    assert len(lines) >= 2


def test_csv_for_scalar_report_is_key_value(tmp_path, capsys):
    path = write_json(tmp_path, "c.json", generate_instance({"kind": "classical", "dims": (2, 2), "seed": 3}))
    code, out, _ = run_main(capsys, ["classical", path, "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = [line.split(",", 1)[0] for line in lines[1:]]
    assert "feasible" in keys
    assert "coupling" not in keys  # bulk matrices stay out of csv


def test_csv_renders_null_as_empty(tmp_path, capsys):
    # mu refutes this instance, so the supported solve never runs.
    obj = generate_instance(
        {"kind": "coupling", "dims": (2, 2), "seed": 0, "feasible": False, "subspace_dim": 2}
    )
    path = write_json(tmp_path, "inf.json", obj)
    code, out, _ = run_main(capsys, ["check", path, "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert "verdict,no_coupling" in lines
    assert "supported," in lines


def test_csv_renders_lists_as_json(tmp_path, capsys):
    obj = {
        "version": FORMAT_VERSION,
        "kind": "fiber_dist",
        "dims": [2, 2],
        "rho1": mat_to_pairs(np.diag([0.75, 0.25])),
        "rho2": mat_to_pairs(np.diag([0.5, 0.5])),
        "rho1_b": mat_to_pairs(np.diag([0.25, 0.75])),
        "rho2_b": mat_to_pairs(np.diag([0.5, 0.5])),
    }
    path = write_json(tmp_path, "semi.json", obj)
    code, out, _ = run_main(capsys, ["fiber-dist", path, "--samples", "2"])
    assert code == 0
    report = json.loads(out)
    rows = dict(csv.reader(io.StringIO(report_to_csv(report))))
    assert len(report["sample_bounds"]) == 2
    assert json.loads(rows["sample_bounds"]) == report["sample_bounds"]
    assert rows["samples"] == "2"


def test_csv_rejects_multiple_files(tmp_path, capsys, monkeypatch):
    p1 = write_json(tmp_path, "c1.json", generate_instance({"kind": "classical", "dims": (2, 2), "seed": 1}))
    p2 = write_json(tmp_path, "c2.json", generate_instance({"kind": "classical", "dims": (2, 2), "seed": 2}))
    calls = []
    monkeypatch.setattr(cli, "_execute_file", lambda *a: calls.append(a))
    code, out, err = run_main(capsys, ["classical", p1, p2, "--format", "csv"])
    assert code == 1
    assert "single problem file" in err
    assert out == ""
    assert calls == []


def test_report_to_csv_round_trips_through_module(tmp_path):
    report = {"command": "classical", "feasible": True, "value": 0.5, "nested": {"a": 1}}
    text = report_to_csv(report)
    lines = text.strip().splitlines()
    assert lines[0] == "key,value"
    assert "nested.a,1" in lines


# ---------------------------------------------------------------------------
# helpers


def test_parse_dims_variants():
    assert _parse_dims("3x4") == (3, 4)
    assert _parse_dims("3X4") == (3, 4)
    assert _parse_dims("3,4") == (3, 4)
    with pytest.raises(CliError, match="cannot parse dims"):
        _parse_dims("banana")


def test_batch_keys_reports_by_path(tmp_path, capsys):
    # multi-file runs go file by file and key the combined report by path
    paths = [
        write_json(tmp_path, f"c{i}.json", generate_instance({"kind": "classical", "dims": (2, 2), "seed": i}))
        for i in range(4)
    ]
    code, out, _ = run_main(capsys, ["classical", *paths])
    assert code == 0
    assert list(json.loads(out)) == sorted(paths)


def test_save_problem_returns_canonical_text(tmp_path):
    obj = {"version": FORMAT_VERSION, "b": 1.5, "a": True}
    text = save_problem(obj, None)
    assert text == canonical_dumps(obj)
    path = tmp_path / "saved.json"
    save_problem(obj, str(path))
    assert path.read_text(encoding="utf-8") == text + "\n"
