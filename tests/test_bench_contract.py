"""The traced benchmark still runs against the package.

``bench/run.py`` wraps solver functions by name (``strassen.solve_f_min_full``,
``fibers._dist_solve``, ``sdp.psd_project``, ...) and reads their results by
position and field. A rename or a changed result shape in ``src/`` would only
show when the benchmark runs; this test runs one traced pass over tiny
instances of every benchmarked command instead, in a few seconds.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import qstrassen
import qstrassen.cli as cli
import qstrassen.fibers as fibers

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_run():
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))  # run.py imports its siblings checks and tracing
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (command, [(generator spec, generator seed), ...]); the seeds are the file
# indices the benchmark itself would give these specs.
OPS = [
    ("check", [({"kind": "coupling", "dims": [2, 3]}, 0)]),
    (
        "mu",
        [
            ({"kind": "coupling", "dims": [2, 3]}, 0),
            ({"kind": "coupling", "dims": [2, 3], "feasible": False, "subspace_dim": 3}, 1),
        ],
    ),
    ("ladder-f", [({"kind": "f_ladder", "dims": [2, 2]}, 8)]),
    ("ladder-sdp", [({"kind": "sdp_ladder", "dims": [2, 2]}, 0)]),
    ("fiber-dist", [({"kind": "fiber_dist", "dims": [2, 3]}, 1)]),
]


def build_ops(run, tmp_path, specs) -> list:
    ops = []
    for command, files in specs:
        paths = []
        for spec, index in files:
            path = tmp_path / f"{index:03d}-{len(ops)}-{len(paths)}.json"
            cli.save_problem(run.make_instance(cli, spec, index, 1), str(path))
            paths.append(str(path))
        op = run.Op(command, paths, [])
        op.inputs = [run.checks.load_input(p) for p in paths]
        ops.append(op)
    return ops


def test_traced_pass_covers_every_wrapped_solver(tmp_path):
    run = load_bench_run()
    ops = build_ops(run, tmp_path, OPS)
    result, tracer = run.traced_pass(cli, qstrassen, ops)
    assert result["failures"] == []
    assert len(result["lat"]) == len(OPS)
    counts = tracer.counters
    for key in ("sdp.marginal.iters_sum", "sdp.fmin.iters_sum", "fibers.dist.iters_sum"):
        assert counts[key] > 0, key
    assert counts["psd_project.calls"] > 0
    metrics = run.layer_metrics(tracer, result)
    assert metrics["sdp.supported.calls"] == 1
    # The supported solve runs the dual barrier method, which projects
    # nothing: its Newton steps factor Z and solve one small system each.
    assert metrics["sdp.supported.proj_calls"] == 0
    assert metrics["fibers.dist.calls"] == 1


def test_traced_projections_cover_every_iteration(tmp_path):
    # Every solve runs Newton steps, which project nothing: the overlap and
    # mismatch solves of the check, mu and ladder-f ops make no psd_project
    # call, and the fiber-dist op projects only in its member repairs, a few
    # per solve, so the tracer sees fewer projections than Newton steps, but
    # some. A repair that bound psd_project anywhere but the fibers module
    # global would escape the tracer and read 0 here.
    run = load_bench_run()
    newton_ops = [spec for spec in OPS if spec[0] in ("check", "mu", "ladder-f")]
    dist_ops = [spec for spec in OPS if spec[0] == "fiber-dist"]
    counts = []
    for specs in (newton_ops, dist_ops):
        tracer = run.tracing.Tracer()
        run.install_tracer(tracer, qstrassen)
        reports = []
        try:
            for op in build_ops(run, tmp_path, specs):
                _, code, text, error = run.call(cli, op.argv, tracer)
                assert (code, error) == (0, None), op.argv
                report = json.loads(text)
                reports += [report] if "command" in report else list(report.values())
        finally:
            tracer.uninstall()
        counts.append((reports, tracer.counters["psd_project.calls"]))
    (newton_reports, newton_calls), ([dist], dist_calls) = counts
    [fladder] = [r for r in newton_reports if r["command"] == "ladder-f"]
    overlap = [r for r in newton_reports if r["command"] != "ladder-f"]
    newton = sum(
        r[key]["iterations"] for r in overlap for key in ("solution", "supported") if r.get(key)
    )
    newton += sum(level["iterations"] for level in fladder["levels"])
    assert len(overlap) == 3 and newton > 0 and newton_calls == 0
    assert 0 < dist_calls < dist["iterations"]


def test_traced_fiber_distance_projects_once_per_repair(tmp_path, monkeypatch):
    # The scale-and-glue repair projects once, for the starting member and
    # at each certified point of the central path; the Newton steps between
    # them project nothing.
    repairs = []
    real_repair = fibers._repair_to_member

    def counted_repair(*args):
        repairs.append(args)
        return real_repair(*args)

    monkeypatch.setattr(fibers, "_repair_to_member", counted_repair)
    run = load_bench_run()
    [op] = build_ops(run, tmp_path, [spec for spec in OPS if spec[0] == "fiber-dist"])
    tracer = run.tracing.Tracer()
    run.install_tracer(tracer, qstrassen)
    try:
        _, code, text, error = run.call(cli, op.argv, tracer)
    finally:
        tracer.uninstall()
    assert (code, error) == (0, None)
    iterations = json.loads(text)["iterations"]
    assert 1 < len(repairs) < iterations
    assert tracer.counters["psd_project.calls"] == len(repairs)
