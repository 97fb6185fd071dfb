"""End-to-end and per-layer benchmark of the qstrassen CLI.

Drives ``qstrassen.cli.main`` in-process with the file arguments a user
would pass, on instances written by ``cli.generate_instance``. It is a closed
loop with one caller: each operation (one ``cli.main`` call) starts when the
previous one has returned. The only other threads are the CLI's own pool.
The thread environment (QSTRASSEN_THREADS, OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS) is left as found and recorded.

    python3 bench/run.py --workload decide --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all      # the four workloads in turn

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced run.
Times are reference seconds: raw seconds scaled by how fast a fixed reference
kernel ran around each operation, because the machine's speed drifts.
A result file with the machine record, per-operation samples and (traced)
spans goes to ``bench/out/``. See bench/README.md for the metric definitions.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((HERE / "workloads.json").read_text())
WORKLOADS = list(SPEC["workloads"])
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {trace: {m["name"]: m["unit"] for m in BENCH[key]}
           for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
COUNT_SUFFIXES = (".calls", "_calls", ".iters_sum", ".iters_max", ".eig_n3", ".levels")
EXACT_COUNTS = ("sdp.nonoptimal", "strassen.uncertified")
SETUP_REPS = 5
IMPORT_REPS = 9
MIN_PASSES = 3
THREAD_ENV = ("QSTRASSEN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")

# Reference kernel: REF_REPS eigh calls on a fixed 12x12 matrix, timed (median
# of three) between operations. REF_NOMINAL_S, its typical time on the box the
# benchmark was built on, defines the reference second. eigh is bound here,
# before a tracer can wrap numpy.linalg.eigh.
REF_REPS = 100
REF_NOMINAL_S = 0.0035
_REF_MATRIX = np.random.default_rng(0).standard_normal((12, 12))
_REF_MATRIX = _REF_MATRIX + _REF_MATRIX.T
_REF_EIGH = np.linalg.eigh


class Op:
    """One CLI invocation of the workload, with its inputs for the checks."""

    def __init__(self, command, files, args):
        self.command = command
        self.files = files
        self.argv = [command, *files, *args]
        self.inputs = []


# ---------------------------------------------------------------------------
# Machine record


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": git_commit(),
        "src_lines": {
            p.name: sum(1 for _ in p.open(encoding="utf-8"))
            for p in sorted((SRC / "qstrassen").glob("*.py"))
        },
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# Instances


def haar_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def in_frame(cli, obj: dict, rng) -> dict:
    """The same instance seen in local frames U1 (x) U2 drawn from ``rng``.

    Every quantity the solvers compute is covariant under local unitaries, so
    iteration counts and verdicts do not change; only the matrices do.
    Coordinate truncation (sdp_ladder) is covariant only under diagonal
    unitaries, so those instances get random phases instead.
    """
    d1, d2 = obj["dims"]
    if obj["kind"] == "sdp_ladder":
        u1 = np.diag(np.exp(2j * np.pi * rng.random(d1)))
        u2 = np.diag(np.exp(2j * np.pi * rng.random(d2)))
    else:
        u1, u2 = haar_unitary(rng, d1), haar_unitary(rng, d2)
    u = np.kron(u1, u2)

    def conj(pairs, w):
        m = w @ checks.mat(pairs) @ w.conj().T
        return cli.mat_to_pairs(0.5 * (m + m.conj().T))

    out = dict(obj)
    for key, w in (("rho1", u1), ("rho2", u2), ("beta", u)):
        if key in obj:
            out[key] = conj(obj[key], w)
    if "basis" in obj:
        out["basis"] = [cli.vec_to_pairs(u @ checks.mat(v)) for v in obj["basis"]]
    return out


def make_instance(cli, spec: dict, index: int, seed: int) -> dict:
    """File ``index`` of a workload; semidistance pairs stay in the computational basis."""
    gen = {k: v for k, v in spec.items() if k != "second_fiber"}
    gen["seed"] = index
    obj = cli.generate_instance(gen)
    if not spec.get("second_fiber"):
        return in_frame(cli, obj, np.random.default_rng([seed, index]))
    other = cli.generate_instance({**gen, "seed": gen["seed"] + 500})
    del obj["beta"]
    obj["rho1_b"], obj["rho2_b"] = other["rho1"], other["rho2"]
    return obj


def build_ops(cli, workload: str, seed: int, workdir: Path) -> list:
    workdir.mkdir(parents=True, exist_ok=True)
    ops, index = [], 0
    for entry in SPEC["workloads"][workload]["ops"]:
        files = []
        for spec in entry["files"]:
            path = workdir / f"{index:03d}.json"
            cli.save_problem(make_instance(cli, spec, index, seed), str(path))
            files.append(str(path))
            index += 1
        ops.append(Op(entry["cmd"], files, entry.get("args", [])))
    return ops


# ---------------------------------------------------------------------------
# Running operations


def call(cli, argv, tracer=None):
    """One cli.main call with captured output: (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t = time.perf_counter()
        try:
            code = tracer.op(cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an operation that raises is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
    if error is None and code != 0 and not out.getvalue():
        error = f"exit code {code}: {err.getvalue().strip()[-300:]}"
    return dt, code, out.getvalue(), error


def reference_s() -> float:
    def once() -> float:
        t = time.perf_counter()
        for _ in range(REF_REPS):
            _REF_EIGH(_REF_MATRIX)
        return time.perf_counter() - t

    return statistics.median(once() for _ in range(3))


def scales(refs) -> list:
    """Reference seconds per second for each interval between reference samples."""
    return [2.0 * REF_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]


def run_pass(cli, ops, tracer=None) -> dict:
    """Run the op list once; outputs are checked after the timed loop.

    The reference kernel runs between operations, outside their timing, and
    each operation is scaled by the mean of the reference times around it.
    """
    results, cpus, refs = [], [], [reference_s()]
    for op in ops:
        c0 = time.process_time()
        results.append(call(cli, op.argv, tracer))
        cpus.append(time.process_time() - c0)
        refs.append(reference_s())
    ks = scales(refs)
    raw_lat, failures, uncertified, sigs = [], [], [], []
    for op, (dt, code, text, error) in zip(ops, results):
        raw_lat.append(dt)
        reason = checks.check_op(op.command, op.files, op.inputs, code, text, error)
        if isinstance(reason, checks.Uncertified):
            uncertified.append(f"{' '.join(op.argv)}: {reason}")
        elif reason:
            failures.append(f"{' '.join(op.argv)}: {reason}")
        sigs.append(checks.signature(text))
    lat = [k * x for k, x in zip(ks, raw_lat)]
    return {
        "k": sum(lat) / sum(raw_lat),
        "raw_wall": sum(raw_lat),
        "wall": sum(lat),
        "cpu": sum(k * c for k, c in zip(ks, cpus)),
        "raw_lat": raw_lat,
        "lat": lat,
        "failures": failures,
        "uncertified": uncertified,
        "sigs": sigs,
    }


# ---------------------------------------------------------------------------
# Tracing


def install_tracer(tracer, qs):
    """Wrap the names each calling module binds; see bench/tracing.py."""
    cli, strassen, sdp, fibers = qs.cli, qs.strassen, qs.sdp, qs.fibers

    def solver(prefix):
        def hook(c, result):
            sol = result[0] if isinstance(result, tuple) else result
            c[prefix + ".iters_sum"] += sol.iterations
            c[prefix + ".iters_max"] = max(c[prefix + ".iters_max"], sol.iterations)
            c["sdp.nonoptimal"] += sol.status != "optimal"
            c["sdp.gap_max"] = max(c["sdp.gap_max"], sol.gap)
        return hook

    def supported(c, result):
        c["sdp.gap_max"] = max(c["sdp.gap_max"], result[2])

    def dist(c, result):
        upper, lower, _, iterations, status = result
        c["fibers.dist.iters_sum"] += iterations
        c["sdp.nonoptimal"] += status != "optimal"
        c["sdp.gap_max"] = max(c["sdp.gap_max"], upper - lower)

    def decide(c, result):
        c["strassen.polish.accepted"] += result[1] is not None

    def levels(c, result):
        c["strassen.f_ladder.levels"] += len(result.levels)

    span = tracer.span
    span(cli, "load_problem", "cli.load_problem", "cli")
    span(cli, "canonical_dumps", "cli.canonical_dumps", "cli")
    span(cli, "_write_output", "cli._write_output", "cli")
    for name, hook in (("mu", None), ("_decide", decide), ("f_ladder", levels), ("sdp_ladder", None)):
        span(cli, name, f"cli.{name}", "strassen", hook)
    span(strassen, "mu", "strassen.mu", "strassen")
    span(cli, "verify_duality_certificates", "cli.verify_duality_certificates", "sdp")
    span(strassen, "solve_marginal_sdp", "strassen.solve_marginal_sdp", "sdp", solver("sdp.marginal"))
    span(strassen, "solve_f_min_full", "strassen.solve_f_min_full", "sdp", solver("sdp.fmin"))
    span(strassen, "solve_supported_overlap", "strassen.solve_supported_overlap", "sdp", supported)
    span(cli, "_dist_solve", "cli._dist_solve", "fibers", dist)
    span(cli, "semidistance_lower_bound", "cli.semidistance_lower_bound", "fibers")
    span(fibers, "_dist_solve", "fibers._dist_solve", "fibers", dist)
    span(fibers, "_sample_member", "fibers._sample_member", "fibers")
    for mod in (sdp, fibers):
        tracer.leaf(mod, "psd_project", "psd_project", "linalg")
    for mod in (cli, strassen, sdp, fibers):
        for name in ("partial_trace_1", "partial_trace_2"):
            tracer.leaf(mod, name, "partial_trace", "bipartite")
    tracer.leaf(np.linalg, "eigh", "eigh", None, n3=True)
    tracer.leaf(np.linalg, "eigvalsh", "eigvalsh", None, n3=True)


def layer_metrics(tracer, traced) -> dict:
    """Per-layer metrics of one traced pass; times in reference seconds."""
    spans, c, k = tracer.spans, tracer.counters, traced["k"]

    def named(*names):
        return [s for s in spans if s.name in names]

    def dur(ss):
        return k * sum(s.end - s.start for s in ss)

    def self_of(layer):
        return k * sum(tracing.self_time(s) for s in spans if s.layer == layer)

    sup = named("strassen.solve_supported_overlap")
    mar = named("strassen.solve_marginal_sdp")
    fmin = named("strassen.solve_f_min_full")
    dist = named("cli._dist_solve", "fibers._dist_solve")
    sample = named("fibers._sample_member")
    return {
        "sdp.supported.calls": len(sup),
        "sdp.supported.s": dur(sup),
        "sdp.supported.proj_calls": sum(s.counts["psd_project"] for s in sup),
        "sdp.eigvalsh_calls": sum(s.counts["eigvalsh"] for s in sup),
        "sdp.eigvalsh_s": k * sum(s.times["eigvalsh"] for s in sup),
        "sdp.marginal.calls": len(mar),
        "sdp.marginal.s": dur(mar),
        "sdp.marginal.iters_sum": c["sdp.marginal.iters_sum"],
        "sdp.marginal.iters_max": c["sdp.marginal.iters_max"],
        "sdp.fmin.calls": len(fmin),
        "sdp.fmin.s": dur(fmin),
        "sdp.fmin.iters_sum": c["sdp.fmin.iters_sum"],
        "sdp.fmin.iters_max": c["sdp.fmin.iters_max"],
        "sdp.self_s": self_of("sdp"),
        "sdp.nonoptimal": c["sdp.nonoptimal"],
        "sdp.gap_max": c["sdp.gap_max"],
        "cli.self_s": self_of("cli"),
        "cli.load_s": dur(named("cli.load_problem")),
        "cli.emit_s": dur(named("cli.canonical_dumps", "cli._write_output")),
        "strassen.self_s": self_of("strassen"),
        "strassen.polish.calls": len(sup),
        "strassen.polish.accept_ratio": c["strassen.polish.accepted"] / len(sup) if sup else 0.0,
        "strassen.f_ladder.levels": c["strassen.f_ladder.levels"],
        "strassen.uncertified": len(traced["uncertified"]),
        "linalg.psd_project.calls": c["psd_project.calls"],
        "linalg.psd_project.s": k * c["psd_project.s"],
        "linalg.eigh_calls": c["eigh.calls"],
        "linalg.eig_n3": c["eig_n3"],
        "bipartite.partial_trace.calls": c["partial_trace.calls"],
        "bipartite.partial_trace.s": k * c["partial_trace.s"],
        "fibers.dist.calls": len(dist),
        "fibers.dist.s": dur(dist),
        "fibers.dist.iters_sum": c["fibers.dist.iters_sum"],
        "fibers.sample.calls": len(sample),
        "fibers.sample.s": dur(sample),
        "fibers.self_s": self_of("fibers"),
    }


def traced_pass(cli, qs, ops):
    tracer = tracing.Tracer()
    install_tracer(tracer, qs)
    try:
        result = run_pass(cli, ops, tracer)
    finally:
        tracer.uninstall()
    return result, tracer


def run_traced(cli, qs, ops) -> tuple[dict, dict, list]:
    """Untraced, traced, traced, untraced passes; batch runs add a serial reference."""
    u1 = run_pass(cli, ops)
    t1, tracer1 = traced_pass(cli, qs, ops)
    t2, tracer2 = traced_pass(cli, qs, ops)
    u2 = run_pass(cli, ops)
    passes = [u1, t1, t2, u2]
    failures = [f for p in passes for f in p["failures"]]
    for other in (t1, t2, u2):
        for op, a, b in zip(ops, u1["sigs"], other["sigs"]):
            if a != b:
                failures.append(f"{' '.join(op.argv)}: result changed between passes: {a} != {b}")

    m1, m2 = layer_metrics(tracer1, t1), layer_metrics(tracer2, t2)
    counts = [k for k in m1 if k.endswith(COUNT_SUFFIXES) or k in EXACT_COUNTS]
    metrics = {k: (int(m1[k]) if k in counts else 0.5 * (m1[k] + m2[k])) for k in m1}
    untraced = 0.5 * (u1["wall"] + u2["wall"])
    metrics["bench.trace_overhead_frac"] = (0.5 * (t1["wall"] + t2["wall"]) - untraced) / untraced

    serial_ops = [Op(op.command, [f], op.argv[1 + len(op.files):]) for op in ops for f in op.files]
    if len(serial_ops) > len(ops):
        for sop in serial_ops:
            sop.inputs = [checks.load_input(sop.files[0])]
        serial = run_pass(cli, serial_ops)
        failures += serial["failures"]
        passes.append(serial)
        metrics["cli.serial_ref_s"] = serial["wall"]
    else:
        metrics["cli.serial_ref_s"] = untraced
    metrics["cli.pool_speedup"] = metrics["cli.serial_ref_s"] / untraced

    repeat = {k: [m1[k], m2[k]] for k in counts if m1[k] != m2[k]}
    info = {
        "pass_walls_s": {"untraced": [u1["wall"], u2["wall"]], "traced": [t1["wall"], t2["wall"]]},
        "speed_factors": [p["k"] for p in passes],
        "count_repeat": "identical" if not repeat else repeat,
        "spans": {"pass1": span_dump(tracer1), "pass2": span_dump(tracer2)},
        "attempted": sum(len(p["lat"]) for p in passes),
        "uncertified": [u for p in passes for u in p["uncertified"]],
    }
    return metrics, info, failures


def span_dump(tracer) -> dict:
    return {"spans": tracing.span_records(tracer.spans), "counters": dict(tracer.counters)}


# ---------------------------------------------------------------------------
# Workload runs


def measure(cli, ops, seconds) -> list:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, ops))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def tail_percentile(n_ops: int) -> int:
    """Highest percentile with ten samples beyond it in the fewest passes a run makes.

    Fixed per op list, so that runs with more passes report the same percentile.
    """
    return max(50, int(100 * (1 - 10 / (n_ops * MIN_PASSES))))


def end_to_end(passes, setup_s, tail_pct) -> tuple[dict, dict]:
    lat = [x for p in passes for x in p["lat"]]
    tail = statistics.quantiles(lat, n=100, method="inclusive")[tail_pct - 1]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall"] for p in passes),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail,
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "passes": len(passes),
        "speed_factors": [p["k"] for p in passes],
        "raw_pass_walls_s": [p["raw_wall"] for p in passes],
        "raw_op_latencies_s": [p["raw_lat"] for p in passes],
        "op_samples": len(lat),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": sum(1 for x in lat if x > tail),
        "uncertified": [u for p in passes for u in p["uncertified"]],
    }
    return metrics, info


def import_package():
    """Import qstrassen from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import qstrassen.cli  # noqa: F401  (binds qstrassen.strassen, .sdp, .fibers)
    import qstrassen as qs

    if Path(qs.__file__).resolve().parent != SRC / "qstrassen":
        raise ImportError(f"qstrassen imported from {qs.__file__}, not from {SRC}")
    return qs


def import_times(n: int) -> list:
    """Seconds to import numpy and qstrassen.cli, in each of ``n`` fresh interpreters."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import numpy, qstrassen.cli; print(time.perf_counter() - t)")
    return [
        float(subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                             text=True, check=True, timeout=120).stdout)
        for _ in range(n)
    ]


def run_workload(args) -> dict:
    """Set up SETUP_REPS times, then measure (or trace) the workload.

    ``setup_s`` is the median import time (this process and fresh
    interpreters) plus the median scaled time to write the files and make one
    single-file warm-up call. The import is scaled by the median speed factor
    of the whole run: single import times vary too much to be matched to the
    reference times around them, but they follow the machine's speed over a
    run.
    """
    qs = import_package()
    cli = qs.cli
    imports = [time.perf_counter() - _T0] + import_times(IMPORT_REPS - 1)
    refs = [reference_s()]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setups, warm = [], []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            ops = build_ops(cli, args.workload, args.seed, workdir)
            first = ops[0]
            warm.append(call(cli, [first.command, first.files[0], *first.argv[1 + len(first.files):]]))
            setups.append(time.perf_counter() - t)
            refs.append(reference_s())
        for op in ops:
            op.inputs = [checks.load_input(f) for f in op.files]
        failures = [
            f"warm-up {first.command} {first.files[0]}: {reason}"
            for _, code, text, error in warm
            if (reason := checks.check_op(first.command, first.files[:1], first.inputs[:1], code, text, error))
            and not isinstance(reason, checks.Uncertified)
        ]
        ks = scales(refs)
        import_s = statistics.median(imports)
        setup_part_s = statistics.median(k * x for k, x in zip(ks, setups))
        if args.trace:
            metrics, info, traced_failures = run_traced(cli, qs, ops)
            failures += traced_failures
            attempted = info["attempted"]
        else:
            passes = measure(cli, ops, args.seconds)
            run_k = statistics.median(ks + [p["k"] for p in passes])
            setup_s = run_k * import_s + setup_part_s
            metrics, info = end_to_end(passes, setup_s, tail_percentile(len(ops)))
            info["raw_setup_s"] = import_s + statistics.median(setups)
            info["raw_setup_parts_s"] = {"imports": imports, "set_ups": setups,
                                         "warm_up_calls": [w[0] for w in warm]}
            info["setup_speed_factors"] = ks
            failures += [f for p in passes for f in p["failures"]]
            attempted = info["op_samples"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_pass": len(ops),
        "machine": machine_record(),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "uncertified": info["uncertified"],
        "metrics": metrics,
        "info": info,
    }


# ---------------------------------------------------------------------------
# Output


def report_lines(res: dict) -> list:
    m = res["machine"]
    info = res["info"]
    lines = [
        f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}"
        f"  ops/pass {res['ops_per_pass']}  closed loop, 1 caller",
        f"machine  nproc {m['nproc']}  cpu {m['cpu_model']}  python {m['python']}"
        f"  numpy {m['numpy']}  blas {m['blas']}  commit {m['git_commit']}",
        "env      " + "  ".join(f"{k}={v}" for k, v in m["env"].items()),
        "src      " + "  ".join(f"{k} {v}" for k, v in m["src_lines"].items()),
    ]
    for name, value in res["metrics"].items():
        extra = ""
        if name == "op_tail_s":
            extra = (f"  (p{info['tail_percentile']}, {info['tail_samples_beyond']} of"
                     f" {info['op_samples']} samples beyond)")
        lines.append(f"{name:32s} {value:.6g} {METRICS[res['trace']][name]}{extra}")
    if not res["trace"]:
        lines.append(
            f"{'unscaled':32s} setup {info['raw_setup_s']:.6g} s  wall"
            f" {statistics.median(info['raw_pass_walls_s']):.6g} s  speed factor"
            f" {statistics.median(info['speed_factors']):.4g}  passes {info['passes']}"
        )
    fail_frac = res["failed"] / res["attempted"]
    lines.append(f"{'fail_frac':32s} {fail_frac:.6g} ({res['failed']} of {res['attempted']})")
    lines.append(f"{'uncertified':32s} {len(res['uncertified'])} of {res['attempted']}"
                 " (answers their own bounds do not certify; not counted as failed)")
    lines += [f"UNCERTIFIED {u}" for u in sorted(set(res["uncertified"]))[:5]]
    if res["trace"]:
        lines.append(f"count repeat across traced passes: {json.dumps(info['count_repeat'])}")
    lines += [f"FAILED {f}" for f in res["failures"][:20]]
    lines.append(f"correct: {'yes' if not res['failures'] else 'NO'}")
    return lines


def result_json(res: dict) -> dict:
    units = METRICS[res["trace"]]
    if set(units) != set(res["metrics"]):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(res['metrics']))}")
    return {
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"][k], "unit": unit} for k, unit in units.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is per workload).

    Returns the worst exit code of the workloads.
    """
    rows, worst = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        rows[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(json.dumps(rows))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"],
                        help=f"local-unitary frame seed (held out: {SPEC['held_out_seed']})")
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        res = run_workload(args)
    except ImportError as exc:
        print(f"error: cannot import the package to benchmark: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(res))
    result = result_json(res)
    for line in report_lines(res):
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
