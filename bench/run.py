#!/usr/bin/env python3
"""kimdiff benchmark: one workload, closed loop, one caller, in-process.

    python3 bench/run.py --workload spectral_evolve --seed 1 --seconds 30 --trace 0

Run from the root of a kimdiff checkout; the package is imported from its
``src/`` directory and from nowhere else.  Each call goes through
``kimdiff.cli.main`` with a config file written by the benchmark, after one
untimed warm-up call on the workload's base config.  Every call's outputs are
checked (exit status, artifacts present and parseable, violations listed in
``summary.json``/``verify.json``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced calls with calls whose kimdiff functions record spans (see
``spans.py``) and prints the per-layer metrics.  The last stdout line is the
result object; the line before it, starting with ``detail``, holds the
provenance and the numbers behind the metrics.  Scratch files, the full
record and the spans go to ``.bench_work/`` in the checkout.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import defaultdict
from pathlib import Path

# one BLAS thread, fixed before numpy loads, for every process the run starts
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5
# Reported times are scaled to a host on which the calibration kernel takes
# this long (see calibration()).
CAL_REF_MS = 40.0
# the shortest run still gets this many samples, so the tail percentile
# has ten samples above it and never falls below the median
MIN_CALLS = 21

# ranges the per-call draws come from; seed 0 runs the base config unchanged
WORKLOADS = {
    "spectral_evolve": {
        "command": "evolve",
        "ranges": {"center": (0.39, 0.41), "width": (0.195, 0.205)},
    },
    # only the endpoint masses move, so the neutral closed forms stay exact
    "fd_verify": {
        "command": "verify",
        "ranges": {"a0": (0.0, 0.1), "b0": (0.0, 0.1)},
        "neutral_reference": True,
    },
    "atom_verify": {
        "command": "verify",
        "ranges": {"center": (0.39, 0.41), "width": (0.195, 0.205),
                   "atom_x": (0.69, 0.71), "atom_mass": (0.29, 0.31)},
    },
}

END_TO_END = {
    "run_ms_p50": "ms", "run_ms_tail": "ms", "setup_s": "s",
    "peak_rss_mb": "MB", "route_gap": "1", "mass_span": "1",
}
PER_LAYER = {
    "spectral.solve_eigenproblem.ms": "ms",
    "spectral.transform_eigenfunctions.ms": "ms",
    "spectral.modes": "count",
    "spectral.grid_points": "count",
    "spectral.warnings": "count",
    "spectral.lambda_rel_err": "1",
    "spectral.q0_rel_err": "1",
    "fd.evolve_fd.ms": "ms",
    "fd.steps": "count",
    "fd.step_us": "us",
    "fd.compare_with_spectral.ms": "ms",
    "fd.l1_gap": "1",
    "fd.ab_gap": "1",
    "evolution.evaluate_q.ms": "ms",
    "evolution.evaluate_q.calls": "count",
    "evolution.evaluate_q.bytes": "B",
    "evolution.verify_weak_form.ms": "ms",
    "evolution.boundary_masses.ms": "ms",
    "evolution.mass_cross_check.ms": "ms",
    "evolution.project_initial.ms": "ms",
    "evolution.warnings": "count",
    "fixation.fixation_profile.ms": "ms",
    "scenario.load_scenario.ms": "ms",
    "scenario.self.ms": "ms",
    "scenario.artifact_bytes": "B",
    "trace.overhead": "1",
}
SELF_MS = [name for name in PER_LAYER if name.endswith(".ms")
           and name not in ("scenario.load_scenario.ms", "scenario.self.ms")]


def import_kimdiff():
    """Import kimdiff from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import kimdiff.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import kimdiff from {SRC}: {exc}")
    if Path(kimdiff.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"bench: kimdiff was imported from {kimdiff.__file__}, not {SRC}")
    return kimdiff


def draws(seed, ranges):
    """Per-call parameter dicts: a randomly shifted Kronecker sequence.

    Low-discrepancy points cover the ranges evenly in any prefix, so the
    mean accuracy over a run's calls depends little on the seed."""
    if seed == 0:
        while True:
            yield {}
    rng = random.Random(seed)
    names = sorted(ranges)
    shifts = [rng.random() for _ in names]
    steps = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13)[:len(names)]]
    k = 0
    while True:
        k += 1
        yield {
            name: ranges[name][0] + (ranges[name][1] - ranges[name][0]) * ((s + k * a) % 1.0)
            for name, s, a in zip(names, shifts, steps)
        }


def drawn_config(base, values):
    cfg = json.loads(json.dumps(base))
    init = cfg["initial"]
    if "center" in values:
        init["density"] = f"bump({values['center']:.6f}, {values['width']:.6f})"
    if "atom_x" in values:
        init["atoms"] = [[round(values["atom_x"], 6), round(values["atom_mass"], 6)]]
    for key in ("a0", "b0"):
        if key in values:
            init[key] = round(values[key], 6)
    return cfg


def _csv_rows(path):
    lines = path.read_text().strip().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError(f"{path.name} holds a non-finite value")
    return rows


def check_outputs(command, cfg, out, status):
    """Check one call's artifacts; return (problems, numbers read from them)."""
    problems = []
    if status not in (0, 2):
        return [f"exit status {status}"], {}
    positive = [t for t in cfg["times"] if t > 0]
    try:
        if command == "evolve":
            verdict = json.loads((out / "summary.json").read_text())
            residuals = verdict["residuals"]
            spectrum = json.loads((out / "spectrum.json").read_text())
            if len(spectrum["lambda"]) != cfg["modes"]:
                problems.append("spectrum.json has the wrong mode count")
            if len(_csv_rows(out / "evolution.csv")) != len(cfg["times"]):
                problems.append("evolution.csv has the wrong row count")
            if len(_csv_rows(out / "fixation.csv")) != cfg["grid"] + 1:
                problems.append("fixation.csv has the wrong row count")
            for t in cfg["times"]:
                if len(_csv_rows(out / "profiles" / f"q_t{t:g}.csv")) != cfg["grid"] + 2:
                    problems.append(f"profile at t={t:g} has the wrong row count")
            numbers = {}
        else:
            verdict = json.loads((out / "verify.json").read_text())
            residuals = verdict["spectral_residuals"]
            rows = verdict["comparison"]
            if [r["t"] for r in rows] != positive:
                problems.append("verify.json compares the wrong times")
            if verdict["pass"] != (not verdict["violations"]):
                problems.append("verify.json pass flag disagrees with its violations")
            numbers = {
                "fd_l1_gap": max(r["q_l1_diff"] for r in rows),
                "fd_ab_gap": max(max(r["a_diff"], r["b_diff"]) for r in rows),
            }
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable artifact: {exc!r}"], {}
    numbers["route_gap"] = residuals["route_agreement_max"]
    numbers["mass_span"] = residuals["mass_span"]
    numbers["violations"] = len(verdict["violations"])
    numbers["artifact_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    if (status == 2) != bool(verdict["violations"]):
        problems.append(f"exit status {status} disagrees with the listed violations")
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in numbers.values()):
        problems.append("non-finite accuracy number")
    if verdict["violations"]:
        numbers["first_violation"] = verdict["violations"][0]
    return problems, numbers


def neutral_reference(facts, cfg):
    """Errors against the neutral closed forms; None when not applicable.

    lambda_j = (j+1)(j+2); q_j(0) = gamma_j |P_j^(1,1)(-1)| = gamma_j (j+1);
    a_inf - a0 = b_inf - b0 = 1/2 for a unit uniform density."""
    from scipy.special import eval_jacobi

    basis = facts.get("basis")
    if basis is None or "limits" not in facts:
        return None
    modes = range(basis.n_modes)
    lam_exact = [(j + 1) * (j + 2) for j in modes]
    q0_exact = [math.sqrt((2 * j + 3) * (j + 2) / (j + 1)) * abs(eval_jacobi(j, 1, 1, -1.0))
                for j in modes]
    a_inf, b_inf = facts["limits"]
    init = cfg["initial"]
    return {
        "lambda_rel_err": max(abs(v / e - 1.0) for v, e in zip(basis.eigenvalues, lam_exact)),
        "q0_rel_err": max(abs(v / e - 1.0)
                          for v, e in zip(basis.density_modes[0, :], q0_exact)),
        "limit_err": max(abs(a_inf - init["a0"] - 0.5), abs(b_inf - init["b0"] - 0.5)),
    }


def _observe_basis(facts, args, basis):
    facts["basis"] = basis


def _observe_solve(facts, args, basis):
    facts["spectral.modes"] = basis.n_modes


def _observe_limits(facts, args, limits):
    facts["limits"] = limits


def _observe_evaluate_q(facts, args, result):
    if args["t"] > 0:
        facts["evaluate_q.bytes"] = (facts.get("evaluate_q.bytes", 0)
                                     + args["basis"].density_modes.nbytes)


def _observe_fd(facts, args, states):
    """Steps as evolve_fd documents them: each output interval is cut into
    ceil(span / dt) equal steps, dt defaulting to the cell width."""
    dt = args["dt"] or 1.0 / args["n_cells"]
    steps, t = 0, 0.0
    for state in states:
        if state.t - t > 1e-14:
            steps += max(1, math.ceil((state.t - t) / dt - 1e-12))
        t = state.t
    facts["fd.steps"] = facts.get("fd.steps", 0) + steps


def _count_eig_points(facts, args, kwargs):
    facts["spectral.grid_points"] = facts.get("spectral.grid_points", 0) + len(args[0])


OBSERVERS = {
    "spectral.build_basis": _observe_basis,
    "spectral.solve_eigenproblem": _observe_solve,
    "evolution.limit_masses": _observe_limits,
    "evolution.evaluate_q": _observe_evaluate_q,
    "fd.evolve_fd": _observe_fd,
}
# the tridiagonal eigensolver kernel: counted, not spanned
COUNTERS = {"spectral.eigh_tridiagonal": _count_eig_points}


def layer_metrics(tracer, call_id, check, factor):
    self_ns = defaultdict(int)
    total_ns = defaultdict(int)
    calls = defaultdict(int)
    for name, duration, own in tracer.call_spans(call_id):
        self_ns[name] += own
        total_ns[name] += duration
        calls[name] += 1
    facts = tracer.facts.get(call_id, {})
    ms = factor / 1e6  # ns to ms on the reference host
    m = {name: self_ns[name[:-3]] * ms for name in SELF_MS}
    m["scenario.load_scenario.ms"] = total_ns["scenario.load_scenario"] * ms
    m["scenario.self.ms"] = sum(v for k, v in self_ns.items() if k.startswith("scenario.")
                                and k != "scenario.load_scenario") * ms
    steps = facts.get("fd.steps", 0)
    m["fd.steps"] = steps
    m["fd.step_us"] = self_ns["fd.evolve_fd"] * ms * 1e3 / steps if steps else 0.0
    m["evolution.evaluate_q.calls"] = calls["evolution.evaluate_q"]
    m["evolution.evaluate_q.bytes"] = facts.get("evaluate_q.bytes", 0)
    for key in ("spectral.modes", "spectral.grid_points", "spectral.warnings",
                "evolution.warnings"):
        m[key] = facts.get(key, 0)
    # closed forms exist only for the neutral workload; 0 elsewhere
    m["spectral.lambda_rel_err"] = check.get("lambda_rel_err", 0.0)
    m["spectral.q0_rel_err"] = check.get("q0_rel_err", 0.0)
    m["fd.l1_gap"] = check.get("fd_l1_gap", 0.0)
    m["fd.ab_gap"] = check.get("fd_ab_gap", 0.0)
    m["scenario.artifact_bytes"] = check.get("artifact_bytes", 0)
    return m


def calibration():
    """Return speed(): time a fixed kernel, return CAL_REF_MS / its time.

    The kernel does not touch kimdiff: a tridiagonal eigensolve and banded
    solves (LAPACK), an interpreter loop, and elementwise passes over 8 MB.
    This host's throughput drifts by about 15% over seconds to minutes, and
    user time tracks wall time, so the drift is not preemption and longer
    runs do not average it out.  Each sample is multiplied by the factor
    measured just before it, which removes most of the drift."""
    import numpy as np
    from scipy.linalg import eigh_tridiagonal, solve_banded

    n = 1024
    diag = 2.0 + np.arange(n) / n
    off = -np.ones(n - 1)
    banded = np.vstack([np.full(n, -0.1), np.full(n, 1.2), np.full(n, -0.1)])
    rhs = np.ones(n)

    def speed():
        start = time.perf_counter()
        eigh_tridiagonal(diag, off, select="i", select_range=(0, 31))
        for _ in range(100):
            solve_banded((1, 1), banded, rhs)
        total = 0
        for i in range(100_000):
            total += i * i % 7
        x = np.ones(1_000_000)  # freed on return, so peak memory stays the program's
        for _ in range(5):
            x = x * 1.0001 + 1.0
        return CAL_REF_MS / ((time.perf_counter() - start) * 1e3)

    return speed


def measure_setup(samples, speed):
    """Fresh processes that import the CLI, as every invocation does.

    Returns (raw seconds, seconds scaled by the factor measured before each)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import kimdiff.cli"]
    raw, scaled = [], []
    for i in range(samples + 1):
        # one import is worth only a few samples, so steady its factor
        factor = statistics.median(speed() for _ in range(3))
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=120)
        if i:  # the first import writes bytecode and fills the file cache
            raw.append(time.perf_counter() - start)
            scaled.append(raw[-1] * factor)
    return raw, scaled


def blas_info(np):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "kimdiff").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def provenance(kimdiff, args, config_digest):
    import numpy as np
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_info(np),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kimdiff": kimdiff.__version__,
        "kimdiff_commit": git_commit(),
        "kimdiff_source_sha256": source_sha256(),
        "config_sha256": config_digest,
    }


def tail(samples):
    """Highest percentile with at least ten samples above it: (value, pct)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    kimdiff = import_kimdiff()
    from spans import Tracer

    spec = WORKLOADS[args.workload]
    command = spec["command"]
    base = json.loads((BENCH / "configs" / f"{args.workload}.json").read_text())
    out = WORK / "out" / args.workload
    cfg_path = WORK / "configs" / f"{args.workload}.json"
    cfg_path.parent.mkdir(parents=True, exist_ok=True)
    config_digest = hashlib.sha256()

    speed = calibration()
    speed()
    setup_raw, setup_scaled = ([], []) if args.trace else measure_setup(SETUP_SAMPLES, speed)

    def call(cfg, tracer=None, call_id=None):
        """One workload call; returns (wall ms, status, problems, numbers)."""
        text = json.dumps(cfg, sort_keys=True)
        config_digest.update(text.encode())
        cfg_path.write_text(text)
        shutil.rmtree(out, ignore_errors=True)
        argv = [command, "--config", str(cfg_path), "--out", str(out)]
        status = None
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            if tracer is not None:
                tracer.call_id = call_id
                tracer.install()
                stack.callback(tracer.uninstall)
                stack.enter_context(warnings.catch_warnings())
                warnings.simplefilter("always")
                warnings.showwarning = tracer.on_warning
            start = time.perf_counter()
            try:
                status = kimdiff.cli.main(argv)
            except Exception:  # a crash is a failed call; keep measuring
                traceback.print_exc()
            elapsed = (time.perf_counter() - start) * 1e3
        if status is None:
            return elapsed, status, ["raised"], {}
        problems, numbers = check_outputs(command, cfg, out, status)
        if tracer is not None and spec.get("neutral_reference"):
            ref = neutral_reference(tracer.facts.get(call_id, {}), cfg)
            if ref is None:
                problems.append("neutral references were not observed")
            else:
                numbers.update(ref)
                if ref["lambda_rel_err"] > 1e-6 or ref["limit_err"] > 1e-8:
                    problems.append(f"neutral closed forms missed: {ref}")
        if tracer is not None:
            tracer.facts.get(call_id, {}).pop("basis", None)  # do not pin its memory
        return elapsed, status, problems, numbers

    tracer = Tracer(OBSERVERS, COUNTERS)
    # untimed warm-up on the base config, traced so its facts can be checked
    warmup_ms, _, problems, warm = call(base, tracer, "warmup")
    all_problems = list(problems)

    # call times scaled to the reference host, and the raw wall times
    plain_ms, traced_ms, plain_raw, factors, layer_rows, checks = [], [], [], [], [], []
    attempted = failed = 0
    draw = draws(args.seed, spec["ranges"])
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or attempted < MIN_CALLS:
        traced = bool(args.trace) and attempted % 2 == 1
        factor = speed()
        elapsed, status, problems, numbers = call(
            drawn_config(base, next(draw)), tracer if traced else None, attempted)
        attempted += 1
        if status != 0 or problems or numbers.get("violations"):
            failed += 1
        all_problems.extend(problems)
        checks.append(numbers)
        factors.append(factor)
        if traced:
            traced_ms.append(elapsed * factor)
            layer_rows.append(layer_metrics(tracer, attempted - 1, numbers, factor))
        else:
            plain_ms.append(elapsed * factor)
            plain_raw.append(elapsed)

    def mean_of(key):
        """Mean over calls: the draws are low-discrepancy points, so the mean
        estimates the average over the input ranges far more steadily than
        the median does."""
        values = [c[key] for c in checks if key in c]
        return statistics.fmean(values) if values else None

    tail_ms, tail_pct = tail(plain_ms)
    detail = {
        "calls": attempted,
        "untraced_calls": len(plain_ms),
        "fail_ratio": failed / attempted,
        "run_ms_p50": statistics.median(plain_ms),
        "run_ms_tail": tail_ms,
        "tail_percentile": tail_pct,
        "tail_samples": len(plain_ms),
        "speed_factor_p50": statistics.median(factors),
        "raw_run_ms_p50": statistics.median(plain_raw),
        "raw_run_ms_tail": tail(plain_raw)[0],
        "raw_setup_s_samples": setup_raw,
        "warmup_ms": warmup_ms,
        "route_gap": mean_of("route_gap"),
        "mass_span": mean_of("mass_span"),
        "fd_l1_gap": mean_of("fd_l1_gap"),
        "fd_ab_gap": mean_of("fd_ab_gap"),
        "neutral_reference": {k: warm[k] for k in ("lambda_rel_err", "q0_rel_err", "limit_err")
                              if k in warm},
        "first_violation": next((c["first_violation"] for c in checks
                                 if "first_violation" in c), None),
        "problems": all_problems[:10],
    }
    if args.trace:
        values = {name: statistics.median(row[name] for row in layer_rows)
                  for name in layer_rows[0]}
        values["trace.overhead"] = statistics.median(traced_ms) / statistics.median(plain_ms) - 1
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {
            "run_ms_p50": detail["run_ms_p50"],
            "run_ms_tail": tail_ms,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "route_gap": detail["route_gap"],
            "mass_span": detail["mass_span"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": not all_problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"provenance": provenance(kimdiff, args, config_digest.hexdigest()),
              "detail": detail, "result": result,
              "call_ms": {"untraced": plain_ms, "traced": traced_ms, "untraced_raw": plain_raw}}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (WORK / f"spans-{stem}.json").write_text(json.dumps(tracer.spans))
    for name, metric in metrics.items():
        print(f"{args.workload:16s} {name:38s} {metric['value']:.6g} {metric['unit']}")
    print("detail " + json.dumps({"provenance": record["provenance"], **detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
