"""Time-to-certificate benchmark for onephase.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the solver is imported from
``src/`` of that checkout and nowhere else.  Each run generates its
workload from ``--seed``, sets it up several times (setup_s is the median
import time plus the median set-up), then solves the workload in whole passes,
one solve in flight at a time, until ``--seconds`` have been spent and
(untraced) at least ten timed solves lie beyond p90.  Every
answer is checked by the workload's oracle, and every solve's
(status, inner, outer, counters) must repeat exactly on every pass.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` passes alternate between untraced and traced, and the last
line holds the per-layer metrics of the traced passes (see
``perfbench/layers.json``).  Earlier lines carry the environment, one
golden record per solve, one line per solve that was not certified and
a summary.  Exit code 0 means no answer was wrong and every record
repeated; 1 means a check failed; 2 means the solver could not be
imported from this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("registry-hostile", "boxqp-dense", "nonconvex-chain", "batch-mixed")
SETUP_REPEATS = 3
# An untraced run times the import in this process and in this many
# fresh interpreters, and counts the median in setup_s.
FRESH_IMPORTS = 2
MIN_PASSES = 2
# An untraced run goes on past --seconds until this many timed solves lie
# beyond p90, so that p90 rests on enough samples.
MIN_BEYOND_P90 = 10


def _import_solver() -> float:
    """Import onephase from this checkout's src/ and return the seconds it took."""
    t0 = time.perf_counter()
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    try:
        import onephase
    except ImportError as exc:
        print(f"error: cannot import onephase from {ROOT / 'src'}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if Path(onephase.__file__).resolve().parent != ROOT / "src" / "onephase":
        print(f"error: onephase was imported from {onephase.__file__}, "
              f"not from this checkout", file=sys.stderr)
        raise SystemExit(2)
    return time.perf_counter() - t0


def _fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import onephase from this checkout."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import onephase; print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads(package) -> dict:
    """Thread count of each OpenBLAS library bundled with ``package``."""
    import ctypes
    out = {}
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[lib.name] = fn()
                break
    return out


def environment(workload: str, seed: int) -> dict:
    import hashlib

    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "onephase").glob("*.py")):
        digest.update(path.read_bytes())

    def blas(package):
        deps = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"

    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": {**_blas_threads(numpy), **_blas_threads(scipy)},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _beyond_p90(times) -> int:
    import numpy as np
    return int(np.sum(np.asarray(times) > np.percentile(times, 90)))


def record_of(result) -> dict:
    """The part of a solve that must repeat exactly (the golden record)."""
    return {"status": result.status.value, "inner": result.inner_iterations,
            "outer": result.outer_iterations, "counters": dict(result.counters)}


class SolveLog:
    """Per-solve times, oracle verdicts and records across all passes.

    A solve counts as failed unless it is certified.  Only wrong answers
    (a certificate that fails its own check, an exception) and records
    that do not repeat make the run incorrect; an uncertified solve lowers
    certified_frac and is listed.
    """

    def __init__(self):
        self.first: dict = {}        # name -> record from the first (untraced) pass
        self.times: list = []        # seconds per untraced solve
        self.attempted = 0
        self.certified = 0
        self.failures: dict = {}     # (verdict, name, reason) -> times seen
        self.traced_records: list = []

    def add(self, name: str, result, seconds: float, verdict: str, why,
            traced: bool) -> None:
        from workloads import CERTIFIED, WRONG
        self.attempted += 1
        if result is not None:
            rec = record_of(result)
            first = self.first.setdefault(name, rec)
            if rec != first:
                self._fail(WRONG, name, f"record differs from the first pass "
                           f"({'traced' if traced else 'untraced'}): {rec} != {first}")
            if traced:
                self.traced_records.append(rec)
        if not traced:
            self.times.append(seconds)
        if verdict == CERTIFIED:
            self.certified += 1
        else:
            self._fail(verdict, name, why)

    def _fail(self, verdict: str, name: str, why: str) -> None:
        key = (verdict, name, why)
        self.failures[key] = self.failures.get(key, 0) + 1

    @property
    def correct(self) -> bool:
        from workloads import WRONG
        return all(verdict != WRONG for verdict, _, _ in self.failures)


def _checked_solve(solve, inst, log: SolveLog, traced: bool) -> float:
    """Solve one instance, judge it; return the seconds spent judging."""
    from workloads import WRONG, judge
    t0 = time.perf_counter()
    try:
        result = solve(inst.problem, inst.x0)
    except Exception as exc:  # a raising solve is a wrong answer
        result, verdict, why = None, WRONG, f"solve raised {type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if result is not None:
        verdict, why = judge(result, inst.status, inst.check, inst.fresh)
    log.add(inst.name, result, t1 - t0, verdict, why, traced)
    return time.perf_counter() - t1


class SolvePasses:
    """Passes of ``solve`` over the instances of a workload."""

    def __init__(self, wl):
        self.wl = wl

    def run(self, log: SolveLog, tracer) -> float:
        import onephase
        solve = onephase.solve if tracer is None else tracer.solve(onephase.solve)
        t0 = time.perf_counter()
        checking = sum(_checked_solve(solve, inst, log, tracer is not None)
                       for inst in self.wl.instances)
        return time.perf_counter() - t0 - checking


class BatchPasses:
    """Passes of ``run_cli(["batch", dir, "--summary", csv])`` over the
    workload's directory.  ``onephase.cli.solve`` is replaced by a
    pass-through that times each call and keeps its result, so every file
    gets a solve time and a record."""

    def __init__(self, wl, directory: Path):
        self.wl = wl
        self.directory = directory
        self.summary = directory / "summary.csv"

    def run(self, log: SolveLog, tracer) -> float:
        import csv
        import io

        import onephase.cli
        real_solve = onephase.cli.solve
        solve = real_solve if tracer is None else tracer.solve(real_solve)
        run_cli = onephase.cli.run_cli
        if tracer is not None:
            run_cli = tracer.wrap("cli.run_cli", run_cli)
        seen = {}

        def timed_solve(problem, x_start, *args, **kwargs):
            t0 = time.perf_counter()
            result = solve(problem, x_start, *args, **kwargs)
            seen[problem.name] = (result, time.perf_counter() - t0)
            return result

        onephase.cli.solve = timed_solve
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                run_cli(["batch", str(self.directory), "--summary", str(self.summary)])
                wall = time.perf_counter() - t0
        finally:
            onephase.cli.solve = real_solve
        with open(self.summary, newline="") as fh:
            rows = {row["name"]: row for row in csv.DictReader(fh)}
        from workloads import CERTIFIED, WRONG, check_batch_row, judge
        for bf in self.wl.batch_files:
            result, seconds = seen.get(bf.name, (None, 0.0))
            if bf.name not in rows or result is None:
                verdict, why = WRONG, "missing from the summary CSV or never solved"
            elif check_batch_row(rows[bf.name], bf) is None:
                verdict, why = CERTIFIED, None
            else:
                # The CSV disagrees with the plant: judge the solve itself.
                verdict, why = judge(result, bf.status,
                                     lambda r, row=rows[bf.name]: check_batch_row(row, bf),
                                     bf.fresh)
            log.add(bf.name, result, seconds, verdict, why, tracer is not None)
        return wall


def build(workload: str, seed: int, small: bool, workdir: Path):
    """Set the workload up once; returns (workload, passes runner)."""
    import workloads as W
    if workload == "registry-hostile":
        wl = W.registry_hostile(seed, **({"perturbed": 0, "hostile": 1} if small else {}))
    elif workload == "boxqp-dense":
        wl = W.boxqp_dense(seed, **({"n": 12, "count": 1} if small else {}))
    elif workload == "nonconvex-chain":
        wl = W.nonconvex_chain(seed, **({"n": 8, "count": 1} if small else {}))
    else:
        workdir.mkdir(parents=True, exist_ok=True)
        wl = W.batch_mixed(seed, workdir, **({"n": 6, "per_kind": 1, "plain": 1}
                                             if small else {}))
        return wl, BatchPasses(wl, workdir)
    return wl, SolvePasses(wl)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, out=sys.stdout) -> tuple[dict, dict]:
    """One benchmark run; prints the env, records and summary lines to
    ``out``.  Returns the result object and the record of every solve."""
    import numpy as np

    import_runs_s = [_import_solver()]
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    from tracer import Tracer, layer_metrics

    print("env " + json.dumps(environment(workload, seed)), file=out)
    workdir = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        setup_times, parse_ms, lower_ms = [], [], []
        if not (trace or small):  # setup_s is an end-to-end metric
            import_runs_s += [_fresh_import_s() for _ in range(FRESH_IMPORTS)]
        for _ in range(SETUP_REPEATS):
            wl, passes = build(workload, seed, small, workdir)
            setup_times.append(wl.setup_s)
            parse_ms += wl.parse_ms
            lower_ms += wl.lower_ms

        log = SolveLog()
        tracer = Tracer() if trace else None
        walls = {False: 0.0, True: 0.0}
        count, step = 0, 2 if trace else 1
        start = time.perf_counter()
        while True:
            traced = trace and count % 2 == 1
            if traced:
                with tracer.installed():
                    walls[True] += passes.run(log, tracer)
            else:
                walls[False] += passes.run(log, None)
            count += 1
            elapsed = time.perf_counter() - start
            if count >= MIN_PASSES and count % step == 0 and \
                    elapsed + 0.5 * step * elapsed / count >= seconds and \
                    (trace or small or _beyond_p90(log.times) >= MIN_BEYOND_P90):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    for name, rec in log.first.items():
        print("record " + json.dumps({"name": name, **rec}), file=out)
    for (verdict, name, why), times in log.failures.items():
        print(f"{verdict} {name} (x{times}): {why}", file=out)

    if trace:
        totals = tracer.totals()
        for key, span in (("f", "eval_f"), ("grad", "eval_grad_f"), ("cons", "eval_a"),
                          ("jac", "eval_jac"), ("hess", "eval_hess_lag")):
            wrapped = totals.get(f"problem.{span}", {}).get("calls", 0)
            counted = sum(r["counters"][key] for r in log.traced_records)
            if wrapped != counted:
                raise RuntimeError(f"traced {span} calls {wrapped} != counters[{key!r}] "
                                   f"{counted}")
        metrics = layer_metrics(totals, log.traced_records, parse_ms, lower_ms,
                                walls[True] / walls[False])
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    else:
        times_ms = 1e3 * np.asarray(log.times)
        p50, p90 = np.percentile(times_ms, [50, 90])
        metrics = {
            "solve_ms_p50": float(p50),
            "solve_ms_p90": float(p90),
            "solves_per_s": len(log.times) / walls[False],
            "certified_frac": log.certified / log.attempted,
            "setup_s": statistics.median(import_runs_s) + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
        print("summary " + json.dumps({
            "solves": len(log.times), "beyond_p90": _beyond_p90(log.times),
            "passes": count, "measured_s": walls[False],
            "setup_runs_s": setup_times, "import_runs_s": import_runs_s}), file=out)
    return {
        "correct": log.correct,
        "attempted": log.attempted,
        "failed": log.attempted - log.certified,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, log.first


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(out=sys.stdout) -> list:
    """One tiny instance set per workload, untraced and traced.  Returns
    the problems found: missing or extra metric names, wrong answers, and
    records that differ between the two runs of one seed.  Uncertified
    answers are printed to ``out`` but are not problems: the full-size run
    reports them in certified_frac."""
    spec = _benchmark_spec()
    problems = []
    for workload in WORKLOADS:
        records = []
        for trace in (False, True):
            res, recs = run_workload(workload, 0, 0.0, trace, small=True, out=out)
            records.append(recs)
            want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            if set(res["metrics"]) != want:
                problems.append(f"{workload} trace={int(trace)}: metric names "
                                f"{sorted(set(res['metrics']) ^ want)} differ")
            if not res["correct"]:
                problems.append(f"{workload} trace={int(trace)}: a wrong answer "
                                f"or a record that did not repeat")
        if records[0] != records[1]:
            problems.append(f"{workload}: records differ between two runs of seed 0")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances of every workload; checks names and answers")
    args = parser.parse_args(argv)
    if args.smoke:
        problems = smoke(out=sys.stderr)
        for line in problems:
            print(line)
        print("smoke ok" if not problems else "smoke FAILED")
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
