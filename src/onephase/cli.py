"""Command-line front end.

Exit codes: 0 optimal, 1 primal infeasible, 2 unbounded, 3 iteration or
time limit, 4 solver failure (shift cap, evaluation error), 5 usage or
parse error, or an output file that cannot be written.  The ONEPHASE_LOG
environment variable (quiet | summary | trace) controls stdout verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
from pathlib import Path

import numpy as np

from .iterate import SolveStatus, SolverOptions
from .problem_file import build_source, default_start, parse_problem_file
from .problem import EvaluationError, check_derivatives, to_inequality_form
from .registry import builtin_registry
from .solver import SolveResult, solve, write_trace_csv

EXIT_CODES = {
    SolveStatus.OPTIMAL: 0,
    SolveStatus.PRIMAL_INFEASIBLE: 1,
    SolveStatus.UNBOUNDED: 2,
    SolveStatus.ITERATION_LIMIT: 3,
    SolveStatus.TIME_LIMIT: 3,
    SolveStatus.MAX_DELTA: 4,
    SolveStatus.EVALUATION_ERROR: 4,
}

USAGE_ERROR = 5

BATCH_EXTENSION = ".nlp"


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def _log_level() -> str:
    level = os.environ.get("ONEPHASE_LOG", "summary").strip().lower()
    return level if level in ("quiet", "summary", "trace") else "summary"


def _load_file(path: Path):
    """Parse and lower a problem file into (problem, x_start)."""
    pf = parse_problem_file(path.read_text())
    problem, _origins = to_inequality_form(build_source(pf))
    return problem, default_start(pf)


def _load_target(target: str):
    """Resolve 'builtin:NAME' or a problem-file path into (problem, x_start)."""
    if target.startswith("builtin:"):
        name = target.split(":", 1)[1]
        registry = builtin_registry()
        if name not in registry:
            known = ", ".join(sorted(registry))
            raise ValueError(f"unknown builtin problem {name!r}; known: {known}")
        entry = registry[name]
        problem, _origins = entry.build()
        return problem, entry.x_start.copy()
    return _load_file(Path(target))


def _options_from_args(args) -> SolverOptions:
    flags = {"eps_opt": args.tol, "mu_scale": args.mu_scale,
             "max_iter": args.max_iter, "max_time": args.max_time}
    opts = SolverOptions(**{key: value for key, value in flags.items() if value is not None})
    opts.validate()
    return opts


def _print_summary(name: str, result: SolveResult, level: str) -> None:
    if level == "quiet":
        return
    print(f"{name}: {result.status.value} "
          f"({result.inner_iterations} inner / {result.outer_iterations} outer "
          f"iterations, {result.wall_time:.3f}s)")
    if result.status in (SolveStatus.OPTIMAL, SolveStatus.PRIMAL_INFEASIBLE,
                         SolveStatus.UNBOUNDED):
        values = ", ".join(f"{k}={v:.3e}" for k, v in result.certificate.items())
        print(f"  certificate: {values}")
    elif result.detail:
        print(f"  detail: {result.detail}")
    if result.iterate is not None:
        print(f"  objective: {result.iterate.f:.12g}")
        x = result.iterate.x
        if x.size <= 12:
            print("  x: " + " ".join(f"{v:.9g}" for v in x))


def _trace_printer():
    header_done = [False]

    def show(rec):
        if not header_done[0]:
            print(f"{'iter':>5} {'kind':<13} {'acc':>3} {'mu':>10} "
                  f"{'resid':>10} {'opt_dual':>10} {'alpha_p':>8} {'delta':>9}")
            header_done[0] = True
        print(f"{rec.iter:>5} {rec.kind:<13} {str(rec.accepted)[0]:>3} "
              f"{rec.mu:>10.3e} {rec.primal_resid:>10.3e} {rec.opt_dual:>10.3e} "
              f"{rec.alpha_p:>8.3f} {rec.delta:>9.2e}")

    return show


def _cmd_solve(args) -> int:
    level = _log_level()
    try:
        opts = _options_from_args(args)
        problem, x_start = _load_target(args.target)
        if args.seed is not None:  # default_rng refuses a negative seed
            rng = np.random.default_rng(args.seed)
            x_start = x_start + 0.1 * rng.standard_normal(x_start.shape)
        trace_file = (contextlib.nullcontext() if args.trace is None
                      else open(args.trace, "w", newline=""))
    except (OSError, ValueError) as exc:
        return _usage_error(exc)

    try:
        with trace_file:
            if args.check_derivatives:
                try:
                    report = check_derivatives(problem, x_start)
                except EvaluationError as exc:  # the solve reports it as evaluation-error
                    found = str(exc)
                else:
                    found = (f"grad {report['grad_f_error']:.3e}, jac {report['jac_error']:.3e},"
                             f" hess {report['hess_error']:.3e}")
                if level != "quiet":
                    print(f"derivative check at start point: {found}")

            progress = _trace_printer() if level == "trace" else None
            result = solve(problem, x_start, opts, progress=progress)
            _print_summary(problem.name, result, level)
            if args.trace is not None:
                write_trace_csv(result.trace, trace_file)
    except OSError as exc:
        return _usage_error(exc)
    if args.trace is not None and level != "quiet":
        print(f"  trace written to {args.trace}")
    return EXIT_CODES[result.status]


def _solve_file(path: Path, opts: SolverOptions, trace_dir) -> dict:
    row = {"name": path.stem, "file": str(path)}
    try:
        problem, x_start = _load_file(path)
    except (ValueError, OSError) as exc:
        row.update(status="parse-error", exit_code=USAGE_ERROR, error=str(exc),
                   inner_iters="", outer_iters="", objective="", wall_time="")
        return row
    result = solve(problem, x_start, opts)
    row.update(
        status=result.status.value,
        exit_code=EXIT_CODES[result.status],
        error=result.detail,   # empty on a certificate
        inner_iters=result.inner_iterations,
        outer_iters=result.outer_iterations,
        objective="" if result.f is None else repr(result.f),
        wall_time=f"{result.wall_time:.4f}",
    )
    if trace_dir is not None:
        trace_path = Path(trace_dir) / (path.stem + "-trace.csv")
        with open(trace_path, "w", newline="") as fh:
            write_trace_csv(result.trace, fh)
    return row


BATCH_COLUMNS = ["name", "file", "status", "exit_code", "inner_iters",
                 "outer_iters", "objective", "wall_time", "error"]


def _cmd_batch(args) -> int:
    level = _log_level()
    directory = Path(args.directory)
    if not directory.is_dir():
        return _usage_error(f"{directory} is not a directory")
    files = sorted(directory.glob(f"*{BATCH_EXTENSION}"))
    if not files:
        return _usage_error(f"no {BATCH_EXTENSION} files in {directory}")
    if args.trace_dir is not None and not Path(args.trace_dir).is_dir():
        return _usage_error(f"{args.trace_dir} is not a directory")
    try:
        opts = _options_from_args(args)
        summary = (contextlib.nullcontext() if args.summary is None
                   else open(args.summary, "w", newline=""))
    except (OSError, ValueError) as exc:
        return _usage_error(exc)

    try:
        with summary:
            rows = [_solve_file(p, opts, args.trace_dir) for p in files]
            if args.summary is not None:
                writer = csv.DictWriter(summary, fieldnames=BATCH_COLUMNS)
                writer.writeheader()
                writer.writerows(rows)
    except OSError as exc:
        return _usage_error(exc)
    if level != "quiet":
        for row in rows:
            print(f"{row['name']}: {row['status']}")
        print(f"{len(rows)} problems solved")

    certified = {0, 1, 2}
    return 0 if all(row["exit_code"] in certified for row in rows) else 4


def _cmd_list() -> int:
    registry = builtin_registry()
    width = max(len(name) for name in registry)
    for name in sorted(registry):
        print(f"{name:<{width}}  {registry[name].description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onephase",
        description="One-phase interior-point solver for nonlinear programs "
                    "with inequality constraints.",
    )
    parser.add_argument("--list", action="store_true",
                        help="list built-in problems and exit")
    sub = parser.add_subparsers(dest="command")

    def add_solver_flags(p):
        p.add_argument("--tol", type=float, default=None,
                       help="optimality tolerance (default 1e-6)")
        p.add_argument("--mu-scale", type=float, default=None, dest="mu_scale",
                       help="scale factor for the initial barrier parameter")
        p.add_argument("--max-iter", type=int, default=None, dest="max_iter",
                       help="inner iteration limit (default 3000)")
        p.add_argument("--max-time", type=float, default=None, dest="max_time",
                       help="wall clock limit in seconds")

    p_solve = sub.add_parser("solve", help="solve one problem file or builtin:NAME")
    p_solve.add_argument("target", help="problem file path or builtin:NAME")
    add_solver_flags(p_solve)
    p_solve.add_argument("--trace", default=None, metavar="CSV",
                         help="write the per-iteration trace to CSV")
    p_solve.add_argument("--check-derivatives", action="store_true",
                         help="finite-difference check of callbacks before solving")
    p_solve.add_argument("--seed", type=int, default=None,
                         help="seed for a random perturbation of the start point")

    p_batch = sub.add_parser("batch", help=f"solve every *{BATCH_EXTENSION} file in a directory")
    p_batch.add_argument("directory")
    add_solver_flags(p_batch)
    p_batch.add_argument("--summary", default=None, metavar="CSV",
                         help="write a one-row-per-problem summary CSV")
    p_batch.add_argument("--trace-dir", default=None, dest="trace_dir",
                         help="directory for per-problem trace CSVs")
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code.
        return 0 if exc.code == 0 else USAGE_ERROR
    if args.list:
        return _cmd_list()
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "batch":
        return _cmd_batch(args)
    parser.print_usage(sys.stderr)
    return USAGE_ERROR


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
