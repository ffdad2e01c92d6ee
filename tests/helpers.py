"""Shared constructors for solver tests."""

import functools
import importlib.util
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import onephase.solver as solver_module
from onephase import Iterate, NlpProblem, build_source, to_inequality_form


def linear_problem(grad, jac_rows, a_consts, name="toy"):
    """NlpProblem with constant objective gradient and affine constraints
    a_i(x) = jac_rows[i] @ x + a_consts[i]."""
    grad = np.asarray(grad, float)
    J = np.atleast_2d(np.asarray(jac_rows, float))
    c = np.asarray(a_consts, float)
    n = grad.shape[0]
    m = J.shape[0] if c.size else 0
    return NlpProblem(
        n=n,
        m=m,
        eval_f=lambda x: float(grad @ x),
        eval_grad_f=lambda x: grad,
        eval_a=lambda x: J @ x + c,
        eval_jac=lambda x: J,
        eval_hess_lag=lambda x, v: np.zeros((n, n)),
        linear_indices=frozenset(range(m)),
        name=name,
    )


def quadratic_problem(H, g, jac_rows=None, a_consts=None, name="toy-qp"):
    """NlpProblem for f = 0.5 x'Hx + g'x with affine constraints."""
    H = np.asarray(H, float)
    g = np.asarray(g, float)
    n = g.shape[0]
    if jac_rows is None:
        J = np.zeros((0, n))
        c = np.zeros(0)
    else:
        J = np.atleast_2d(np.asarray(jac_rows, float))
        c = np.asarray(a_consts, float)
    m = J.shape[0]
    return NlpProblem(
        n=n,
        m=m,
        eval_f=lambda x: 0.5 * float(x @ (H @ x)) + float(g @ x),
        eval_grad_f=lambda x: H @ x + g,
        eval_a=lambda x: J @ x + c,
        eval_jac=lambda x: J,
        eval_hess_lag=lambda x, v: H,
        linear_indices=frozenset(range(m)),
        name=name,
    )


@functools.cache
def perfbench_module(name):
    """``perfbench/<name>.py``, loaded from its file (``perfbench`` is not a
    package) and registered in ``sys.modules`` for its dataclasses."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def planted_qp(seed, n=128):
    """The benchmark's strictly convex QP with a planted optimum
    (``perfbench/workloads.py``'s ``_planted_qp``: a banded Q, n/2 general
    >= rows, a third of them active, and a box on every variable, a third
    of the variables at a bound), lowered."""
    pf, _, _ = perfbench_module("workloads")._planted_qp(
        np.random.default_rng(seed), n, n // 2, 0, f"planted-qp{seed}")
    return to_inequality_form(build_source(pf))[0]


def raw_iterate(mu, x, s, y, w, f=0.0, grad_f=None, a=None, jac=None):
    """Iterate with every cache supplied explicitly (no problem needed)."""
    x = np.atleast_1d(np.asarray(x, float))
    s = np.atleast_1d(np.asarray(s, float))
    y = np.atleast_1d(np.asarray(y, float))
    w = np.atleast_1d(np.asarray(w, float))
    n, m = x.shape[0], s.shape[0]
    return Iterate(
        mu=float(mu),
        x=x,
        s=s,
        y=y,
        w=w,
        f=float(f),
        grad_f=np.zeros(n) if grad_f is None else np.atleast_1d(np.asarray(grad_f, float)),
        a=(mu * w - s) if a is None else np.atleast_1d(np.asarray(a, float)),
        jac=np.zeros((m, n)) if jac is None else np.atleast_2d(np.asarray(jac, float)),
    )


def random_interior_setup(rng, n=None, m=None):
    """Random linear-constraint problem plus an iterate satisfying the
    residual identity a(x) + s = mu*w and the complementarity corridor."""
    n = int(rng.integers(1, 6)) if n is None else n
    m = int(rng.integers(1, 6)) if m is None else m
    H = rng.standard_normal((n, n))
    H = 0.5 * (H + H.T)
    J = rng.standard_normal((m, n))
    x = rng.standard_normal(n)
    mu = float(rng.uniform(0.05, 2.0))
    s = rng.uniform(0.2, 2.0, m)
    # complementarity ratio in the corridor, well inside [beta2, 1/beta2]
    ratio = rng.uniform(0.1, 10.0, m)
    y = ratio * mu / s
    w = rng.uniform(0.0, 2.0, m)
    c = mu * w - s - J @ x          # makes a(x) = mu*w - s at this x
    g_obj = rng.standard_normal(n)
    b = g_obj - H @ x               # so grad f(x) = g_obj

    problem = NlpProblem(
        n=n,
        m=m,
        eval_f=lambda z: 0.5 * float(z @ (H @ z)) + float(b @ z),
        eval_grad_f=lambda z: H @ z + b,
        eval_a=lambda z: J @ z + c,
        eval_jac=lambda z: J,
        eval_hess_lag=lambda z, v: H,
        linear_indices=frozenset(range(m)),
        name="random-linear",
    )
    it = Iterate(mu=mu, x=x, s=s, y=y, w=w,
                 f=problem.f(x), grad_f=problem.grad_f(x),
                 a=problem.a(x), jac=problem.jac(x))
    return problem, it


@contextmanager
def observed_steps():
    """Collect every accepted step of the solves run inside the block as
    ``(previous, direction, alpha_p, alpha_d, new, kind)``.

    Wraps ``aggressive_step`` and ``stabilization_step`` in the ``solver``
    module's globals, through which ``solve`` calls them, and restores them
    on exit.
    """
    steps = []
    saved = {}

    def observing(step, kind):
        def observed(fs, it, *args):
            outcome = step(fs, it, *args)
            if outcome.success:
                steps.append((it, outcome.direction, outcome.alpha_p,
                              outcome.alpha_d, outcome.iterate, kind))
            return outcome
        return observed

    for kind in ("aggressive", "stabilization"):
        name = f"{kind}_step"
        saved[name] = getattr(solver_module, name)
        setattr(solver_module, name, observing(saved[name], kind))
    try:
        yield steps
    finally:
        for name, step in saved.items():
            setattr(solver_module, name, step)


def run_python(code, *flags, env=None):
    """Run ``code`` in a fresh interpreter (with ``flags`` such as ``-O``
    and the variables ``env`` added to the environment) importing this
    source tree and these test modules; ``timeout=60`` turns a hang into a
    failure."""
    env = {**os.environ, **(env or {})}
    tests = Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
