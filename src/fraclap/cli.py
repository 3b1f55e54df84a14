"""Command-line front end.

Subcommands: solve, certify, kernel-check, omega, budget. Configuration is a
flat ``key = value`` text file (``#`` comments, unknown keys rejected), with
``KEY=VALUE`` command-line overrides merged on top. Outputs land in the
output directory (default ``.``): trajectory.csv, certificate.txt,
certificate.csv, kernel.csv, omega_k{K}.csv, budget.txt.

Exit codes: 0 success, 1 domain error (message quotes the violated
inequality), 2 usage error. Identical config and seed give bitwise identical
CSV output.
"""

import math
import os
import sys

from . import certificate as cert
from .coefficient import CoefficientSpec, c1_threshold
from .errors import (DomainError, FraclapError, UsageError, require_finite,
                     require_memory)
from .operators import kernel_l1_report
from .solver import (ProblemConfig, existence_budget, picard_solve,
                     random_nonneg_initial_field)
from .spectral import GridSpec, SpectralField

# every recognized key with its parser; one flat namespace on purpose
_KEY_TYPES = {
    "n": int,
    "alpha": float,
    "gamma": float,
    "rho": float,
    "C1": float,
    "A": float,
    "L": float,
    "N": int,
    "T0": float,
    "dt": float,
    "kind": str,
    "C": float,
    "picard_tol": float,
    "picard_max_iter": int,
    "overflow_threshold": float,
    "C_abs": float,
    "k_max": int,
    "K": int,
    "s": float,
    "t_values": str,
    "u0": str,
    "u0_amplitude": float,
    "seed": int,
}

_DEFAULTS = {
    "n": 1,
    "alpha": 2.0,
    "gamma": 0.0,
    "rho": 0.0,
    "C": 1.0,
    "T0": 0.5,
    "dt": 1.0 / 256.0,
    "kind": "dirac",
    "K": 12,
    "s": 0.5,
    "t_values": "0.5,1,2",
    "u0": "omega",
    "u0_amplitude": 1.0,
    "seed": 0,
}


def _set_key(values, item):
    """Parse one 'key = value' item into values, typed by _KEY_TYPES.

    A missing '=', an unknown key or an untypable value is a UsageError that
    names the key; range checking happens when objects are built.
    """
    key, eq, val = item.partition("=")
    key, val = key.strip(), val.strip()
    if not eq:
        raise UsageError(f"expected 'key = value', got {item!r}")
    if key not in _KEY_TYPES:
        raise UsageError(f"unknown key {key!r}")
    try:
        values[key] = _KEY_TYPES[key](val)
    except ValueError as exc:
        raise UsageError(f"bad value for {key}: {val!r}") from exc


def parse_config(path):
    """Read a flat key = value file into a typed dict; an error message
    starts with path:line:."""
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                _set_key(values, line)
            except UsageError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from None
    return values


def _get(values, key):
    return values.get(key, _DEFAULTS.get(key))


def _default_grid(n):
    if n == 1:
        return GridSpec(1, 16.0 * math.pi, 512)
    if n == 2:
        return GridSpec(2, 16.0 * math.pi, 256)
    return GridSpec(3, 16.0 * math.pi, 128)


def _grid(values, n, default):
    """n-D grid with L and N from values where given, else from default(n)."""
    d = default(n)
    return GridSpec(n, values.get("L", d.L), values.get("N", d.N))


def _build_coefficient(values):
    kind = _get(values, "kind")
    return CoefficientSpec(
        kind=kind,
        C=_get(values, "C"),
        rho=_get(values, "rho") if kind != "dirac" else 0.0,
    )


def _build_initial(values, grid):
    choice = _get(values, "u0")
    amp = _get(values, "u0_amplitude")
    if choice == "omega":
        return cert.omega_initial_field(grid, amp)
    if choice == "random":
        return random_nonneg_initial_field(grid, amp, _get(values, "seed"))
    if choice == "zero":
        return SpectralField.zero(grid)
    raise DomainError(f"u0 must be one of omega|random|zero, got {choice!r}")


_SOLVER_KEYS = ("picard_tol", "picard_max_iter", "overflow_threshold", "C_abs")


def build_problem(values):
    grid = _grid(values, _get(values, "n"), _default_grid)
    require_memory(16 * grid.N ** grid.n,
                   f"a complex field of N^n = {grid.N}^{grid.n} coefficients", "lower N")
    return ProblemConfig(
        grid=grid,
        alpha=_get(values, "alpha"),
        gamma=_get(values, "gamma"),
        coefficient=_build_coefficient(values),
        u0=_build_initial(values, grid),
        T0=_get(values, "T0"),
        dt=_get(values, "dt"),
        # ProblemConfig holds the defaults of these
        **{key: values[key] for key in _SOLVER_KEYS if key in values},
    )


def build_certificate_params(values):
    n = _get(values, "n")
    rho = _get(values, "rho")
    alpha = _get(values, "alpha")
    # C1 and A default to their floors (C1's rounded up to a float, so it
    # passes C1 >= floor with no slack) and gamma to a point of its blow-up
    # range (0.9 at alpha = 2), so a bare `certify` run at any alpha is the
    # minimal certified configuration
    gamma = 0.9 * (alpha - 1.0) if alpha > 1 else 1.0 - alpha / 2.0
    return cert.CertificateParams(
        n=n,
        alpha=alpha,
        gamma=values.get("gamma", gamma),
        rho=rho,
        C1=values.get("C1", c1_threshold(n, alpha, rho)),
        A=values.get("A", 2.0 ** (6 + n)),
    )


# ---------------------------------------------------------------------------

def _cmd_solve(values, outdir):
    config = build_problem(values)
    dt = _get(values, "dt")
    if config.dt != dt:
        print(f"dt = {dt!r} does not divide T0 = {config.T0!r}: using dt = {config.dt!r}")
    traj = picard_solve(config)
    path = os.path.join(outdir, "trajectory.csv")
    traj.to_csv(path)
    if traj.overflow_at is not None and traj.converged:
        print(f"numerical blow-up at t = {traj.overflow_at!r} "
              f"(discrete H1 crossed {config.overflow_threshold:g})")
    elif traj.overflow_at is not None:
        # the iteration stopped at picard_max_iter: the crossing belongs to
        # an iterate that is not the fixed point, so it shows no blow-up
        print(f"discrete H1 crossed {config.overflow_threshold:g} at "
              f"t = {traj.overflow_at!r} in an unconverged iterate; "
              "no blow-up is claimed")
    print(f"wrote {path} ({len(traj.times)} times, {traj.iterations} sweeps, "
          f"converged={traj.converged})")
    return 0


def _cmd_certify(values, outdir):
    # the grid first: it rejects n outside 1..3, where the C1 floor is complex
    n = _get(values, "n")
    grid = _grid(values, n, cert.default_certificate_grid)
    params = build_certificate_params(values)
    k_max = values.get("k_max", cert.default_k_max(n))
    report = cert.certify(params, grid, k_max, _get(values, "K"))
    txt = os.path.join(outdir, "certificate.txt")
    with open(txt, "w") as fh:
        fh.write(report.to_text())
    csvp = os.path.join(outdir, "certificate.csv")
    report.to_csv(csvp)
    print(report.to_text(), end="")
    print(f"wrote {txt} and {csvp}")
    return 0


def _cmd_kernel_check(values, outdir):
    try:
        t_values = [float(x) for x in _get(values, "t_values").split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"t_values must be comma-separated numbers: {exc}") from exc
    # no L or N: the report sizes its own grid
    grid = None
    if "L" in values or "N" in values:
        grid = _grid(values, 1, _default_grid)
    report = kernel_l1_report(_get(values, "s"), _get(values, "alpha"), t_values,
                              grid=grid)
    path = os.path.join(outdir, "kernel.csv")
    report.to_csv(path)
    print(f"homogeneity ratio spread = {report.ratio_spread():.4%}, "
          f"empirical bound constant = {report.bound_constant:.6g}")
    print(f"wrote {path}")
    return 0


def _cmd_omega(values, outdir):
    n = _get(values, "n")
    grid = _grid(values, n, cert.default_certificate_grid)
    k_max = values.get("k_max", cert.default_k_max(n))
    for lev, win in cert.build_omega_sequence(k_max, grid):
        path = os.path.join(outdir, f"omega_k{lev.k}.csv")
        win.to_csv(path)
        print(f"k={lev.k}: l1={lev.l1!r} target={lev.l1_target!r} "
              f"rel_err={lev.l1_error:.3e} support_ok={lev.support_ok} -> {path}")
    return 0


def _cmd_budget(values, outdir):
    # the budget reads no time lattice, so a step longer than a short horizon
    # is cut to it; a non-finite step is still an input error
    dt = _get(values, "dt")
    require_finite(dt=dt)
    config = build_problem({**values, "dt": min(dt, _get(values, "T0"))})
    budget = existence_budget(config)
    lines = [
        "contraction budget (indicative: the absolute constant is C_abs)",
        f"  case = {budget.case}  (alpha = {config.alpha}, gamma = {config.gamma})",
        f"  delta = ||u0||_H1 = {budget.delta!r}",
        f"  ||b|| (order {'-' if budget.case == 1 else '+'}gamma) = {budget.b_norm!r}",
        f"  C_B = C_abs * T0^{budget.exponent:.6g} * ||b|| = {budget.C_B!r} "
        f"(C_abs = {budget.C_abs})",
        f"  4 C_B delta = {4 * budget.C_B * budget.delta!r} "
        f"(contraction needs < 1: {'ok' if budget.contraction_ok else 'FAIL'})",
        f"  T0_max (largest horizon with 4 C_B delta = 1) = {budget.T0_max!r}",
    ]
    text = "\n".join(lines) + "\n"
    path = os.path.join(outdir, "budget.txt")
    with open(path, "w") as fh:
        fh.write(text)
    print(text, end="")
    print(f"wrote {path}")
    return 0


_HANDLERS = {
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "kernel-check": _cmd_kernel_check,
    "omega": _cmd_omega,
    "budget": _cmd_budget,
}

_USAGE = """usage: fraclap SUBCOMMAND [CONFIG] [--output-dir DIR] [KEY=VALUE ...]

subcommands: solve | certify | kernel-check | omega | budget
CONFIG is a flat 'key = value' file (# comments); KEY=VALUE args override it.
"""


def run(argv):
    """Dispatch a command line; returns the process exit code."""
    args = list(argv)
    if not args or args[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0 if args else 2
    sub = args.pop(0)
    if sub not in _HANDLERS:
        print(f"unknown subcommand {sub!r}\n{_USAGE}", file=sys.stderr, end="")
        return 2
    try:
        outdir = "."
        config_path = None
        overrides = []
        i = 0
        while i < len(args):
            a = args[i]
            if a in ("--output-dir", "-o"):
                if i + 1 >= len(args):
                    raise UsageError(f"{a} needs a directory argument")
                outdir = args[i + 1]
                i += 2
            elif "=" in a:
                overrides.append(a)
                i += 1
            elif config_path is None:
                config_path = a
                i += 1
            else:
                raise UsageError(f"unexpected argument {a!r}")
        values = parse_config(config_path) if config_path is not None else {}
        for item in overrides:
            _set_key(values, item)
        os.makedirs(outdir, exist_ok=True)
        return _HANDLERS[sub](values, outdir)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    except FraclapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
