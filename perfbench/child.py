"""One fraclap CLI call, launched by run.py in its own process.

    python3 child.py --mark FILE [--spans FILE] [--probe] -- SUBCOMMAND [ARGS ...]

Writes the ``time.monotonic_ns()`` reading taken right after ``fraclap.cli``
is imported to ``--mark`` (the parent takes launch-to-mark as set-up time),
then runs ``fraclap.cli.run`` and exits with its code. ``--probe`` stops after
the import. With ``--spans`` the public functions of each fraclap module are
wrapped in timing spans from this file (the library carries no tracing code)
and the spans are written to that file with ``marshal`` when the call ends
(read back only by run.py).

A span is ``[name, start_ns, end_ns, parent_index, attrs]``; the name is
``layer:function``, parent -1 marks a top-level span of the call.
"""

import marshal
import os
import resource
import sys
import time

_FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
              "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder; ``wrap`` swaps a module or class attribute
    for a timing wrapper around the original callable."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def begin(self, name):
        self.spans.append([name, time.monotonic_ns(), 0,
                           self._stack[-1] if self._stack else -1, None])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span):
        span[2] = time.monotonic_ns()
        self._stack.pop()

    def wrap(self, owner, attr, name, describe=None, rss=False):
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            rss0 = _maxrss_mb() if rss else None
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            attrs = describe(args, kwargs, result) if describe else {}
            if rss:
                attrs["peak_alloc_mb"] = _maxrss_mb() - rss0
            span[4] = attrs or None
            return result

        setattr(owner, attr, traced)


def _fft_points(func):
    """Points transformed: the complex length for c2c and inverse-real
    transforms, the real input length for forward-real ones."""
    def describe(args, kwargs, out):
        if not func.startswith("rfft"):
            return {"points": int(out.size)}
        a = args[0]
        if func == "rfft":
            n = kwargs.get("n", args[1] if len(args) > 1 else None)
            axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        else:
            s = kwargs.get("s", args[1] if len(args) > 1 else None)
            axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
            axis = axes[-1] if axes is not None else -1
            n = s[-1] if s is not None else None
        if n is None:
            n = a.shape[axis]
        return {"points": int(out.size // out.shape[axis] * n)}
    return describe


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _solve_counts(args, kwargs, traj):
    config = args[0]
    crossing = len(traj.times) - 1 if traj.overflow_at is not None else 0
    return {"sweeps": traj.iterations, "nodes": config.n_steps + 1,
            "crossing_index": crossing}


def install(tracer):
    """Wrap the layer boundaries; every binding the CLI resolves at call time."""
    import numpy.fft
    from fraclap import certificate, cli, operators, solver

    for func in _FFT_FUNCS:
        tracer.wrap(numpy.fft, func, "fft:" + func, _fft_points(func))
    tracer.wrap(cli, "picard_solve", "solver:picard_solve", _solve_counts, rss=True)
    tracer.wrap(cli, "existence_budget", "solver:existence_budget")
    tracer.wrap(solver, "sweep_step", "recurrence:sweep_step")
    tracer.wrap(cli, "kernel_l1_report", "operators:kernel_l1_report")
    for func in ("certify", "build_omega_sequence", "verify_induction_chain",
                 "divergence_partial_sums"):
        tracer.wrap(certificate, func, "certificate:" + func)
    tracer.wrap(certificate, "convolve_lattice", "kernels:convolve_lattice",
                lambda args, kwargs, out: {"points": int(out.size)})
    for owner in (solver.Trajectory, certificate.FreqWindow,
                  certificate.CertificateReport, operators.KernelEstimateReport):
        tracer.wrap(owner, "to_csv", f"io:{owner.__name__}.to_csv", _csv_bytes)


def main(argv):
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    mark_path = opts[opts.index("--mark") + 1]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    import fraclap.cli
    with open(mark_path, "w") as fh:
        fh.write(f"{time.monotonic_ns()}\n{fraclap.cli.__file__}\n")
    if "--probe" in opts:
        return 0
    if spans_path is None:
        return fraclap.cli.run(cli_args)

    tracer = Tracer()
    install(tracer)
    span = tracer.begin("cli:run")
    try:
        return fraclap.cli.run(cli_args)
    finally:
        tracer.end(span)
        with open(spans_path, "wb") as fh:
            marshal.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
