"""End-to-end and per-layer benchmark of the fraclap CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # baseline table

Run from the root of a source checkout; the CLI under test is ``src/fraclap``
of that checkout. Each CLI call runs in its own child process, one at a time
(a closed loop with one client). A repetition runs every call of the
workload once, in an order drawn from the seed; repetitions continue until
the next one would overrun ``--seconds`` (at least one always runs). Every
call's output is checked against perfbench/reference.json and its work
directory is deleted after the check.

``--workload all`` runs every workload in WORKLOADS, including omega-export,
which BENCHMARK.json leaves out (see perfbench/README.md).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half with every fraclap layer wrapped in timing spans
(see child.py) and prints the per-layer metrics, including the tracing
overhead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the full result, with provenance, is
written to .perfbench_out/ and the spans of a traced run next to it.
"""

import argparse
import hashlib
import importlib.util
import json
import marshal
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"

CALL_TIMEOUT_S = 150.0
# import-only launches per run, pooled with the real calls for the set-up
# median, so one-call workloads also get a steady set-up figure
SETUP_SAMPLES = 10


@dataclass(frozen=True)
class Call:
    name: str
    kind: str          # output check, see checks.KINDS
    args: tuple


_BLOWUP = ("solve", "kind=dirac", "C=2048", "gamma=0.9", "u0=omega",
           "u0_amplitude=128", "T0=1e-6", "dt=5e-9", "picard_max_iter=150")

WORKLOADS = {
    "blowup-proxy": (Call("solve blowup N=512", "trajectory", _BLOWUP + ("N=512",)),
                     Call("solve blowup N=1024", "trajectory", _BLOWUP + ("N=1024",))),
    "solve-2d": (Call("solve n=2", "trajectory", ("solve", "n=2")),),
    "certify": (Call("certify n=1", "certificate", ("certify", "n=1")),
                Call("certify n=2", "certificate", ("certify", "n=2")),
                Call("certify n=3", "certificate", ("certify", "n=3")),
                Call("kernel-check", "kernel", ("kernel-check",)),
                Call("budget", "budget", ("budget",))),
    "omega-export": (Call("omega n=3", "omega", ("omega", "n=3")),),
}

PROBE = Call("probe", "", ("budget",))

# (coarse, fine) call pairs whose blow-up times are compared within a repetition
N_GAP_PAIRS = {"blowup-proxy": ("solve blowup N=512", "solve blowup N=1024")}

# the rows of ROADMAP's baseline table, in its order
BASELINE_ROWS = ("solve blowup N=512", "solve blowup N=1024", "solve n=2",
                 "certify n=1", "certify n=3", "omega n=3")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "success_rate": "ratio"}

PER_LAYER_UNITS = {
    "cli.cpu_s": "s", "cli.calls": "count", "cli.exit_nonzero": "count",
    "cli.setup_s": "s", "cli.self_s": "s", "cli.teardown_s": "s",
    "solver.picard_solve_s": "s", "solver.sweeps": "count", "solver.nodes": "count",
    "solver.crossing_index": "count", "solver.fft_calls": "count",
    "solver.fft_points": "count", "solver.fft_s": "s",
    "solver.recurrence_calls": "count", "solver.recurrence_s": "s",
    "solver.self_s": "s", "solver.peak_alloc_mb": "MB", "solver.budget_s": "s",
    "certificate.omega_s": "s", "certificate.induction_s": "s",
    "certificate.series_s": "s", "certificate.self_s": "s",
    "kernels.convolve_calls": "count", "kernels.convolve_s": "s",
    "kernels.convolve_pad_ratio": "ratio", "kernels.self_s": "s",
    "operators.kernel_report_s": "s", "operators.self_s": "s",
    "io.csv_s": "s", "io.csv_bytes": "B", "io.csv_mb_per_s": "MB/s",
    "fft.calls": "count", "fft.points": "count", "fft.s": "s",
    "trace.wall_s": "s", "trace.unattributed_s": "s", "trace.overhead_frac": "ratio",
}

# per-layer self times that, with trace.unattributed_s, add up to trace.wall_s
SELF_TIME_METRICS = ("cli.setup_s", "cli.self_s", "cli.teardown_s", "solver.self_s",
                     "solver.recurrence_s", "fft.s", "certificate.self_s",
                     "kernels.self_s", "operators.self_s", "io.csv_s")

_CERTIFICATE_TIMES = {"build_omega_sequence": "certificate.omega_s",
                      "verify_induction_chain": "certificate.induction_s",
                      "divergence_partial_sums": "certificate.series_s"}


@dataclass
class CallResult:
    call: Call
    returncode: int
    launch_ns: int
    end_ns: int
    setup_s: float = None      # None: the child died before importing fraclap.cli
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    spans: list = None
    observed: dict = None
    failures: list = field(default_factory=list)

    @property
    def wall_s(self):
        return (self.end_ns - self.launch_ns) / 1e9

    @property
    def ok(self):
        return not self.failures


@dataclass
class Repetition:
    calls: list

    @property
    def wall_s(self):
        return (max(c.end_ns for c in self.calls)
                - min(c.launch_ns for c in self.calls)) / 1e9


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch(call, calldir, spans=False, probe=False):
    """Run child.py once in ``calldir``; only the process, see ``collect``."""
    calldir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--mark", str(calldir / "mark.txt")]
    if spans:
        cmd += ["--spans", str(calldir / "spans.bin")]
    if probe:
        cmd.append("--probe")
    cmd += ["--", *call.args, "--output-dir", str(calldir / "out")]
    with open(calldir / "stdout.txt", "wb") as out, open(calldir / "stderr.txt", "wb") as err:
        launch_ns = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=calldir, env=_child_env())
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end_ns = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CallResult(call, proc.returncode, launch_ns, end_ns,
                      rss_mb=usage.ru_maxrss / 1024.0,
                      cpu_s=usage.ru_utime + usage.ru_stime)


def collect(res, calldir):
    """Read the child's import mark and spans; record what went wrong."""
    if res.returncode != 0:
        tail = (calldir / "stderr.txt").read_text(errors="replace")[-300:]
        res.failures.append(f"exit code {res.returncode}: {tail.strip()}")
    mark = calldir / "mark.txt"
    if not mark.exists():
        res.failures.append("child exited before importing fraclap.cli")
        return
    mark_ns, module = mark.read_text().split("\n")[:2]
    if not Path(module).resolve().is_relative_to(SRC.resolve()):
        res.failures.append(f"imported fraclap from {module}, not from {SRC}")
        return
    res.setup_s = (int(mark_ns) - res.launch_ns) / 1e9
    spans = calldir / "spans.bin"
    if spans.exists():
        with open(spans, "rb") as fh:
            child_spans = marshal.load(fh)
        # two parent-side spans: the whole process and its launch-to-import
        res.spans = [["process:call", res.launch_ns, res.end_ns, -1, None],
                     ["process:setup", res.launch_ns, int(mark_ns), 0, None]]
        res.spans += [[name, s, e, 0 if p < 0 else p + 2, attrs]
                      for name, s, e, p, attrs in child_spans]


def run_repetition(workload, order, workdir, reference, traced):
    calldirs = [workdir / f"call{i}" for i in range(len(order))]
    # nothing but the children runs between the first launch and the last exit
    results = [launch(call, d, spans=traced) for call, d in zip(order, calldirs)]
    for res, calldir in zip(results, calldirs):
        collect(res, calldir)
        if traced and res.spans is None and not res.failures:
            res.failures.append("traced child wrote no spans")
        if not res.failures:
            res.observed, fails = checks.check(res.call.kind, calldir / "out",
                                               reference[res.call.name])
            res.failures += fails
    if workload in N_GAP_PAIRS:
        by_name = {r.call.name: r for r in results}
        coarse, fine = (by_name[n] for n in N_GAP_PAIRS[workload])
        fine.failures += checks.n_gap_failures(coarse.observed, fine.observed)
    for res in results:
        for line in res.failures:
            print(f"FAILED {res.call.name}: {line}", file=sys.stderr)
    shutil.rmtree(workdir)
    return Repetition(results)


def measure(workload, rng, seconds, workdir, reference, traced, reps_out):
    """Repetitions until the next would overrun ``seconds``; at least one."""
    calls = WORKLOADS[workload]
    start = time.monotonic()
    count = 0
    while True:
        order = rng.sample(calls, len(calls))
        reps_out.append(run_repetition(workload, order, workdir / f"rep{len(reps_out)}",
                                       reference, traced))
        count += 1
        elapsed = time.monotonic() - start
        if elapsed * (count + 1) / count > seconds:
            return


def setup_probes(count, workdir):
    """Launch-to-import times of bare launches (also warms the page cache)."""
    times = []
    for i in range(count):
        res = launch(PROBE, workdir / f"probe{i}", probe=True)
        collect(res, workdir / f"probe{i}")
        if not res.failures:
            times.append(res.setup_s)
    shutil.rmtree(workdir, ignore_errors=True)
    return times


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(workload, reps, probe_setups):
    calls = [c for r in reps for c in r.calls]
    failed = sum(not c.ok for c in calls)
    setups = [c.setup_s for c in calls if c.setup_s is not None] + probe_setups
    return {
        # the mean, not the median, of the run's repetitions: the host swings
        # between a fast and a slow speed for tens of seconds at a time, and
        # the median of a few repetitions jumps between the two
        "wall_s": statistics.fmean(r.wall_s for r in reps),
        # every call imports the same modules, so one repetition's set-up is
        # its call count times the median launch-to-import time
        "setup_s": len(WORKLOADS[workload]) * statistics.median(setups),
        "peak_rss_mb": max(c.rss_mb for c in calls),
        "success_rate": 1.0 - failed / len(calls),
    }


def layer_metrics(rep):
    """Per-layer totals of one traced repetition, from its calls' spans."""
    m = defaultdict(float)
    conv_fft_points = conv_out_points = 0
    for res in rep.calls:
        m["cli.calls"] += 1
        m["cli.exit_nonzero"] += res.returncode != 0
        m["cli.cpu_s"] += res.cpu_s
        spans = res.spans or []
        self_s = [(e - s) / 1e9 for _, s, e, _, _ in spans]
        under = [""] * len(spans)     # the solver or kernels span above each span
        for i, (name, s, e, parent, attrs) in enumerate(spans):
            if parent >= 0:
                self_s[parent] -= (e - s) / 1e9
                under[i] = under[parent]
            if name in ("solver:picard_solve", "kernels:convolve_lattice"):
                under[i] = name
        for i, (name, s, e, parent, attrs) in enumerate(spans):
            layer, func = name.split(":")
            dur, own, attrs = (e - s) / 1e9, self_s[i], attrs or {}
            if name == "process:call":
                m["cli.teardown_s"] += own
            elif name == "process:setup":
                m["cli.setup_s"] += own
            elif layer == "cli":
                m["cli.self_s"] += own
            elif layer == "fft":
                m["fft.calls"] += 1
                m["fft.points"] += attrs["points"]
                m["fft.s"] += dur
                if under[i] == "solver:picard_solve":
                    m["solver.fft_calls"] += 1
                    m["solver.fft_points"] += attrs["points"]
                    m["solver.fft_s"] += dur
                elif under[i] == "kernels:convolve_lattice":
                    conv_fft_points += attrs["points"]
            elif layer == "recurrence":
                m["solver.recurrence_calls"] += 1
                m["solver.recurrence_s"] += dur
            elif layer == "solver":
                m["solver.self_s"] += own
                if func == "picard_solve":
                    m["solver.picard_solve_s"] += dur
                    for key in ("sweeps", "nodes", "crossing_index"):
                        m["solver." + key] += attrs[key]
                    m["solver.peak_alloc_mb"] = max(m["solver.peak_alloc_mb"],
                                                    attrs["peak_alloc_mb"])
                else:
                    m["solver.budget_s"] += dur
            elif layer == "certificate":
                m["certificate.self_s"] += own
                if func in _CERTIFICATE_TIMES:
                    m[_CERTIFICATE_TIMES[func]] += dur
            elif layer == "kernels":
                m["kernels.convolve_calls"] += 1
                m["kernels.convolve_s"] += dur
                m["kernels.self_s"] += own
                conv_out_points += attrs["points"]
            elif layer == "operators":
                m["operators.kernel_report_s"] += dur
                m["operators.self_s"] += own
            elif layer == "io":
                m["io.csv_s"] += dur
                m["io.csv_bytes"] += attrs["bytes"]
    m["kernels.convolve_pad_ratio"] = conv_fft_points / conv_out_points if conv_out_points else 0.0
    m["io.csv_mb_per_s"] = m["io.csv_bytes"] / 1e6 / m["io.csv_s"] if m["io.csv_s"] else 0.0
    m["trace.wall_s"] = rep.wall_s
    m["trace.unattributed_s"] = rep.wall_s - sum(c.wall_s for c in rep.calls)
    return m


def per_layer(untraced, traced):
    per_rep = [layer_metrics(r) for r in traced]
    out = {k: statistics.median(m[k] for m in per_rep) for k in PER_LAYER_UNITS
           if k != "trace.overhead_frac"}
    out["trace.overhead_frac"] = (out["trace.wall_s"]
                                  / statistics.median(r.wall_s for r in untraced) - 1.0)
    counts = [k for k, u in PER_LAYER_UNITS.items() if u in ("count", "B")]
    for key in counts:
        if len({m[key] for m in per_rep}) > 1:
            print(f"WARNING: count {key} differs between repetitions: "
                  f"{sorted({m[key] for m in per_rep})}", file=sys.stderr)
    return out


def _read_text(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def provenance(seed):
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read_text("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, size = _read_text(base + "level").strip(), _read_text(base + "size").strip()
        if level in ("2", "3") and size:
            caches[f"L{level}"] = size
    head = _read_text(ROOT / ".git" / "HEAD").strip()
    commit = (_read_text(ROOT / ".git" / head[5:]).strip() if head.startswith("ref: ")
              else head) or "unknown (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted((SRC / "fraclap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache": caches or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _summary(values):
    q1, q3 = _quartiles(values)
    return (f"median {statistics.median(values):.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
            f"n={len(values)}")


def report_calls(reps):
    walls, rss = defaultdict(list), defaultdict(float)
    for rep in reps:
        for c in rep.calls:
            walls[c.call.name].append(c.wall_s)
            rss[c.call.name] = max(rss[c.call.name], c.rss_mb)
    for name, values in walls.items():
        print(f"  call {name:<22} wall {_summary(values)} s, peak RSS {rss[name]:.0f} MB")
    return walls, rss


def run_workload(workload, seed, seconds, trace, workdir, reference):
    rng = random.Random(f"{workload}/{seed}")
    probe_setups = setup_probes(SETUP_SAMPLES, workdir / "probes")
    untraced, traced = [], []
    if trace:
        measure(workload, rng, seconds / 2, workdir, reference, False, untraced)
        measure(workload, rng, seconds / 2, workdir, reference, True, traced)
    else:
        measure(workload, rng, seconds, workdir, reference, False, untraced)
    reps = untraced + traced
    calls = [c for r in reps for c in r.calls]
    failed = sum(not c.ok for c in calls)
    print(f"workload {workload}: {len(untraced)} untraced and {len(traced)} traced "
          f"repetitions, {len(calls)} calls, error_rate {failed / len(calls):.4f}")
    walls_s = [r.wall_s for r in untraced]
    print(f"  wall_s per repetition (untraced): mean {statistics.fmean(walls_s):.4f}  "
          f"{_summary(walls_s)}")
    walls, rss = report_calls(untraced)
    e2e = end_to_end(workload, untraced, probe_setups)
    layers = per_layer(untraced, traced) if trace else {}
    if trace:
        print(f"  traced wall_s {layers['trace.wall_s']:.4f} = layer self times + "
              f"unattributed remainder:")
        for key in SELF_TIME_METRICS + ("trace.unattributed_s",):
            print(f"    {key:<24} {layers[key]:10.4f} s  "
                  f"{layers[key] / layers['trace.wall_s']:7.2%}")
        print(f"  tracing overhead {layers['trace.overhead_frac']:+.2%} of untraced wall_s")
    return {"workload": workload, "attempted": len(calls), "failed": failed,
            "end_to_end": e2e, "per_layer": layers,
            "call_wall_s": walls, "call_peak_rss_mb": rss,
            "spans": [[f"{i}:{c.call.name}", *span] for i, c in enumerate(
                c for r in traced for c in r.calls) for span in c.spans or []]}


def _metrics(values, units):
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def baseline_table(results):
    walls = {k: v for r in results for k, v in r["call_wall_s"].items()}
    rss = {k: v for r in results for k, v in r["call_peak_rss_mb"].items()}
    lines = ["| run | wall | peak RSS |", "|-----|------|----------|"]
    for name in BASELINE_ROWS:
        if name in walls:
            lines.append(f"| `{name}` | {statistics.median(walls[name]):.2f} s "
                         f"| {rss[name]:.0f} MB |")
    return "\n".join(lines)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fraclap" / "cli.py").is_file():
        print(f"error: no fraclap sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())["calls"]
    info = provenance(args.seed)
    print("provenance: " + json.dumps(info))

    if args.workload == "all":
        order = random.Random(args.seed).sample(list(WORKLOADS), len(WORKLOADS))
    else:
        order = [args.workload]
    workdir = WORK / str(os.getpid())
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace,
                                workdir / w, reference) for w in order]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.workload == "all":
        print(baseline_table(results))
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": END_TO_END_UNITS[k]}
                   for r in results for k, v in r["end_to_end"].items()}
    elif args.trace:
        metrics = _metrics(results[0]["per_layer"], PER_LAYER_UNITS)
    else:
        metrics = _metrics(results[0]["end_to_end"], END_TO_END_UNITS)
        for k, m in metrics.items():
            print(f"  {k:<14} {m['value']:.6g} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = [s for r in results for s in r.pop("spans")]
    if spans:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans, separators=(",", ":")))
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"provenance": info, "seconds": args.seconds, "results": results}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
