"""Output checks for the benchmark's CLI calls.

Each output kind has an extractor that reduces a call's output directory to
numbers and hashes, and a comparison against the reference that
record_reference.py stored from the same extractor. A check returns a list
of failure messages; empty means the call's output is correct.
"""

import hashlib
import math
import os
import re

# the solver's own convergence tolerance (CLI default picard_tol)
PICARD_TOL = 1e-8
# largest relative gap between the blow-up times at N=512 and N=1024
MAX_N_GAP = 0.20
# kernel.csv values are floating-point results, compared to this relative error
KERNEL_RTOL = 1e-9


def _read_trajectory(outdir):
    with open(os.path.join(outdir, "trajectory.csv")) as fh:
        lines = fh.read().splitlines()
    header = dict(item.split("=", 1) for item in lines[1].lstrip("# ").split())
    rows = [[float(x) for x in line.split(",")] for line in lines[3:]]
    overflow = header["overflow_at"]
    # the crossing node is flagged, not part of the converged prefix
    prefix = rows[:-1] if overflow != "None" else rows
    return {"overflow_at": overflow, "converged": int(header["converged"]),
            "rows": len(rows), "h1": [r[1] for r in prefix]}


def _read_certificate(outdir):
    with open(os.path.join(outdir, "certificate.txt")) as fh:
        verdict = re.search(r"^verdict: (\S+)$", fh.read(), re.M).group(1)
    with open(os.path.join(outdir, "certificate.csv")) as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    cols = lines[0].split(",")
    flag_cols = [c for c in cols if c == "k" or c.endswith("_ok")]
    flags = []
    ratio_ok = None
    for line in lines[1:]:
        cells = line.split(",")
        if cells[0] == "ratio_ok":
            ratio_ok = int(cells[1])
        elif cells[0].isdigit() and len(cells) == len(cols):
            row = dict(zip(cols, cells))
            flags.append([int(row[c]) for c in flag_cols])
    return {"verdict": verdict, "flag_columns": flag_cols, "flags": flags,
            "ratio_ok": ratio_ok}


def _read_kernel(outdir):
    with open(os.path.join(outdir, "kernel.csv")) as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return {"columns": lines[0], "rows": rows}


def _read_budget(outdir):
    with open(os.path.join(outdir, "budget.txt")) as fh:
        text = fh.read()
    return {"numbers": re.findall(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan", text)}


def _read_omega(outdir):
    digests = {}
    for name in sorted(os.listdir(outdir)):
        if re.fullmatch(r"omega_k\d+\.csv", name):
            h = hashlib.sha256()
            with open(os.path.join(outdir, name), "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            digests[name] = h.hexdigest()
    return {"sha256": digests}


def _sup_rel(got, want):
    scale = max(abs(x) for x in want) if want else 0.0
    err = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
    return err / scale if scale > 0 else err


def _compare_trajectory(obs, ref):
    out = [f"{key}: {obs[key]!r} != reference {ref[key]!r}"
           for key in ("overflow_at", "converged", "rows") if obs[key] != ref[key]]
    if not out:
        rel = _sup_rel(obs["h1"], ref["h1"])
        if not rel <= PICARD_TOL:
            out.append(f"h1 differs from reference by {rel:.3e} (sup-relative) "
                       f"> picard_tol {PICARD_TOL:g}")
    return out


def _compare_kernel(obs, ref):
    if obs["columns"] != ref["columns"] or len(obs["rows"]) != len(ref["rows"]):
        return ["kernel.csv columns or row count differ from reference"]
    out = []
    for got, want in zip(obs["rows"], ref["rows"]):
        if any(not math.isclose(a, b, rel_tol=KERNEL_RTOL) for a, b in zip(got, want)):
            out.append(f"kernel.csv row {got!r} != reference {want!r}")
    return out


def _compare_exact(obs, ref):
    return [f"{key}: {obs[key]!r} != reference {ref[key]!r}"
            for key in ref if obs.get(key) != ref[key]]


# output kind -> (extractor, comparison)
KINDS = {
    "trajectory": (_read_trajectory, _compare_trajectory),
    "certificate": (_read_certificate, _compare_exact),
    "kernel": (_read_kernel, _compare_kernel),
    "budget": (_read_budget, _compare_exact),
    "omega": (_read_omega, _compare_exact),
}


def extract(kind, outdir):
    return KINDS[kind][0](outdir)


def check(kind, outdir, ref):
    """(observed values, failure messages) for one call's output directory."""
    try:
        obs = extract(kind, outdir)
    except (OSError, ValueError, KeyError, IndexError, AttributeError) as exc:
        return None, [f"unreadable {kind} output: {exc!r}"]
    return obs, KINDS[kind][1](obs, ref)


def n_gap_failures(coarse, fine):
    """Blow-up time at N=512 vs N=1024: both cross, within MAX_N_GAP."""
    if coarse is None or fine is None:
        return []  # the per-call check already failed
    if "None" in (coarse["overflow_at"], fine["overflow_at"]):
        return ["blow-up proxy did not cross at both resolutions"]
    t0, t1 = float(coarse["overflow_at"]), float(fine["overflow_at"])
    gap = abs(t0 - t1) / t1
    return [] if gap <= MAX_N_GAP else [f"N-gap {gap:.3f} > {MAX_N_GAP}"]
