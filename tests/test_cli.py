import contextlib
import io
import math
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fraclap import UsageError
from fraclap import certificate as cert
from fraclap.cli import _HANDLERS, _KEY_TYPES, parse_config, run


@pytest.fixture()
def outdir(tmp_path):
    d = tmp_path / "out"
    d.mkdir()
    return d


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_minimal_with_defaults(self, tmp_path):
        path = write_config(tmp_path, "n = 1\nalpha = 2\n")
        values = parse_config(path)
        assert values == {"n": 1, "alpha": 2.0}

    def test_comments_and_blank_lines(self, tmp_path):
        path = write_config(tmp_path, "# top\n\nn = 2  # trailing\nalpha=1.5\n")
        assert parse_config(path) == {"n": 2, "alpha": 1.5}

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "frobnicate = 3\n")
        with pytest.raises(UsageError) as exc:
            parse_config(path)
        assert "frobnicate" in str(exc.value) and ":1:" in str(exc.value)

    def test_syntax_error_carries_line_number(self, tmp_path):
        path = write_config(tmp_path, "n = 1\nthis is not a pair\n")
        with pytest.raises(UsageError) as exc:
            parse_config(path)
        assert ":2:" in str(exc.value)

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path, "N = twelve\n")
        with pytest.raises(UsageError):
            parse_config(path)


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["transmogrify"]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["solve", str(tmp_path / "absent.cfg")]) == 2

    def test_alpha_out_of_range(self, outdir, capsys):
        code = run(["budget", "-o", str(outdir), "alpha=3", "kind=bessel_symbol",
                    "rho=2"])
        assert code == 1
        assert "alpha <= 2" in capsys.readouterr().err

    def test_gamma_out_of_case_range(self, outdir, capsys):
        code = run(["budget", "-o", str(outdir), "alpha=2", "gamma=1.5",
                    "kind=bessel_symbol", "rho=2"])
        assert code == 1
        assert "gamma < alpha - 1" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ("solve", "T0=nan"), ("solve", "dt=nan"), ("solve", "T0=inf"),
        ("solve", "picard_max_iter=0"), ("solve", "C=nan"),
        ("solve", "u0_amplitude=nan"), ("solve", "picard_tol=nan"),
        ("solve", "overflow_threshold=nan"), ("certify", "C1=inf"),
        ("solve", "L=nan"), ("solve", "L=inf"), ("budget", "L=nan"),
        ("kernel-check", "L=nan"), ("kernel-check", "t_values=nan"),
        ("kernel-check", "t_values=inf"), ("kernel-check", "t_values=0.5,nan"),
        ("kernel-check", "s=nan"), ("kernel-check", "s=inf"),
        ("certify", "K=1024"), ("certify", "K=1100"), ("certify", "k_max=1100"),
        ("omega", "k_max=-1"), ("certify", "A=0"),
        ("certify", "A=-1"), ("certify", "C1=0"), ("certify", "C1=-5"),
        ("budget", "u0=random", "u0_amplitude=-1", "N=128"),
        ("budget", "u0=random", "seed=-1", "N=16"),
        ("solve", "T0=1", "dt=1e-12"), ("solve", "T0=1", "dt=1e-300"),
        ("solve", "T0=1e300", "dt=1e-10"), ("budget", "T0=1e-3", "dt=nan"),
        ("budget", "T0=1e-3", "dt=inf"), ("budget", "C_abs=0"),
        ("budget", "C_abs=-1"), ("certify", "n=-1", "alpha=1.5"),
        ("certify", "n=-3", "rho=1"), ("kernel-check", "L=1e50", "N=512", "s=171"),
        ("kernel-check", "N=512", "t_values=1e-300", "s=171"),
        ("solve", "n=2", "L=1e300", "N=16"), ("solve", "n=2", "N=1048576"),
        ("budget", "n=3", "N=1048576"), ("kernel-check", "N=1099511627776")])
    def test_nonfinite_or_empty_input_is_domain_error(self, outdir, capsys, args):
        code = run([args[0], "-o", str(outdir), *args[1:]])
        err = capsys.readouterr().err
        assert code == 1
        assert "domain error" in err and "Traceback" not in err


    # rho=2000 overflows a power of two in the amplitude floor, rho=1000 the
    # product of finite factors; on an explicit grid, s=400 overflows the
    # kernel's smoothing weight. Sizing a grid overflows in gamma(1 + 1/alpha)
    # at alpha=1e-300 and in the box at t=1e308, where lowering s helps neither
    @pytest.mark.parametrize("args, key", [
        (("kernel-check", "s=171"), "s = "), (("certify", "rho=2000"), "rho = "),
        (("certify", "rho=1000"), "rho = "),
        (("kernel-check", "s=400", "L=2000", "N=4096"), "s = "),
        (("kernel-check", "alpha=1e-300"), "alpha = "),
        (("kernel-check", "t_values=1e308"), "t_values from ")],
        ids=["kernel-check-s=171", "certify-rho=2000", "certify-rho=1000",
             "kernel-check-s=400-L=2000-N=4096", "kernel-check-alpha=1e-300",
             "kernel-check-t_values=1e308"])
    def test_float_range_overflow_names_the_key(self, outdir, capsys, args, key):
        code = run([args[0], "-o", str(outdir), *args[1:]])
        err = capsys.readouterr().err
        assert code == 1
        assert "domain error" in err and key in err and "Traceback" not in err

    def test_oversized_bump_window_is_domain_error(self, outdir, capsys, monkeypatch):
        # the level-7 window at spacing 1/4 is 1025^3 points (8.6 GB): the
        # size check must come before any convolution, and the stub keeps
        # this test from allocating should it not
        def no_convolution(*args):
            raise AssertionError("convolution before the window size check")

        monkeypatch.setattr(cert, "convolve_lattice", no_convolution)
        code = run(["omega", "-o", str(outdir), "n=3", "k_max=7",
                    "L=25.132741228718345", "N=4096"])
        err = capsys.readouterr().err
        assert code == 1
        assert "1025^3 = 1076890625 lattice points fails <= 33554432" in err
        assert "Traceback" not in err and list(outdir.iterdir()) == []
        # a certify seed of 517^3 points (spacing 1/512) fails the same cap
        code = run(["certify", "-o", str(outdir), "n=3", "k_max=0",
                    f"L={1024 * math.pi!r}", "N=4096"])
        assert code == 1
        assert "517^3" in capsys.readouterr().err

    # a grid that does not resolve the kernel's spectrum (xi_max = 4 leaves
    # 6.8e-4 at N=64) or does not hold the omega datum's bump, a datum
    # above the overflow threshold or past float range, and a threshold or
    # coefficient that would let a sweep leave float range (at 1e100 the
    # bound's square is past float range)
    @pytest.mark.parametrize("args, key", [
        (("kernel-check", "L=1e50", "N=512"), "s = 0.5 at t = 0.5"),
        (("kernel-check", "N=64"), "is 6.812e-04 at xi_max = 4,"),
        (("budget", "N=16"), "holds 0 of the seed ball's 7"),
        (("budget", "N=24"), "holds 3 of the seed ball's 7"),
        (("solve", "overflow_threshold=1"), "overflow_threshold = 1.0"),
        (("solve", "N=16", "T0=0.125", "u0=random", "u0_amplitude=1e13"),
         "overflow_threshold = 1000000000000.0"),
        (("solve", "N=16", "T0=0.125", "u0=random", "u0_amplitude=1e300"),
         "||u0||_H1 = inf"),
        (("solve", "overflow_threshold=1e300"), "overflow_threshold = 1e+300, C = 1.0"),
        (("solve", "overflow_threshold=1e100"), "overflow_threshold = 1e+100, C = 1.0"),
        (("solve", "C=1e300"), "overflow_threshold = 1000000000000.0, C = 1e+300")])
    def test_unresolved_grid_or_datum_is_domain_error(self, outdir, capsys, args, key):
        code = run([args[0], "-o", str(outdir), *args[1:]])
        err = capsys.readouterr().err
        assert code == 1
        assert "domain error" in err and key in err and "Traceback" not in err
        assert list(outdir.iterdir()) == []

    def test_auto_sized_kernel_grid_quotes_its_bound(self, outdir, capsys):
        # no L or N: kernel-check sizes its own grid, and at t = 1e-300 the
        # smoothed symbol has not decayed by the largest xi it may resolve
        code = run(["kernel-check", "-o", str(outdir), "t_values=1e-300,1"])
        err = capsys.readouterr().err
        assert code == 1
        assert ("the symbol smoothed to order s = 0.5 with alpha = 2.0 at the smallest "
                "t = 1e-300 is 3.162e+04 at xi = 1e+09, which fails <= 1e-13") in err
        assert "Traceback" not in err and list(outdir.iterdir()) == []

    def test_budget_skips_the_sweep_float_range_check(self, outdir, capsys):
        # the sweep's float-range check belongs to solve: budget takes a
        # threshold past it, and reports a coefficient past float range
        assert run(["budget", "-o", str(outdir), "overflow_threshold=1e300"]) == 0
        assert "contraction needs < 1" in capsys.readouterr().out
        assert run(["budget", "-o", str(outdir), "C=1e300"]) == 0
        out = capsys.readouterr().out
        assert "||b|| (order -gamma) = inf" in out
        assert "(contraction needs < 1: FAIL)" in out

    def test_only_the_omega_datum_needs_the_bump(self, outdir, capsys):
        # N=16 at L = 16 pi holds no lattice point of the bump
        args = ["solve", "-o", str(outdir), "N=16", "T0=0.125"]
        assert run(args + ["u0=zero"]) == 0
        assert "converged=True" in capsys.readouterr().out
        (outdir / "trajectory.csv").unlink()
        assert run(args) == 1
        err = capsys.readouterr().err
        assert "holds 0 of the seed ball's 7" in err and "Traceback" not in err
        assert list(outdir.iterdir()) == []

    def test_nonconvergence_is_an_error(self, outdir, capsys):
        code = run(["solve", "-o", str(outdir), "picard_max_iter=2", "T0=0.05"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: Picard iteration did not converge within 2 sweeps")
        assert "Traceback" not in err


class TestSubcommands:
    def test_certify_reference_run(self, outdir, capsys):
        code = run(["certify", "-o", str(outdir), "n=1", "alpha=2", "gamma=0.9",
                    "rho=0", "C1=2048", "A=128"])
        assert code == 0
        text = (outdir / "certificate.txt").read_text()
        assert "verdict: certified-divergent" in text
        assert (outdir / "certificate.csv").exists()

    @pytest.mark.parametrize("args, verdict", [
        (("n=2", "A=1e-300"), "not-certified"),
        (("A=1e300",), "certified-divergent")])
    def test_certify_ratio_outside_float_range(self, outdir, capsys, args, verdict):
        # the ratio under- or overflows a float; the series stays in log domain
        code = run(["certify", "-o", str(outdir), *args])
        assert code == 0, capsys.readouterr().err
        assert f"verdict: {verdict}" in (outdir / "certificate.txt").read_text()

    @pytest.mark.parametrize("args", [
        ("alpha=1.5", "gamma=0.5"), ("alpha=0.75", "gamma=0.2"), ("gamma=5",),
        ("gamma=-3",)])
    def test_certify_gamma_out_of_range_not_certified(self, outdir, capsys, args):
        code = run(["certify", "-o", str(outdir), *args])
        assert code == 0, capsys.readouterr().err
        text = (outdir / "certificate.txt").read_text()
        assert "verdict: not-certified" in text
        gamma = args[-1].split("=")[1]
        assert f"gamma = {float(gamma)} fails" in text

    def test_certify_gamma_blowup_edge_certified(self, outdir, capsys):
        # gamma = 1 - alpha is admitted for blow-up, not for well-posedness
        assert run(["certify", "-o", str(outdir), "alpha=0.75", "gamma=0.25"]) == 0
        assert "verdict: certified-divergent" in (outdir / "certificate.txt").read_text()

    def test_certify_bare_defaults(self, outdir, capsys):
        # with no config at all the floors are used and the run certifies
        assert run(["certify", "-o", str(outdir)]) == 0
        assert "certified-divergent" in (outdir / "certificate.txt").read_text()

    @pytest.mark.parametrize("alpha", ["1.1", "1.5", "1.9"])
    def test_certify_default_gamma_inside_blowup_range(self, outdir, capsys, alpha):
        # the default gamma = 0.9 (alpha - 1) lies in 0 <= gamma < alpha - 1
        assert run(["certify", "-o", str(outdir), f"alpha={alpha}"]) == 0
        assert "verdict: certified-divergent" in (outdir / "certificate.txt").read_text()

    def test_certify_deep_hierarchy_underflows_to_finite_error(self, outdir, capsys):
        # the level-11 target (v_3/8)^2048 underflows to 0.0; the error
        # |1 - q^(2^k)| never divides by it
        code = run(["certify", "-o", str(outdir), "n=3", "k_max=11",
                    "L=25.132741228718345", "N=65536"])
        assert code == 0, capsys.readouterr().err
        lines = (outdir / "certificate.csv").read_text().splitlines()
        cols = lines[1].split(",")
        rows = [dict(zip(cols, line.split(","))) for line in lines[2:14]]
        assert [int(r["k"]) for r in rows] == list(range(12))
        assert float(rows[-1]["l1_target"]) == 0.0
        assert all(math.isfinite(float(r["l1_error"])) for r in rows)

    @pytest.mark.parametrize("dt, cut", [("0.3", 0.25), ("0.2", 0.5 / 3)])
    def test_solve_ends_at_the_requested_horizon(self, outdir, capsys, dt, cut):
        code = run(["solve", "-o", str(outdir), "kind=bessel_symbol", "rho=2",
                    "gamma=0", "u0=random", "u0_amplitude=0.1", "N=64", "T0=0.5",
                    f"dt={dt}"])
        out = capsys.readouterr().out
        assert code == 0
        assert f"dt = {dt} does not divide T0 = 0.5: using dt = {cut!r}" in out
        times = [float(line.split(",")[0]) for line in
                 (outdir / "trajectory.csv").read_text().splitlines()[3:]]
        assert times[-1] == pytest.approx(0.5, rel=1e-12)
        assert times[1] == cut

    def test_solve_zero_coefficient_decays(self, outdir, capsys):
        code = run(["solve", "-o", str(outdir), "kind=dirac", "C=0", "gamma=0.9",
                    "T0=0.25", "u0=random", "u0_amplitude=0.5", "N=128"])
        assert code == 0
        data = np.loadtxt(outdir / "trajectory.csv", delimiter=",", skiprows=3)
        h1 = data[:, 1]
        assert np.all(np.diff(h1) <= 1e-12)

    def test_solve_is_scale_equivariant(self, tmp_path, capsys):
        # u solves the problem with b, u0 iff u/2 solves it with 2b, u0/2;
        # halving the threshold too keeps every crossing and saturation
        # ratio, and each step scales by a power of two, so the run is the
        # defaults' run with every norm exactly halved
        runs = []
        for name, args in (("base", ()), ("half", ("C=2", "u0_amplitude=0.5",
                                                   "overflow_threshold=5e11"))):
            out = tmp_path / name
            out.mkdir()
            assert run(["solve", "-o", str(out), *args]) == 0
            lines = (out / "trajectory.csv").read_text().splitlines()
            runs.append((lines[1], np.loadtxt(lines[3:], delimiter=",")))
        (base_run, base), (half_run, half) = runs
        # overflow_at, the sweep count and the converged flag
        assert half_run == base_run
        assert "overflow_at=None" not in base_run
        assert np.array_equal(half[:, 0], base[:, 0])
        assert np.array_equal(half[:, 1:], 0.5 * base[:, 1:])

    @pytest.mark.parametrize("args, converged", [
        # the n=1 defaults stop at picard_max_iter = 60 with a crossing
        ((), False),
        (("kind=dirac", "C=2048", "gamma=0.9", "u0=omega", "u0_amplitude=128",
          "T0=1e-6", "dt=5e-9", "N=512", "picard_max_iter=150"), True)])
    def test_solve_claims_blowup_only_when_converged(self, outdir, capsys, args,
                                                     converged):
        assert run(["solve", "-o", str(outdir), *args]) == 0
        out = capsys.readouterr().out
        assert f"converged={converged}" in out
        assert ("numerical blow-up at t = " in out) == converged
        assert ("in an unconverged iterate; no blow-up is claimed" in out) != converged
        assert "crossed 1e+12" in out

    def test_kernel_check_writes_csv(self, outdir, capsys):
        code = run(["kernel-check", "-o", str(outdir), "alpha=2", "s=1",
                    "t_values=0.5,1"])
        assert code == 0
        rows = np.loadtxt(outdir / "kernel.csv", delimiter=",", skiprows=3)
        assert rows.shape == (2, 4)

    def test_omega_writes_per_level_files(self, outdir, capsys):
        code = run(["omega", "-o", str(outdir), "n=1", "k_max=2",
                    f"L={64 * np.pi}", "N=2048"])
        assert code == 0
        for k in range(3):
            assert (outdir / f"omega_k{k}.csv").exists()

    def test_omega_reference_run(self, outdir, capsys):
        # omega n=1 at the defaults, every printed digit pinned
        assert run(["omega", "-o", str(outdir), "n=1"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"k={k}: l1={l1} target={target} rel_err={err} support_ok=True "
            f"-> {outdir / f'omega_k{k}.csv'}"
            for k, l1, target, err in (
                (0, "0.9990234375", "0.9999999999999999", "9.766e-04"),
                (1, "0.9980478286743164", "0.9999999999999998", "1.952e-03"),
                (2, "0.9960994683215175", "0.9999999999999996", "3.901e-03"),
                (3, "0.9922141507904099", "0.9999999999999991", "7.786e-03"))]

    def test_omega_reports_a_level_outside_its_cube(self, outdir, capsys, monkeypatch):
        # spacing 1/4.99: the seed's lowest lattice point is 1.002, so level 1
        # starts at 2.004, and its window moved down one cell starts at
        # 1.804, outside the cube (2, 4)
        args = ["omega", "-o", str(outdir), "n=1", "k_max=1",
                f"L={2 * math.pi * 4.99!r}", "N=64"]
        assert run(args) == 0
        assert capsys.readouterr().out.count("support_ok=True") == 2
        convolve = cert.convolve_lattice
        monkeypatch.setattr(cert, "convolve_lattice",
                            lambda a, spacing: np.roll(convolve(a, spacing), -1, axis=0))
        assert run(args) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("k=0: ") and "support_ok=True" in out[0]
        assert out[1].startswith("k=1: ") and "support_ok=False" in out[1]

    def test_budget_report(self, outdir, capsys):
        code = run(["budget", "-o", str(outdir), "kind=bessel_symbol", "rho=2",
                    "gamma=0", "u0=random", "u0_amplitude=0.05", "N=128"])
        assert code == 0
        text = (outdir / "budget.txt").read_text()
        assert "4 C_B delta" in text

    @pytest.mark.parametrize("args", [
        ("C_abs=1e-300",), ("gamma=0.999999", "u0_amplitude=0.01")])
    def test_budget_horizon_past_float_range_is_inf(self, outdir, capsys, args):
        code = run(["budget", "-o", str(outdir), *args])
        assert code == 0, capsys.readouterr().err
        text = (outdir / "budget.txt").read_text()
        assert "T0_max (largest horizon with 4 C_B delta = 1) = inf\n" in text

    @pytest.mark.parametrize("dt", ["1e-12", "1e-300"])
    def test_budget_does_not_depend_on_dt(self, tmp_path, capsys, dt):
        # the budget builds no time lattice, so a dt whose node count fits
        # no memory still gives the budget of the default dt
        texts = []
        for name, args in (("ref", ()), ("fine", (f"dt={dt}",))):
            out = tmp_path / name
            code = run(["budget", "-o", str(out), "T0=1", *args])
            assert code == 0, capsys.readouterr().err
            texts.append((out / "budget.txt").read_text())
        assert texts[1] == texts[0]

    def test_budget_horizon_below_default_dt(self, tmp_path, capsys):
        # T0 below the default dt = 1/256 gives the budget of any dt <= T0
        texts = []
        for name, args in (("default", ()), ("explicit", ("dt=1e-4",))):
            out = tmp_path / name
            code = run(["budget", "-o", str(out), "T0=1e-3", *args])
            assert code == 0, capsys.readouterr().err
            texts.append((out / "budget.txt").read_text())
        assert texts[0] == texts[1]

    def test_config_file_with_overrides(self, tmp_path, outdir, capsys):
        path = write_config(tmp_path, "n = 1\nalpha = 2\ngamma = 0.9\n"
                                      "rho = 0\nC1 = 2048\nA = 128\n")
        code = run(["certify", path, "-o", str(outdir), "A=1"])
        assert code == 0
        assert "not-certified" in (outdir / "certificate.txt").read_text()

    def test_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            out.mkdir()
            assert run(["solve", "-o", str(out), "kind=bessel_symbol", "rho=2",
                        "gamma=0", "T0=0.125", "u0=random", "u0_amplitude=0.1",
                        "seed=42", "N=128"]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == \
               (out2 / "trajectory.csv").read_bytes()


# ---------------------------------------------------------------------------
# the CLI key space: every input ends in exit 0, 1 or 2, with no exception
# and no numpy warning

_EIGHT_PI = repr(8 * math.pi)
# every key's pool holds these; an int key parses only 0 and -1 of them
_EDGES = ("0", "-1", "1e-300", "1e300", "nan", "inf")
_POOLS = {
    "n": ("-3", "-1", "0", "1", "2", "3", "4"),
    "alpha": ("0.5", "1", "1.5", "2", "3"),
    "gamma": ("0.5", "0.9", "0.999999", "1.5"),
    "rho": ("2", "-4", "1000"),
    "C1": ("2048",),
    "A": ("128",),
    "L": (_EIGHT_PI, repr(16 * math.pi)),
    "N": ("8", "16", "32"),
    "T0": ("0.125", "0.25", "1e-6"),
    "dt": ("0.00390625", "1e-8", "0.3"),
    "kind": ("dirac", "bessel_symbol", "other"),
    "C": ("1", "2048"),
    "picard_tol": ("1e-8",),
    "picard_max_iter": ("1", "5", "20"),
    "overflow_threshold": ("1e6",),
    "C_abs": ("1",),
    "k_max": ("1", "2"),
    "K": ("1", "12", "1024"),
    "s": ("0.5", "1", "171"),
    "t_values": ("0.5,1,2", "1", "0.5,nan", "", "a"),
    "u0": ("omega", "random", "zero", "other"),
    "u0_amplitude": ("0.01", "128"),
    "seed": ("42",),
}
# per subcommand, the values a draw starts from and the pools that replace
# _POOLS, so that no draw allocates much: small grids for solve, budget and
# kernel-check, and spacing 1/4 with k_max <= 2 for certify and omega. At
# L = 8 pi, N = 16 reaches |xi| = 2, which holds the omega datum's bump
_BASE = {
    "solve": {"L": _EIGHT_PI, "N": "16", "T0": "0.125", "picard_max_iter": "20"},
    "budget": {"L": _EIGHT_PI, "N": "16"},
    "kernel-check": {"N": "512"},
    "certify": {"L": _EIGHT_PI, "N": "128"},
    "omega": {"L": _EIGHT_PI, "N": "128"},
}
_SUB_POOLS = {
    "kernel-check": {"N": ("64", "512")},
    "certify": {"L": (_EIGHT_PI,), "N": ("64", "128")},
    "omega": {"L": (_EIGHT_PI,), "N": ("64", "128")},
}


def _small_solve(values):
    """Whether a solve draw stays small: at most 128 time nodes and 2^17
    coefficients over them, or it stops before the solver allocates (a
    value that does not parse or fails its check, or more than 1e15 nodes,
    which the memory check rejects)."""
    try:
        n, N = int(values.get("n", "1")), int(values["N"])
        steps = float(values["T0"]) / float(values.get("dt", "0.00390625"))
    except (ValueError, ZeroDivisionError):
        return True
    if not (n in (1, 2, 3) and N > 0 and 0 < steps <= 1e15):
        return True
    nodes = math.ceil(steps) + 1
    return nodes <= 128 and nodes * N ** n <= 1 << 17


@st.composite
def _cli_args(draw):
    sub = draw(st.sampled_from(sorted(_HANDLERS)))
    keys = draw(st.lists(st.sampled_from(sorted(_KEY_TYPES)), max_size=4, unique=True))
    pools = {**_POOLS, **_SUB_POOLS.get(sub, {})}
    values = dict(_BASE[sub])
    for key in keys:
        values[key] = draw(st.sampled_from(tuple(dict.fromkeys(pools[key] + _EDGES))))
    if sub == "solve":
        assume(_small_solve(values))
    return (sub, *(f"{key}={value}" for key, value in values.items()))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_cli_args())
@example(("certify", "n=-1", "alpha=1.5"))
@example(("certify", "n=-3", "rho=1"))
@example(("budget", "C_abs=1e-300"))
@example(("budget", "gamma=0.999999", "u0_amplitude=0.01"))
def test_every_input_exits_0_1_or_2(args):
    with tempfile.TemporaryDirectory() as outdir, warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        code = run([args[0], "-o", outdir, *args[1:]])
    assert code in (0, 1, 2)
