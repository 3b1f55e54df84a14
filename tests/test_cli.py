import numpy as np
import pytest

from fraclap import UsageError
from fraclap.cli import parse_config, run


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
        ("certify", "K=1024"), ("certify", "K=1100"), ("certify", "A=0"),
        ("certify", "A=-1"), ("certify", "C1=0"), ("certify", "C1=-5"),
        ("budget", "u0=random", "u0_amplitude=-1", "N=128"),
        ("budget", "u0=random", "seed=-1", "N=16"),
        ("solve", "T0=1", "dt=1e-12"), ("solve", "T0=1", "dt=1e-300"),
        ("solve", "T0=1e300", "dt=1e-10"), ("budget", "T0=1e-3", "dt=nan"),
        ("budget", "T0=1e-3", "dt=inf")])
    def test_nonfinite_or_empty_input_is_domain_error(self, outdir, capsys, args):
        code = run([args[0], "-o", str(outdir), *args[1:]])
        err = capsys.readouterr().err
        assert code == 1
        assert "domain error" in err and "Traceback" not in err


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

    def test_certify_bare_defaults(self, outdir, capsys):
        # with no config at all the floors are used and the run certifies
        assert run(["certify", "-o", str(outdir)]) == 0
        assert "certified-divergent" in (outdir / "certificate.txt").read_text()

    def test_solve_zero_coefficient_decays(self, outdir, capsys):
        code = run(["solve", "-o", str(outdir), "kind=dirac", "C=0", "gamma=0.9",
                    "T0=0.25", "u0=random", "u0_amplitude=0.5", "N=128"])
        assert code == 0
        data = np.loadtxt(outdir / "trajectory.csv", delimiter=",", skiprows=3)
        h1 = data[:, 1]
        assert np.all(np.diff(h1) <= 1e-12)

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

    def test_budget_report(self, outdir, capsys):
        code = run(["budget", "-o", str(outdir), "kind=bessel_symbol", "rho=2",
                    "gamma=0", "u0=random", "u0_amplitude=0.05", "N=128"])
        assert code == 0
        text = (outdir / "budget.txt").read_text()
        assert "4 C_B delta" in text

    @pytest.mark.parametrize("dt", ["1e-12", "1e-300"])
    def test_budget_does_not_depend_on_dt(self, tmp_path, capsys, dt):
        # no time lattice is built for an unmodulated symbol, so a dt whose
        # node count fits no memory still gives the budget of the default dt
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
