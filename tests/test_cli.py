import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tricentre
import tricentre._output
from tricentre.cli import main
from tricentre.periods import solve_resonant_a1, turning_point_xi


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


class TestPeriods:
    def test_closed_form_line(self, capsys):
        rc, out = run(capsys, ["periods", "--beta", "0", "--a1", "0.25"])
        assert rc == 0
        assert "T2 = 6.2831853071795862" in out

    def test_resonant_solve_equal_periods(self, capsys):
        rc, out = run(capsys, ["periods", "--beta", "0.1428571428571428",
                               "--q", "1", "--json"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["t1"] == pytest.approx(doc["t2"], rel=1e-12)
        assert abs(doc["residual"]) <= 1e-12

    def test_domain_error_exit_code(self, capsys):
        assert main(["periods", "--beta", "1.5", "--a1", "0.3"]) == 2
        assert main(["periods", "--beta", "0.2"]) == 2

    @pytest.mark.parametrize("command", ["periods", "solve"])
    @pytest.mark.parametrize("beta", ["-1", "-2"])
    def test_negative_beta_is_a_domain_error(self, capsys, command, beta):
        # beta = -1 makes 1 + beta zero, which the solve divides by
        assert main([command, "--q", "1", "--beta", beta]) == 2
        assert "beta must lie in [0, 1)" in capsys.readouterr().err


class TestCheck:
    def test_safe_centre(self, capsys):
        rc, out = run(capsys, ["check", "--centre-elliptic", "2.58,0",
                               "--q", "1", "--beta", "0.142857"])
        assert rc == 0
        assert "SAFE" in out

    def test_unsafe_centre_exit_three(self, capsys):
        # on the segment, phi0 just short of the far primary: the angular
        # travel-time ratio sits within delta of 1/2
        phi0 = math.pi - 1e-5
        rc, out = run(capsys, ["check", "--centre-elliptic", f"0,{phi0}",
                               "--q", "1", "--beta", "0.01"])
        assert rc == 3
        assert "UNSAFE" in out

    def test_centre_beyond_turning_ellipse_exit_two(self, capsys):
        # xi_plus = 3.873 at (beta, q) = (0.142857, 1): a placement error
        assert main(["check", "--centre-elliptic", "4.5,0.7", "--q", "1",
                     "--beta", "0.142857"]) == 2
        assert "beyond the turning ellipse" in capsys.readouterr().err

    def test_tie_reports_the_smaller_ratio(self, capsys):
        # phi0 = 0: G- = -G+, so 1/6 and -1/6 lie at exactly the same distance
        rc, out = run(capsys, ["check", "--centre-elliptic", "0.5,0",
                               "--q", "1/3", "--beta", "0.05", "--json"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["g_minus"] == -doc["g_plus"]
        assert doc["nearest"] == "-1/6"
        assert doc["min_separation"] == abs(doc["g_plus"] - 1 / 6)

    @pytest.mark.parametrize("centre", [["--centre-xy=nan,0"],
                                        ["--centre-xy", "0.3,inf"],
                                        ["--centre-elliptic", "inf,0.7"]])
    def test_non_finite_centre_exit_two(self, capsys, centre):
        assert main(["check", *centre, "--q", "1", "--beta", "0.142857"]) == 2
        assert "perturbing centre must be finite" in capsys.readouterr().err


class TestSolve:
    def test_energy_solve(self, capsys):
        rc, out = run(capsys, ["solve", "--q", "1", "--energy", "-0.05",
                               "--json"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["energy"] == pytest.approx(-0.05, abs=1e-10)

    def test_range_error_exit(self, capsys):
        assert main(["solve", "--q", "2", "--energy", "-5.0"]) == 2

    def test_energy_below_reach_exit_two(self, capsys):
        # refused, not answered with the beta = 1e-12 resonance
        assert main(["solve", "--q", "1", "--energy=-1e-300"]) == 2
        assert "|energy| >= 6.10238e-13" in capsys.readouterr().err

    @staticmethod
    def _refused_solve(capsys, monkeypatch, centre):
        """solve's exit code, stderr and resonant_params calls for a centre
        that no beta admits."""
        import tricentre.exclusion as exclusion
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        real = exclusion.resonant_params
        monkeypatch.setattr(exclusion, "resonant_params", counting)
        rc = main(["solve", "--q", "1", "--beta", "0.142857", *centre])
        return rc, capsys.readouterr().err, calls

    @pytest.mark.parametrize("centre", [["--centre-xy", "nan,0"],
                                        ["--centre-elliptic", "inf,0.7"]])
    def test_non_finite_centre_refused_before_halving(self, capsys,
                                                      monkeypatch, centre):
        rc, err, calls = self._refused_solve(capsys, monkeypatch, centre)
        assert rc == 2 and "perturbing centre must be finite" in err
        assert "halvings" not in err and calls == []

    @pytest.mark.parametrize("centre", [["--centre-xy", "1,0"],
                                        ["--centre-xy=-1,0"],
                                        ["--centre-elliptic", "0,0"]])
    def test_primary_centre_refused_before_halving(self, capsys, monkeypatch,
                                                   centre):
        rc, err, calls = self._refused_solve(capsys, monkeypatch, centre)
        assert rc == 2 and "may not coincide with a primary" in err
        assert "halvings" not in err and calls == []


class TestSolverCountersStayOut:
    """Evaluation counters live on the returned objects, not in the output."""

    def test_solve_document_keys(self, capsys):
        rc, out = run(capsys, ["solve", "--q", "2", "--beta", "0.2", "--json"])
        assert rc == 0
        assert set(json.loads(out)) == {
            "command", "q", "beta", "a1_hat", "t1", "t2", "energy",
            "residual", "clamped"}
        assert "evaluations" not in out

    def test_check_document_keys(self, capsys):
        rc, out = run(capsys, ["check", "--centre-elliptic", "2.58,0",
                               "--q", "1", "--beta", "0.142857", "--json"])
        assert rc == 0
        assert set(json.loads(out)) == {
            "command", "q", "beta", "g_plus", "g_minus", "safe",
            "min_separation", "nearest", "delta", "ratio_set"}
        assert "evaluations" not in out


class TestChains:
    def test_energy_below_reach_exit_two(self, capsys, tmp_path):
        # beta = 1e-300 sets an energy of about -6e-301, below every
        # class-1 resonance from beta = 1e-12 on
        assert main(["chains", "--beta", "1e-300", "--classes", "1",
                     "--centre-xy", "1e-3,0", "--out", str(tmp_path)]) == 2
        assert "|energy| >= 6.10238e-13" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_grazing_arc_the_samples_missed_exits_four(self, capsys,
                                                       tmp_path):
        # safe at delta = 1e-4; an arc misses a primary by 1.69e-7, where
        # 4,096 samples of it read 1.17e-6, above the 1e-6 cutoff
        assert main(["chains", "--centre-xy", "1.1941,-0.7314", "--classes",
                     "3/2", "--energy=-0.05", "--out", str(tmp_path)]) == 4
        assert "passes within 1.69e-07 of a primary" in \
            capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [
        ["--centre-xy", "1.18,0", "--classes", "1,2", "--energy", "-0.05"],
        ["--centre-elliptic", "0.6,0", "--classes", "1", "--energy", "-0.05"],
        ["--centre-xy", "0.3,0.9", "--classes", "1", "--energy", "-0.05"],
    ], ids=["readme", "q1-axis", "q1-off-axis"])
    def test_sample_chain_closes(self, capsys, tmp_path, args):
        # a periodic chain also needs the wrap-around edge from its last
        # arc back to its first
        rc, out = run(capsys, ["chains", *args, "--out", str(tmp_path),
                               "--json"])
        assert rc == 0
        doc = json.loads(out)
        edges, chain = doc["graph"]["edges"], doc["sample_chain"]
        assert len(chain) >= 4
        for a, b in zip(chain, chain[1:] + chain[:1]):
            assert b in edges[a], (a, b)


class TestShadow:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_twin_replay_exits_four(self, capsys, tmp_path):
        # test 10's centre (2/3 xi+, 0) at beta = 1e-4: the twin start of
        # the alpha column leaves the run's path, and its replay through the
        # run's uncontrolled steps overflows sinh(xi)
        rc = main(["shadow", "--centre-elliptic", "7.393717557890962,0",
                   "--q", "1", "--beta", "1e-4", "--eps", "1e-2",
                   "--out", str(tmp_path)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error (numerical): the replayed twin overflowed")


class TestFigs:
    def test_fig1_minima(self, capsys, tmp_path):
        rc, out = run(capsys, ["figs", "1", "--out", str(tmp_path), "--json"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["cosh_minima"] == pytest.approx(2.0, abs=1e-12)
        csv_lines = (tmp_path / doc["csv"]).read_text().splitlines()
        assert csv_lines[0] == "xi,potential"
        assert len(csv_lines) > 1000

    def test_fig3_file_counts(self, capsys, tmp_path):
        rc, _ = run(capsys, ["figs", "3", "--out", str(tmp_path)])
        assert rc == 0
        assert len(list(tmp_path.glob("fig3_*_orbit_*.csv"))) == 18
        assert len(list(tmp_path.glob("fig3_*_colliding_*.csv"))) == 2

    def test_fig5_intersections(self, capsys, tmp_path):
        rc, out = run(capsys, ["figs", "5", "--out", str(tmp_path), "--json"])
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["orbits"]) == 2
        assert len(doc["self_intersections"]) >= 1

    def test_fig6_enlargement_window(self, capsys, tmp_path):
        rc, out = run(capsys, ["figs", "6", "--out", str(tmp_path), "--json"])
        assert rc == 0
        doc = json.loads(out)
        assert "window" in doc and len(doc["window"]) == 4
        x0, x1, y0, y1 = doc["window"]
        for px, py in doc["self_intersections"]:
            assert x0 <= px <= x1 and y0 <= py <= y1

    @pytest.mark.parametrize("direction", [-math.inf, math.inf])
    def test_crossing_order_ignores_last_bit_of_x(self, capsys, tmp_path,
                                                  monkeypatch, direction):
        # fig 4's mirror pair (x, +-y) agrees in x only to rounding: with
        # the second track's x one ulp to either side of the first's, the
        # document is the one written from the computed crossings
        from tricentre import figdata
        rc, out = run(capsys, ["figs", "4", "--out", str(tmp_path), "--json"])
        want = json.loads(out)
        bundle = figdata.orbit_bundle_through
        moved = []

        def nudged(q, beta):
            pos, neg = bundle(q=q, beta=beta)
            [(x, _)], [(_, y)] = pos.crossings, neg.crossings
            moved.append([math.nextafter(x, direction), y])
            return [pos, neg._replace(crossings=[tuple(moved[0])])]

        monkeypatch.setattr(figdata, "orbit_bundle_through", nudged)
        rc, out = run(capsys, ["figs", "4", "--out", str(tmp_path), "--json"])
        doc = json.loads(out)
        assert rc == 0
        assert doc == {**want, "self_intersections": [
            moved[0] if p[1] < 0.0 else p for p in want["self_intersections"]]}

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(xs=st.lists(st.integers(-50, 50), min_size=1, max_size=4,
                       unique=True),
           ys=st.lists(st.floats(0.01, 2.0), min_size=4, max_size=4),
           ulps=st.lists(st.integers(-8, 8), min_size=4, max_size=4))
    def test_mirror_order_is_that_of_exact_pairs(self, xs, ys, ulps):
        # pairs (x, y), (x', -y) with x' some ulps from x sort as the exact
        # pairs (x, +-y) do
        from tricentre.cli import _mirror_sorted

        def shifted(x, n):
            for _ in range(abs(n)):
                x = math.nextafter(x, math.copysign(math.inf, n))
            return x

        exact, noisy = [], []
        for x, y, n in zip((0.1 * x for x in xs), ys, ulps):
            exact += [(x, y), (x, -y)]
            noisy += [(x, y), (shifted(x, n), -y)]
        assert ([p[1] for p in _mirror_sorted(noisy)]
                == [p[1] for p in _mirror_sorted(exact)]
                == [p[1] for p in sorted(exact)])

    def test_tiny_beta_exit_two(self, capsys, tmp_path):
        # tanh^2(xi_plus/2) rounds to 1: refused, and no file written
        assert main(["figs", "5", "--beta", "1e-300",
                     "--out", str(tmp_path)]) == 2
        assert "beta = 1e-300" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_bad_index(self, capsys, tmp_path):
        assert main(["figs", "7", "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()


class TestClosedFormCommands:
    """arcs and figs evaluate the closed form with math, without numpy."""

    def test_no_numpy_in_the_process(self, tmp_path):
        # a fresh interpreter: arcs at acceptance test 9's centre, figs 6
        # and figs 3
        code = ("import sys\n"
                "from tricentre.cli import main\n"
                "codes = [main(sys.argv[1:7]), main(sys.argv[7:10]),"
                " main(sys.argv[10:])]\n"
                "print(codes, 'numpy' in sys.modules)\n")
        sol = solve_resonant_a1(1.0 / 7.0, 1)
        xi = 2.0 / 3.0 * turning_point_xi(1.0 / 7.0, sol.a1_hat)
        argv = ["arcs", "--q", "1", f"--beta={1.0 / 7.0!r}",
                f"--centre-elliptic={xi!r},0", f"--out={tmp_path}",
                "figs", "6", f"--out={tmp_path}",
                "figs", "3", f"--out={tmp_path}"]
        env = {**os.environ,
               "PYTHONPATH": str(Path(tricentre.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == "[0, 0, 0] False"

    def test_arc_rows_are_the_array_evaluation(self, capsys, tmp_path):
        import numpy as np
        from tricentre.arcs import arc_family
        from tricentre.exclusion import resonant_params
        from tricentre.geometry import EllipticPoint, elliptic_to_xy
        beta = 1.0 / 7.0
        xi0 = 2.0 / 3.0 * turning_point_xi(
            beta, solve_resonant_a1(beta, 1).a1_hat)
        rc, out = run(capsys, ["arcs", "--q", "1", f"--beta={beta!r}",
                               f"--centre-elliptic={xi0!r},0",
                               "--out", str(tmp_path), "--json"])
        assert rc == 0
        doc = json.loads(out)
        prm, _ = resonant_params(EllipticPoint(xi0, 0.0), 1, beta)
        for record, arc in zip(doc["arcs"], arc_family(prm)):
            assert record["label"] == str(arc.label)
            rows = np.loadtxt(tmp_path / record["path_csv"], delimiter=",",
                              skiprows=1)
            taus = np.linspace(0.0, arc.duration, 1000)
            assert rows[:, 0].tobytes() == taus.tobytes()
            states = arc.path.state_at(taus)
            xi, phi = states[:, 0], states[:, 1]
            rho = np.cosh(xi) ** 2 - np.cos(phi) ** 2
            t_phys = np.concatenate(
                [[0.0], np.cumsum(np.diff(taus) * 0.5 * (rho[1:] + rho[:-1]))])
            want = np.column_stack([states, t_phys, *elliptic_to_xy(xi, phi)])
            assert np.all(np.abs(rows[:, 1:] - want)
                          <= 1e-14 * np.maximum(1.0, np.abs(want)))

    def test_far_centre_at_tiny_beta(self, capsys, tmp_path):
        # xi0 = 27.5, where xi is good to about e^xi0 * 1e-16 only: check
        # calls the centre safe, and its four arcs run their full period,
        # closing to within the state formula's own conditioning
        argv = ["--q", "1", "--beta", "5.78e-12",
                "--centre-elliptic=27.5,2.35"]
        assert run(capsys, ["check", *argv])[0] == 0
        rc, out = run(capsys, ["arcs", *argv, "--out", str(tmp_path),
                               "--json"])
        assert rc == 0
        arcs = json.loads(out)["arcs"]
        assert [arc["early_collision"] for arc in arcs] == [False] * 4
        assert max(arc["closure_error"] for arc in arcs) \
            <= 1e-4 * math.cosh(27.5)

    @pytest.mark.parametrize("which, per_track", [(4, 1), (5, 2), (6, 2)])
    def test_crossings_per_track(self, capsys, tmp_path, which, per_track):
        # m(2n - 1) for q = m/n: q = 1 in figure 4, q = 2 in 5 and 6
        rc, out = run(capsys, ["figs", str(which), "--out", str(tmp_path),
                               "--json"])
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["orbits"]) == 2
        assert len(doc["self_intersections"]) == 2 * per_track


class TestDeterminism:
    def test_rerun_bit_identical(self, capsys, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for out in (out1, out2):
            rc, _ = run(capsys, ["figs", "1", "--out", str(out)])
            assert rc == 0
        files1 = sorted(out1.iterdir())
        files2 = sorted(out2.iterdir())
        assert [f.name for f in files1] == [f.name for f in files2]
        for f1, f2 in zip(files1, files2):
            h1 = hashlib.sha256(f1.read_bytes()).hexdigest()
            h2 = hashlib.sha256(f2.read_bytes()).hexdigest()
            assert h1 == h2


class TestAtomicWrites:
    """Every output file is written whole and then renamed into place."""

    @pytest.mark.parametrize("argv", [
        ["integrate", "--beta", "0.2", "--a1", "0.3",
         "--state", "0,0.3,1.2,1.1", "--tau-end", "2"],
        ["arcs", "--centre-elliptic", "2.58,0", "--q", "1",
         "--beta", "0.142857"],
    ])
    def test_outputs_arrive_by_rename(self, capsys, tmp_path, monkeypatch,
                                      argv):
        renamed = []
        replace = os.replace

        def recorded(src, dst):
            renamed.append(Path(dst).name)
            replace(src, dst)

        monkeypatch.setattr(tricentre._output.os, "replace", recorded)
        assert main(argv + ["--out", str(tmp_path)]) == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        assert any(name.endswith(".csv") for name in written)
        assert sorted(renamed) == written


class TestIntegrate:
    def test_trajectory_export(self, capsys, tmp_path):
        rc, out = run(capsys, ["integrate", "--beta", "0.2", "--a1", "0.3",
                               "--state", "0,0.3,1.2,1.1",
                               "--tau-end", "5", "--out", str(tmp_path),
                               "--json"])
        assert rc == 0
        doc = json.loads(out)
        header = open(doc["csv"]).readline().strip().split(",")
        assert header == ["tau", "xi", "phi", "xi_prime", "phi_prime",
                          "t_physical", "x", "y"]
        assert doc["energy_drift"] <= 1e-9

    def test_file_names_carry_the_centre(self, capsys, tmp_path):
        argv = ["integrate", "--beta", "0.142857", "--q", "1", "--eps", "1e-3",
                "--state", "0,0.3,1.2,1.1", "--tau-end", "1",
                "--out", str(tmp_path)]
        for centre in ("0,1.5", "0.5,1.5"):
            assert main(argv + ["--centre-xy", centre]) == 0
        assert len(list(tmp_path.iterdir())) == 4

    def test_resonance_ignores_tol(self, capsys, tmp_path):
        # --tol sets the integration tolerance only; a1 is solved at 1e-12
        argv = ["integrate", "--beta", "0.142857", "--q", "1",
                "--state", "0,0.3,1.2,1.1", "--tau-end", "5",
                "--out", str(tmp_path), "--json"]
        docs = []
        for tol in ("1e-9", "1e-12"):
            rc, out = run(capsys, argv + ["--tol", tol])
            assert rc == 0
            docs.append(json.loads(Path(json.loads(out)["json"]).read_text()))
        loose, tight = docs
        assert loose["energy"] == tight["energy"] == solve_resonant_a1(
            0.142857, 1).energy
        assert loose["n_samples"] < tight["n_samples"]

    @pytest.mark.parametrize("bad", [
        ["--state", "0,0.3,1.2,1.1", "--tau-end", "nan"],
        ["--state", "0,0.3,1.2,1.1", "--tau-end", "inf"],
        ["--state", "0,0.3,1.2,1.1", "--tau-end", "2", "--tol", "nan"],
        ["--state", "nan,0.3,1.2,1.1", "--tau-end", "2"],
        ["--state", "0,0.3,inf,1.1", "--tau-end", "2"],
    ])
    def test_non_finite_input_exits_two(self, capsys, tmp_path, bad):
        argv = ["integrate", "--beta", "0.2", "--a1", "0.3",
                "--out", str(tmp_path)]
        assert main(argv + bad) == 2
        assert "must be" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 0.0\na1 = 0.25\n# comment line\n")
        rc, out = run(capsys, ["periods", "--config", str(cfg), "--json"])
        assert rc == 0
        assert json.loads(out)["t2"] == pytest.approx(2.0 * math.pi, rel=1e-12)
        rc, out = run(capsys, ["periods", "--config", str(cfg),
                               "--a1", "0.0625", "--json"])
        assert rc == 0
        # flag overrides the config value: T2 = pi / sqrt(1/16) = 4 pi
        assert json.loads(out)["t2"] == pytest.approx(4.0 * math.pi, rel=1e-12)

    def test_config_key_a_names_no_option(self, capsys, tmp_path):
        # the primaries' intensity is fixed at 1: no flag or key sets it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a = 1\nbeta = 0.0\na1 = 0.25\n")
        assert main(["periods", "--config", str(cfg)]) == 2
        assert "config key 'a' names no option" in capsys.readouterr().err

    # --tol and --delta have defaults; the config must still set them

    def test_config_sets_tol(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = 0\n")
        argv = ["integrate", "--beta", "0.2", "--a1", "0.3",
                "--state", "0,0.3,1.2,1.1", "--tau-end", "1",
                "--out", str(tmp_path / "out"), "--config", str(cfg)]
        assert main(argv) == 2  # tol = 0 reaches the integrator and is refused
        assert "tol must be positive" in capsys.readouterr().err
        assert main(argv + ["--tol", "1e-12"]) == 0

    def test_config_sets_delta(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 0.5\n")
        argv = ["check", "--centre-elliptic", "2.58,0", "--q", "1",
                "--beta", "0.142857", "--config", str(cfg), "--json"]
        rc, out = run(capsys, argv)
        assert rc == 3  # separation 0.19 < 0.5
        assert json.loads(out)["delta"] == 0.5
        rc, out = run(capsys, argv + ["--delta", "1e-3"])
        assert rc == 0
        assert json.loads(out)["delta"] == 1e-3

    def test_key_of_another_command_is_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("classes = 1,2\ntau-end = 3\nbeta = 0.0\na1 = 0.25\n")
        rc, out = run(capsys, ["periods", "--config", str(cfg), "--json"])
        assert rc == 0
        assert json.loads(out)["t2"] == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_key_its_inputs_leave_unused_is_ignored(self, capsys, tmp_path):
        # --delta serves solve only with a centre
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = nonsense\n")
        argv = ["solve", "--q", "1", "--beta", "0.3"]
        assert run(capsys, argv + ["--config", str(cfg)]) == run(capsys, argv)
        assert main(argv + ["--centre-xy", "1.18,0",
                            "--config", str(cfg)]) == 2  # here the key is used
        assert "--delta" in capsys.readouterr().err
        # integrate always uses --tol
        cfg.write_text("tol = nonsense\n")
        assert main(["integrate", "--beta", "0.2", "--a1", "0.3",
                     "--state", "0,0.3,1.2,1.1", "--tau-end", "1",
                     "--out", str(tmp_path / "out"), "--config", str(cfg)]) == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("text, name", [
        ("beta = 0.1\nbeta = 0\na1 = 0.25\n", "--beta"),
        ("tau-end = 1\ntau_end = 2\nbeta = 0\na1 = 0.25\n", "--tau-end"),
    ], ids=["beta", "tau-end"])
    def test_repeated_key_is_refused(self, capsys, tmp_path, text, name):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert main(["periods", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "more than once" in err and name in err

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_is_a_domain_error(self, capsys, tmp_path,
                                                 case):
        cfg = tmp_path / "run.cfg"
        if case == "directory":
            cfg.mkdir()
        elif case == "not-utf8":
            cfg.write_bytes(b"beta = 0.2\n# \xff\xfe\na1 = 0.3\n")
        assert main(["periods", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"--config {str(cfg)!r}: " in err

    def test_key_counts_like_its_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("energy = -0.05\n")
        assert main(["solve", "--q", "1", "--beta", "0.3",
                     "--config", str(cfg)]) == 2
        assert "--energy" in capsys.readouterr().err


def test_out_naming_a_file_is_a_domain_error(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert main(["figs", "1", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert f"--out {str(taken)!r}: " in err and "File exists" in err
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["check", "--centre-xy", "a,b", "--q", "1", "--beta", "0.1"],
    ["shadow", "--centre-xy", "0,1.5", "--q", "1", "--beta", "0.142857",
     "--eps", "1e-3,x"],
    ["integrate", "--beta", "0.2", "--a1", "0.3", "--state", "0,x,1,1",
     "--tau-end", "1"],
], ids=["centre-xy", "eps", "state"])
def test_malformed_number_is_a_domain_error(capsys, argv):
    assert main(argv) == 2
    assert "cannot parse" in capsys.readouterr().err


# the commands without an integration, each with a complete input
_TOL_FREE = {
    "periods": ["--beta", "0.142857", "--q", "1"],
    "solve": ["--q", "1", "--beta", "0.142857"],
    "check": ["--centre-elliptic", "2.58,0", "--q", "1", "--beta", "0.142857"],
    "arcs": ["--centre-elliptic", "2.58,0", "--q", "1", "--beta", "0.142857",
             "--out", "{out}"],
    "chains": ["--centre-xy", "1.18,0", "--classes", "1", "--beta", "0.142857",
               "--out", "{out}"],
    "shadow": ["--centre-elliptic", "2.58,0", "--q", "1", "--beta", "0.142857",
               "--eps", "1e-2", "--out", "{out}"],
}


# every command, each with a complete input
_EVERY_COMMAND = {
    **_TOL_FREE,
    "figs": ["1", "--out", "{out}"],
    "integrate": ["--beta", "0.2", "--a1", "0.3", "--state", "0,0.3,1.2,1.1",
                  "--tau-end", "1", "--out", "{out}"],
}


@pytest.mark.parametrize("command", sorted(_EVERY_COMMAND))
def test_intensity_flag_is_refused(capsys, tmp_path, command):
    # the primaries' intensity is fixed at 1, and no prefix of another
    # flag (--a1) stands in for --a
    out = tmp_path / "out"
    argv = [command] + [a.format(out=out) for a in _EVERY_COMMAND[command]]
    assert main(argv + ["--a", "1"]) == 2
    assert "unrecognized arguments: --a 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", ["check", "solve", "arcs", "chains",
                                     "shadow"])
def test_margin_outside_zero_to_inf_exits_two(capsys, tmp_path, command,
                                              value):
    argv = [command] + [a.format(out=tmp_path / "out")
                        for a in _TOL_FREE[command]]
    if command == "solve":
        argv += ["--centre-elliptic", "2.58,0"]
    assert main(argv + [f"--delta={value}"]) == 2
    err = capsys.readouterr().err
    assert "delta must be positive and finite" in err and "halvings" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("argv", [
    ["shadow", "--centre-elliptic", "2.58,0", "--q", "1", "--beta", "0.142857"],
    ["integrate", "--beta", "0.2", "--a1", "0.3", "--state", "0,0.3,1.2,1.1",
     "--tau-end", "1", "--centre-xy", "0.5,0.5"],
], ids=["shadow", "integrate"])
def test_eps_outside_zero_to_inf_exits_two(capsys, tmp_path, argv, value):
    argv = argv + ["--out", str(tmp_path / "out"), f"--eps={value}"]
    assert main(argv) == 2
    assert "eps must be finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, names", [
    (["solve", "--q", "1", "--beta", "0.3", "--energy", "-0.05"],
     ["--beta", "--energy"]),
    (["check", "--centre-elliptic", "2.58,0", "--q", "1", "--beta", "0.142857",
      "--energy", "-0.05"], ["--beta", "--energy"]),
    (["chains", "--centre-xy", "1.18,0", "--classes", "1,2", "--beta", "0.1",
      "--energy", "-0.05", "--out", "{out}"], ["--beta", "--energy"]),
    (["periods", "--beta", "0.2", "--q", "1", "--a1", "0.3"], ["--q", "--a1"]),
    (["integrate", "--beta", "0.2", "--q", "1", "--a1", "0.3",
      "--state", "0,0.3,1.2,1.1", "--tau-end", "1", "--out", "{out}"],
     ["--q", "--a1"]),
    (["check", "--centre-elliptic", "2.58,0", "--centre-xy", "3,3",
      "--q", "1", "--beta", "0.142857"], ["--centre-xy", "--centre-elliptic"]),
    (["solve", "--q", "1", "--beta", "0.3", "--centre-elliptic", "2.58,0",
      "--centre-xy", "3,3"], ["--centre-xy", "--centre-elliptic"]),
    (["figs", "1", "--beta", "0.3", "--out", "{out}"], ["--beta"]),
    (["figs", "1", "--beta", "nonsense", "--out", "{out}"], ["--beta"]),
    (["figs", "3", "--energy", "-0.5", "--out", "{out}"], ["--energy"]),
    (["shadow", "--centre-elliptic", "2.58,0", "--q", "1", "--beta",
      "0.142857", "--eps", ",", "--out", "{out}"], ["--eps"]),
    (["periods", "--beta", "0.2", "--a1", "0.3", "--config", "{cfg}"],
     ["'tolerance'"]),
    (["solve", "--q", "1", "--beta", "0.3", "--delta", "5"], ["--delta"]),
    (["periods", "--beta", "0.2", "--a1", "0.3", "--tol", "5"], ["--tol"]),
    (["periods", "--beta", "0.1", "--beta", "0", "--a1", "0.25"], ["--beta"]),
    (["periods", "--beta=0.1", "--a1", "0.25", "--beta=0"], ["--beta"]),
    (["check", "--centre-elliptic", "2.58,0", "--q", "1", "--q", "2",
      "--beta", "0.142857"], ["--q"]),
    (["periods", "--beta", "0", "--a1", "0.25", "--config", "{cfg}",
      "--config", "{cfg}"], ["--config"]),
] + [([command, *args, "--tol", "1e-9"], ["--tol"])
     for command, args in _TOL_FREE.items()],
    ids=["solve-beta-energy", "check-beta-energy", "chains-beta-energy",
         "periods-q-a1", "integrate-q-a1", "check-two-centres",
         "solve-two-centres", "figs1-beta", "figs1-bad-beta", "figs3-energy",
         "shadow-empty-eps", "config-unknown-key", "solve-delta-no-centre",
         "periods-tol-no-q", "periods-beta-twice", "periods-beta-equals-twice",
         "check-q-twice", "config-twice"]
    + [f"{command}-tol" for command in _TOL_FREE])
def test_unused_or_conflicting_input_is_refused(capsys, tmp_path, argv, names):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tolerance = 0\n")
    out = tmp_path / "out"
    argv = [a.format(out=out, cfg=cfg) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names), err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(_TOL_FREE))
def test_tol_key_is_ignored_without_integration(capsys, tmp_path, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = nonsense\n")
    argv = [command] + [a.format(out=tmp_path / "out")
                        for a in _TOL_FREE[command]]
    assert main(argv + ["--config", str(cfg)]) == 0
    with_key = capsys.readouterr()
    assert with_key.err == ""
    assert run(capsys, argv) == (0, with_key.out)


def _readme_commands():
    """The command lines of the README's CLI block, without `tricentre`."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("tricentre ")]
    assert commands, "no command lines in the README CLI block"
    return commands


@pytest.mark.parametrize("argv", _readme_commands(),
                         ids=lambda argv: " ".join(argv[:2]))
def test_readme_command_runs(capsys, tmp_path, argv):
    argv = [str(tmp_path) if prev == "--out" else arg
            for prev, arg in zip([None] + argv, argv)]
    assert main(argv) == 0
