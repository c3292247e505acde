import json

import numpy as np
import pytest


def test_top_level_api_exports():
    import tricentre
    for name in ("Params", "integrate", "arc_family", "build_graph",
                 "entropy_estimate", "shoot_segment", "complete_elliptic_k",
                 "solve_resonant_a1", "NUMBA_ENABLED"):
        assert hasattr(tricentre, name)


def test_trajectory_samples_property():
    from tricentre.dynamics import Params, integrate
    prm = Params(a=1.0, beta=0.2, a1=0.3)
    traj = integrate(np.array([0.0, 0.3, 1.2, 1.1]), prm, 1.0, tol=1e-10)
    samples = traj.samples
    assert len(samples) == len(traj.taus)
    tau0, state0 = samples[0]
    assert tau0 == 0.0
    assert state0.point.xi == 0.0
    taus = [t for t, _ in samples]
    assert all(a < b for a, b in zip(taus, taus[1:]))


def test_state_at_clamps_to_span():
    from tricentre.dynamics import Params, integrate
    prm = Params(a=1.0, beta=0.2, a1=0.3)
    traj = integrate(np.array([0.0, 0.3, 1.2, 1.1]), prm, 1.0, tol=1e-10)
    inside = traj.state_at(0.999999)
    end = traj.state_at(traj.tau_final)
    assert np.allclose(end, traj.states[-1], atol=1e-9)
    assert np.all(np.isfinite(inside))


def test_figs_two_and_four(tmp_path, capsys):
    from tricentre.cli import main
    rc = main(["figs", "2", "--out", str(tmp_path), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["minima_phi"] == pytest.approx([0.0, np.pi])
    rc = main(["figs", "4", "--out", str(tmp_path), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(doc["orbits"]) == 2
    assert doc["q"] == "1"

