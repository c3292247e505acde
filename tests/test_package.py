import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tricentre

# The package's exports before they resolved lazily, less what was deleted
# since (integrate_symplectic moved to tests/verlet_check.py,
# PrimaryProximity, which only tests used, is gone, adaptive_quadrature
# with QuadratureResult moved to tests/quadrature_reference.py,
# XiCrossing moved to tests/event_specs.py, EllipticState,
# primary_potential, centre_potential, regularized_hamiltonian and
# vector_field, which only tests used, are gone, and AccuracyError moved
# to tests/quadrature_reference.py, resonance_residual left with the
# finite-difference certificate, tests/nondegeneracy_reference.py, and
# CentreProximity moved to tests/event_specs.py with the integrated
# expansion rate, tests/expansion_reference.py).
EXPORTS = {
    "ArcLabel", "CartesianPoint",
    "ChainGraph", "CollisionArc", "CollisionChain", "DomainError",
    "EllipticPoint", "EventRecord", "IntegrationError",
    "NUMBA_ENABLED", "NondegeneracyCertificate", "Params", "PhiCrossing",
    "PlacementError", "RangeError",
    "ResonanceSolution", "SafetyReport", "ShadowResult", "SingularityError",
    "StructuralError", "Trajectory", "TricentreError", "UnsafeCentreError",
    "arc_family", "assemble_chain",
    "build_alphabet", "build_arc", "build_graph", "cartesian_to_elliptic",
    "complete_elliptic_k", "count_periodic_chains",
    "elliptic_to_cartesian", "entropy_estimate", "find_admissible_beta",
    "initial_velocities", "integrate", "local_expansion_rate",
    "modulus_squares", "nondegeneracy_certificate", "period_phi",
    "period_xi", "physical_time_of", "primary_collision_check",
    "primary_collision_ratios", "resonant_params", "shoot_segment",
    "solve_beta_for_energy", "solve_resonant_a1", "trajectory_to_csv",
    "trajectory_to_json", "transform_matrix", "turning_point_xi",
    "velocity_to_cartesian",
}


def _fresh_python(code: str) -> str:
    """Run code in a new interpreter that imports this tricentre; its stdout."""
    src = str(Path(tricentre.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return done.stdout


def test_no_public_function_takes_an_intensity():
    """The primaries' intensity is fixed at 1; only period_xi keeps a
    parameter for it, which takes 1.0 alone."""
    import inspect
    import tricentre.figdata as figdata
    with_a = sorted(f"{module.__name__}.{name}"
                    for module in (tricentre, figdata) for name in module.__all__
                    if inspect.isfunction(f := getattr(module, name))
                    and "a" in inspect.signature(f).parameters)
    assert with_a == ["tricentre.period_xi"]


def test_top_level_api_exports():
    for name in ("Params", "integrate", "arc_family", "build_graph",
                 "entropy_estimate", "shoot_segment", "complete_elliptic_k",
                 "solve_resonant_a1", "NUMBA_ENABLED"):
        assert hasattr(tricentre, name)


class TestLazyNamespace:
    def test_exports_are_the_earlier_set(self):
        assert set(tricentre.__all__) == EXPORTS

    def test_every_export_is_its_defining_object(self):
        for name in tricentre.__all__:
            value = getattr(tricentre, name)
            module = sys.modules.get(getattr(value, "__module__", None))
            if module is None or module.__name__ == "builtins":
                assert name == "NUMBA_ENABLED"
                continue
            assert getattr(module, name) is value, name

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError):
            tricentre.no_such_name  # noqa: B018

    def test_bare_import_loads_no_submodule(self):
        out = _fresh_python(
            "import sys, tricentre\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith('tricentre.')))")
        assert out.strip() == "[]"

    def test_submodule_attribute_after_bare_import(self):
        out = _fresh_python("import tricentre\n"
                            "print(tricentre.dynamics.integrate.__name__)")
        assert out.strip() == "integrate"


@pytest.mark.parametrize("argv, rc", [
    (["periods", "--beta", "0.142857", "--q", "1"], 0),
    (["solve", "--q", "2", "--energy", "-0.05"], 0),
    (["solve", "--q", "1", "--energy", "-0.05", "--centre-xy", "0.3,0.4",
      "--json"], 0),
    (["check", "--centre-elliptic", "2.58,0", "--q", "1",
      "--beta", "0.142857"], 0),
    (["check", "--centre-elliptic", "0,3.141582653589793", "--q", "1",
      "--beta", "0.01"], 3),
], ids=["periods", "solve", "solve-centre", "check-safe", "check-unsafe"])
def test_closed_form_commands_leave_numpy_out(argv, rc):
    # nor the modules that records and hashing once pulled in; json is left
    # out, as this child imports it to report
    out = _fresh_python(
        "import contextlib, io, json, sys\n"
        "from tricentre.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main({argv!r})\n"
        "print(json.dumps([rc, sorted(m for m in ('numpy', 'dataclasses',"
        " 'inspect', 'hashlib') if m in sys.modules)]))")
    assert json.loads(out) == [rc, []]


def test_arcs_command_loads_no_integrator(tmp_path):
    out = _fresh_python(
        "import contextlib, io, json, sys\n"
        "from tricentre.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['arcs', '--centre-elliptic', '2.58,0', '--q', '1',"
        f" '--beta', '0.142857', '--out', {str(tmp_path)!r}])\n"
        "print(json.dumps([rc, sorted(m for m in ('tricentre.dynamics',"
        " 'tricentre._kernels', 'dataclasses') if m in sys.modules)]))")
    assert json.loads(out) == [0, []]
    assert len(list(tmp_path.glob("arc_*.csv"))) == 4


def test_state_at_clamps_to_span():
    from tricentre.dynamics import Params, integrate
    prm = Params(beta=0.2, a1=0.3)
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

