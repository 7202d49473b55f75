"""The names the benchmark's tracer wraps must exist in the package.

``perfbench/tracer.py`` replaces functions of prodsurf from outside, by
module and name; a deleted or renamed function would break a traced run
(``perfbench/run.py --trace 1``).  The tracer is loaded from its file and
only read, except by the one traced operation below, which puts every
original back.  The jet micro-kernel of a traced run, ``perfbench/jetkernel.py``,
reads float-built jets through the public accessors; it is loaded the same
way and run once against its own oracles.
"""

import importlib.util
import os
from pathlib import Path

import pytest

from prodsurf import cli, codazzi, geometry, identities, jets

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"prodsurf_bench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")


@pytest.mark.parametrize("short,name", tracer.SPANNED + tracer.COUNTED)
def test_traced_function_exists(short, name):
    module = importlib.import_module(f"{tracer.PACKAGE}.{short}")
    assert callable(getattr(module, name, None)), f"{short}.{name}"


def test_wrapped_entry_points_exist():
    assert callable(identities.grid_report)
    assert callable(codazzi.field_for)
    assert callable(jets.Jet2.__mul__) and callable(jets.Jet2.__rmul__)
    assert callable(geometry.SurfaceSpec.geom)


def test_traced_verify_restores_the_package():
    originals = (identities.grid_report, geometry.normal_frame_jets, jets.Jet2.__mul__,
                 geometry.SurfaceSpec.geom)
    t = tracer.Tracer()
    argv = ["verify", "--surface", "circle_cylinder", "--param", "kappa=1",
            "--param", "r=0.6", "--param", "pad=2", "--grid", "5x5", "--output", os.devnull]
    assert t.run_op(0, cli.main, argv) == 0
    names = {span[0] for span in t.spans}
    assert {"cli.main", "geometry.evaluate_chart", "geometry.normal_connection_derivative",
            "identities.ambient_codazzi"} <= names
    assert t.counts["jets.mul"] > 0
    assert (identities.grid_report, geometry.normal_frame_jets, jets.Jet2.__mul__,
            geometry.SurfaceSpec.geom) == originals


def test_traced_checker_records_its_span():
    """``theorems.CHECKERS`` must look each checker up at call time, or the
    wrapped module attribute is bypassed and the checker span is lost."""
    t = tracer.Tracer()
    argv = ["hypothesis", "--surface", "circle_cylinder", "--param", "kappa=-1",
            "--param", "r=0.3", "--grid", "5x5", "--theorem", "3.1", "--output", os.devnull]
    assert t.run_op(0, cli.main, argv) == 0
    names = {span[0] for span in t.spans}
    assert {"theorems.run_checker", "theorems.check_pmc_flatness"} <= names


def test_jet_kernel_oracles_hold():
    jetkernel = _load("jetkernel")
    jetkernel.REPEATS = 1  # this copy's timings are not read; one loop each keeps the test cheap
    metrics, errors = jetkernel.run(jets, 1)
    assert errors == []
    assert set(metrics) == {"jets.mul_us", "jets.compose_us"}
