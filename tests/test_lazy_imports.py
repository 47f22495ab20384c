"""The package namespace is lazy, and each CLI subcommand imports only its layers.

Import footprints are read in a fresh interpreter, since this test process
has imported every layer already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arithsurf

SRC = Path(__file__).resolve().parent.parent / "src"

# the public names of arithsurf, each with the layer that defines it
PUBLIC = {
    "bundles": [
        "BundleHandle", "SplittingProfile", "SplittingType", "bundle_handle", "check_parity",
        "check_type_h0", "normalize", "splitting_type", "try_split_certificate", "type_profile",
    ],
    "cohomology": ["h0_dim", "h1", "sheaf_rank_degree"],
    "delpezzo": [
        "PointConfiguration", "ProjectivePoint", "classify", "general_position",
        "minus_one_classes", "standardize",
    ],
    "errors": ["ArithsurfError"],
    "exactlat": ["IntegerMatrix", "LatticeBasis", "kernel_lattice", "smith_invariants"],
    "graded": [
        "GF", "QQ", "ZZ", "Form", "FreeGraded", "GradedMap", "GradedPresentation",
        "cokernel_presentation", "degree_piece", "free_presentation", "monomial_basis",
        "parse_form", "reduce_mod", "twist",
    ],
    "hirzebruch": [
        "NormalForm", "bundle_from_normal_form", "constancy_check", "degree_profile", "equation",
        "reduce_coefficients",
    ],
    "transforms": [
        "BlowupFactorization", "FiberQuotient", "apply", "blowup_factorization",
        "prescribed_types", "validate_quotient",
    ],
}

BUNDLE_TRANSFORM_SURFACE = [
    ["bundle", "build", "--generic-type", "1", "--jump", "3:2"],
    ["bundle", "profile", "-n", "2", "-f", "6*x0*x1", "--primes-up-to", "7"],
    ["bundle", "check", "--generic-type", "0", "--jump", "2:1"],
    ["transform", "apply", "--generic-type", "0", "--prime", "2", "--twist", "0", "--g", "x0", "--h", "x1"],
    ["transform", "factorize", "--generic-type", "1", "--prime", "3", "--twist", "0", "--g", "x0", "--h", "x1^2"],
    ["surface", "normal-form", "-n", "2", "-f", "5*x0*x1", "--certify"],
]
DELPEZZO = [
    ["delpezzo", "check", "--points", "1:0:0,0:1:0,0:0:1,1:1:1"],
    ["delpezzo", "classify", "--points", "1:0:0,0:1:0,0:0:1,2:3:5"],
]


def loaded_after(runs) -> list[str]:
    """The arithsurf modules a fresh interpreter holds after ``main`` ran each argv."""
    script = "\n".join([
        "import contextlib, io, json, sys",
        "import arithsurf.cli" if runs else "import arithsurf",
        *(f"with contextlib.redirect_stdout(io.StringIO()): arithsurf.cli.main({argv!r})" for argv in runs),
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'arithsurf')))",
    ])
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_no_layer():
    assert loaded_after([]) == ["arithsurf"]


def test_delpezzo_loads_only_its_layers():
    assert loaded_after(DELPEZZO) == [
        "arithsurf", "arithsurf.cli", "arithsurf.delpezzo", "arithsurf.errors", "arithsurf.exactlat",
    ]


def test_only_selftest_loads_selftest():
    loaded = loaded_after(BUNDLE_TRANSFORM_SURFACE)
    assert "arithsurf.transforms" in loaded and "arithsurf.hirzebruch" in loaded
    assert "arithsurf.selftest" not in loaded and "arithsurf.delpezzo" not in loaded
    assert "arithsurf.selftest" in loaded_after([["selftest", "--only", "7"]])


def test_public_names_are_the_layer_objects():
    assert sorted(arithsurf.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    assert len(arithsurf.__all__) == 50
    for layer, names in PUBLIC.items():
        module = importlib.import_module(f"arithsurf.{layer}")
        for name in names:
            assert getattr(arithsurf, name) is getattr(module, name), name
            assert name in vars(arithsurf), name  # bound on first use
    assert set(arithsurf.__all__) <= set(dir(arithsurf))


def test_star_import_and_unknown_name():
    namespace = {}
    exec("from arithsurf import *", namespace)
    assert set(arithsurf.__all__) <= set(namespace)
    assert namespace["prescribed_types"] is arithsurf.transforms.prescribed_types
    with pytest.raises(AttributeError, match="no_such_name"):
        arithsurf.no_such_name

