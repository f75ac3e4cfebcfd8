"""Each demo's stdout, pinned by sha256.

A demo that changes what it prints fails here; a change that moves a pin
says why in CHANGES.md."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "circular_anatomy.py":
        "39ae3ca3f27a531f58e9677e8dcc8e81e7c83f9f816acaf81a89ee4c82132362",
    "plan_tour.py":
        "ea831a5c2571e4aaa66a9aefe0af3c19172fa3e5641a0322af388b75f88ed529",
    "reduction_pipeline.py":
        "96952a20784ca0f38db802fcafcd8d2bcf91c518522106ebd7c64781bc0fb051",
    "rotation_displacement.py":
        "025129cfa295e8ea680decbc31cea60dc05052fd66da2127cf82f3d08b703611",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == \
        sorted(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_stdout(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMOS[name]
