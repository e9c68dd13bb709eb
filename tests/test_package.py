"""The package namespace: every public name resolves, submodules load on use."""

import os
import subprocess
import sys

import nlts


def test_every_public_name_resolves():
    namespace = {}
    exec("from nlts import *", namespace)
    for name in nlts.__all__:
        assert namespace[name] is getattr(nlts, name)
        assert name in dir(nlts)
    assert nlts.l2 is nlts.lts.l2
    assert nlts.Complex is nlts.cohomology.Complex


def test_submodules_load_on_first_use():
    code = ("import sys, nlts; "
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('nlts.')); "
            "print(loaded()); nlts.grid_search_nijenhuis; print(loaded())")
    src = os.path.dirname(os.path.dirname(nlts.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == ["[]", "['nlts.linalg', 'nlts.lts', 'nlts.operators']"]
