import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from acquimech import paper_registry
from acquimech.gen import random_consistent_instance, random_instance


@pytest.fixture(scope="session")
def fresh_python():
    """Runs Python source in a new interpreter that imports this checkout's
    package, and returns its standard output."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(source):
        proc = subprocess.run([sys.executable, "-c", source],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run


@pytest.fixture(scope="session")
def registry():
    return paper_registry()


@pytest.fixture(scope="session")
def example1(registry):
    return registry["example1"]


@pytest.fixture(scope="session")
def example1_matrix():
    from acquimech.experiments import EXAMPLE1_ACQUIRING_MATRIX
    return np.array(EXAMPLE1_ACQUIRING_MATRIX)


@pytest.fixture(scope="session")
def seven_level_instances(registry):
    """The registry, 300 random and 100 consistent draws with 2 to 7 levels,
    keyed by name: the inputs the rewritten builders are checked on against
    their plain-loop references."""
    out = {f"registry/{name}": inst for name, inst in registry.items()}
    out.update({f"random/{s}": random_instance(s, 2, 7) for s in range(300)})
    out.update({f"consistent/{s}": random_consistent_instance(s, 2, 7)
                for s in range(100)})
    return out
