import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modmi
from util import child_env


def run_python(code: str, **env_vars: str) -> str:
    """Run ``code`` in a fresh interpreter under :func:`child_env`; return its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        capture_output=True,
        text=True,
        env=child_env(**env_vars),
    )
    return done.stdout


def test_import_loads_no_numpy_and_keeps_the_environment():
    out = run_python(
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import modmi\n"
        "print('numpy' in sys.modules, dict(os.environ) == before)\n"
        "from modmi.pipeline import analyze\n"
        "print('numpy' in sys.modules, dict(os.environ) == before)\n"
    )
    assert out.split() == ["False", "True", "True", "True"]


def test_every_exported_name_resolves_from_its_submodule():
    assert modmi.__all__ == sorted(modmi._EXPORTS)
    for name, module in modmi._EXPORTS.items():
        assert getattr(modmi, name) is getattr(getattr(modmi, module), name)
    assert set(modmi.__all__) <= set(dir(modmi))
    assert "__version__" in dir(modmi)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'modmi' has no attribute 'nope'"):
        modmi.nope


def _blas_name() -> str:
    config = getattr(np.__config__, "CONFIG", {})
    return config.get("Build Dependencies", {}).get("blas", {}).get("name", "")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts /proc/self/task")
@pytest.mark.skipif("openblas" not in _blas_name(), reason="OpenBLAS starts its threads on load")
@pytest.mark.parametrize(
    "env_vars, threads",
    [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2), ({"OMP_NUM_THREADS": "2"}, 2)],
    ids=["default", "OPENBLAS_NUM_THREADS=2", "OMP_NUM_THREADS=2"],
)
def test_cli_runs_blas_on_one_thread_unless_asked(env_vars, threads):
    if threads > (os.cpu_count() or 1):
        pytest.skip(f"OpenBLAS starts at most one thread per CPU; {threads} asked")
    out = run_python(
        "import os, sys, modmi.cli\n"
        "print(len(os.listdir('/proc/self/task')), 'numpy' in sys.modules)\n",
        **env_vars,
    )
    assert out.split() == [str(threads), "True"]
