import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import is_hypothesis_test, settings

from charrnn.corpus import build_vocab, load_corpus

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_CORPUS = REPO_ROOT / "data" / "tiny_script.txt"

# Hypothesis profiles, chosen by HYPOTHESIS_PROFILE. "tier1", the default,
# gives one answer per commit: every property draws the same examples on
# every run, each at its own max_examples, and no example database replays
# a failure from an earlier run. "explore" draws fresh random examples,
# EXPLORE_FACTOR times as many, and prints a blob that reproduces a failure;
# pin what it finds as an @example. Loaded here, before any test module
# builds its @settings, so those inherit the profile.
EXPLORE_FACTOR = 5
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, print_blob=True)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
settings.load_profile(PROFILE)


def pytest_collection_modifyitems(items):
    """Under "explore", multiply each property's max_examples: a test's own
    @settings(max_examples=...) outranks any profile's."""
    if PROFILE != "explore":
        return
    tests = {item.function for item in items
             if isinstance(item, pytest.Function) and is_hypothesis_test(item.function)}
    for test in tests:
        own = test._hypothesis_internal_use_settings
        test._hypothesis_internal_use_settings = settings(
            own, max_examples=EXPLORE_FACTOR * own.max_examples)


def openblas_corename() -> str | None:
    """The kernel set numpy's bundled OpenBLAS runs on here, such as "SkylakeX".

    Read through ctypes from the scipy-openblas library in numpy.libs, which
    the process has already loaded; None when numpy bundles no such library.
    OPENBLAS_CORETYPE in the environment forces the kernel set.
    """
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes = []
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def numpy_cpu_features() -> dict[str, bool]:
    """numpy's SIMD dispatch targets, each with whether it is enabled here.

    NPY_DISABLE_CPU_FEATURES in the environment turns targets off.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return dict(__cpu_features__)


def goldens_for_core(goldens: dict, what: str, core: str | None = None):
    """goldens[core], core being by default the OpenBLAS kernel set this
    process runs on; a core with no entry fails the test, naming the core,
    what has no entry for it and the cores that have one."""
    core = core or openblas_corename()
    if core not in goldens:
        pytest.fail(f"no {what} for the OpenBLAS core {core!r}; "
                    f"known cores: {', '.join(goldens)}")
    return goldens[core]


def child_env(**forced: str) -> dict[str, str]:
    """os.environ plus forced, with this checkout's src first on PYTHONPATH,
    for a child process that imports charrnn."""
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **forced, "PYTHONPATH": path}


def rerun_forced(node: str, passed: int, probe: str, expect: str, **forced: str) -> None:
    """Run the test node in a child pytest whose environment adds forced,
    which sets what this process cannot change once numpy is loaded (the
    OpenBLAS kernel set, numpy's SIMD targets). The child first prints
    probe, an expression over openblas_corename and numpy_cpu_features,
    and its value, which must read expect, so a setting the child ignored
    fails here; then the node must pass, with exactly passed tests."""
    code = ("import sys, pytest; from tests.conftest import numpy_cpu_features, "
            f"openblas_corename; print({probe!r}, {probe}); "
            f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', {node!r}]))")
    child = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT, env=child_env(**forced),
                           capture_output=True, text=True, timeout=300)
    assert child.stdout.startswith(f"{probe} {expect}\n"), child.stdout
    assert child.returncode == 0 and f"\n{passed} passed" in child.stdout, child.stdout


@pytest.fixture(scope="session")
def fixture_path() -> Path:
    return FIXTURE_CORPUS


@pytest.fixture(scope="session")
def fixture_text() -> str:
    return load_corpus(FIXTURE_CORPUS)


@pytest.fixture(scope="session")
def fixture_vocab(fixture_text):
    return build_vocab(fixture_text)


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Max elementwise relative error with a denominator floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(b), floor)
    return float(np.max(np.abs(a - b) / denom))


def finite_difference(loss_fn, arrays, h: float = 1e-5):
    """Central-difference gradients of loss_fn with respect to each array.

    loss_fn takes no arguments and reads the arrays in place; every element
    is perturbed by +-h. Returns one gradient array per input array.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads
