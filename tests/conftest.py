import importlib.util
import random

import pytest

from disksurgery import primitivity, words
from disksurgery._kernels import load_backend
from helpers import SOURCE_ROOT

# The kernel names the descent, the oracle and the words module call, per module.
KERNEL_NAMES = {
    primitivity: ("apply_images", "apply_images_canonical", "cyclic_reduce", "least_rotation"),
    words: ("canonical_cyclic", "free_reduce", "least_rotation"),
}


@pytest.fixture
def rng():
    return random.Random(90210)


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled core built from this copy's `_core.c` into a temp dir.

    Skips when it cannot be built, for example without a C compiler.
    """
    setuptools = pytest.importorskip("setuptools")
    from setuptools.command.build_ext import build_ext
    from setuptools.errors import BaseError, CCompilerError

    out = tmp_path_factory.mktemp("core")
    source = SOURCE_ROOT / "disksurgery" / "_kernels" / "_core.c"
    ext = setuptools.Extension("_core", [str(source)])
    cmd = build_ext(setuptools.Distribution({"ext_modules": [ext]}))
    cmd.build_lib = str(out)
    cmd.build_temp = str(out / "tmp")
    cmd.ensure_finalized()
    try:
        cmd.run()
    except (CCompilerError, BaseError) as exc:
        pytest.skip(f"compiled kernel core could not be built: {exc}")
    spec = importlib.util.spec_from_file_location("_core", cmd.get_ext_fullpath("_core"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["pure", "compiled"])
def backend(request, monkeypatch):
    """Run the test with every kernel call going to one backend."""
    kernels = load_backend("pure") if request.param == "pure" \
        else request.getfixturevalue("compiled")
    for module, names in KERNEL_NAMES.items():
        for name in names:
            monkeypatch.setattr(module, name, getattr(kernels, name))
    return request.param
