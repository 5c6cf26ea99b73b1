"""Cross-checks the pure and compiled kernel backends against each other."""

import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import disksurgery
from disksurgery._kernels import available_backends, load_backend
from disksurgery.primitivity import enumerate_whitehead_autos

pure = load_backend("pure")
compiled_available = "compiled" in available_backends()

needs_compiled = pytest.mark.skipif(
    not compiled_available, reason="compiled kernel core not built")

letters = st.lists(st.integers(min_value=-4, max_value=4).filter(bool), max_size=80)

# The directory holding the `disksurgery` package under test (`src/` in a
# checkout), so child interpreters import this copy and no other.
SOURCE_ROOT = Path(disksurgery.__file__).resolve().parent.parent


def child_env(kernel):
    """Environment for a child interpreter that forces `kernel`.

    Keeps the parent's environment and puts SOURCE_ROOT first on
    PYTHONPATH, so the suite runs the same from a plain checkout
    (``PYTHONPATH=src``) as from an installed package.
    """
    env = dict(os.environ)
    env["DISKSURGERY_KERNEL"] = kernel
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE_ROOT), inherited]))
    return env


@needs_compiled
class TestBackendsAgree:
    @given(letters)
    def test_free_reduce(self, seq):
        assert load_backend("compiled").free_reduce(seq) == pure.free_reduce(seq)

    @given(letters)
    def test_cyclic_reduce(self, seq):
        assert load_backend("compiled").cyclic_reduce(seq) == pure.cyclic_reduce(seq)

    @given(letters)
    def test_least_rotation(self, seq):
        assert load_backend("compiled").least_rotation(seq) == pure.least_rotation(seq)

    @given(letters)
    def test_canonical_cyclic(self, seq):
        assert load_backend("compiled").canonical_cyclic(seq) == pure.canonical_cyclic(seq)

    @given(letters, st.integers(min_value=0, max_value=200))
    def test_apply_images(self, seq, pick):
        autos = enumerate_whitehead_autos(4)
        auto = autos[pick % len(autos)]
        flat, offsets = auto._flat, auto._offsets
        fast = load_backend("compiled")
        assert fast.apply_images(seq, flat, offsets) == pure.apply_images(seq, flat, offsets)
        assert fast.apply_images_canonical(seq, flat, offsets) == \
            pure.apply_images_canonical(seq, flat, offsets)


class TestSelection:
    def test_pure_always_available(self):
        assert "pure" in available_backends()

    @pytest.mark.parametrize("name", ["fortran", "py", "python", "c", "ext"])
    def test_unknown_name_rejected(self, name):
        with pytest.raises(ValueError):
            load_backend(name)

    @pytest.mark.parametrize("forced,expected", [
        ("pure", "pure"),
        pytest.param("compiled", "compiled", marks=needs_compiled),
    ])
    def test_env_var_forces_backend(self, forced, expected):
        code = ("import disksurgery; print(disksurgery.KERNEL_BACKEND);"
                " print(disksurgery.__file__)")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env=child_env(forced),
        )
        backend, module_file = out.stdout.splitlines()
        assert backend == expected
        assert Path(module_file).resolve().is_relative_to(SOURCE_ROOT)

    def test_bogus_env_var_raises(self):
        code = "import disksurgery"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env=child_env("turbo"),
        )
        assert out.returncode != 0
        assert "DISKSURGERY_KERNEL" in out.stderr
        assert "ValueError" in out.stderr
        assert "ModuleNotFoundError" not in out.stderr

    @needs_compiled
    def test_same_verdicts_across_backends(self):
        code = (
            "from disksurgery import is_primitive, parse_word\n"
            "words = ['x1 x2 x2', 'x1 x1', 'x2 x1 x2^-1 x1^-1 x2',"
            " 'x1 x2^-1 x1 x2 x1^-1 x2']\n"
            "print([is_primitive(parse_word(w, 2), 2).primitive for w in words])\n"
        )
        results = set()
        for forced in ("pure", "compiled"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
                env=child_env(forced),
            )
            results.add(out.stdout)
        assert len(results) == 1


@needs_compiled
def test_array_payloads_accepted():
    # Rank-2 table: x1 -> x1 x2, x1^-1 -> x2^-1 x1^-1, x2 and x2^-1 fixed.
    fast = load_backend("compiled")
    flat = array("l", [1, 2, -2, -1, 2, -2])
    offsets = array("l", [0, 2, 4, 5, 6])
    assert fast.apply_images((1, 2), flat, offsets) == (1, 2, 2)
    assert pure.apply_images((1, 2), flat, offsets) == (1, 2, 2)
    assert fast.apply_images((1, -2), flat, offsets) == (1,)
    assert pure.apply_images((1, -2), flat, offsets) == (1,)
