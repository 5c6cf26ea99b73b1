"""Cross-checks the pure and compiled kernel backends against each other."""

import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from disksurgery._kernels import available_backends, load_backend
from disksurgery.primitivity import enumerate_whitehead_autos
from helpers import SOURCE_ROOT, child_env

pure = load_backend("pure")

# Only the child-interpreter tests need the core built in place; the
# others build their own copy with the `compiled` fixture (conftest.py).
needs_compiled = pytest.mark.skipif(
    "compiled" not in available_backends(), reason="compiled kernel core not built in place")

letters = st.lists(st.integers(min_value=-4, max_value=4).filter(bool), max_size=80)


def brute_least_rotation(w):
    w = tuple(w)
    rotations = [w[i:] + w[:i] for i in range(len(w))] or [w]
    return min(rotations, key=lambda r: [pure.letter_key(a) for a in r])


class TestLeastRotation:
    @given(letters)
    def test_random_words(self, seq):
        assert pure.least_rotation(seq) == brute_least_rotation(seq)

    @given(st.lists(st.integers(min_value=-3, max_value=3).filter(bool), min_size=1, max_size=6),
           st.integers(min_value=1, max_value=12))
    def test_powers(self, u, m):
        # Periodic words have several least rotations, all equal as words.
        assert pure.least_rotation(u * m) == brute_least_rotation(u * m)

    @pytest.mark.parametrize("u,m", [((1, 2), 8000), ((2, -1, 3), 3000), ((-3, 1, 1, 2), 2000)])
    def test_long_powers(self, u, m):
        # The least rotation of u^m is (least rotation of u)^m; an O(n^2)
        # scan takes seconds on these.
        assert pure.least_rotation(u * m) == brute_least_rotation(u) * m


class TestBackendsAgree:
    @given(letters)
    def test_free_reduce(self, compiled, seq):
        assert compiled.free_reduce(seq) == pure.free_reduce(seq)

    @given(letters)
    def test_cyclic_reduce(self, compiled, seq):
        assert compiled.cyclic_reduce(seq) == pure.cyclic_reduce(seq)

    @given(letters, st.integers(min_value=1, max_value=4))
    def test_canonical_cyclic(self, compiled, seq, repeats):
        # Repeats make periodic words, whose least rotation starts at
        # several places.
        seq = seq * repeats
        assert compiled.canonical_cyclic(seq) == pure.canonical_cyclic(seq)

    @given(letters, st.integers(min_value=0, max_value=200))
    def test_apply_images(self, compiled, seq, pick):
        autos = enumerate_whitehead_autos(4)
        auto = autos[pick % len(autos)]
        flat, offsets = auto._flat, auto._offsets
        assert compiled.apply_images(seq, flat, offsets) == pure.apply_images(seq, flat, offsets)
        assert compiled.apply_images_canonical(seq, flat, offsets) == \
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


def test_array_payloads_accepted(compiled):
    # Rank-2 table: x1 -> x1 x2, x1^-1 -> x2^-1 x1^-1, x2 and x2^-1 fixed.
    flat = array("l", [1, 2, -2, -1, 2, -2])
    offsets = array("l", [0, 2, 4, 5, 6])
    assert compiled.apply_images((1, 2), flat, offsets) == (1, 2, 2)
    assert pure.apply_images((1, 2), flat, offsets) == (1, 2, 2)
    assert compiled.apply_images((1, -2), flat, offsets) == (1,)
    assert pure.apply_images((1, -2), flat, offsets) == (1,)


# Feeds letters the rank-2 table above does not cover to both table
# kernels of one backend: the pure one, or the core at the path given.
UNCOVERED_PROBE = """
import importlib.util, sys
from array import array
from disksurgery._kernels import pyops as kernels
if sys.argv[1:]:
    spec = importlib.util.spec_from_file_location("_core", sys.argv[1])
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
flat, offsets = array("l", [1, 2, -2, -1, 2, -2]), array("l", [0, 2, 4, 5, 6])
for letter in (3, -3, 0, 2**40, 2**70):
    for kernel in (kernels.apply_images, kernels.apply_images_canonical):
        try:
            kernel((1, letter), flat, offsets)
            print("returned")
        except Exception as exc:
            print(type(exc).__name__)
"""


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_uncovered_letters_raise_value_error(backend, request):
    # In a child interpreter, so that a crash fails the test instead of
    # ending the run.
    argv = [request.getfixturevalue("compiled").__file__] if backend == "compiled" else []
    out = subprocess.run(
        [sys.executable, "-c", UNCOVERED_PROBE, *argv],
        capture_output=True, text=True, env=child_env("pure"),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ValueError"] * 10
