"""Cross-checks the pure and compiled kernel backends against each other."""

import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from disksurgery._kernels import available_backends, load_backend
from disksurgery.primitivity import enumerate_whitehead_autos
from helpers import SOURCE_ROOT, child_env, first_kind_generators, image_table

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

    @given(letters, st.integers(min_value=1, max_value=4))
    def test_compiled(self, compiled, seq, repeats):
        seq = seq * repeats
        assert compiled.least_rotation(seq) == brute_least_rotation(seq)

    def test_compiled_long_power(self, compiled):
        assert compiled.least_rotation((2, -1, 3) * 3000) == brute_least_rotation((2, -1, 3)) * 3000

    def test_compiled_letter_checks(self, compiled):
        # The same checks as canonical_cyclic: a letter must fit a C long.
        for kernel in (compiled.least_rotation, compiled.canonical_cyclic):
            with pytest.raises(OverflowError):
                kernel((1, 2**70))


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
        autos = [*enumerate_whitehead_autos(4), *first_kind_generators(4)]
        images = image_table(autos[pick % len(autos)])
        assert compiled.apply_images(seq, images) == pure.apply_images(seq, images)
        assert compiled.apply_images_canonical(seq, images) == \
            pure.apply_images_canonical(seq, images)


@st.composite
def tables_and_words(draw):
    slots = draw(st.integers(min_value=0, max_value=8))
    images = tuple(tuple(draw(st.lists(st.integers(min_value=-4, max_value=4), max_size=4)))
                   for _ in range(slots))
    # Letters the table covers: those whose letter_key is below `slots`.
    covered = [a for a in (1, -1, 2, -2, 3, -3, 4, -4) if pure.letter_key(a) < slots]
    word = draw(st.lists(st.sampled_from(covered), max_size=30)) if covered else []
    return word, images


class TestMaxLen:
    """apply_images_canonical with a bound: None past it, else unchanged."""

    @given(tables_and_words())
    def test_backends_agree(self, compiled, case):
        word, images = case
        full = pure.apply_images_canonical(word, images)
        assert compiled.apply_images_canonical(word, images) == full
        n = len(full)
        for max_len in (n - 1, n, 0, None):
            if max_len is not None and max_len < 0:
                continue
            want = None if max_len is not None and n > max_len else full
            for kernel in (pure, compiled):
                assert kernel.apply_images_canonical(word, images, max_len) == want

    @given(letters, st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=40))
    def test_whitehead_tables(self, compiled, seq, pick, max_len):
        autos = [*enumerate_whitehead_autos(4), *first_kind_generators(4)]
        auto = autos[pick % len(autos)]
        args = (seq, image_table(auto), max_len)
        assert compiled.apply_images_canonical(*args) == pure.apply_images_canonical(*args)

    @pytest.mark.parametrize("max_len,error", [
        (-1, ValueError), (-2**70, ValueError), (1.0, TypeError), ("3", TypeError),
    ])
    def test_bad_bound_same_error(self, compiled, max_len, error):
        auto = enumerate_whitehead_autos(2)[5]
        for kernel in (pure, compiled):
            with pytest.raises(error):
                kernel.apply_images_canonical((1, 2), image_table(auto), max_len)

    def test_huge_bound_is_no_bound(self, compiled):
        auto = enumerate_whitehead_autos(2)[5]
        for kernel in (pure, compiled):
            assert kernel.apply_images_canonical((1, 2), image_table(auto), 2**70) == \
                kernel.apply_images_canonical((1, 2), image_table(auto))

    @pytest.mark.parametrize("kernel_name", ["apply_images", "apply_images_canonical"])
    def test_table_arguments_are_positional_only(self, compiled, kernel_name):
        auto = enumerate_whitehead_autos(2)[5]
        for kernel in (pure, compiled):
            with pytest.raises(TypeError):
                getattr(kernel, kernel_name)((1, 2), images=image_table(auto))


@pytest.mark.parametrize("kernel_name,args", [
    ("apply_images", (None,)),
    ("apply_images", (7,)),
    ("apply_images", ({0: (1,)},)),
    ("apply_images_canonical", (None,)),
    ("apply_images_canonical", (None, 0)),
])
def test_empty_word_reads_no_table(compiled, kernel_name, args):
    for kernel in (pure, compiled):
        assert getattr(kernel, kernel_name)((), *args) == ()


def test_backends_export_the_same_kernels(compiled):
    names = ("BACKEND", "free_reduce", "cyclic_reduce", "canonical_cyclic", "least_rotation",
             "apply_images", "apply_images_canonical")
    public = {name for name in dir(pure) if not name.startswith("_")} - {"letter_key"}
    assert public == set(names)
    assert {name for name in dir(compiled) if not name.startswith("_")} == public


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

    def test_forced_compiled_without_core_names_the_fix(self):
        # The child cannot import the core, whether or not it was built here.
        code = ("import sys; sys.modules['disksurgery._kernels._core'] = None\n"
                "import disksurgery")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env=child_env("compiled"),
        )
        assert out.returncode != 0
        last = out.stderr.strip().splitlines()[-1]
        assert last.startswith("ImportError: DISKSURGERY_KERNEL=compiled, but the compiled core")
        assert "python setup.py build_ext --inplace" in last
        assert "circular import" not in last

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
    # Any sequence of sequences serves, here a list of arrays.
    images = [array("l", image) for image in ((1, 2), (-2, -1), (2,), (-2,))]
    for kernel in (pure, compiled):
        assert kernel.apply_images((1, 2), images) == (1, 2, 2)
        assert kernel.apply_images((1, -2), images) == (1,)
        assert kernel.apply_images_canonical((2, 1), images) == (1, 2, 2)


# Feeds letters the rank-2 table above does not cover to both table
# kernels of one backend: the pure one, or the core at the path given.
UNCOVERED_PROBE = """
import importlib.util, sys
from disksurgery._kernels import pyops as kernels
if sys.argv[1:]:
    spec = importlib.util.spec_from_file_location("_core", sys.argv[1])
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
images = ((1, 2), (-2, -1), (2,), (-2,))
for letter in (3, -3, 0, 2**40, 2**70):
    for call in (lambda: kernels.apply_images((1, letter), images),
                 lambda: kernels.apply_images_canonical((1, letter), images),
                 lambda: kernels.apply_images_canonical((1, letter), images, 1)):
        try:
            call()
            print("returned")
        except Exception as exc:
            print(type(exc).__name__)
"""


def run_probe(probe, backend, request):
    # In a child interpreter, so that a crash fails the test instead of
    # ending the run.
    argv = [request.getfixturevalue("compiled").__file__] if backend == "compiled" else []
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True, text=True, env=child_env("pure"),
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_uncovered_letters_raise_value_error(backend, request):
    assert run_probe(UNCOVERED_PROBE, backend, request) == ["ValueError"] * 15


# Feeds malformed input to the table kernels of one backend, with and
# without a bound: a table that is not a sequence, an image that is not a
# sequence, a letter past the table and letter 0. Each case prints its
# exception type once per call.
MALFORMED_PROBE = """
import importlib.util, sys
from disksurgery._kernels import pyops as kernels
if sys.argv[1:]:
    spec = importlib.util.spec_from_file_location("_core", sys.argv[1])
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
table = ((1, 2), (-2, -1), (2,), (-2,))
cases = [((1, 2), None), ((1, 2), 7),
         ((1, 2), ((1, 2), (-2, -1), 2, (-2,))), ((1, -1), ((1, 2), None)),
         ((1, 3), table), ((1, -3), table), ((1, 2), table[:2]), ((1, 0), table), ((0,), ())]
for letters, images in cases:
    for call in (lambda: kernels.apply_images(letters, images),
                 lambda: kernels.apply_images_canonical(letters, images),
                 lambda: kernels.apply_images_canonical(letters, images, 0),
                 lambda: kernels.apply_images_canonical(letters, images, 9)):
        try:
            call()
            print("returned")
        except Exception as exc:
            print(type(exc).__name__)
"""


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_malformed_tables_same_error(backend, request):
    assert run_probe(MALFORMED_PROBE, backend, request) == \
        ["TypeError"] * 4 * 4 + ["ValueError"] * 4 * 5
