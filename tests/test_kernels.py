"""Cross-checks the pure and compiled kernel backends against each other."""

import itertools
import os
import subprocess
import sys
from array import array
from functools import partial
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from disksurgery._kernels import available_backends, load_backend
from disksurgery.primitivity import enumerate_whitehead_autos
from helpers import (
    SOURCE_ROOT, child_env, christoffel, first_kind_generators, image_table, limit_cpu_and_memory,
)

pure = load_backend("pure")

# Only the child-interpreter tests need the core built in place; the
# others build their own copy with the `compiled` fixture (conftest.py).
needs_compiled = pytest.mark.skipif(
    "compiled" not in available_backends(), reason="compiled kernel core not built in place")

letters = st.lists(st.integers(min_value=-4, max_value=4).filter(bool), max_size=80)


def brute_least_start(w):
    """First start of a least rotation, found by comparing every rotation."""
    keys = [pure.letter_key(a) for a in w]
    return min(range(len(keys)), key=lambda i: keys[i:] + keys[:i], default=0)


def brute_least_rotation(w):
    w = tuple(w)
    start = brute_least_start(w)
    return w[start:] + w[:start]


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


def scan_rotation(w):
    """The rotation the scan alone picks, holding w's own letter objects."""
    w = tuple(w)
    start = pure._least_start(w)
    return w[start:] + w[:start]


def assert_byte_path_agrees(w):
    """The byte path, called directly at any length, gives the scan's
    start, which is the first start of a least rotation, or ``None``."""
    w = tuple(w)
    start = pure._byte_start(w)
    assert start is None or start == pure._least_start(w) == brute_least_start(w), w
    return start


def signed(w, s1, s2):
    return tuple(s1 * a if a == 1 else s2 * a for a in w)


class TestBytePath:
    """The pure kernels' byte path ``_byte_start``, which ``least_rotation``
    and ``apply_images_canonical`` try first on words of ``_BYTE_MIN``
    letters or more, against the scan and the brute-force rotation."""

    def test_every_word_up_to_length_8(self):
        # At most 8 runs fit, so the byte path never falls back here; CI
        # runs lengths 9 and 10 against the scan.
        for n in range(1, 9):
            for w in itertools.product((1, -1, 2, -2), repeat=n):
                assert assert_byte_path_agrees(w) is not None

    @given(st.integers(min_value=2, max_value=4).flatmap(lambda rank: st.lists(
        st.integers(min_value=-rank, max_value=rank).filter(bool), min_size=1, max_size=400)))
    def test_random_words(self, w):
        assert_byte_path_agrees(w)
        assert pure.least_rotation(w) == brute_least_rotation(w)

    @pytest.mark.parametrize("p", range(1, 13))
    def test_christoffel_words(self, p):
        for q in range(1, 13):
            word = christoffel(p, q)
            for m in (1, 2, 3):
                for s1, s2 in itertools.product((1, -1), repeat=2):
                    w = signed(word * m, s1, s2)
                    for r in range(len(word)):
                        assert_byte_path_agrees(w[r:] + w[:r])
                    assert pure.least_rotation(w) == brute_least_rotation(w)
            if gcd(p, q) == 1:
                assert brute_least_rotation(word) == word

    @pytest.mark.parametrize("runs", range(1, 13))
    def test_more_than_8_longest_runs_fall_back(self, runs):
        # `runs` starts of x1^2, one of them across the end of the word.
        w = (1,) + (2, 1, 1) * (runs - 1) + (2, 1, 2) * 20 + (2, 1)
        start = assert_byte_path_agrees(w)
        assert (start is None) == (runs > 8)
        assert pure.least_rotation(w) == brute_least_rotation(w)

    @pytest.mark.parametrize("letter,fits", [
        (127, True), (-127, True), (-128, True), (0, True), (True, True),
        (128, False), (-129, False), (2**70, False), (-2**70, False), (1.0, False),
    ])
    def test_letter_range(self, letter, fits, rng):
        # Ints from -128 to 127, bools among them, take the byte path;
        # anything else falls back. least_rotation returns the scan's
        # rotation in either case, the input's own objects included.
        for _ in range(20):
            # One x1^3 and no other x1, so that few runs tie.
            w = [1, 1, 1] + [rng.choice((-1, 2, -2, 127, -127, -128)) for _ in range(57)]
            for i in rng.sample(range(60), rng.randint(1, 4)):
                w[i] = letter
            assert (assert_byte_path_agrees(w) is not None) == fits
            got = pure.least_rotation(w)
            want = scan_rotation(w)
            assert got == want and list(map(type, got)) == list(map(type, want))
            assert pure.canonical_cyclic(w) == scan_rotation(pure.cyclic_reduce(w))

    def test_bool_image_letters_kept(self):
        # The pure table kernels return a bool image letter as it is; the
        # byte path must not turn it into an int.
        images = ((True,), (-1,), (2,), (-2,))
        letters = (1, 2, 1, 2, 2) * 12
        got = pure.apply_images_canonical(letters, images)
        want = scan_rotation(pure.apply_images(letters, images))
        assert got == want and list(map(type, got)) == list(map(type, want))
        assert bool in set(map(type, got))

    def test_long_words_take_the_byte_path(self, monkeypatch):
        def refuse(w):
            raise AssertionError(f"scan called on {len(w)} letters")

        # Cyclically reduced, with 7 starts of x1^2.
        w = ((1, 1, 2, -3, 2, 2, 3) * 7)[:pure._BYTE_MIN]
        images = ((1,), (-1,), (2,), (-2,), (3,), (-3,))
        want = brute_least_rotation(w)
        monkeypatch.setattr(pure, "_least_start", refuse)
        assert pure.least_rotation(w) == want
        assert pure.canonical_cyclic(w) == brute_least_rotation(pure.cyclic_reduce(w))
        assert pure.apply_images_canonical(w, images) == pure.canonical_cyclic(w)
        monkeypatch.undo()
        monkeypatch.setattr(pure, "_byte_start", refuse)
        short = w[:-1]
        assert pure.least_rotation(short) == brute_least_rotation(short)
        assert pure.apply_images_canonical(short, images) == pure.canonical_cyclic(short)


# Four 200,000-letter words, each its own least rotation, on the pure
# backend. On the first, second and fourth the byte path meets more than
# _RUN_CANDIDATES starts and the scan runs; on the third it compares one.
# Comparing every run start would take 100,000 slices of 200,001 bytes.
LONG_WORDS_PROBE = """
import disksurgery
from disksurgery._kernels import least_rotation
from helpers import christoffel
assert disksurgery.KERNEL_BACKEND == "pure"
for w in ((1, 2) * 100000 + (2,), christoffel(123457, 76543), (1,) * 199999 + (2,),
          (1, 1, 1, 2) * 50000 + (1, 1, 2)):
    assert least_rotation(w) == w
print("ok")
"""


def test_long_words_under_a_cpu_limit():
    env = child_env("pure")
    env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).parent), env["PYTHONPATH"]])
    out = subprocess.run(
        [sys.executable, "-c", LONG_WORDS_PROBE], capture_output=True, text=True, env=env,
        preexec_fn=partial(limit_cpu_and_memory, 2), timeout=60,
    )
    assert (out.returncode, out.stdout) == (0, "ok\n"), out.stderr


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
