"""Kernel backend selection.

The hot inner loops exist twice: a hand-written C extension ``_core``,
which ``setup.py`` builds from ``_core.c`` when a C compiler is present,
and the pure-Python reference ``pyops``. Both export the same kernels:

* ``free_reduce``, ``cyclic_reduce`` and ``canonical_cyclic`` (cyclic
  reduction, then the least rotation);
* ``least_rotation`` alone, for words already cyclically reduced;
* ``apply_images(letters, images)``, Whitehead substitution by an image
  table, freely reduced: ``images[letter_key(a)]`` is the image of ``a``,
  as in the tables ``primitivity`` builds where it applies a Whitehead
  automorphism;
* ``apply_images_canonical(letters, images, max_len=None)``, the same in
  canonical cyclic form, or ``None`` without any rotation when the cyclic
  reduction is longer than ``max_len``.

In ``pyops`` the least rotation of a word of at least ``_BYTE_MIN`` (48)
letters is found by byte searches: each letter becomes its key byte in
C, and only the starts of the longest runs of the least key are
compared, as byte slices. Past ``_RUN_CANDIDATES`` (8) such starts, or
for a letter outside -128..127, the two-pointer scan that shorter words
take runs instead. Either way the result is the same.

At import time the backend named by ``DISKSURGERY_KERNEL`` (``pure`` or
``compiled``) is loaded through :func:`load_backend`; forcing ``compiled``
raises an ``ImportError`` that names the variable and the build command
if the extension was not built. Unset or empty, the compiled core
is loaded when built and ``pyops`` otherwise.
"""

import os

from . import pyops

_ENV_VAR = "DISKSURGERY_KERNEL"
_BACKENDS = ("pure", "compiled")


def _select():
    choice = os.environ.get(_ENV_VAR, "").strip().lower()
    if choice and choice not in _BACKENDS:
        raise ValueError(f"{_ENV_VAR}={choice!r}: expected one of {_BACKENDS}")
    try:
        return load_backend(choice or "compiled")
    except ImportError as exc:
        if choice:
            raise ImportError(
                f"{_ENV_VAR}=compiled, but the compiled core disksurgery._kernels._core"
                " cannot be imported; build it with `python setup.py build_ext --inplace`"
                f", or unset {_ENV_VAR} to use the pure-Python kernels") from exc
    return pyops


def load_backend(name):
    """Return the named kernel module (``pure`` or ``compiled``)."""
    if name == "pure":
        return pyops
    if name == "compiled":
        from . import _core

        return _core
    raise ValueError(f"unknown kernel backend {name!r}")


def available_backends():
    try:
        load_backend("compiled")
    except ImportError:
        return ["pure"]
    return ["pure", "compiled"]


_impl = _select()

BACKEND = _impl.BACKEND
letter_key = pyops.letter_key
free_reduce = _impl.free_reduce
cyclic_reduce = _impl.cyclic_reduce
canonical_cyclic = _impl.canonical_cyclic
least_rotation = _impl.least_rotation
apply_images = _impl.apply_images
apply_images_canonical = _impl.apply_images_canonical
