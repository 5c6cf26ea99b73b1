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

The compiled core is picked at import time when built; set
``DISKSURGERY_KERNEL=pure`` or ``=compiled`` to force a backend (forcing
``compiled`` raises if the extension was not built).
"""

import os

from . import pyops

_ENV_VAR = "DISKSURGERY_KERNEL"
_BACKENDS = ("pure", "compiled")


def _load_compiled():
    from . import _core

    return _core


def _select():
    choice = os.environ.get(_ENV_VAR, "").strip().lower()
    if choice == "":
        try:
            return _load_compiled()
        except ImportError:
            return pyops
    if choice not in _BACKENDS:
        raise ValueError(f"{_ENV_VAR}={choice!r}: expected one of {_BACKENDS}")
    return load_backend(choice)


def load_backend(name):
    """Return the named kernel module (``pure`` or ``compiled``)."""
    if name == "pure":
        return pyops
    if name == "compiled":
        return _load_compiled()
    raise ValueError(f"unknown kernel backend {name!r}")


def available_backends():
    names = ["pure"]
    try:
        _load_compiled()
        names.append("compiled")
    except ImportError:
        pass
    return names


_impl = _select()

BACKEND = _impl.BACKEND
letter_key = pyops.letter_key
free_reduce = _impl.free_reduce
cyclic_reduce = _impl.cyclic_reduce
canonical_cyclic = _impl.canonical_cyclic
least_rotation = _impl.least_rotation
apply_images = _impl.apply_images
apply_images_canonical = _impl.apply_images_canonical
