from setuptools import Extension, setup

# The compiled kernel core is optional: when it cannot be built, the pure
# backend serves instead.
setup(ext_modules=[Extension("disksurgery._kernels._core",
                             ["src/disksurgery/_kernels/_core.c"], optional=True)])
