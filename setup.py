"""Packaging for the ``repro`` library (``src/`` layout).

All project metadata lives here; there is no ``pyproject.toml``.
``pip install -e .`` installs ``repro`` in development mode (pip builds
it with setuptools and ``wheel``).  Where ``wheel`` is unavailable, as in
some offline environments, ``python setup.py develop`` installs the same
development link.  The version is read from ``src/repro/__init__.py`` so
it is declared once.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Differentially private histograms made accurate through consistency "
        "(Hay, Rastogi, Miklau & Suciu, PVLDB 2010)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
)
