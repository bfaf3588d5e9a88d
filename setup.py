"""Package metadata and the ``repro-rm`` command-line entry point.

Install with ``pip install .`` (or ``pip install -e .`` for development).
The library has no required runtime dependencies; numpy is picked up when
present.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).resolve().parent / "src" / "repro" / "version.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _VERSION_FILE.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "Energy-efficient runtime resource management for adaptable "
        "multi-application mapping (MMKP-MDF runtime manager)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    entry_points={"console_scripts": ["repro-rm=repro.cli:main"]},
)
