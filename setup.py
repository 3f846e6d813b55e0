"""Setup script: the package metadata, and the only metadata file.

The pinned offline environment ships setuptools 65 without the ``wheel``
package, so PEP 660 editable wheels cannot be built.  ``pip install -e .``
therefore falls back to the legacy ``setup.py develop`` path, which works
offline and reads everything from here.  ``python setup.py --name
--version`` prints the distribution name and the package's version.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

SRC = Path(__file__).resolve().parent / "src"


def _version() -> str:
    """``repro.__version__``, read from its file without importing the package."""
    text = (SRC / "repro" / "_version.py").read_text(encoding="utf-8")
    return re.search(r'^__version__ = "([^"]+)"', text, re.MULTILINE).group(1)


setup(
    name="repro",
    version=_version(),
    description="Ad-hoc distributed spatial joins on mobile devices: a reproduction",
    package_dir={"": "src"},
    packages=find_packages(str(SRC)),
    install_requires=["numpy"],
)
