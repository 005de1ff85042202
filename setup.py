"""Packaging for the repro distribution (kept as plain setup.py so offline
editable installs work without wheel/pyproject tooling)."""

import pathlib
import re

from setuptools import find_packages, setup

ROOT = pathlib.Path(__file__).resolve().parent
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (ROOT / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)
README = ROOT / "README.md"

setup(
    name="repro-polychrony",
    version=VERSION,
    description=(
        "Python reproduction of 'Polychrony for refinement-based design' "
        "(DATE 2003): SIGNAL, clock calculus, simulation, Sigali-style "
        "verification, SpecC translation, GALS architectures"
    ),
    long_description=README.read_text(encoding="utf-8") if README.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=[],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Electronic Design Automation (EDA)",
        "Topic :: Software Development :: Embedded Systems",
    ],
    keywords="signal polychrony synchronous-languages model-checking bdd controller-synthesis",
)
