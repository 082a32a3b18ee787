"""Packaging for the DATE 2015 thermal-aware ONoC design reproduction."""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).parent


def read_version() -> str:
    """Extract ``__version__`` from the package without importing it."""
    init_text = (HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__\s*=\s*"([^"]+)"', init_text, re.MULTILINE)
    if match is None:
        raise RuntimeError("__version__ not found in src/repro/__init__.py")
    return match.group(1)


def read_long_description() -> str:
    readme = HERE / "README.md"
    return readme.read_text(encoding="utf-8") if readme.exists() else ""


setup(
    name="repro-vcsel-onoc-thermal",
    version=read_version(),
    description=(
        "Reproduction of Li et al., 'Thermal Aware Design Method for "
        "VCSEL-based On-Chip Optical Interconnect' (DATE 2015)"
    ),
    long_description=read_long_description(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    packages=find_packages(where="src"),
    package_dir={"": "src"},
    python_requires=">=3.9",
    install_requires=[
        "numpy>=1.22",
        "scipy>=1.8",
    ],
    extras_require={
        "test": ["pytest>=7.0", "pytest-benchmark>=4.0", "hypothesis"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Physics",
    ],
)
