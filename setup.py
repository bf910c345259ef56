"""Package metadata for the HITSnDIFFs reproduction.

The single source of installation truth: CI and local installs both run
``pip install -e ".[test]"``, so the runtime requirements and the test
extras below cannot drift from what the workflow actually exercises.
Kept as ``setup.py`` (rather than ``pyproject.toml``) so editable installs
work in offline environments whose setuptools lacks the ``wheel`` package
required by the PEP 660 editable-install path
(``pip install -e . --no-use-pep517``).
"""

from setuptools import find_packages, setup

setup(
    name="repro-hitsndiffs",
    version="1.0.0",
    description=(
        "Reproduction of 'HITSnDIFFs: From Truth Discovery to Ability "
        "Discovery by Recovering Matrices with the Consecutive Ones "
        "Property' (ICDE 2024)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy",
        "scipy",
    ],
    extras_require={
        "test": [
            "pytest",
            "pytest-cov",
            "pytest-benchmark",
            "hypothesis",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro-experiments = repro.cli:main",
        ],
    },
)
