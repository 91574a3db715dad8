"""Package metadata for the VDTuner reproduction.

The project targets offline environments, so the dependency list is kept to
the scientific-python floor (``numpy``/``scipy``); everything else — the VDMS
substrate, the BO machinery, the serving front-end — is implemented in-repo.
Install with ``pip install -e .`` and drive the CLI through the ``repro-tune``
console script (equivalent to ``python -m repro.cli``).
"""

import os

from setuptools import find_packages, setup


def _readme() -> str:
    if os.path.exists("README.md"):
        with open("README.md", encoding="utf-8") as handle:
            return handle.read()
    return ""


setup(
    name="vdtuner-repro",
    version="1.2.0",
    description=(
        "Reproduction of VDTuner (ICDE 2024): multi-objective Bayesian "
        "optimization for vector data management systems, with batch "
        "suggestions and online continuous tuning under workload drift"
    ),
    long_description=_readme(),
    long_description_content_type="text/markdown",
    author="VDTuner reproduction authors",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=[
        "numpy>=1.22",
        "scipy>=1.8",
    ],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-cov"],
    },
    entry_points={
        "console_scripts": [
            "repro-tune=repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Database",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
    ],
)
