"""Package metadata.

This file is the project's only packaging metadata (there is no
``pyproject.toml``).  The sources live under ``src/``; running from a
checkout needs no install at all (``PYTHONPATH=src``), and
``python setup.py develop`` gives an editable install on environments
without the ``wheel`` package or network access.
"""

from setuptools import find_packages, setup

if __name__ == "__main__":
    setup(
        name="repro",
        package_dir={"": "src"},
        packages=find_packages("src"),
        python_requires=">=3.10",
        install_requires=["numpy>=2.0"],
    )
