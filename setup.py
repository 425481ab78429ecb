"""Package metadata for the Q-Graph reproduction (``repro``, under ``src/``).

Install in editable mode with ``pip install -e .``.  pip's PEP 660 editable
install needs the ``wheel`` package; where it is absent and cannot be
fetched, the legacy path works offline::

    python setup.py develop
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Q-Graph: preserving query locality in multi-query graph processing",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
)
