"""Setuptools metadata for the ``repro`` package (the only build file).

``pip install -e . --no-use-pep517`` (and plain ``python setup.py develop``)
install it even in offline environments that lack the ``wheel`` package
required by PEP 517 editable builds.  Running from a checkout needs no
install at all: set ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=("Reproduction of 'Operating System Support for Mobile Agents' "
                 "(TACOMA, HotOS 1995)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy", "networkx"],
)
