"""Legacy setup shim; all metadata lives in pyproject.toml.

With network access (or ``wheel`` installed), ``pip install -e .``
is the normal install.  Offline, without ``wheel``, pip's PEP 517 path
and its ``--no-use-pep517`` fallback both refuse to build; this shim
keeps ``python setup.py develop`` working instead, which installs the
package in development mode and a ``repro`` console script.
"""

from setuptools import setup

setup()
