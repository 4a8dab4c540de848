"""Package metadata for the ``repro`` package under ``src/``.

This is the project's only packaging file.  Nothing needs installing to run
the code or the tests (``PYTHONPATH=src`` is enough); ``pip install -e .`` or
``python setup.py develop`` puts ``repro`` on the path for other projects.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "DejaVuzz reproduction: transient-execution bug fuzzing with dynamic "
        "swappable memory and differential information flow tracking"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
)
