import re
from pathlib import Path

from setuptools import find_packages, setup

# Read, not imported: importing repro needs numpy, which pip may not
# have installed yet when it asks for the version.
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro-sim=repro.cli:main"]},
)
