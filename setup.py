"""Legacy setup shim: the offline environment lacks the `wheel` package, so
`pip install -e .` must go through setuptools' classic develop path."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'With Shared Microexponents, A Little Shifting "
        "Goes a Long Way' (ISCA 2023): the BDR framework and MX formats"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # the compiled pow2 kernel's source; without it the numpy body runs
    package_data={"repro.kernels": ["pow2_nearest.c"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
