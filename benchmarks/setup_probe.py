"""One cold start as a `raptorkit` run pays it: interpreter start, imports,
the J-table build and loading the workload's input.

    python3 benchmarks/setup_probe.py PACKAGE_DIR INPUT SIGMA

PACKAGE_DIR holds the raptorkit to import (the checkout's src/ or the
frozen baseline/); INPUT is a design config (.ini) or a degree
distribution.  run.py measures this process from outside; it prints
nothing.
"""

import sys
from pathlib import Path

package_dir, path, sigma = Path(sys.argv[1]).resolve(), Path(sys.argv[2]), float(sys.argv[3])
sys.path.insert(0, str(package_dir))

import raptorkit  # noqa: E402

if package_dir not in Path(raptorkit.__file__).resolve().parents:
    sys.exit(f"raptorkit was imported from {raptorkit.__file__}, not from {package_dir}")

from raptorkit import cli, degrees, jfunction  # noqa: E402

if path.suffix == ".ini":
    cli._load_ini(path)
else:
    degrees.read_distribution(path)
jfunction.channel_from_sigma(sigma)
