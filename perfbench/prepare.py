"""Set-up shared by the benchmark process and its set-up probes.

The benchmark drives pcnmf as a black box built from this checkout's own
``src`` tree. BLAS is pinned to one thread before numpy is first imported,
so forked pool workers inherit the setting, and a pcnmf imported from
anywhere else is refused.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


class SetupError(RuntimeError):
    """The benchmark cannot run in this process or checkout."""


def pin_blas() -> None:
    if "numpy" in sys.modules:
        raise SetupError("numpy was imported before BLAS threads were pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import pcnmf from the checkout's src tree and return its cli module."""
    package = SRC / "pcnmf"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no pcnmf sources at {package}")
    sys.path.insert(0, str(SRC))
    import pcnmf.cli

    if Path(pcnmf.cli.__file__).resolve().parent != package.resolve():
        raise SetupError(f"pcnmf was imported from {pcnmf.cli.__file__}, not {package}")
    return pcnmf.cli


def parse_configs(argv: list[str]) -> list:
    """Parse one CLI op's arguments and config files as the CLI does."""
    from pcnmf.bench import ExperimentConfig
    from pcnmf.cli import build_parser
    from pcnmf.simulate import ScenarioConfig
    from pcnmf.solver import SolverConfig

    args = build_parser().parse_args(argv)
    with open(args.config) as fh:
        overrides = json.load(fh)
    if args.command == "benchmark":
        return [ExperimentConfig.from_dict(overrides)]
    if args.command == "simulate":
        return [ScenarioConfig(**{**ScenarioConfig().to_dict(), **overrides})]
    return [SolverConfig(**overrides)]
