"""Locate the ldlab sources of the checkout the benchmark runs in.

The benchmark measures the code next to it, never an installed copy:
`require_ldlab` puts `<checkout>/src` first on `sys.path` and fails when
the sources are missing or another `ldlab` would be imported instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_ldlab() -> None:
    """Import ldlab from `<checkout>/src`, or exit with status 1."""
    package = SRC / "ldlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ldlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ldlab
    if Path(ldlab.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported ldlab from {ldlab.__file__}, "
                         f"not from {package}")
