"""Entry point for ``python -m repro``."""

import sys

from repro.cli import main

__all__ = ["main"]

if __name__ == "__main__":
    sys.exit(main())
