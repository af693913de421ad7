"""Command line entry point: ``python -m diracgap <subcommand>``."""

import sys

from .expcli import main

if __name__ == "__main__":
    sys.exit(main())
