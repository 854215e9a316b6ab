"""`python -m msulab ...` runs the msulab command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
