"""``python -m opspectra``: the same command line as the ``opspectra`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
