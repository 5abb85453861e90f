"""`python -m symdisc`: the command-line surface of symdisc.cli."""

import sys

from .cli import main

sys.exit(main())
