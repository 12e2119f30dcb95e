"""``python -m symsense <command>``: the same entry point as the ``symsense`` script."""

import sys

from symsense.cli import main

sys.exit(main())
