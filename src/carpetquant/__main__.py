"""Entry point for ``python -m carpetquant``."""

import sys

from .cli import main

sys.exit(main())
