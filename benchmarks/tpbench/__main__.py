"""``python -m benchmarks.tpbench`` — same command line as ``run.py``."""

import sys

from .run import main

sys.exit(main())
