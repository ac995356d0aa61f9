"""`python -m aba`: the `aba` command line."""

import sys

from .cli import main

sys.exit(main())
