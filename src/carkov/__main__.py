"""``python -m carkov``: the ``carkov`` command line."""

import sys

from .cli import main

sys.exit(main())
