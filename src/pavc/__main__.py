"""`python -m pavc`: the pavc command line, from an installed package or
from a checkout with src on PYTHONPATH."""

from .cli import main

raise SystemExit(main())
