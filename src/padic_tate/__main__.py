"""``python -m padic_tate``: the padic-tate command line."""
from .cli import main

raise SystemExit(main())
