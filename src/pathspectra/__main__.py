"""`python -m pathspectra`: the `pathspectra` command."""
from .cli import main

raise SystemExit(main())
