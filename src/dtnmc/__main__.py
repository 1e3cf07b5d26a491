"""`python -m dtnmc`: the same command line as the `dtnmc` script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
