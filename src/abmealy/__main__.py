"""`python -m abmealy ...`: the abmealy command line tool."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
