"""`python -m finhilb`: the `finhilb` command line."""

from .cli import main

if __name__ == "__main__":
    main()
