"""`python -m ektau`: the command line of `ektau.harness`."""

from .harness import main

if __name__ == "__main__":
    main()
