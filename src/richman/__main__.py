"""``python -m richman``: the same command line as the ``richman`` script."""

from .cli import run

if __name__ == "__main__":
    run()
