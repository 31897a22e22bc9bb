"""``python -m gegenlab``: the ``gegenlab`` command without installing it."""
from .cli import console_main

if __name__ == "__main__":
    console_main()
