"""``python -m oneshot_fl``: the ``oneshot-fl`` command without installing it."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
