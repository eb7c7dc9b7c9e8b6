import gc

from .cli import main


def entry() -> int:
    """The process entry of ``python -m convexmix`` and the ``convexmix`` script.

    Freezes the heap left by the imports, numpy's included, so that no later
    collection walks it, the one at interpreter exit included; the command's
    own garbage is still collected.  In-process callers of ``cli.main`` leave
    the collector alone.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(entry())
