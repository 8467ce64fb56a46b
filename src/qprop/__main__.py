"""``python -m qprop``: the process entry is qprop.cli.run."""
from qprop.cli import run

if __name__ == "__main__":
    run()
