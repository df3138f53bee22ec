"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/ledger/run.py``.

Puts the repository root and ``src`` on ``sys.path`` (the driver sets no
``PYTHONPATH``) and hands over to :mod:`benchmarks.ledger.cli`.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

if __name__ == "__main__":
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.ledger.cli import main

    raise SystemExit(main())
