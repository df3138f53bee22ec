"""``python -m benchmarks.ledger`` (from the repository root)."""

from benchmarks.ledger.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
