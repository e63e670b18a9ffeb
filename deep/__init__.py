"""The deep tier, run as PYTHONPATH=src python3 -m pytest deep -q."""
