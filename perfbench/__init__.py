"""End-to-end and per-layer benchmark for the dualtsst package.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
