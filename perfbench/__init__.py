"""Wall-clock benchmark of the Know Your Phish reproduction.

One command (``python3 perfbench/run.py``) builds a synthetic world from
a seed, runs one of three workloads (``scan``, ``verify``, ``serve``)
through the public API of :mod:`repro`, checks every output against an
offline reference and prints end-to-end metrics (``--trace 0``) or
per-layer metrics (``--trace 1``).  Layers are measured from outside:
the benchmark wraps the methods of the objects it builds and hands to
the program, and changes nothing under ``src/``.
"""
