"""End-to-end and per-layer host benchmark of the repro package.

Run ``python -m benchmarks.e2e --help`` from the repository root; see
``README.md`` in this directory.
"""
